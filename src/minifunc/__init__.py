"""minifunc: minimax-rate estimation of additive functionals sum_i phi(p_i)."""

from .errors import (
    ConfigurationError,
    FunctionalDomainError,
    InputFormatError,
    MinifuncError,
    NumericalError,
    SupportError,
)
from .functionals import (
    DivergenceSpeedReport,
    Functional,
    ProbabilityVector,
    additive_functional,
    bias_corrected_fn,
    check_divergence_speed,
    custom_functional,
    power_functional,
    range_on_interval,
    shannon_functional,
    truncated_deriv,
    truncated_eval,
)
from .polyapprox import (
    ApproxResult,
    Polynomial,
    remez_best_approx,
)
from .estimators import (
    CompositeResult,
    ConfigViolation,
    EstimatorConfig,
    Histogram,
    SplitHistograms,
    composite_estimate,
    corrected_plugin_estimate,
    default_config,
    default_correction_order,
    plain_plugin_estimate,
    recommended_estimator,
    sample_histogram,
    split_samples,
    tuned_config,
    validate_config,
)
from .risklab import (
    DistributionSpec,
    RiskReport,
    SweepResult,
    SweepRow,
    monte_carlo_risk,
    parse_k_rule,
    rate_sweep,
    theoretical_rate,
)
from .lowerbounds import (
    CompositeBoundResult,
    MeasurePair,
    PoissonMixtureTV,
    TwoPointPair,
    canonical_two_point_pair,
    composite_lower_bound,
    divergence,
    fitted_bound_constants,
    hellinger_le_cam_bound,
    hoelder_norm,
    le_cam_bound,
    moment_matched_pair,
    poisson_mixture_tv,
    tilted_pair,
    two_point_pair,
)

__version__ = "0.1.0"
