"""minifunc: minimax-rate estimation of additive functionals sum_i phi(p_i).

Every public name but the exceptions loads its module on first use (PEP
562), so `import minifunc` loads no numpy.
"""

import importlib

from . import errors
from .errors import (  # tiny and numpy-free, so loaded at once
    ConfigurationError,
    FunctionalDomainError,
    InputFormatError,
    MinifuncError,
    NumericalError,
    SupportError,
)

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "functionals": (
        "DivergenceSpeedReport", "Functional", "ProbabilityVector", "additive_functional",
        "bias_corrected_fn", "check_divergence_speed", "custom_functional", "power_functional",
        "range_on_interval", "shannon_functional", "truncated_deriv", "truncated_eval",
    ),
    "polyapprox": ("ApproxResult", "Polynomial", "remez_best_approx"),
    "estimators": (
        "CompositeResult", "ConfigViolation", "EstimatorConfig", "Histogram", "SplitHistograms",
        "composite_estimate", "corrected_plugin_estimate", "default_config",
        "default_correction_order", "plain_plugin_estimate", "recommended_estimator",
        "sample_histogram", "split_samples", "tuned_config", "validate_config",
    ),
    "risklab": (
        "DistributionSpec", "RiskReport", "SweepResult", "SweepRow", "monte_carlo_risk",
        "parse_k_rule", "rate_sweep", "theoretical_rate",
    ),
    "lowerbounds": (
        "CompositeBoundResult", "MeasurePair", "PoissonMixtureTV", "TwoPointPair",
        "canonical_two_point_pair", "composite_lower_bound", "divergence",
        "fitted_bound_constants", "hellinger_le_cam_bound", "hoelder_norm", "le_cam_bound",
        "moment_matched_pair", "poisson_mixture_tv", "tilted_pair", "two_point_pair",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*errors.__all__, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
