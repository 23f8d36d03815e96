"""Sampling models, sample splitting, and the composite threshold estimator.

The pipeline: draw a histogram (multinomial or poissonized), thin it into
an estimation half and a selector half, then estimate each symbol's
phi(p_i) with the bias-corrected plugin when the selector count clears
2*C2*ln(n) and with the unbiased best-polynomial transform otherwise.
That per-count rule is one object, _CompositeRule, built once per
(phi, constants, n) by _composite_rule; a symbol's term depends on its two
split counts and the rule alone.  Degree and threshold both scale with
ln(n), so the constants C1, C2 carry all the tuning freedom;
validate_config reports which admissibility inequalities a choice
violates, as data rather than as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .functionals import Functional, as_prob_array, bias_corrected_fn, range_on_interval
from .polyapprox import ApproxResult, remez_best_approx

__all__ = [
    "Histogram",
    "SplitHistograms",
    "EstimatorConfig",
    "ConfigViolation",
    "validate_config",
    "default_config",
    "tuned_config",
    "default_correction_order",
    "recommended_estimator",
    "sample_histogram",
    "split_samples",
    "CompositeResult",
    "composite_estimate",
    "corrected_plugin_estimate",
    "plain_plugin_estimate",
    "ESTIMATORS",
    "run_estimator",
]

_MODELS = ("multinomial", "poissonized")


@dataclass(frozen=True)
class Histogram:
    """Symbol counts N_1..N_k with their nominal sample size and model.

    multinomial counts must sum to n_nominal; poissonized counts are
    unconstrained (each is Poisson with mean n_nominal * p_i), so their
    rate scale n_nominal may be fractional, as for a split half.
    """

    counts: np.ndarray
    n_nominal: int | float
    model: str = "multinomial"

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ConfigurationError("histogram counts must be a non-empty 1-d array")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(np.asarray(counts, dtype=float))
            if not np.array_equal(rounded, np.asarray(counts, dtype=float)):
                raise ConfigurationError("histogram counts must be integers")
            # int64 holds exactly the floats below 2**63 in magnitude
            if not (np.abs(rounded) < 2.0**63).all():
                raise ConfigurationError("histogram counts must be non-negative and below 2**63")
            counts = rounded.astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise ConfigurationError("histogram counts must be non-negative")
        if self.model not in _MODELS:
            raise ConfigurationError(
                f"model must be one of {_MODELS}, got {self.model!r}"
            )
        if not 0 <= self.n_nominal < math.inf:
            raise ConfigurationError(f"n_nominal must be non-negative and finite, got {self.n_nominal!r}")
        if self.model == "multinomial" and int(counts.sum()) != self.n_nominal:
            raise ConfigurationError(
                f"multinomial counts sum to {int(counts.sum())}, expected {self.n_nominal}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class SplitHistograms:
    """Estimation half and selector half of one thinned histogram.

    n_effective is the per-half sample-size scale: splitting a histogram
    drawn at nominal size 2n leaves each half at Poisson rate n*p_i, so
    every downstream quantity (degree, threshold, truncation) uses
    n_effective, not the pre-split total.
    """

    est: Histogram
    sel: Histogram
    n_effective: float

    def __post_init__(self):
        if self.est.k != self.sel.k:
            raise ConfigurationError("split halves must share the same alphabet size")
        if not 0 <= self.n_effective < math.inf:
            raise ConfigurationError(f"n_effective must be non-negative and finite, got {self.n_effective!r}")

    @property
    def k(self) -> int:
        return self.est.k


@dataclass(frozen=True)
class EstimatorConfig:
    """Constants C1, C2 plus the correction order and a seed.

    Derived quantities, all functions of the per-half sample size n:
    degree L = floor(C1 ln n), expected-count threshold scale
    delta_nk = C2 ln n, truncation point delta = delta_nk / n, and the
    polynomial-approximation interval [0, min(4 delta_nk / n, 1)].
    """

    c1: float
    c2: float
    correction_order: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.c1 < math.inf:
            raise ConfigurationError(f"C1 must be positive and finite, got {self.c1!r}")
        if not 0 < self.c2 < math.inf:
            raise ConfigurationError(f"C2 must be positive and finite, got {self.c2!r}")
        if self.correction_order not in (2, 4):
            raise ConfigurationError(
                f"correction_order must be 2 or 4, got {self.correction_order!r}"
            )

    def degree(self, n: float) -> int:
        return int(math.floor(self.c1 * math.log(n))) if n > 1 else 0

    def delta_nk(self, n: float) -> float:
        return self.c2 * math.log(n) if n > 1 else 0.0

    def count_threshold(self, n: float) -> float:
        return 2.0 * self.delta_nk(n)

    def delta(self, n: float) -> float:
        return self.delta_nk(n) / n if n > 1 else 0.0

    def poly_interval(self, n: float) -> tuple[float, float]:
        return (0.0, min(4.0 * self.delta_nk(n) / n, 1.0)) if n > 1 else (0.0, 1.0)


@dataclass(frozen=True)
class ConfigViolation:
    condition: str
    lhs: float
    rhs: float

    def __str__(self) -> str:
        return f"{self.condition}: {self.lhs:.6g} vs {self.rhs:.6g}"


def validate_config(cfg: EstimatorConfig, alpha: float) -> list[ConfigViolation]:
    """Check the three admissibility inequalities; return violations as data.

    An empty list means the configuration is admissible for this alpha.
    Each violation carries both evaluated sides so callers can print or
    log the margin; nothing is raised here.
    """
    out = []
    if not cfg.c2 > 8.0 * alpha:
        out.append(ConfigViolation("C2 > 8*alpha", cfg.c2, 8.0 * alpha))
    lhs2 = cfg.c2**3 * cfg.c1
    if not lhs2 <= 0.5:
        out.append(ConfigViolation("C2^3*C1 <= 1/2", lhs2, 0.5))
    lhs3 = _condition3_lhs(cfg.c1, cfg.c2)
    if not lhs3 > alpha:
        out.append(
            ConfigViolation("2 - 3*C1*ln2 - 2*sqrt(C1*C2)*ln(2e) > alpha", lhs3, alpha)
        )
    return out


def _condition3_lhs(c1: float, c2: float) -> float:
    return 2.0 - 3.0 * c1 * math.log(2.0) - 2.0 * math.sqrt(c1 * c2) * math.log(2.0 * math.e)


_C1_MARGIN = 0.05


def default_config(alpha: float, rng_seed: int = 0) -> EstimatorConfig:
    """Admissible constants for a given divergence-speed exponent.

    C2 = 8*alpha + 1; C1 is the smaller of 1/(2*C2^3) and the largest
    value keeping the third inequality satisfied with margin 0.05.  That
    value is closed form: in s = sqrt(C1) the third inequality at margin
    0.05 is a*s^2 + b*s = h with a = 3 ln 2, b = 2 sqrt(C2) ln(2e) and
    h = 2 - alpha - 0.05, whose positive root is taken in the
    cancellation-free form s = 2h / (b + sqrt(b^2 + 4ah)).  The result
    always passes validate_config for this alpha.  Raises for alpha
    outside (0, 2 - margin), where no admissible C1 exists.
    """
    if not alpha > 0:
        raise ConfigurationError(f"no admissible constants for alpha={alpha!r} <= 0")
    if not alpha < 2.0 - _C1_MARGIN:
        raise ConfigurationError(
            f"third admissibility inequality cannot hold with margin for alpha={alpha!r}"
        )
    c2 = 8.0 * alpha + 1.0
    head = 2.0 - alpha - _C1_MARGIN
    a = 3.0 * math.log(2.0)
    b = 2.0 * math.sqrt(c2) * math.log(2.0 * math.e)
    s = 2.0 * head / (b + math.sqrt(b * b + 4.0 * a * head))
    c1 = min(1.0 / (2.0 * c2**3), s * s)
    order = default_correction_order(alpha)
    return EstimatorConfig(c1=c1, c2=c2, correction_order=order, rng_seed=rng_seed)


def tuned_config(alpha: float, rng_seed: int = 0) -> EstimatorConfig:
    """Aggressive constants for desk-scale n (roughly 1e3..1e7).

    The admissible constants from default_config are so conservative that
    the polynomial degree floor(C1 ln n) stays 0 until astronomically
    large n, leaving the composite estimator no better than the plugin.
    These constants give degree ~0.9 ln n and a selector threshold
    ~ln n; they violate the admissibility inequalities (validate_config
    reports which), trading the worst-case guarantee for finite-n risk.
    Chosen by a grid sweep of Monte Carlo risk at k = n = 1e4 and spot
    checks across 1e2 <= k, n <= 1e5 for entropy and power sums.
    """
    order = default_correction_order(alpha)
    return EstimatorConfig(c1=0.9, c2=0.5, correction_order=order, rng_seed=rng_seed)


def default_correction_order(alpha: float) -> int:
    """Correction order by exponent: 2 on (0,1], 4 on (1,3/2), else 2."""
    if 1.0 < alpha < 1.5:
        return 4
    return 2


def recommended_estimator(alpha: float) -> str:
    """'composite' for alpha in (0, 3/2), 'plugin' for alpha in [3/2, 2]."""
    if not 0.0 < alpha <= 2.0:
        raise ConfigurationError(
            f"no estimator recommendation for alpha={alpha!r} outside (0, 2]"
        )
    return "composite" if alpha < 1.5 else "plugin"


def sample_histogram(P, n: int, model: str = "multinomial", rng=None) -> Histogram:
    """Draw counts from P: one multinomial draw or independent Poissons."""
    p = as_prob_array(P)
    if n < 0:
        raise ConfigurationError(f"sample size must be non-negative, got {n}")
    if model not in _MODELS:
        raise ConfigurationError(f"model must be one of {_MODELS}, got {model!r}")
    rng = np.random.default_rng(rng)
    if model == "multinomial":
        counts = rng.multinomial(n, p)
    else:
        counts = rng.poisson(n * p)
    return Histogram(counts=counts, n_nominal=int(n), model=model)


def split_samples(h: Histogram, rng=None) -> SplitHistograms:
    """Thin each count Binomial(count, 1/2) into est/sel halves.

    Per-symbol sums are conserved exactly.  Under poissonized input at
    rate 2n*p_i the halves are independent Poisson(n*p_i); either way the
    pair's n_effective is half the input's nominal size.  The halves are
    tagged poissonized because their own totals are random, and carry that
    same rate scale as their n_nominal (6.5 for a 13-sample input).
    """
    rng = np.random.default_rng(rng)
    est_counts = rng.binomial(h.counts, 0.5)
    sel_counts = h.counts - est_counts
    half = h.n_nominal / 2.0
    est = Histogram(counts=est_counts, n_nominal=half, model="poissonized")
    sel = Histogram(counts=sel_counts, n_nominal=half, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=half)


def _fingerprint_sum(counts, branch, values) -> float:
    """The sum over symbols of values[b](count), b the symbol's branch.

    values holds one function of an array of counts per branch; branch is
    each symbol's index into it, or None where every symbol takes
    values[0].  A symbol's term depends only on its key B * count +
    branch, B = len(values), so the sum is the math.fsum of F[key] *
    values[b](count) over the keys present, where F[key] symbols share a
    key; each function sees the distinct counts of its branch, ascending.

    While the largest key is below the number of symbols, F is read off
    the sorted keys by one binary search per key value up to the largest;
    past it the keys are grouped by np.unique, which costs O(k) whatever
    the counts.  The binary searches are quicker where the largest key is
    small: per risk-lab rep, uniform shannon, numpy 2.4 on a 2-core
    AVX-512 Xeon, np.unique alone took 38 against 27 us (plugin) and 65
    against 58 us (composite) at k = n = 1e4, and 256 against 156 us and
    558 against 476 us at k = 92 103, n = 1e4.  (np.bincount would read F
    straight off the keys, but where most counts are 0 its increments of
    F[0] queue up: at k = 92 103, n = 1e4 it took 3.5 times as long as
    the sort.)
    """
    B = len(values)
    # counts are non-negative int64, so as uint64 even 2 * count + 1 fits
    keys = np.sort(counts if branch is None else B * counts.view(np.uint64) + branch)
    top = int(keys[-1])
    if top < keys.size:
        F = np.diff(np.searchsorted(keys, np.arange(top + 2, dtype=keys.dtype)))
        keys = np.flatnonzero(F)
        mult = F[keys]
    else:
        keys, mult = np.unique(keys, return_counts=True)
    counts, branch = np.divmod(keys, B)
    terms = np.empty(keys.size)
    for b, fn in enumerate(values):
        at = branch == b
        terms[at] = fn(counts[at])
    return math.fsum((mult * terms).tolist())


@dataclass(frozen=True)
class CompositeResult:
    """Estimate plus the branch split and any warnings raised on the way.

    run_estimator returns one for every estimator.  The split fields
    (n_effective, degree, threshold, poly_interval) describe the
    composite's construction; the plugins split nothing and leave them
    None.
    """

    estimate: float
    branch_counts: dict
    warnings: tuple
    n_effective: float | None
    degree: int | None
    threshold: float | None
    poly_interval: tuple | None


# read-mostly cache of (best approximation, phi's range as the clamp),
# filled once per (functional, degree, interval)
_PLAN_CACHE: dict = {}


@dataclass(frozen=True)
class _CompositeRule:
    """The composite's per-count rule at one n_eff: a symbol whose selector
    count reaches threshold takes plugin_values of its estimation count,
    any other poly_values.  approx and clamp (the cached best approximation
    on interval, phi's range there) are None where the construction is
    degenerate (degree 0, or delta >= 1) and the plain plugin answers."""

    phi: Functional
    correction_order: int
    n_eff: float
    degree: int
    threshold: float
    delta: float
    interval: tuple
    approx: ApproxResult | None
    clamp: tuple | None

    def branch(self, sel_counts) -> np.ndarray:
        """Each symbol's branch from its selector count: True (1) where the
        count reaches threshold, else False (0).  The symbol's term is
        branch_values[branch] at its estimation count."""
        return sel_counts >= self.threshold

    @property
    def branch_values(self) -> tuple:
        """The value functions of the estimation count, by branch: poly, plugin."""
        return (self.poly_values, self.plugin_values)

    def plugin_values(self, counts) -> np.ndarray:
        """Bias-corrected plugin phi_bar(N / n_eff) at each count N."""
        return bias_corrected_fn(self.phi, self.correction_order, self.delta, self.n_eff, counts / self.n_eff)

    def poly_values(self, counts) -> np.ndarray:
        """Unbiased transform sum_m a_m (N)_m / n_eff^m at each count N, then
        clamped.  Term m carries prod_{j<m} (N-j)/n_eff, so nothing overflows
        even for large N and terms vanish exactly once j reaches N; each
        count's terms are summed by math.fsum."""
        a = self.approx.poly.coeffs
        lo, hi = float(min(self.clamp)), float(max(self.clamp))
        out = []
        for N in counts.tolist():
            terms = [float(a[0])]
            prod = 1.0
            for m in range(1, len(a)):
                prod *= (N - (m - 1)) / self.n_eff
                if prod == 0.0:
                    break
                terms.append(float(a[m]) * prod)
            out.append(min(max(math.fsum(terms), lo), hi))
        return np.array(out, dtype=float)


def _composite_rule(phi: Functional, cfg: EstimatorConfig, n_eff: float) -> _CompositeRule:
    """The composite's rule at n_eff, its plan taken from or put in _PLAN_CACHE."""
    L = cfg.degree(n_eff)
    delta = cfg.delta(n_eff)
    interval = cfg.poly_interval(n_eff)
    plan = (None, None)
    if L > 0 and delta < 1.0:
        key = (phi.cache_key(), L, float(interval[0]), float(interval[1]))
        plan = _PLAN_CACHE.get(key)
        if plan is None:
            plan = remez_best_approx(phi.eval, L, interval), range_on_interval(phi.eval, interval)
            _PLAN_CACHE[key] = plan
    threshold = cfg.count_threshold(n_eff)
    return _CompositeRule(phi, cfg.correction_order, n_eff, L, threshold, delta, interval, *plan)


def composite_estimate(data, phi: Functional, cfg: EstimatorConfig, rng=None) -> CompositeResult:
    """Threshold estimator: plugin where the selector count clears 2*C2*ln n,
    best-poly elsewhere.

    data is a Histogram (split in place, so each half runs at half the
    nominal size) or a pre-split SplitHistograms.  Each symbol's term is
    the value of _composite_rule(phi, cfg, n_eff) at its two split counts.
    At degree 0 (a "polynomial" that ignores the count), or when the
    truncation point would reach 1, the construction is degenerate: before
    any split is drawn, the plain plugin on the unsplit counts is returned
    with a warning.
    """
    if isinstance(data, SplitHistograms):
        n_eff = data.n_effective
    elif isinstance(data, Histogram):
        n_eff = data.n_nominal / 2.0
    else:
        raise ConfigurationError(
            f"composite_estimate needs a Histogram or SplitHistograms, got {type(data).__name__}"
        )
    rule = _composite_rule(phi, cfg, n_eff)
    construction = (n_eff, rule.degree, rule.threshold, rule.interval)

    if rule.approx is None:
        warning = (
            f"degree floor(C1 ln n_effective) = {rule.degree} and truncation point {rule.delta:g} "
            f"at C1={cfg.c1:g}, n_effective={n_eff:g}: the split construction is degenerate "
            "(the admissible constants' guarantee is asymptotic); "
            "falling back to the plain plugin on the unsplit counts"
        )
        if isinstance(data, Histogram):
            value = plain_plugin_estimate(data, phi)
        else:
            value = _plain_plugin(data.est.counts + data.sel.counts, 2.0 * n_eff, phi)
        return CompositeResult(value, {"plugin": data.k, "poly": 0}, (warning,), *construction)

    warnings: list[str] = []
    split = data
    if isinstance(data, Histogram):
        if data.model == "multinomial":
            warnings.append(
                "multinomial input split in place: halves are not independent "
                "Poisson, risk guarantees are approximate"
            )
        split = split_samples(data, rng=np.random.default_rng(cfg.rng_seed) if rng is None else rng)

    if not rule.approx.converged:
        warnings.append(
            f"best-approximation search did not converge at degree {rule.degree}; using last iterate"
        )

    branch = rule.branch(split.sel.counts)
    value = _fingerprint_sum(split.est.counts, branch, rule.branch_values)
    n_plugin = int(branch.sum())
    branches = {"plugin": n_plugin, "poly": split.k - n_plugin}
    return CompositeResult(value, branches, tuple(warnings), *construction)


def corrected_plugin_estimate(h: Histogram, phi: Functional, cfg: EstimatorConfig) -> float:
    """Sum of bias-corrected plugin values over all symbols, no splitting."""
    return _fingerprint_sum(h.counts, None, (_corrected_values(phi, cfg, h.n_nominal),))


def _corrected_values(phi: Functional, cfg: EstimatorConfig, n):
    """The corrected plugin's value bias_corrected_fn(N / n) as a function of
    the count N.  n is checked here, before any count is divided by it."""
    if not n > 0:
        raise ConfigurationError(f"sample size n must be positive, got {n!r}")
    delta = cfg.delta(n)
    return lambda c: bias_corrected_fn(phi, cfg.correction_order, delta, n, c / n)


def plain_plugin_estimate(h: Histogram, phi: Functional) -> float:
    """Uncorrected plugin: sum of phi at the empirical frequencies."""
    return _plain_plugin(h.counts, h.n_nominal, phi)


def _plain_plugin(counts, n, phi: Functional) -> float:
    return _fingerprint_sum(counts, None, (_plugin_values(phi, n),))


def _plugin_values(phi: Functional, n):
    """The plain plugin's value phi(N / n) as a function of the count N; an
    empty sample (n = 0, every count 0) is read at n = 1."""
    n = n if n > 0 else 1
    return lambda c: phi.eval(c / n)


# registry order is part of the seeding contract: the estimator's index
# feeds the per-rep seed tuple
ESTIMATORS = ("plugin", "corrected", "composite")


def _count_rule(name: str, phi: Functional, cfg: EstimatorConfig, n: int):
    """(rule, values): how estimator name, one of ESTIMATORS, values each
    symbol of a sample of n.

    values holds one function of a count per branch.  rule is None where
    every symbol takes values[0] of its count: the plugins, and the
    composite where it falls back to the plain plugin.  Otherwise rule is
    the composite's _CompositeRule at n / 2, the sample is split, and a
    symbol takes values[rule.branch(selector count)] of its estimation
    count.  Each estimate is the sum of its symbols' values, as
    _fingerprint_sum(counts, branch, values) computes it.
    """
    if name == "composite":
        rule = _composite_rule(phi, cfg, n / 2.0)
        if rule.approx is not None:
            return rule, rule.branch_values
    elif name == "corrected":
        return None, (_corrected_values(phi, cfg, n),)
    return None, (_plugin_values(phi, n),)


def run_estimator(name: str, h: Histogram, phi: Functional, cfg: EstimatorConfig, rng=None) -> CompositeResult:
    """Run the estimator called name (one of ESTIMATORS) on h.

    composite returns composite_estimate's record, its split drawn from
    rng.  The plugins ignore rng and report every symbol in the plugin
    branch and None split fields.  corrected warns when more than half
    the symbols have a frequency below its truncation point delta, where
    each is floored at phi(delta); the plain plugin warns of nothing.
    """
    if name == "composite":
        return composite_estimate(h, phi, cfg, rng=rng)
    warnings = ()
    if name == "plugin":
        value = plain_plugin_estimate(h, phi)
    elif name == "corrected":
        value = corrected_plugin_estimate(h, phi, cfg)
        delta = cfg.delta(h.n_nominal)
        floored = np.count_nonzero(h.counts / h.n_nominal < delta) / h.k
        if floored > 0.5:
            warnings = (
                f"corrected plugin: {floored:.1%} of symbols have a frequency below the "
                f"truncation point delta = {delta:g} and are floored at phi(delta); "
                "expect a large bias in this undersampled regime",
            )
    else:
        raise ConfigurationError(f"estimator must be one of {ESTIMATORS}, got {name!r}")
    return CompositeResult(value, {"plugin": h.k, "poly": 0}, warnings, None, None, None, None)
