"""Sampling models, sample splitting, and the composite threshold estimator.

The pipeline: draw a histogram, then estimate each symbol's phi(p_i)
from its count N.  The paper's composite thins N by a fair coin into an
estimation count a and a selector count N - a, and takes the corrected
plugin at a where N - a clears 2*C2*ln(n), the unbiased best-polynomial
transform at a otherwise.  Here each term is its mean over the coin
given N: the same expectation, and by Rao-Blackwell no more variance.
That per-count rule is _CompositeRule, built once per (phi, constants,
n) by _composite_rule.  Every estimator, here, in the CLI or in a
risk-lab rep, is the _fingerprint_sum of one _count_rule, which rejects
an empty sample.  Degree and threshold both scale with ln(n), so
C1, C2 carry all the tuning freedom; validate_config reports which
admissibility inequalities a choice violates, as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
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
            counts = rounded
        elif counts.dtype.kind == "u" and (counts >= 2**63).any():
            # the int64 cast would wrap such a count to a negative one
            raise ConfigurationError("histogram counts must be non-negative and below 2**63")
        counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise ConfigurationError("histogram counts must be non-negative")
        if self.model not in _MODELS:
            raise ConfigurationError(
                f"model must be one of {_MODELS}, got {self.model!r}"
            )
        if not 0 <= self.n_nominal < math.inf:
            raise ConfigurationError(f"n_nominal must be non-negative and finite, got {self.n_nominal!r}")
        if self.model == "multinomial":
            # int64 sums wrap; 32-bit halves summed apart do not below 2**32 counts
            u = counts.view(np.uint64)
            total = (int(np.sum(u >> 32)) << 32) + int(np.sum(u & 0xFFFFFFFF))
            if total != self.n_nominal:
                raise ConfigurationError(f"multinomial counts sum to {total}, expected {self.n_nominal}")
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
        if (self.est.counts > np.iinfo(np.int64).max - self.sel.counts).any():
            raise ConfigurationError("split halves must sum to counts below 2**63")
        if not 0 <= self.n_effective < math.inf:
            raise ConfigurationError(f"n_effective must be non-negative and finite, got {self.n_effective!r}")

    @property
    def k(self) -> int:
        return self.est.k


@dataclass(frozen=True)
class EstimatorConfig:
    """Constants C1, C2 plus the correction order and a seed no estimator reads.

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
    est_counts = np.random.default_rng(rng).binomial(h.counts, 0.5)
    sel_counts = h.counts - est_counts
    half = h.n_nominal / 2.0
    est = Histogram(counts=est_counts, n_nominal=half, model="poissonized")
    sel = Histogram(counts=sel_counts, n_nominal=half, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=half)


def _fingerprint_sum(counts, values) -> float:
    """The sum over symbols of values(count), values a function of an
    array of counts.  A symbol's term depends only on its count, so the
    sum is the math.fsum of F * values(count) over the distinct counts
    (_fingerprint), where F symbols share a count.  Every estimate is
    this sum of a _count_rule; a risk-lab rep passes values that gather
    the rule's terms from a table."""
    keys, mult = _fingerprint(counts)
    return math.fsum((mult * values(keys)).tolist())


def _fingerprint(counts) -> tuple[np.ndarray, np.ndarray]:
    """(keys, F): the distinct counts, ascending, and how many symbols
    share each.  While the largest count is below k, F is read off the
    sorted counts by one binary search per value; else np.unique groups.
    Per risk-lab rep (uniform shannon, numpy 2.4, a 2-core AVX-512 Xeon)
    np.unique took 38 against 27 us at k = n = 1e4 and 256 against 156 us
    at k = 92 103, n = 1e4; np.bincount, whose increments of F[0] queue up
    where most counts are 0, took 3.5 times as long there as the sort."""
    keys = np.sort(counts)
    top = int(keys[-1])
    if top < keys.size:
        edges = np.searchsorted(keys, np.arange(top + 2, dtype=keys.dtype))
        F = edges[1:] - edges[:-1]
        keys = F.nonzero()[0]
        return keys, F[keys]
    return np.unique(keys, return_counts=True)


def _window(center, half, top=np.inf) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), floats: center -+ half rounded inward and clipped to [0, top],
    so every count outside lies more than half from center.  Each window is
    certified in closed form: Hoeffding bounds the Binomial(N, 1/2) mass
    outside (N/2, 12 sqrt N + 20, N) by 2 exp(-2 (12 sqrt N)^2 / N) =
    2 exp(-288), and Bernstein the Poisson(r) mass outside (r, t = 12 sqrt r
    + 50) by 2 exp(-t^2 / (2 (r + t / 3))) <= 2 exp(-72), at every N and r."""
    return np.maximum(np.ceil(center - half), 0.0), np.minimum(np.floor(center + half), top)


def _pmf_window(lo, hi, ratio) -> tuple[np.ndarray, np.ndarray]:
    """(a, w): row i holds a = lo[i]..hi[i], padded to the longest row with
    a = hi[i], w = 0.  w is the product from lo of ratio(a) = pmf(a + 1) /
    pmf(a), ratio given the float rows of a, over its sum, both run left to
    right, so no row depends on the others.  lo and hi come from _window,
    which certifies the mass outside."""
    lo, hi = lo[:, None], hi[:, None]
    a = lo + np.arange(float((hi - lo).max()) + 1.0)
    step = np.where(a < hi, ratio(a), 0.0)
    r = np.ones_like(a)
    np.cumprod(step[:, :-1], axis=1, out=r[:, 1:])
    return np.minimum(a, hi).astype(np.int64), r / np.cumsum(r, axis=1)[:, -1:]


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

# counts per block of _CompositeRule.poly_values, whose rows of L + 1
# floats then take a few MB at a time
_POLY_BLOCK = 2**14

# _CompositeRule.values sums a window of fewer points exactly, in blocks
# of about _WINDOW_CELLS points
_WINDOW_POINTS = 2**12
_WINDOW_CELLS = 2**16


@dataclass(frozen=True)
class _CompositeRule:
    """The composite's per-count rule at one n_eff: g(a, N - a) is
    plugin_values(a) where N - a reaches threshold, else poly_values(a),
    and values averages it over a fair coin's split of N.  approx and clamp
    (the cached best approximation on interval, phi's range there) are
    None where the construction is degenerate (degree 0, or delta >= 1)."""

    phi: Functional
    correction_order: int
    n_eff: float
    degree: int
    threshold: float
    delta: float
    interval: tuple
    approx: ApproxResult | None
    clamp: tuple | None

    def values(self, counts) -> np.ndarray:
        """The mean of g(a, N - a) over a ~ Binomial(N, 1/2), at each count N.

        A count whose _window(N/2, 12 sqrt N + 20, N) spans _WINDOW_POINTS
        points or more, and whose poly branch lies beyond it (N/2 - threshold
        >= 12 sqrt N), takes the 16-node Gauss-Hermite mean of plugin_values
        over Normal(N/2, N/4).  Every other count sums g over that window
        against its _pmf_window, ratio (N - a) / (a + 1), in blocks of about
        _WINDOW_CELLS cells, g tabled once per branch.  A count's value does
        not depend on the others."""
        counts = np.asarray(counts)
        lo, hi = _window(counts / 2.0, 12.0 * np.sqrt(counts) + 20.0, counts)
        out = np.empty(counts.size)
        big = (hi - lo >= _WINDOW_POINTS) & (counts / 2.0 - self.threshold >= 12.0 * np.sqrt(counts))
        if big.any():
            from numpy.polynomial.hermite import hermgauss

            x, w = hermgauss(16)
            half = counts[big, None] / 2.0
            g = self.plugin_values((half + np.sqrt(half) * x).ravel()).reshape(-1, x.size)
            out[big] = np.cumsum(g * (w / math.sqrt(math.pi)), axis=1)[:, -1]
        rows = np.flatnonzero(~big)
        N, lo, hi = counts[rows], lo[rows], hi[rows]
        plugin = self.plugin_values(np.arange(hi.max(initial=0.0) + 1.0))
        # the poly branch holds the a > N - threshold of a window
        poly = self.poly_values(np.arange(hi.max(where=N - hi < self.threshold, initial=-1.0) + 1.0))
        start = 0
        while start < rows.size:
            # each row is padded to the longest of its block
            cells = np.arange(1.0, rows.size - start + 1.0) * np.maximum.accumulate((hi - lo + 1.0)[start:])
            stop = start + max(1, int(np.searchsorted(cells, _WINDOW_CELLS, side="right")))
            a, w = _pmf_window(lo[start:stop], hi[start:stop], lambda a: (N[start:stop, None] - a) / (a + 1))
            g = plugin[a]
            at = N[start:stop, None] - a < self.threshold
            g[at] = poly[a[at]]
            out[rows[start:stop]] = np.cumsum(w * g, axis=1)[:, -1]
            start = stop
        return out

    def plugin_values(self, counts) -> np.ndarray:
        """Bias-corrected plugin phi_bar(N / n_eff) at each count N."""
        return bias_corrected_fn(self.phi, self.correction_order, self.delta, self.n_eff, counts / self.n_eff)

    def poly_values(self, counts) -> np.ndarray:
        """Unbiased estimate U of the best polynomial sum_j c_j T_j(2p/h - 1) at
        each count N, clamped; c = approx.cheb_coeffs, interval [0, h].  As
        U[(p/h)^m](N) = (N)_m / lam^m, lam = n_eff h: U[T_0] = 1, U[T_1](N) =
        2N/lam - 1 and U[T_{j+1}](N) = 4 (N/lam) U[T_j](N - 1) - 2 U[T_j](N) -
        U[T_{j-1}](N), run over N, N - 1, .., N - L for all counts at once.
        Each count's U[T_j] is carried over r^j, r the power of two above
        3 + 4 max(N, L) / lam, which is exact and keeps it within [-1, 1]; a
        value past 2**1000 is held there before the clamp.  Rows hold O(L)
        floats per count, so the counts run in blocks of _POLY_BLOCK; each
        row depends only on its own count, so the values are bit-identical
        to one pass over all of them."""
        blocks = range(0, max(counts.size, 1), _POLY_BLOCK)
        return np.concatenate([self._poly_block(counts[i : i + _POLY_BLOCK]) for i in blocks])

    def _poly_block(self, counts) -> np.ndarray:
        """poly_values at one block of counts."""
        c = self.approx.cheb_coeffs
        L = c.size - 1
        lam = self.n_eff * self.interval[1]
        e = np.frexp(3.0 + 4.0 * np.maximum(counts, L) / lam)[1][:, None]
        r_inv = np.ldexp(1.0, -e)
        # x[:, i] = 4 (N - i) / (lam r); u[:, i] = U[T_j](N - i) / r^j
        x = r_inv * (4.0 / lam) * (counts[:, None] - np.arange(L + 1.0))
        prev, u = np.ones_like(x), 0.5 * x - r_inv
        # total = sum_{i <= j} c_i U[T_i](N) / r^j
        total = c[0]
        for j in range(1, L + 1):
            total = r_inv[:, 0] * total + c[j] * u[:, 0]
            prev, u = u[:, :-1], x[:, :-j] * u[:, 1:] - 2.0 * r_inv * u[:, :-1] - r_inv * r_inv * prev[:, :-1]
        return np.clip(np.ldexp(total, np.minimum(L * e[:, 0], 1000 - np.frexp(total)[1])), *self.clamp)


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
    """Threshold estimator, its fair-coin split averaged out: the sum over
    symbols of _count_rule("composite", phi, cfg, n) at each count.

    data is a Histogram, whose n is n_nominal, or a SplitHistograms, whose
    est + sel counts are used at n = 2 n_effective; halves run at n_eff =
    n / 2.  rng is accepted and unused: no coin is drawn.  A symbol is
    reported in the plugin branch where its selector count would reach the
    threshold with probability at least 1/2, which is N >= 2
    ceil(threshold) - 1.  At degree 0 (a "polynomial" that ignores the
    count), or when the truncation point would reach 1, the construction
    is degenerate: the plain plugin at n is returned with a warning.
    """
    if isinstance(data, SplitHistograms):
        n, counts = 2.0 * data.n_effective, data.est.counts + data.sel.counts
    elif isinstance(data, Histogram):
        n, counts = data.n_nominal, data.counts
    else:
        raise ConfigurationError(
            f"composite_estimate needs a Histogram or SplitHistograms, got {type(data).__name__}"
        )
    value = _fingerprint_sum(counts, _count_rule("composite", phi, cfg, n))
    rule = _composite_rule(phi, cfg, n / 2.0)
    construction = (rule.n_eff, rule.degree, rule.threshold, rule.interval)

    if rule.approx is None:
        warning = (
            f"degree floor(C1 ln n_effective) = {rule.degree} and truncation point {rule.delta:g} "
            f"at C1={cfg.c1:g}, n_effective={rule.n_eff:g}: the composite construction is degenerate "
            "(the admissible constants' guarantee is asymptotic); "
            f"falling back to the plain plugin at n = {n:g}"
        )
        return CompositeResult(value, {"plugin": data.k, "poly": 0}, (warning,), *construction)

    warnings = ()
    if not rule.approx.converged:
        warnings = (
            f"best-approximation search did not converge at degree {rule.degree}; using last iterate",
        )
    if not math.isfinite(value):
        raise NumericalError(f"composite estimate is not finite ({value!r}) at degree {rule.degree}")
    n_plugin = int(np.count_nonzero(counts >= 2 * math.ceil(rule.threshold) - 1))
    branches = {"plugin": n_plugin, "poly": data.k - n_plugin}
    return CompositeResult(value, branches, warnings, *construction)


def corrected_plugin_estimate(h: Histogram, phi: Functional, cfg: EstimatorConfig) -> float:
    """Sum of bias-corrected plugin values over all symbols, no splitting."""
    return _fingerprint_sum(h.counts, _count_rule("corrected", phi, cfg, h.n_nominal))


def plain_plugin_estimate(h: Histogram, phi: Functional) -> float:
    """Uncorrected plugin: sum of phi at the empirical frequencies."""
    return _fingerprint_sum(h.counts, _count_rule("plugin", phi, None, h.n_nominal))


# registry order is part of the seeding contract: the estimator's index
# feeds the per-rep seed tuple
ESTIMATORS = ("plugin", "corrected", "composite")


def _count_rule(name: str, phi: Functional, cfg: EstimatorConfig | None, n):
    """The function of a count that estimator name, one of ESTIMATORS, sums
    over the symbols of a sample of n: its estimate is
    _fingerprint_sum(counts, _count_rule(name, phi, cfg, n)).  The plain
    plugin's is phi(N / n), the corrected plugin's bias_corrected_fn(N / n),
    and the composite's _CompositeRule.values at n / 2, or the plain
    plugin's where it falls back to that.  An empty sample (n <= 0) is
    rejected before any count is divided by n; the plain plugin reads no
    cfg, which may then be None."""
    if not n > 0:
        raise ConfigurationError(f"sample size n must be positive, got {n!r}")
    if name == "composite":
        rule = _composite_rule(phi, cfg, n / 2.0)
        if rule.approx is not None:
            return rule.values
    elif name == "corrected":
        delta = cfg.delta(n)
        return lambda c: bias_corrected_fn(phi, cfg.correction_order, delta, n, c / n)
    return lambda c: phi.eval(c / n)


def run_estimator(name: str, h: Histogram, phi: Functional, cfg: EstimatorConfig) -> CompositeResult:
    """Run the estimator called name (one of ESTIMATORS) on h.

    composite returns composite_estimate's record.  The plugins report
    every symbol in the plugin branch and None split fields.  corrected
    warns when more than half the symbols have a frequency below its
    truncation point delta, where each is floored at phi(delta); the
    plain plugin warns of nothing.  Every estimator rejects n_nominal 0
    (_count_rule).
    """
    if name not in ESTIMATORS:
        raise ConfigurationError(f"estimator must be one of {ESTIMATORS}, got {name!r}")
    if name == "composite":
        return composite_estimate(h, phi, cfg)
    value = _fingerprint_sum(h.counts, _count_rule(name, phi, cfg, h.n_nominal))
    warnings = ()
    if name == "corrected":
        delta = cfg.delta(h.n_nominal)
        floored = np.count_nonzero(h.counts / h.n_nominal < delta) / h.k
        if floored > 0.5:
            warnings = (
                f"corrected plugin: {floored:.1%} of symbols have a frequency below the "
                f"truncation point delta = {delta:g} and are floored at phi(delta); "
                "expect a large bias in this undersampled regime",
            )
    return CompositeResult(value, {"plugin": h.k, "poly": 0}, warnings, None, None, None, None)
