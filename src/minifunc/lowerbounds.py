"""Numeric minimax lower-bound constructions.

Two-point arguments (KL and Hellinger flavors), moment-matched measure
pairs read off the dual of the best polynomial approximation (the Remez
alternation points carry them) and checked by MeasurePair itself, the
tilted variant that fixes the first moment, the total variation of Poisson
mixtures over estimators._window windows whose outside mass Bernstein bounds
in closed form, and the three-branch composite bound that ties risk to the
best polynomial approximation error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, SupportError
from .estimators import _pmf_window, _window
from .functionals import (
    Functional,
    ProbabilityVector,
    _as_callable,
    additive_functional,
    as_prob_array,
)
from .polyapprox import _check_converged, remez_best_approx

__all__ = [
    "divergence",
    "TwoPointPair",
    "two_point_pair",
    "canonical_two_point_pair",
    "le_cam_bound",
    "hellinger_le_cam_bound",
    "MeasurePair",
    "moment_matched_pair",
    "tilted_pair",
    "PoissonMixtureTV",
    "poisson_mixture_tv",
    "CompositeBoundResult",
    "composite_lower_bound",
    "hoelder_norm",
    "log_speed_constants",
    "fitted_bound_constants",
]

_KINDS = ("kl", "hellinger")


def divergence(P, Q, kind: str) -> float:
    """Divergence between two distributions on the same alphabet.

    kl: KL(P||Q) with natural log and 0 log 0 = 0; raises SupportError
    when Q vanishes where P does not.  hellinger: the squared Hellinger
    distance in the normalization where disjoint supports give 4, i.e.
    2 sum (sqrt p - sqrt q)^2, so that 1 - H^2/4 is the Bhattacharyya
    coefficient.
    """
    p = as_prob_array(P)
    q = as_prob_array(Q)
    if p.shape != q.shape:
        raise ConfigurationError(
            f"distributions have different alphabet sizes {p.size} and {q.size}"
        )
    kind = kind.lower()
    if kind not in _KINDS:
        raise ConfigurationError(f"divergence kind must be one of {_KINDS}, got {kind!r}")
    if kind == "hellinger":
        d = np.sqrt(p) - np.sqrt(q)
        return float(2.0 * np.sum(d * d))
    bad = np.flatnonzero((q == 0.0) & (p > 0.0))
    if bad.size:
        raise SupportError(
            f"symbol {int(bad[0])} has positive mass under P but zero under Q"
        )
    mask = p > 0.0
    # KL >= 0 (Gibbs); for P ~ Q the sum rounds to about -1e-18
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


@dataclass(frozen=True)
class TwoPointPair:
    """Pair (1-p, p/(k-1), ...) vs (1-q, q/(k-1), ...) with its bound data.

    kl_bound is the closed form (p-q)^2 / (2p(1-p)), the halved
    chi-square with reference P; it tracks the actual KL only to third
    order in p-q, so treat it as a scale, not a certified bound.
    """

    P: ProbabilityVector
    Q: ProbabilityVector
    p: float
    q: float
    kl_bound: float
    theta_gap: float


def two_point_pair(phi: Functional, k: int, p: float, q: float) -> TwoPointPair:
    """Build the single-heavy-symbol two-point family for a functional."""
    if k < 2:
        raise ConfigurationError(f"alphabet size must be >= 2, got {k}")
    for name, v in (("p", p), ("q", q)):
        if not 0.0 < v < 1.0:
            raise ConfigurationError(f"{name} must lie in (0, 1), got {v!r}")
    P = ProbabilityVector(np.concatenate([[1.0 - p], np.full(k - 1, p / (k - 1))]))
    Q = ProbabilityVector(np.concatenate([[1.0 - q], np.full(k - 1, q / (k - 1))]))
    gap = additive_functional(P, phi) - additive_functional(Q, phi)
    return TwoPointPair(
        P=P,
        Q=Q,
        p=float(p),
        q=float(q),
        kl_bound=(p - q) ** 2 / (2.0 * p * (1.0 - p)),
        theta_gap=float(gap),
    )


def canonical_two_point_pair(phi: Functional, k: int, n: int) -> TwoPointPair:
    """Two-point pair at the 1/sqrt(n) perturbation scale: p = 1/2, q = p - 1/sqrt(n)."""
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    q = 0.5 - 1.0 / math.sqrt(n)
    if q <= 0.0:
        raise ConfigurationError(f"perturbed mass q={q:.6g} escapes (0, 1); increase n")
    return two_point_pair(phi, k, 0.5, q)


def le_cam_bound(P, Q, phi: Functional, n: int) -> float:
    """Two-point risk bound (1/4) (theta(P)-theta(Q))^2 exp(-n KL(P,Q))."""
    gap = additive_functional(P, phi) - additive_functional(Q, phi)
    return 0.25 * gap * gap * math.exp(-n * divergence(P, Q, "kl"))


def hellinger_le_cam_bound(P, Q, phi: Functional, n: int) -> float:
    """Two-point bound (1/4) gap^2 BC^(2n), BC = 1 - H^2/4 the Bhattacharyya
    coefficient.

    It is the Bayes risk of the uniform prior on {P, Q}, (1/2) gap^2 times
    the sum of pq/(p+q) over the n-sample laws, bounded below by
    Cauchy-Schwarz with that sum >= BC^(2n)/2.  So it never exceeds
    gap^2/4, the midpoint estimator's risk, and since BC >= exp(-KL/2)
    never falls below le_cam_bound.
    """
    gap = additive_functional(P, phi) - additive_functional(Q, phi)
    bc = 1.0 - divergence(P, Q, "hellinger") / 4.0
    bc = min(max(bc, 0.0), 1.0)
    return 0.25 * gap * gap * bc ** (2 * n)


@dataclass(frozen=True)
class MeasurePair:
    """Two discrete measures with matching moments and a phi-mean gap.

    w0 and w1 are weights on the common support; moments 1..matched_orders
    agree (order 0 by normalization).  gap is the difference of phi-means.
    The constructions below put the pair on the Remez alternation points,
    where gap equals expected_gap = 2 E_L up to the Remez levelling
    tolerance.  Construction raises ConfigurationError on an empty support,
    a negative or non-finite support point or matched_orders below 0, and
    NumericalError on weights that are negative or do not sum to 1, or
    moments that differ by more than 1e-8.
    """

    support: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    matched_orders: int
    gap: float
    expected_gap: float = float("nan")
    warnings: tuple = ()

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        w0 = np.asarray(self.w0, dtype=float)
        w1 = np.asarray(self.w1, dtype=float)
        if not (support.shape == w0.shape == w1.shape) or support.ndim != 1:
            raise ConfigurationError("support, w0, w1 must be 1-d arrays of equal length")
        if support.size == 0:
            raise ConfigurationError("support is empty")
        bad = support[~(np.isfinite(support) & (support >= 0.0))]
        if bad.size:
            raise ConfigurationError(f"support points must be finite and >= 0, got {float(bad[0])!r}")
        if self.matched_orders < 0:
            raise ConfigurationError(f"matched_orders must be >= 0, got {self.matched_orders!r}")
        # written so that NaN weights fail both checks
        if not (w0.min() >= -1e-10 and w1.min() >= -1e-10):
            raise NumericalError("measure weights must be non-negative")
        for arr, nm in ((w0, "w0"), (w1, "w1")):
            total = math.fsum(arr.tolist())
            if not (abs(total - 1.0) <= 1e-8):
                raise NumericalError(f"{nm} sums to {total!r}, expected 1")
        for arr in (support, w0, w1):
            arr.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "w0", np.clip(w0, 0.0, None))
        object.__setattr__(self, "w1", np.clip(w1, 0.0, None))
        resid = self.moment_residuals().max(initial=0.0)
        if not resid <= 1e-8:
            raise NumericalError(f"moment constraints violated by {resid:.3g}")

    def moment_residuals(self) -> np.ndarray:
        """|w0-moment minus w1-moment| for orders 1..matched_orders."""
        out = np.empty(self.matched_orders)
        for m in range(1, self.matched_orders + 1):
            xm = self.support**m
            out[m - 1] = abs(float(xm @ self.w0) - float(xm @ self.w1))
        return out


def moment_matched_pair(f, L: int, interval) -> MeasurePair:
    """Extremal pair of measures with moments 1..L matched, maximal f-gap.

    The dual of the best-approximation problem.  On the L+2 alternation
    points x_i of the Remez solve, the divided-difference weights
    c_i ~ (-1)^i / prod_{j != i} |x_i - x_j| annihilate every polynomial
    of degree <= L.  Scaled to sum |c_i| = 2 and signed so that
    sum c_i f(x_i) >= 0, their positive and negative parts are two
    probability measures with moments 1..L matched, and the f-gap
    sum c_i (f - P)(x_i) is twice the levelled error E_L (Wu & Yang,
    IEEE TIT 2016).  The weights are formed in log space on the
    normalized coordinate, so large L cannot overflow.  MeasurePair checks
    that the moments match to 1e-8.
    """
    fn = _as_callable(f)
    if L < 1:
        raise ConfigurationError(f"matched order L must be >= 1, got {L}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi):
        raise ConfigurationError(f"invalid interval [{lo!r}, {hi!r}]")
    approx = remez_best_approx(fn, L, (lo, hi))
    x = approx.alternation_points
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    dist = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(dist, 1.0)
    logw = -np.log(dist).sum(axis=1)
    w = np.exp(logw - logw.max())
    c = 2.0 * (-1.0) ** np.arange(L + 2) * w / math.fsum(w.tolist())
    fx = np.asarray(fn(x), dtype=float)
    gap = math.fsum((c * fx).tolist())
    if gap < 0.0:
        c, gap = -c, -gap
    w0 = np.clip(c, 0.0, None)
    w1 = np.clip(-c, 0.0, None)
    warnings = []
    if not approx.converged:
        warnings.append(f"best-approximation reference did not converge at degree {L}")
    return MeasurePair(
        support=x,
        w0=w0,
        w1=w1,
        matched_orders=L,
        gap=gap,
        expected_gap=2.0 * approx.sup_error,
        warnings=tuple(warnings),
    )


def _over_x(fn):
    """x -> fn(x) / x, the target of the tilted constructions."""
    return lambda x: np.asarray(fn(x), dtype=float) / np.asarray(x, dtype=float)


def tilted_pair(phi, L: int, gamma: float, eta: float) -> MeasurePair:
    """Measure pair with both first moments pinned at gamma.

    Reweights a moment-matched base pair for f(x)/x on [gamma, gamma/eta]
    by gamma/u and parks the leftover mass in an atom at zero; the
    f-mean gap becomes 2 gamma E_L(f(x)/x, [gamma, gamma/eta]) and
    moments 1..L+1 match, as MeasurePair checks to 1e-8.  Requires
    f(0) = 0 so the atom contributes nothing to the gap.
    """
    fn = _as_callable(phi)
    if not 0.0 < gamma <= eta < 1.0:
        raise ConfigurationError(
            f"need 0 < gamma <= eta < 1, got gamma={gamma!r} eta={eta!r}"
        )
    f0 = float(fn(0.0))
    if not abs(f0) <= 1e-12:
        raise ConfigurationError(f"tilted construction needs f(0) = 0, got {f0!r}")
    base = moment_matched_pair(_over_x(fn), L, (gamma, gamma / eta))
    tilt = gamma / base.support
    w0 = base.w0 * tilt
    w1 = base.w1 * tilt
    atom0 = 1.0 - math.fsum(w0.tolist())
    atom1 = 1.0 - math.fsum(w1.tolist())
    if min(atom0, atom1) < -1e-10:
        raise NumericalError(
            f"tilted atom mass negative ({min(atom0, atom1):.3g}); support below gamma?"
        )
    support = np.concatenate([[0.0], base.support])
    return MeasurePair(
        support=support,
        w0=np.concatenate([[max(atom0, 0.0)], w0]),
        w1=np.concatenate([[max(atom1, 0.0)], w1]),
        matched_orders=L + 1,
        gap=gamma * base.gap,
        expected_gap=gamma * base.expected_gap,
        warnings=base.warnings,
    )


@dataclass(frozen=True)
class PoissonMixtureTV:
    numeric_tv: float
    bound: float
    trunc: int
    max_rate: float


def poisson_mixture_tv(pair: MeasurePair, n: int, k: int) -> PoissonMixtureTV:
    """Total variation between the two Poisson mixtures at rates r = n*x/k.

    numeric_tv, clamped to [0, 1], sums |mixture pmf difference| over each
    rate's unclipped _window(r, 12 sqrt r + 50), its pmf a _pmf_window.
    Bernstein bounds the Poisson(r) mass outside that window by 2 exp(-72),
    about 1.1e-31, at every r.  trunc reports ceil(M + 12 sqrt M + 50),
    M = max_rate, past which no window reaches.  bound is (2eM/L)^L when
    the matched order L exceeds 2eM, else +inf.
    """
    if n < 1 or k < 1:
        raise ConfigurationError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    rates = n * pair.support / k
    M = float(rates.max())
    lo, hi = _window(rates, 12.0 * np.sqrt(rates) + 50.0)
    a, w = _pmf_window(lo, hi, lambda a: rates[:, None] / (a + 1.0))
    diff = np.bincount(a.ravel(), (w * (pair.w0 - pair.w1)[:, None]).ravel())
    tv = min(0.5 * float(np.abs(diff).sum()), 1.0)
    L = pair.matched_orders  # the moment argument gives nothing at L <= 2eM
    bound = (2.0 * math.e * M / L) ** L if L > 2.0 * math.e * M else math.inf
    trunc = math.ceil(M + 12.0 * math.sqrt(M) + 50.0)
    return PoissonMixtureTV(numeric_tv=tv, bound=bound, trunc=trunc, max_rate=M)


@dataclass(frozen=True)
class CompositeBoundResult:
    bound: float
    terms: dict
    condition: int
    e_l: float
    gamma: float | None
    alpha: float


def composite_lower_bound(
    phi: Functional,
    n: int,
    k: int,
    lam: float,
    L: int,
    d: float,
    W: float,
    Wprime: float,
) -> CompositeBoundResult:
    """Risk bound d^2/32 (7/8 - k(2e n lam / Lk)^L) minus correction terms.

    One of two side conditions must verify numerically: either
    lam <= 1/12 with 2k E_L(f, [0, lam/k]) >= d, or lam <= sqrt(k)/12
    with gamma = lam/(2 L^2 k) and 2k gamma E_L(f(x)/x, [gamma, lam/k])
    >= d.  W and Wprime scale the correction terms and are calibration
    inputs; fitted_bound_constants gives a documented estimate.  The
    correction branch is chosen by phi.alpha (< 1, = 1, in (1,2)).
    """
    fn = phi.eval
    alpha = phi.alpha
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2), got {alpha!r}")
    if k < 2 or n < 1:
        raise ConfigurationError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    if L < 1 or lam <= 0 or d < 0:
        raise ConfigurationError("need L >= 1, lam > 0, d >= 0")

    checks = []
    condition = 0
    gamma = None
    e_l = float("nan")
    if lam <= 1.0 / 12.0:
        approx = _check_converged(remez_best_approx(fn, L, (0.0, lam / k)), L)
        e_l = approx.sup_error
        lhs = 2.0 * k * e_l
        checks.append(f"condition 1: 2k E_L = {lhs:.6g} vs d = {d:.6g}")
        if lhs >= d:
            condition = 1
    else:
        checks.append(f"condition 1: lam = {lam:.6g} > 1/12")
    if condition == 0:
        if lam <= math.sqrt(k) / 12.0:
            try:
                g = lam / (2.0 * L**2 * k)
            except OverflowError:  # L**2 past the float range: gamma underflows
                g = 0.0
            if 0.0 < g < lam / k and g < 1.0:
                approx = _check_converged(remez_best_approx(_over_x(fn), L, (g, lam / k)), L)
                e_l = approx.sup_error
                lhs = 2.0 * k * g * e_l
                checks.append(f"condition 2: 2k gamma E_L = {lhs:.6g} vs d = {d:.6g}")
                if lhs >= d:
                    condition = 2
                    gamma = g
            else:
                checks.append(f"condition 2: degenerate interval [gamma, lam/k] at gamma={g:.3g}")
        else:
            checks.append(f"condition 2: lam = {lam:.6g} > sqrt(k)/12")
    if condition == 0:
        raise ConfigurationError(
            "neither side condition verifiable: " + "; ".join(checks)
        )

    base = 2.0 * math.e * n * lam / (L * k)
    if base > 0 and math.log(k) + L * math.log(base) > math.log(sys.float_info.max):
        raise ConfigurationError(
            f"tv_term k (2e n lam / (L k))^L = {k} * {base:.6g}^{L} overflows a float"
        )
    tv_term = k * math.exp(L * math.log(base)) if base > 0 else 0.0
    main = d**2 / 32.0 * (7.0 / 8.0 - tv_term)
    terms = {"main": main, "tv_term": tv_term}
    if alpha < 1.0:
        terms["mass_shift"] = W * k ** (1.0 - 2.0 * alpha) * lam ** (2.0 * alpha)
        terms["concentration"] = Wprime * k ** (2.0 - 2.0 * alpha) * math.exp(-n / 32.0)
        terms["normalization"] = (
            4.0 ** (2.0 * alpha) * Wprime * k ** (2.0 - 2.0 * alpha) * k**-alpha * lam ** (2.0 * alpha)
        )
    elif alpha == 1.0:
        eps = 4.0 * lam / math.sqrt(k)
        terms["mass_shift"] = W * lam**2 * math.log(lam / (math.e * k)) ** 2 / k
        terms["concentration"] = Wprime * math.log(math.e * k) ** 2 * math.exp(-n / 32.0)
        terms["normalization"] = 16.0 * Wprime * (lam**2 / k) * math.log(math.e * k) ** 2
        terms["renormalization"] = Wprime * (1.0 + eps) ** 2 * math.log(1.0 + eps) ** 2
    else:
        terms["mass_shift"] = W * k ** (1.0 - 2.0 * alpha) * lam ** (2.0 * alpha)
        terms["concentration"] = Wprime * math.exp(-n / 32.0)
        terms["normalization"] = 16.0 * Wprime * lam**2 / k**2
    correction = math.fsum(v for key, v in terms.items() if key not in ("main", "tv_term"))
    terms["total_correction"] = correction
    bound = main - correction
    return CompositeBoundResult(
        bound=bound, terms=terms, condition=condition, e_l=e_l, gamma=gamma, alpha=float(alpha)
    )


_HOELDER_ROWS = 64


def hoelder_norm(f, beta: float) -> float:
    """Grid estimate of sup |f(x)-f(y)| / |x-y|^beta over [0, 1].

    The 768-point grid mixes Chebyshev spacing with a 384-point geometric
    cluster at the left end, where the built-in functionals have their
    roughness.
    """
    fn = _as_callable(f)
    if not 0.0 < beta <= 1.0:
        raise ConfigurationError(f"beta must lie in (0, 1], got {beta!r}")
    u_cheb = 0.5 * (1.0 - np.cos(np.pi * np.arange(768) / 767))
    u_geom = np.geomspace(1e-14, 1.0, 384)
    # repeated points are harmless: the dx > 0 mask below skips them
    x = np.sort(np.concatenate([[0.0], u_cheb, u_geom]))
    fx = np.asarray(fn(x), dtype=float)
    # in row blocks: the full pair matrices would take 10 MB each; every
    # row holds its diagonal 0, so no block is all NaN
    block_max = []
    for i in range(0, x.size, _HOELDER_ROWS):
        dx = np.abs(x[i : i + _HOELDER_ROWS, None] - x[None, :])
        df = np.abs(fx[i : i + _HOELDER_ROWS, None] - fx[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            block_max.append(np.nanmax(np.where(dx > 0.0, df / dx**beta, 0.0)))
    return float(np.nanmax(block_max))


def log_speed_constants(phi: Functional):
    """Fit |phi'(p)| between W ln(1/p) - c' and W ln(1/p) + c.

    Returns (W, c): W is the median ratio |phi'|/ln(1/p) over the 32
    smallest of 4096 geometric points in [1e-12, 0.999999] and c the
    largest positive excess over the fitted envelope.
    """
    p = np.geomspace(1e-12, 0.999999, 4096)
    vals = np.abs(np.asarray(phi.deriv(1, p), dtype=float))
    logs = np.log(1.0 / p)
    ratios = np.sort(vals[:32] / logs[:32])
    W = float((ratios[15] + ratios[16]) / 2)  # the median, without np.median's numpy.ma import
    c = float(max(0.0, np.max(vals - W * logs)))
    return W, c


def fitted_bound_constants(phi: Functional, alpha: float):
    """Documented recipe for the composite bound's W and Wprime.

    alpha < 1: twice the squared alpha-Hoelder norm of phi on [0,1].
    alpha = 1: 2 (W1 + c1)^2 from the logarithmic first-derivative fit.
    alpha in (1,2): twice the squared Lipschitz norm.  Wprime reuses W,
    which matches its role as a same-order correction scale.
    """
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2), got {alpha!r}")
    if alpha == 1.0:
        W1, c1 = log_speed_constants(phi)
        W = 2.0 * (W1 + c1) ** 2
    else:
        h = hoelder_norm(phi, min(alpha, 1.0))
        W = 2.0 * h * h
    return W, W
