"""Best uniform polynomial approximation on an interval.

The quantity that drives both the estimator's bias and every lower-bound
construction is

    E_L(f, I) = inf_{deg(P) <= L} sup_{x in I} |f(x) - P(x)|,

computed here with a Remez exchange:

  1. start from the L+2 Chebyshev extrema of the interval,
  2. solve the levelled interpolation system  P(x_i) + (-1)^i E = f(x_i)
     in the Chebyshev basis of the mapped interval,
  3. rebuild the reference from the residual's local extrema (an
     8*(L+2)-point sign-run scan refined by golden-section search,
     leftmost point kept on ties),
  4. stop when (max residual)/(min reference residual) - 1 < 1e-10
     or after 100 exchanges.

Equioscillation at L+2 alternating extrema certifies optimality.  The
returned polynomial is converted to the monomial basis of the original
variable at the very end: downstream estimators need raw coefficients,
and a single conversion confines the monomial basis's poor conditioning
to one step.

Supporting cast: centered finite differences, moduli of smoothness (used
to bracket how fast E_L can decay), and the Bernstein operator (a cheap
upper bound on approximation quality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ConfigurationError, NumericalError
from .functionals import Functional, _golden_max

__all__ = [
    "Polynomial",
    "ApproxResult",
    "ErrorCurve",
    "finite_difference",
    "modulus_of_smoothness",
    "bernstein_approx",
    "bernstein_eval",
    "remez_best_approx",
    "approx_error_curve",
]

@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial sum_m coeffs[m] * x**m attached to an interval."""

    coeffs: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).copy()
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigurationError("polynomial coefficients must be a non-empty 1-d array")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in self.coeffs[::-1]:
            out = out * x + c
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a best-approximation solve.

    sup_error approximates E_L(f, interval); alternation_points are the
    L+2 reference points of the final exchange (residual alternates in
    sign there whenever sup_error is meaningfully above round-off).
    alternation_residuals holds f - poly at those points, computed in the
    well-conditioned Chebyshev form before the monomial conversion; use
    them rather than re-evaluating poly when the degree is large.
    """

    poly: Polynomial
    sup_error: float
    alternation_points: np.ndarray
    iterations: int
    converged: bool
    alternation_residuals: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.alternation_points, dtype=float).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "alternation_points", pts)
        res = np.asarray(self.alternation_residuals, dtype=float).copy()
        res.flags.writeable = False
        object.__setattr__(self, "alternation_residuals", res)


def _as_callable(f) -> Callable:
    return f.eval if isinstance(f, Functional) else f


def finite_difference(f, L: int, h: float, x: float, interval) -> float:
    """Centered difference of order L and step h at x.

    Returns 0 when the stencil x +/- h*L/2 leaves the interval.
    """
    if L < 1:
        raise ConfigurationError(f"difference order must be >= 1, got {L}")
    if h <= 0:
        raise ConfigurationError(f"step h must be positive, got {h}")
    fn = _as_callable(f)
    lo, hi = float(interval[0]), float(interval[1])
    if x - L * h / 2.0 < lo or x + L * h / 2.0 > hi:
        return 0.0
    terms = [
        (-1.0) ** (L - m) * math.comb(L, m) * float(fn(x + (L / 2.0 - m) * h))
        for m in range(L + 1)
    ]
    return math.fsum(terms)


def modulus_of_smoothness(
    f,
    L: int,
    t: float,
    interval,
    weight: str = "unit",
    h_points: int = 64,
    x_points: int = 4096,
) -> float:
    """L-th modulus of smoothness omega^L(f, t) over the interval.

    sup over step sizes h in (0, t] and positions x of the magnitude of
    the L-th centered difference, with the stencil clipped to the
    interval.  weight="sqrt_semicircle" scales the step by sqrt(1 - x^2)
    (the Ditzian-Totik weighting on [-1, 1]); weight="unit" leaves it
    alone.  Grid sup: h on a log grid, x on a uniform grid.
    """
    if weight not in ("unit", "sqrt_semicircle"):
        raise ConfigurationError(f"unknown weight {weight!r}")
    if t <= 0:
        raise ConfigurationError(f"modulus scale t must be positive, got {t}")
    if L < 1:
        raise ConfigurationError(f"modulus order must be >= 1, got {L}")
    fn = _as_callable(f)
    lo, hi = float(interval[0]), float(interval[1])
    hs = np.geomspace(t * 1e-4, t, h_points)
    xs = np.linspace(lo, hi, x_points)
    signs = np.array([(-1.0) ** (L - m) * math.comb(L, m) for m in range(L + 1)])
    offsets = L / 2.0 - np.arange(L + 1)
    span_tol = 1e-12 * (hi - lo)
    best = 0.0
    for h in hs:
        if weight == "unit":
            step = np.full_like(xs, h)
        else:
            step = h * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        inside = (xs - step * (L / 2.0) >= lo - span_tol) & (
            xs + step * (L / 2.0) <= hi + span_tol
        )
        if not inside.any():
            continue
        xin = xs[inside]
        sin_ = step[inside]
        acc = np.zeros_like(xin)
        for w, o in zip(signs, offsets):
            acc += w * np.asarray(fn(xin + o * sin_), dtype=float)
        m = float(np.max(np.abs(acc)))
        if m > best:
            best = m
    return best


def bernstein_approx(f, L: int) -> Polynomial:
    """Degree-L Bernstein polynomial of f on [0, 1], in the monomial basis.

    B_L[f](x) = sum_v f(v/L) C(L,v) x^v (1-x)^(L-v).  The expansion is
    exact integer combinatorics, but the alternating sums cancel
    catastrophically for large degree, so L > 64 is rejected; use
    bernstein_eval for pointwise values at any degree.
    """
    if L < 1:
        raise ConfigurationError(f"Bernstein degree must be >= 1, got {L}")
    if L > 64:
        raise ConfigurationError(
            "monomial expansion unstable beyond degree 64; use bernstein_eval"
        )
    fn = _as_callable(f)
    fv = [float(fn(v / L)) for v in range(L + 1)]
    coeffs = np.zeros(L + 1)
    for m in range(L + 1):
        terms = [
            fv[v] * float(math.comb(L, v) * math.comb(L - v, m - v)) * (-1.0) ** (m - v)
            for v in range(m + 1)
        ]
        coeffs[m] = math.fsum(terms)
    return Polynomial(coeffs, (0.0, 1.0))


def bernstein_eval(f, L: int, x):
    """Pointwise B_L[f](x) on [0, 1] via stable binomial weights (any L)."""
    from scipy.stats import binom

    if L < 1:
        raise ConfigurationError(f"Bernstein degree must be >= 1, got {L}")
    fn = _as_callable(f)
    x = np.asarray(x, dtype=float)
    fv = np.array([float(fn(v / L)) for v in range(L + 1)])
    weights = binom.pmf(np.arange(L + 1)[:, None], L, x.reshape(1, -1).clip(0.0, 1.0))
    out = (fv @ weights).reshape(x.shape)
    return out if out.ndim else float(out)


def remez_best_approx(
    f,
    L: int,
    interval,
    max_iter: int = 100,
    rel_tol: float = 1e-10,
) -> ApproxResult:
    """Best uniform degree-L approximation of f on [lo, hi].

    See the module docstring for the exchange loop.  A result with
    converged=False carries the final iterate; sup_error is still the
    max residual over the last reference and scan.
    """
    if L < 0:
        raise ConfigurationError(f"degree must be >= 0, got {L}")
    fn = _as_callable(f)
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ConfigurationError(f"bad interval {interval!r}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def ft(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(fn(mid + half * t), dtype=float)
        if out.shape != t.shape:
            # constant callables return scalars regardless of input shape
            out = np.broadcast_to(out, t.shape)
        return out

    m_ref = L + 2
    ref = -np.cos(np.pi * np.arange(m_ref) / (m_ref - 1))
    signs = (-1.0) ** np.arange(m_ref)
    # doubly clustered base scan: residual extrema of endpoint-singular
    # targets (sqrt, p*log p) pack quartically toward the edges, tighter
    # than plain Chebyshev spacing resolves
    theta = 0.5 * np.pi * (1.0 - np.cos(np.linspace(0.0, np.pi, 8 * m_ref)))
    scan_base = -np.cos(theta)

    coef = np.zeros(L + 1)
    converged = False
    iterations = 0
    sup_error = math.inf

    for iterations in range(1, max_iter + 1):
        V = _cheb.chebvander(ref, L)
        A = np.hstack([V, signs[:, None]])
        y = ft(ref)
        if not np.all(np.isfinite(y)):
            raise NumericalError("f is not finite on the approximation interval")
        try:
            sol = np.linalg.solve(A, y)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"levelled interpolation system is singular: {e}") from e
        coef = sol[: L + 1]

        def resid(t, coef=coef):
            return ft(t) - _cheb.chebval(np.asarray(t, dtype=float), coef)

        # the scan follows the migrating reference: midpoints between
        # consecutive reference points keep resolution where it matters
        grid = np.unique(
            np.concatenate([scan_base, ref, 0.5 * (ref[1:] + ref[:-1])])
        )
        fvals = ft(grid)
        if not np.all(np.isfinite(fvals)):
            raise NumericalError("f is not finite on the approximation interval")
        r = fvals - _cheb.chebval(grid, coef)
        scale = max(1.0, float(np.max(np.abs(fvals))))
        scan_max = float(np.max(np.abs(r)))

        cand_t, cand_r = _extremum_candidates(grid, r, resid)
        scan_max = max(scan_max, float(np.max(np.abs(cand_r))))
        new_ref = _select_reference(cand_t, cand_r, m_ref)
        if new_ref is None:
            # scan under-resolved some sign runs: patch with the current
            # reference, whose residuals alternate by construction
            merged_t = np.concatenate([cand_t, ref])
            merged_r = np.concatenate([cand_r, resid(ref)])
            order = np.argsort(merged_t, kind="stable")
            new_ref = _select_reference(merged_t[order], merged_r[order], m_ref)
        if new_ref is None:
            # residual flat at round-off level: nothing left to exchange
            sup_error = scan_max
            converged = sup_error <= 1e-13 * scale
            break
        ref = new_ref
        rr = resid(ref)
        maxres = max(scan_max, float(np.max(np.abs(rr))))
        minres = float(np.min(np.abs(rr)))
        sup_error = maxres
        if maxres <= 1e-13 * scale:
            converged = True
            break
        if minres > 0.0 and maxres / minres - 1.0 < rel_tol:
            converged = True
            break

    poly = _to_monomial(coef, lo, hi, L)
    points = mid + half * ref
    final_resid = ft(ref) - _cheb.chebval(ref, coef)
    return ApproxResult(
        poly=poly,
        sup_error=float(sup_error),
        alternation_points=points,
        iterations=iterations,
        converged=converged,
        alternation_residuals=final_resid,
    )


def _extremum_candidates(grid, r, resid):
    """Local extrema of the residual: one per sign run, golden-refined."""
    sgn = np.sign(r)
    # zeros inherit the previous sign so runs stay contiguous
    for i in range(sgn.size):
        if sgn[i] == 0.0:
            sgn[i] = sgn[i - 1] if i else 1.0
    boundaries = np.flatnonzero(sgn[1:] != sgn[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [sgn.size]])

    idxs, lo_b, hi_b = [], [], []
    for s, e in zip(starts, ends):
        run = np.abs(r[s:e])
        i = s + int(np.argmax(run))
        idxs.append(i)
        lo_b.append(grid[max(i - 1, 0)])
        hi_b.append(grid[min(i + 1, grid.size - 1)])
    idxs = np.array(idxs)
    a = np.array(lo_b)
    b = np.array(hi_b)

    t_star = _golden_max(lambda t: np.abs(resid(t)), a, b)
    r_star = resid(t_star)

    # never do worse than the raw grid point
    worse = np.abs(r_star) < np.abs(r[idxs])
    t_star = np.where(worse, grid[idxs], t_star)
    r_star = np.where(worse, r[idxs], r_star)
    order = np.argsort(t_star, kind="stable")
    return t_star[order], r_star[order]


def _select_reference(ts, rs, m):
    """Thin candidates to an alternating reference of exactly m points."""
    kept_t: list[float] = []
    kept_r: list[float] = []
    for t, r in zip(ts, rs):
        if kept_r and math.copysign(1.0, r) == math.copysign(1.0, kept_r[-1]):
            if abs(r) > abs(kept_r[-1]):
                kept_t[-1], kept_r[-1] = t, r
        else:
            kept_t.append(float(t))
            kept_r.append(float(r))
    if len(kept_t) < m:
        return None
    while len(kept_t) > m:
        # dropping an endpoint keeps the interior alternation intact;
        # shedding the weaker end can never lose the global maximum
        if abs(kept_r[0]) < abs(kept_r[-1]):
            kept_t, kept_r = kept_t[1:], kept_r[1:]
        else:
            kept_t, kept_r = kept_t[:-1], kept_r[:-1]
    return np.array(kept_t)


def _to_monomial(cheb_coef, lo, hi, L) -> Polynomial:
    ct = _cheb.cheb2poly(cheb_coef)
    pt = np.polynomial.Polynomial(ct)
    s = 2.0 / (hi - lo)
    b = -(hi + lo) / (hi - lo)
    px = pt(np.polynomial.Polynomial([b, s]))
    coeffs = np.zeros(L + 1)
    coeffs[: px.coef.size] = px.coef
    return Polynomial(coeffs, (lo, hi))


@dataclass(frozen=True)
class ErrorCurve:
    """E_L(f, [0, lam]) over a grid of degrees and interval widths."""

    records: tuple
    slope_vs_L: dict
    slope_vs_lam: dict


def approx_error_curve(f, L_values: Sequence[int], lam_values: Sequence[float]) -> ErrorCurve:
    """Tabulate E_L(f, [0, lam]) and fit log-log slopes in L and lam."""
    L_values = [int(L) for L in L_values]
    lam_values = [float(v) for v in lam_values]
    if any(v <= 0 for v in lam_values):
        raise ConfigurationError("interval widths must be positive")
    records = []
    table: dict[tuple[int, float], float] = {}
    for lam in lam_values:
        for L in L_values:
            res = remez_best_approx(f, L, (0.0, lam))
            table[(L, lam)] = res.sup_error
            records.append((L, lam, res.sup_error, res.converged))
    slope_vs_L = {}
    if len(L_values) >= 2:
        for lam in lam_values:
            errs = np.array([table[(L, lam)] for L in L_values])
            if np.all(errs > 0):
                slope_vs_L[lam] = float(
                    np.polyfit(np.log(np.array(L_values, dtype=float)), np.log(errs), 1)[0]
                )
    slope_vs_lam = {}
    if len(lam_values) >= 2:
        for L in L_values:
            errs = np.array([table[(L, lam)] for lam in lam_values])
            if np.all(errs > 0):
                slope_vs_lam[L] = float(
                    np.polyfit(np.log(np.array(lam_values)), np.log(errs), 1)[0]
                )
    return ErrorCurve(records=tuple(records), slope_vs_L=slope_vs_L, slope_vs_lam=slope_vs_lam)
