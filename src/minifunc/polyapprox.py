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
  4. stop when (max residual) - (min reference residual) falls to 1e-10
     of the min reference residual, or to the round-off floor
     (L+2) * eps * max|f| (max|f| on the interval) that residuals are
     evaluated to, when larger.  A residual with no L+2 alternating
     extrema, which only round-off gives, stops the solve too, converged
     if that test passes; at_roundoff_floor records a stop at round-off.
     After 100 exchanges the solve ends unconverged.

Equioscillation at L+2 alternating extrema certifies optimality.  The
result keeps the Chebyshev coefficients of the solve, which the composite
estimator evaluates, and their one conversion to the monomial basis of
the original variable, which approx prints; those coefficients grow like
(2 / interval width)**m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ConfigurationError, NumericalError
from .functionals import _as_callable, _golden_max

__all__ = [
    "Polynomial",
    "ApproxResult",
    "remez_best_approx",
]

# exchange loop limits; see the module docstring
_MAX_EXCHANGES = 100
_REL_TOL = 1e-10


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial sum_m coeffs[m] * x**m."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).copy()
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigurationError("polynomial coefficients must be a non-empty 1-d array")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a best-approximation solve.

    cheb_coeffs holds the best polynomial as sum_j cheb_coeffs[j] T_j(t),
    t = (2x - lo - hi) / (hi - lo); poly is it in powers of x.  sup_error
    approximates E_L(f, interval); alternation_points are the L+2
    reference points of the final exchange (residual alternates in sign
    there whenever sup_error is meaningfully above round-off).
    alternation_residuals holds f - poly there, computed in the Chebyshev
    form; use them rather than re-evaluating poly when the degree is large.
    at_roundoff_floor is True when the solve stopped at round-off, not at
    the 1e-10 tolerance (module docstring, step 4).
    """

    poly: Polynomial
    cheb_coeffs: np.ndarray
    sup_error: float
    alternation_points: np.ndarray
    iterations: int
    converged: bool
    alternation_residuals: np.ndarray
    at_roundoff_floor: bool

    def __post_init__(self):
        for name in ("cheb_coeffs", "alternation_points", "alternation_residuals"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def remez_best_approx(f, L: int, interval) -> ApproxResult:
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
    # the levelled system, filled on each exchange; allocated first, as
    # the largest array of the solve, so a degree too large fails here
    # before the 8(L+2)-point scan is built
    try:
        A = np.empty((m_ref, m_ref))
    except (ValueError, OverflowError, MemoryError):
        raise ConfigurationError(f"degree {L} is too large to allocate") from None
    ref = -np.cos(np.pi * np.arange(m_ref) / (m_ref - 1))
    signs = (-1.0) ** np.arange(m_ref)
    # doubly clustered base scan: residual extrema of endpoint-singular
    # targets (sqrt, p*log p) pack quartically toward the edges, tighter
    # than plain Chebyshev spacing resolves
    theta = 0.5 * np.pi * (1.0 - np.cos(np.linspace(0.0, np.pi, 8 * m_ref)))
    scan_base = -np.cos(theta)

    for iterations in range(1, _MAX_EXCHANGES + 1):
        A[:, : L + 1] = _cheb.chebvander(ref, L)
        A[:, L + 1] = signs
        y = ft(ref)
        if not np.all(np.isfinite(y)):
            raise NumericalError("f is not finite on the approximation interval")
        try:
            sol = np.linalg.solve(A, y)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"levelled interpolation system is singular: {e}") from e
        coef = sol[: L + 1]

        def resid(t, coef=coef):
            return ft(t) - _cheb_eval(t, coef)

        # the scan follows the migrating reference: midpoints between
        # consecutive reference points keep resolution where it matters;
        # sorted with repeats dropped (np.unique would import numpy.ma)
        grid = np.sort(np.concatenate([scan_base, ref, 0.5 * (ref[1:] + ref[:-1])]))
        grid = grid[np.append(True, grid[1:] != grid[:-1])]
        fvals = ft(grid)
        if not np.all(np.isfinite(fvals)):
            raise NumericalError("f is not finite on the approximation interval")
        r = fvals - _cheb_eval(grid, coef)
        fmax = float(np.max(np.abs(fvals)))
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
        # None only where the residual is flat at round-off: stop on ref
        stuck = new_ref is None
        ref = ref if stuck else new_ref
        rr = resid(ref)
        maxres = max(scan_max, float(np.max(np.abs(rr))))
        minres = float(np.min(np.abs(rr)))
        spread = maxres - minres
        converged = spread <= max(_REL_TOL * minres, m_ref * sys.float_info.epsilon * fmax)
        if converged or stuck:
            break

    return ApproxResult(
        poly=_to_monomial(coef, lo, hi, L),
        cheb_coeffs=coef,
        sup_error=maxres,
        alternation_points=mid + half * ref,
        iterations=iterations,
        converged=converged,
        alternation_residuals=rr,
        at_roundoff_floor=stuck or (converged and spread > _REL_TOL * minres),
    )


def _check_converged(result: ApproxResult, L: int) -> ApproxResult:
    """result, or NumericalError when its exchange did not converge."""
    if not result.converged:
        raise NumericalError(
            f"best-approximation search did not converge at degree {L} "
            f"after {result.iterations} exchanges"
        )
    return result


def _cheb_eval(t, coef):
    """sum_k coef[k] T_k(t) on [-1, 1] as cos(k arccos t) @ coef.

    T_k(cos s) = cos(k s) makes this exact in exact arithmetic; one matrix
    product is about 4x faster than numpy's chebval, whose Clenshaw
    recurrence runs one Python-level step per coefficient.
    """
    return np.cos(np.multiply.outer(np.arccos(t), np.arange(coef.size))) @ coef


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
    return Polynomial(coeffs)

