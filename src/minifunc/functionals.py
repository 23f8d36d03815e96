"""Additive functionals of discrete distributions.

The central object is theta(P) = sum_i phi(p_i) for a scalar map phi on
[0, 1].  Estimation theory for theta is driven by how fast derivatives of
phi blow up near zero: we say the ell-th divergence speed of phi is p^alpha
when there are constants W > 0 and c, c' >= 0 with

    W * p**(alpha - ell) - c' <= |phi^(ell)(p)| <= W * p**(alpha - ell) + c

on (0, 1).  Built-ins cover the two workhorse families: power sums
phi(p) = p**alpha and Shannon entropy phi(p) = -p*log(p).

This module also carries the truncation operator T_delta and the
second/fourth order bias-corrected transforms of phi used by the plugin
estimators downstream.  Everything here accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, FunctionalDomainError

__all__ = [
    "Functional",
    "ProbabilityVector",
    "DivergenceSpeedReport",
    "power_functional",
    "shannon_functional",
    "custom_functional",
    "additive_functional",
    "truncated_eval",
    "truncated_deriv",
    "bias_corrected_fn",
    "check_divergence_speed",
    "range_on_interval",
]


@dataclass(frozen=True)
class Functional:
    """A scalar map phi on [0, 1] together with its derivatives.

    kind / alpha identify the family; alpha is the divergence-speed
    exponent used to pick estimator configurations and rate formulas.
    deriv(ell, p) returns phi^(ell)(p) for 1 <= ell <= max_deriv_order,
    valid on (0, 1) (endpoints where the formula stays finite are fine).
    eval and deriv are vectorized over numpy arrays.
    """

    kind: str
    alpha: float
    _eval: Callable
    _derivs: tuple
    label: str = ""

    def eval(self, p):
        return self._eval(p)

    @property
    def max_deriv_order(self) -> int:
        return len(self._derivs)

    def deriv(self, ell: int, p):
        if not 1 <= ell <= self.max_deriv_order:
            raise ConfigurationError(
                f"derivative order {ell} outside 1..{self.max_deriv_order} "
                f"for functional {self.name}"
            )
        return self._derivs[ell - 1](p)

    @property
    def name(self) -> str:
        return self.label or self.kind

    def cache_key(self):
        # (kind, alpha) fixes a built-in; two custom functionals may share
        # label and alpha yet differ, so a custom one keys as itself
        if self.kind == "custom":
            return self
        return (self.kind, float(self.alpha), self.label)


def power_functional(alpha: float) -> Functional:
    """phi(p) = p**alpha.  phi^(ell)(p) = alpha*(alpha-1)*...*(alpha-ell+1) * p**(alpha-ell).

    alpha > 0 gives a functional finite on all of [0, 1].  alpha <= 0 is
    accepted so the no-consistent-estimator constructions can evaluate phi
    on strictly positive vectors; eval(0) is then +inf and
    additive_functional reports the offending index.
    """
    a = float(alpha)

    def ev(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(p > 0, np.power(np.where(p > 0, p, 1.0), a), _zero_limit(a))
        return out if out.ndim else float(out)

    def make_deriv(ell):
        coeff = 1.0
        for i in range(ell):
            coeff *= a - i

        def dv(p, coeff=coeff, ell=ell):
            p = np.asarray(p, dtype=float)
            out = coeff * np.power(p, a - ell)
            return out if out.ndim else float(out)

        return dv

    derivs = tuple(make_deriv(ell) for ell in range(1, 7))
    return Functional(kind="power", alpha=a, _eval=ev, _derivs=derivs)


def _zero_limit(a: float) -> float:
    if a > 0:
        return 0.0
    if a == 0:
        return 1.0
    return math.inf


def shannon_functional() -> Functional:
    """phi(p) = -p*log(p) with phi(0) = 0; theta is Shannon entropy in nats.

    phi'(p) = -log(p) - 1 and, for ell >= 2,
    phi^(ell)(p) = -(-1)**ell * (ell-2)! * p**(1-ell).
    """

    def ev(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        return out if out.ndim else float(out)

    def d1(p):
        p = np.asarray(p, dtype=float)
        out = -np.log(p) - 1.0
        return out if out.ndim else float(out)

    def make_deriv(ell):
        coeff = -((-1.0) ** ell) * math.factorial(ell - 2)

        def dv(p, coeff=coeff, ell=ell):
            p = np.asarray(p, dtype=float)
            out = coeff * np.power(p, 1.0 - ell)
            return out if out.ndim else float(out)

        return dv

    derivs = (d1,) + tuple(make_deriv(ell) for ell in range(2, 7))
    return Functional(kind="shannon", alpha=1.0, _eval=ev, _derivs=derivs)


def custom_functional(
    fn: Callable,
    derivs: Sequence[Callable],
    alpha: float,
    label: str = "custom",
) -> Functional:
    """Wrap user-supplied phi and derivatives (each vectorized over arrays)."""
    if not derivs:
        raise ConfigurationError("custom functional needs at least the first derivative")
    return Functional(
        kind="custom",
        alpha=float(alpha),
        _eval=fn,
        _derivs=tuple(derivs),
        label=label,
    )


@dataclass(frozen=True)
class ProbabilityVector:
    """A point of the probability simplex over k symbols.

    Entries must be non-negative and sum to 1 up to 1e-12, the slack
    allowed for float round-off.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigurationError("probability vector must be a non-empty 1-d array")
        if not np.all(np.isfinite(probs)):
            raise ConfigurationError("probability vector has non-finite entries")
        if np.any(probs < 0):
            i = int(np.argmin(probs))
            raise ConfigurationError(f"negative probability {probs[i]} at index {i}")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(
                f"probabilities sum to {total!r}, off the simplex by more than 1e-12"
            )
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size


def as_prob_array(P) -> np.ndarray:
    if isinstance(P, ProbabilityVector):
        return P.probs
    return np.asarray(P, dtype=float)


def additive_functional(P, phi: Functional) -> float:
    """theta(P) = sum_i phi(p_i), accumulated with compensated summation."""
    probs = as_prob_array(P)
    vals = np.asarray(phi.eval(probs), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise FunctionalDomainError(
            f"phi({float(probs[i])}) is not finite at index {i} for functional {phi.name}"
        )
    return math.fsum(vals.tolist())


def truncated_eval(phi: Functional, delta: float, p):
    """T_delta[phi](p): freeze phi below delta and above 1.

    Equals phi(delta) for p < delta, phi(p) on [delta, 1], phi(1) for p > 1.
    """
    _check_delta(delta)
    p = np.asarray(p, dtype=float)
    out = phi.eval(np.clip(p, delta, 1.0))
    return out if np.ndim(out) else float(out)


def truncated_deriv(phi: Functional, ell: int, delta: float, p):
    """Derivative of order ell of the truncated functional.

    Zero outside [delta, 1]; phi^(ell)(p) inside, with the value at p = 1
    taken as the left limit phi^(ell)(1).
    """
    _check_delta(delta)
    p = np.asarray(p, dtype=float)
    inside = (p >= delta) & (p <= 1.0)
    vals = phi.deriv(ell, np.clip(p, delta, 1.0))
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def _check_delta(delta: float):
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"truncation point delta={delta!r} outside (0, 1)")


def bias_corrected_fn(phi: Functional, order: int, delta: float, n: float, p):
    """Bias-corrected plugin transform evaluated at p (scalar or array).

    order 2:  T[phi](p) - p/(2n) * T2(p)
    order 4:  adds  p/(3n^2)*T3(p) + 5p/(24n^3)*T4(p) + p^2/(8n^2)*T4(p)
    where Tj is the truncated j-th derivative at the same delta.  The
    corrections cancel the leading Poisson-sampling bias of phi(N/n).
    """
    if order not in (2, 4):
        raise ConfigurationError(f"correction order must be 2 or 4, got {order}")
    if phi.max_deriv_order < order:
        raise ConfigurationError(
            f"functional {phi.name} exposes derivatives up to {phi.max_deriv_order}, "
            f"order-{order} correction needs {order}"
        )
    if not n > 0:
        raise ConfigurationError(f"sample size n must be positive, got {n!r}")
    p = np.asarray(p, dtype=float)
    out = truncated_eval(phi, delta, p) - (p / (2.0 * n)) * truncated_deriv(phi, 2, delta, p)
    if order == 4:
        t3 = truncated_deriv(phi, 3, delta, p)
        t4 = truncated_deriv(phi, 4, delta, p)
        out = (
            out
            + (p / (3.0 * n**2)) * t3
            + (5.0 * p / (24.0 * n**3)) * t4
            + (p**2 / (8.0 * n**2)) * t4
        )
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class DivergenceSpeedReport:
    ell: int
    alpha: float
    W: float
    c: float
    c_prime: float
    holds: bool
    witness: float | None
    spread: float


_SPEED_GRID = np.geomspace(1e-8, 1.0 - 1e-8, 4096)


def check_divergence_speed(phi: Functional, ell: int) -> DivergenceSpeedReport:
    """Numerically test whether the ell-th divergence speed of phi is p^alpha.

    alpha is phi.alpha.  On 4096 geometric points of [1e-8, 1 - 1e-8],
    fits W as the limiting ratio |phi^(ell)(p)| * p**(ell-alpha) at the
    smallest points, then reports the smallest feasible sandwich constants
    c, c'.  If the ratio over the four decades p <= 1e-4 spreads by more
    than 3% of W (wrong alpha: the ratio drifts like a power or a
    logarithm of p) the report comes back holds=False with the witness
    point of worst drift.
    """
    alpha = phi.alpha
    grid = _SPEED_GRID
    vals = np.abs(np.asarray(phi.deriv(ell, grid), dtype=float))
    if not np.all(np.isfinite(vals)):
        i = int(np.argmax(~np.isfinite(vals)))
        raise FunctionalDomainError(
            f"|phi^({ell})| not finite at p={float(grid[i])} for functional {phi.name}"
        )
    ratios = vals * grid ** (ell - alpha)
    head = ratios[grid <= 1e-4]
    smallest = np.sort(head[:8])
    W = float((smallest[3] + smallest[4]) / 2)  # the median, without np.median's numpy.ma import
    if not (math.isfinite(W) and W > 0.0):
        return DivergenceSpeedReport(
            ell=ell, alpha=alpha, W=W, c=math.inf, c_prime=math.inf,
            holds=False, witness=float(grid[0]), spread=math.inf,
        )
    spread = float((head.max() - head.min()) / W)
    if spread > 0.03:
        worst = int(np.argmax(np.abs(head - W)))
        return DivergenceSpeedReport(
            ell=ell, alpha=alpha, W=W, c=math.inf, c_prime=math.inf,
            holds=False, witness=float(grid[worst]), spread=spread,
        )
    envelope = W * grid ** (alpha - ell)
    c = max(0.0, float((vals - envelope).max()))
    c_prime = max(0.0, float((envelope - vals).max()))
    return DivergenceSpeedReport(
        ell=ell, alpha=alpha, W=W, c=c, c_prime=c_prime,
        holds=True, witness=None, spread=spread,
    )


def _as_callable(f) -> Callable:
    """A Functional's eval, or f itself when it is already a plain callable."""
    return f.eval if isinstance(f, Functional) else f


def range_on_interval(f, interval) -> tuple[float, float]:
    """(inf, sup) of f over a closed interval: dense scan + local golden refinement.

    f may be a Functional or a plain vectorized callable.  The scan has
    16384 evenly spaced points.
    """
    fn = _as_callable(f)
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ConfigurationError(f"empty interval {interval!r}")
    xs = np.linspace(lo, hi, 16384)
    ys = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        i = int(np.argmax(~np.isfinite(ys)))
        raise FunctionalDomainError(f"f({float(xs[i])}) not finite while scanning {interval!r}")
    # refine argmin and argmax as one batch: the argmin bracket maximises -f
    idx = np.array([np.argmin(ys), np.argmax(ys)])
    sign = np.array([-1.0, 1.0])
    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, xs.size - 1)]
    lo_val, hi_val = np.asarray(fn(_golden_max(lambda x: sign * fn(x), a, b)), dtype=float)
    return min(float(lo_val), float(ys.min())), max(float(hi_val), float(ys.max()))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 70


def _golden_max(g, a, b):
    """Batched golden-section maximisation of g over the brackets [a_j, b_j].

    g is vectorised over the bracket arrays and called once per step: the
    kept subinterval's interior point that the last step already
    evaluated is reused.  >= keeps the left subinterval on ties, so equal
    extrema resolve leftmost.  Returns the midpoints of the final
    brackets after _GOLDEN_STEPS steps.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_STEPS):
        take_left = gc >= gd
        # left keeps [a, d], whose upper interior point is c; right keeps
        # [c, b], whose lower interior point is d
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        x = np.where(take_left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        gx = g(x)
        c, d = np.where(take_left, x, d), np.where(take_left, c, x)
        gc, gd = np.where(take_left, gx, gd), np.where(take_left, gc, gx)
    return 0.5 * (a + b)
