"""Monte Carlo risk evaluation over test distribution families.

monte_carlo_risk runs independent sample-then-estimate cycles against a
fixed distribution and reports bias, variance, and MSE with jackknife
standard errors.  rate_sweep does the same for every (n, estimator) cell
of an n-grid with an alphabet-size rule and fits log-log slopes, next to
a closed-form rate oracle keyed on the divergence-speed exponent.  Both
run one simulation routine, which runs the reps of every cell in
cell-then-rep order, serially or over at most one fork pool.  Each rep
draws an exact sample of n from P, by a rule fixed by the cell: where
n <= k, n symbols from a Walker alias table of P, counted (with no alias
coins where the table keeps every symbol, as for uniform P); where n > k,
numpy's multinomial histogram, which the composite splits with
estimators._thin, as split_samples does.  A rep draws bare count
arrays.  A symbol's term depends only on its key, its count (for the
composite, 2 * estimation count + branch), so a rep's estimate is the sum
estimators._fingerprint_sum would give: how many symbols share each key,
times the estimator's value at that key, gathered from one table the
cell fills once.  The estimates are byte-identical to run_estimator's on
the same draw.  Every rep is seeded as numpy's
PCG64(SeedSequence((master_seed, n, k, estimator index, rep))), which a
cell derives for all its reps at once and certifies against numpy at its
first and last rep, so results are reproducible bit-for-bit regardless of
worker count.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, MinifuncError, NumericalError
from .estimators import ESTIMATORS, _count_rule, _fingerprint, _key_values, _thin, tuned_config
from .functionals import Functional, additive_functional

__all__ = [
    "DistributionSpec",
    "RiskReport",
    "SweepRow",
    "SweepResult",
    "ESTIMATORS",
    "monte_carlo_risk",
    "theoretical_rate",
    "parse_k_rule",
    "rate_sweep",
]

_FAMILIES = ("uniform", "zipf", "two_spike", "dirichlet")
_DEFAULT_PARAM = {"zipf": 1.0, "two_spike": 0.5, "dirichlet": 1.0}

_DIST_SEED_TAG = 987654321


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution on k symbols.

    uniform ignores param; zipf uses it as the exponent s (default 1);
    two_spike puts mass param on symbol 0 and the rest on symbol 1
    (default 1/2); dirichlet draws a random simplex point with
    concentration param (default 1) from the rng handed to
    probability_vector.
    """

    family: str
    k: int
    param: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"family must be one of {_FAMILIES}, got {self.family!r}"
            )
        try:
            operator.index(self.k)
        except TypeError:
            raise ConfigurationError(f"alphabet size must be an integer, got {self.k!r}") from None
        if self.k < 1:
            raise ConfigurationError(f"alphabet size must be >= 1, got {self.k}")
        if self.family == "two_spike":
            if self.k < 2:
                raise ConfigurationError("two_spike needs k >= 2")
            p = self._param()
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"two_spike mass must lie in [0, 1], got {p!r}")
        elif self.family in ("zipf", "dirichlet"):
            if not 0 < self._param() < math.inf:
                raise ConfigurationError(
                    f"{self.family} parameter must be positive and finite, got {self._param()!r}"
                )

    def _param(self) -> float:
        if self.param is not None:
            return float(self.param)
        return _DEFAULT_PARAM.get(self.family, 0.0)

    @property
    def label(self) -> str:
        if self.family == "uniform":
            return "uniform"
        return f"{self.family}({self._param():g})"

    def probability_vector(self, rng=None) -> np.ndarray:
        if self.family == "uniform":
            p = np.full(self.k, 1.0 / self.k)
        elif self.family == "zipf":
            # a power past the float range is inf, whose reciprocal 0 is the mass
            with np.errstate(over="ignore"):
                p = 1.0 / np.arange(1.0, self.k + 1.0) ** self._param()
            p /= math.fsum(p.tolist())
        elif self.family == "two_spike":
            p = np.zeros(self.k)
            p[0] = self._param()
            p[1] = 1.0 - self._param()
        else:
            rng = np.random.default_rng(rng)
            p = rng.dirichlet(np.full(self.k, self._param()))
            p = p / math.fsum(p.tolist())
        # written so that a NaN sum fails too
        if not abs(math.fsum(p.tolist()) - 1.0) <= 1e-12:
            raise ConfigurationError(
                f"{self.label} vector left the simplex: sum={math.fsum(p.tolist())!r}"
            )
        return p


@dataclass(frozen=True)
class RiskReport:
    """Bias, variance, and MSE of one estimator at one (P, n).

    mse always equals bias^2 + variance up to rounding; construction
    re-checks that identity and refuses to produce an inconsistent
    report.  The se_* fields are leave-one-out jackknife standard
    errors of the matching statistic.
    """

    estimator: str
    estimates: np.ndarray
    bias: float
    variance: float
    mse: float
    reps: int
    theta_true: float
    se_bias: float = 0.0
    se_variance: float = 0.0
    se_mse: float = 0.0

    def __post_init__(self):
        estimates = np.asarray(self.estimates, dtype=float)
        if estimates.size != self.reps:
            raise ConfigurationError(
                f"got {estimates.size} estimates for reps={self.reps}"
            )
        scale = max(abs(self.mse), self.bias**2 + self.variance, 1.0e-30)
        gap = abs(self.mse - (self.bias**2 + self.variance))
        if gap > 1e-10 * scale:
            raise ConfigurationError(
                f"bias-variance identity violated: mse={self.mse!r} vs "
                f"bias^2+var={self.bias**2 + self.variance!r}"
            )
        estimates.flags.writeable = False
        object.__setattr__(self, "estimates", estimates)


def _jackknife_ses(estimates: np.ndarray, theta: float) -> tuple[float, float, float]:
    R = estimates.size
    if R < 2:
        return (0.0, 0.0, 0.0)
    S = math.fsum(estimates.tolist())
    sq = (estimates - theta) ** 2
    Q = math.fsum(sq.tolist())
    loo_mean = (S - estimates) / (R - 1)
    loo_bias = loo_mean - theta
    loo_mse = (Q - sq) / (R - 1)
    loo_var = loo_mse - loo_bias**2

    def se(loo: np.ndarray) -> float:
        centered = loo - loo.mean()
        return math.sqrt((R - 1) / R * float(np.dot(centered, centered)))

    return (se(loo_bias), se(loo_var), se(loo_mse))


# (rep functions, reps per cell) of the simulation being forked: the
# pool's workers inherit it, so no closure is pickled
_SIMULATION: tuple = ()


def _run_rep(i: int) -> float:
    """Rep i of the flat cell-then-rep index of _SIMULATION."""
    run_reps, reps = _SIMULATION
    return run_reps[i // reps](i % reps)


def _alias_table(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table (q, alias) of P, built as in Vose (1991).

    A uniform symbol j is kept with probability q[j] and replaced by
    alias[j] otherwise, so symbol i has probability
    (q[i] + sum over j with alias[j] = i of (1 - q[j])) / k.
    """
    k = P.size
    scaled = (P * k).tolist()
    q = [1.0] * k
    alias = list(range(k))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        q[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # whatever is left holds 1 up to rounding, so keeps itself
    return np.array(q), np.array(alias)


def _sampler(P: np.ndarray, table, n: int, split: bool):
    """The exact draw of one rep of a cell: rng -> its counts, or with split
    its (estimation, selector) counts, as run_estimator would see them.

    Where n > k, numpy's multinomial histogram (k conditional binomials),
    with split thinned by estimators._thin: the calls sample_histogram and
    split_samples make on the same rng.  Where
    n <= k, n symbols from P's alias table (q, alias), counted in
    O(n + k); with split, the first Binomial(n, 1/2) symbols are the
    estimation half and the rest the selector half, which has the law of
    thinning each sample by a fair coin, since the coins are independent
    of the symbols.  Where the table keeps every symbol (q = 1, checked
    once per cell), every alias coin would keep j: the draw takes the
    uniform symbols as they are and advances the rng past the n doubles
    the coins would take.  The risk lab's PCG64 spends one 64-bit output
    per double, so the split's binomial, the only later draw, sees the
    same state and the counts are bit-identical to the coin path's.
    """
    k = P.size
    keeps_all = table is not None and bool((table[0] == 1.0).all())

    def draw(rng):
        if n > k:
            counts = rng.multinomial(n, P)
            return _thin(counts, rng) if split else counts
        q, alias = table
        j = rng.integers(0, k, n)
        if keeps_all:
            sym = j
            rng.bit_generator.advance(n)
        else:
            sym = np.where(rng.random(n) < q[j], j, alias[j])
        if not split:
            return np.bincount(sym, minlength=k)
        m = rng.binomial(n, 0.5)
        return np.bincount(sym[:m], minlength=k), np.bincount(sym[m:], minlength=k)

    return draw


class _KeyTable:
    """table[key] = _key_values(key, values) for the keys 0, 1, ..., filled
    on demand.

    at() gives the terms of ascending keys B * count + branch, B =
    len(values), from one gather: it fills the table, doubling it, up to
    the largest key asked for, but never past limit; larger keys are
    handed to _key_values directly.  values are the estimator's own
    per-count functions, and numpy gives the same bits for a count
    wherever it sits in the array, so a table entry is the value
    run_estimator computes."""

    def __init__(self, values, limit: int):
        self.values = values
        self.limit = limit
        self.table = np.empty(0)

    def at(self, keys: np.ndarray) -> np.ndarray:
        """The term of each of keys, which are ascending."""
        top = int(keys[-1])
        if top >= self.table.size:
            if top > self.limit:
                return _key_values(keys, self.values)
            have = self.table.size
            size = min(max(top + 1, 2 * have), self.limit + 1)
            fresh = _key_values(np.arange(have, size), self.values)
            self.table = np.concatenate([self.table, fresh])
        return self.table[keys]


# numpy's SeedSequence constants (its published mixing algorithm, in
# numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of value (an int or a uint64 array of 32-bit
    words) under the running constant const, which steps by mult:
    (hash, next constant)."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint64 arrays)."""
    x = (_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32) & _M32
    return x ^ x >> 16


def _rep_seeds(key: tuple, reps: np.ndarray) -> np.ndarray:
    """SeedSequence(key + (r,)).generate_state(4, np.uint64) for each r of
    reps, below 2**32, as one row each.

    SeedSequence reads each int of its entropy as its 32-bit words (0 as
    one word), hashes the first four into a pool of four words, mixes the
    pool together, then mixes each later word into every pool word; each
    hash steps a running constant by MULT_A, 4 hashes per word in all.
    key's four ints give at least four words, so SeedSequence(key).pool is
    the pool before r's word, the last: that word is mixed in for every r
    at once, in uint64 arrays of 32-bit values, and generate_state hashes
    the pool into 8 words, paired little-endian."""
    words = sum(max(1, -(-x.bit_length() // 32)) for x in key)
    const = _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _M32
    pool = np.random.SeedSequence(key).pool.tolist()
    r = np.asarray(reps, dtype=np.uint64)
    for d in range(4):
        h, const = _hashmix(r, const, _MULT_A)
        pool[d] = _mix(pool[d], h)
    out, const = [], _INIT_B
    for i in range(8):
        h, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(h)
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _pcg64_state(seed: np.ndarray) -> dict:
    """The PCG64 state that PCG64(SeedSequence) sets from the seed words
    (initstate high, low, initseq high, low): inc = 2 initseq + 1 and
    state = ((inc + initstate) M + inc) mod 2**128, no 32-bit half held."""
    s_hi, s_lo, i_hi, i_lo = seed.tolist()
    inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


# reps per _rep_seeds call, whose uint64 temporaries take ~180 bytes a rep
_SEED_BLOCK = 2**16


def _certified_seeds(key: tuple, reps: int) -> np.ndarray:
    """_rep_seeds of reps 0 .. reps - 1 under key, in blocks of
    _SEED_BLOCK, after a certificate: the states of rep 0 and rep reps - 1
    must be numpy's own, PCG64(SeedSequence(key + (r,))).state, or
    NumericalError is raised."""
    seeds = np.empty((reps, 4), dtype=np.uint64)
    for lo in range(0, reps, _SEED_BLOCK):
        seeds[lo : lo + _SEED_BLOCK] = _rep_seeds(key, np.arange(lo, min(lo + _SEED_BLOCK, reps)))
    for r in (0, reps - 1):
        if _pcg64_state(seeds[r]) != np.random.PCG64(np.random.SeedSequence(key + (r,))).state:
            raise NumericalError(
                f"bulk-derived PCG64 state of rep {r} under seed key {key} differs from "
                f"numpy {np.__version__}'s SeedSequence"
            )
    return seeds


def _cell(spec, estimator, n, phi, cfg, master_seed, P, table, reps):
    """theta and the rep function of one (spec, estimator, n) cell.

    P and its alias table are built once per spec, the estimator's
    per-count rule (the composite's Remez plan included) and the reps'
    seeds here; all before any pool forks, so every rep only reads them.
    Rep r's generator state is numpy's PCG64(SeedSequence((master_seed,
    n, k, estimator index, r))), derived for every rep at once by
    _certified_seeds and set on the cell's one Generator.  The rule's value
    functions become one _KeyTable over the keys B * count + branch,
    limited to counts of min(n, k), which each process fills as its reps
    need; a rep is then a draw of bare counts, its _fingerprint, one
    gather from the table and one math.fsum."""
    est_idx = ESTIMATORS.index(estimator)
    rule, values = _count_rule(estimator, phi, cfg, n)
    draw = _sampler(P, table, n, split=rule is not None)
    B = len(values)
    tabled = _KeyTable(values, B * min(n, spec.k) + B - 1)
    seeds = _certified_seeds((master_seed, n, spec.k, est_idx), reps)
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)

    def run_rep(r: int) -> float:
        bitgen.state = _pcg64_state(seeds[r])
        if rule is None:
            counts, branch = draw(rng), None
        else:
            counts, sel = draw(rng)
            branch = rule.branch(sel)
        try:
            keys, mult = _fingerprint(counts, branch, B)
            return math.fsum((mult * tabled.at(keys)).tolist())
        except MinifuncError as e:
            raise type(e)(
                f"estimator {estimator!r} failed at rep {r}: {e}"
            ) from e

    return additive_functional(P, phi), run_rep


def _simulate(cells, phi, reps, master_seed, jobs) -> list[RiskReport]:
    """One RiskReport per (spec, estimator, n) cell, in cell order.

    The reps run, and their estimates are collected, in cell-then-rep
    order; with jobs > 1 the flat rep index is mapped, ceil(reps /
    workers) to a chunk, over one fork pool of min(jobs, cpu count,
    cells * reps) workers.  Where fork is unavailable they run serially.
    """
    global _SIMULATION
    for _, estimator, n in cells:
        if estimator not in ESTIMATORS:
            raise ConfigurationError(
                f"estimator must be one of {ESTIMATORS}, got {estimator!r}"
            )
        if n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {n}")
    if reps < 100:
        raise ConfigurationError(f"reps must be >= 100, got {reps}")
    # a rep index is one 32-bit word of its seed key
    if reps >= 2**32:
        raise ConfigurationError(f"reps must be < 2**32, got {reps}")
    if master_seed < 0:
        raise ConfigurationError(f"master_seed must be >= 0, got {master_seed}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cfg = tuned_config(phi.alpha)
    # P once per spec, and its alias table once where some cell draws by symbol
    dists, tables = {}, {}
    for spec, _, n in cells:
        if spec not in dists:
            seq = np.random.SeedSequence((master_seed, spec.k, _DIST_SEED_TAG))
            dists[spec] = spec.probability_vector(rng=np.random.default_rng(seq))
        if n <= spec.k and spec not in tables:
            tables[spec] = _alias_table(dists[spec])
    built = (_cell(s, est, n, phi, cfg, master_seed, dists[s], tables.get(s), reps) for s, est, n in cells)
    thetas, run_reps = zip(*built)

    workers = min(jobs, os.cpu_count() or 1, len(cells) * reps)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        results = [run_rep(r) for run_rep in run_reps for r in range(reps)]
    else:
        _SIMULATION = run_reps, reps
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = pool.map(
                    _run_rep, range(len(cells) * reps), chunksize=math.ceil(reps / workers)
                )
        finally:
            _SIMULATION = ()

    reports = []
    for c, ((_, estimator, _), theta) in enumerate(zip(cells, thetas)):
        estimates = np.array(results[c * reps : (c + 1) * reps], dtype=float)
        mean = math.fsum(estimates.tolist()) / reps
        se_bias, se_variance, se_mse = _jackknife_ses(estimates, theta)
        reports.append(
            RiskReport(
                estimator=estimator,
                estimates=estimates,
                bias=mean - theta,
                variance=math.fsum(((estimates - mean) ** 2).tolist()) / reps,
                mse=math.fsum(((estimates - theta) ** 2).tolist()) / reps,
                reps=reps,
                theta_true=theta,
                se_bias=se_bias,
                se_variance=se_variance,
                se_mse=se_mse,
            )
        )
    return reports


def monte_carlo_risk(
    spec: DistributionSpec,
    phi: Functional,
    estimator: str,
    n: int,
    reps: int = 1000,
    master_seed: int = 0,
    jobs: int = 1,
) -> RiskReport:
    """Estimate E[(theta_hat - theta)^2] at one distribution by simulation.

    Each rep draws a fresh sample of n from the distribution and runs the
    named estimator ('plugin', 'corrected', or 'composite') with
    tuned_config(phi.alpha) constants.  Where n <= k the rep draws n
    symbols from an alias table of P, and the composite's halves are the
    first Binomial(n, 1/2) symbols and the rest; where n > k it draws a
    multinomial histogram, which the composite splits in place.  Rep r is
    seeded from (master_seed, n, k, estimator index, r), so a longer run
    extends a shorter one sample-for-sample and the worker count never
    changes the output.  This is rate_sweep's simulation on a single
    cell: with jobs > 1 the reps run in up to min(jobs, cpu count) forked
    worker processes, and serially where fork is unavailable.  Estimator
    failures are re-raised with the rep index.
    """
    return _simulate([(spec, estimator, n)], phi, reps, master_seed, jobs)[0]


def theoretical_rate(alpha: float, n: int, k: int) -> float:
    """Minimax-rate expression by exponent branch, constants dropped.

    (0,1/2]: k^2/(n ln n)^{2a};  (1/2,1): + k^{2-2a}/n;
    1: k^2/(n ln n)^2 + ln^2(k)/n;  (1,3/2): + 1/n;  [3/2,2]: 1/n.
    """
    if alpha <= 0:
        raise ConfigurationError(
            f"no consistent estimator exists for alpha={alpha!r} <= 0; "
            "the rate is undefined there"
        )
    if alpha > 2:
        raise ConfigurationError(f"rate defined for alpha in (0, 2], got {alpha!r}")
    if n < 2:
        raise ConfigurationError(f"rate needs n >= 2, got {n}")
    if k < 1:
        raise ConfigurationError(f"rate needs k >= 1, got {k}")
    nl = n * math.log(n)
    main = k**2 / nl ** (2.0 * alpha)
    if alpha <= 0.5:
        return main
    if alpha < 1.0:
        return main + k ** (2.0 - 2.0 * alpha) / n
    if alpha == 1.0:
        return main + math.log(k) ** 2 / n
    if alpha < 1.5:
        return main + 1.0 / n
    return 1.0 / n


def parse_k_rule(rule: str):
    """Alphabet-size rule for sweeps: 'n', 'sqrt', or 'fixed:<int>'."""
    if rule == "n":
        return lambda n: int(n)
    if rule == "sqrt":
        return lambda n: max(1, int(math.isqrt(int(n))))
    if rule.startswith("fixed:"):
        try:
            k = int(rule.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"bad k rule {rule!r}") from None
        if k < 1:
            raise ConfigurationError(f"fixed alphabet size must be >= 1, got {k}")
        return lambda n: k
    raise ConfigurationError(
        f"k rule must be 'n', 'sqrt', or 'fixed:<int>', got {rule!r}"
    )


@dataclass(frozen=True)
class SweepRow:
    family: str
    k: int
    n: int
    estimator: str
    bias: float
    var: float
    mse: float
    se: float
    theory_rate: float


@dataclass(frozen=True)
class SweepResult:
    """Rows of a rate sweep plus fitted log-log slopes.

    slopes maps each estimator to the least-squares slope of log MSE
    against log n; theory_slope is the same fit applied to the rate
    oracle on the identical (n, k) grid.  Rows appear in (n ascending,
    estimator order given) order; to_csv renders them with repr-exact
    floats so equal results serialize to identical bytes.
    """

    rows: tuple = field(default_factory=tuple)
    slopes: dict = field(default_factory=dict)
    theory_slope: float = math.nan

    def to_csv(self) -> str:
        lines = ["family,k,n,estimator,bias,var,mse,se,theory_rate"]
        for row in self.rows:
            lines.append(
                f"{row.family},{row.k},{row.n},{row.estimator},"
                f"{row.bias!r},{row.var!r},{row.mse!r},{row.se!r},{row.theory_rate!r}"
            )
        return "\n".join(lines) + "\n"


def _log_slope(ns, values) -> float:
    vals = np.asarray(values, dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        return math.nan
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(vals), 1)[0])


def rate_sweep(
    family: str,
    phi: Functional,
    estimators,
    n_grid,
    k_rule: str = "n",
    reps: int = 1000,
    param: float | None = None,
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Monte Carlo risk across an n-grid with k tied to n by k_rule.

    Requires at least 4 distinct grid points spanning a decade so the
    log-log slope fit means something, and distinct estimators.  The
    theory column is theoretical_rate at phi.alpha, computed for the
    whole grid before any rep runs, so an exponent outside (0, 2] is
    rejected up front.
    """
    ns = sorted(int(n) for n in n_grid)
    repeated = sorted({n for n, m in zip(ns, ns[1:]) if n == m})
    if repeated:
        raise ConfigurationError(f"n_grid values must be distinct, got {repeated} more than once")
    if len(ns) < 4:
        raise ConfigurationError(f"n_grid needs >= 4 points, got {len(ns)}")
    if ns[0] < 2:
        raise ConfigurationError(f"n_grid values must be >= 2, got {ns[0]}")
    if ns[-1] < 10 * ns[0]:
        raise ConfigurationError(
            f"n_grid must span at least one decade, got [{ns[0]}, {ns[-1]}]"
        )
    estimators = list(estimators)
    if not estimators:
        raise ConfigurationError(f"estimators must name at least one of {ESTIMATORS}")
    if len(set(estimators)) < len(estimators):
        raise ConfigurationError(f"estimators must be distinct, got {estimators}")
    k_of = parse_k_rule(k_rule)
    specs = [DistributionSpec(family=family, k=k_of(n), param=param) for n in ns]
    theory = [theoretical_rate(phi.alpha, n, spec.k) for n, spec in zip(ns, specs)]

    grid = [(spec, est, n, rate) for n, spec, rate in zip(ns, specs, theory) for est in estimators]
    reports = _simulate([cell[:3] for cell in grid], phi, reps, master_seed, jobs)
    rows = [
        SweepRow(
            family=spec.label,
            k=spec.k,
            n=n,
            estimator=est,
            bias=report.bias,
            var=report.variance,
            mse=report.mse,
            se=report.se_mse,
            theory_rate=rate,
        )
        for (spec, est, n, rate), report in zip(grid, reports)
    ]

    slopes = {
        est: _log_slope(ns, [r.mse for r in rows if r.estimator == est])
        for est in estimators
    }
    return SweepResult(rows=tuple(rows), slopes=slopes, theory_slope=_log_slope(ns, theory))
