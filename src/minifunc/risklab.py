"""Monte Carlo risk evaluation over test distribution families.

monte_carlo_risk runs independent sample-then-estimate cycles against a
fixed distribution and reports bias, variance, and MSE with jackknife
standard errors.  rate_sweep does the same for every (n, estimator) cell
of an n-grid with an alphabet-size rule and fits log-log slopes, next to
a closed-form rate oracle keyed on the divergence-speed exponent.  Both
run one simulation routine, which runs the reps of every cell in
cell-then-rep order, serially or over at most one fork pool.  Each rep
draws an exact sample of n from P, by a rule fixed by the cell: where
n <= k, n symbols from a Walker alias table of P, counted (with no table
and no alias coins where P's masses are all equal, as for uniform P);
where n > k, numpy's multinomial histogram.  A rep draws a bare count
array, for every estimator.  A symbol's term depends only on its count,
so a rep's estimate is estimators._fingerprint_sum of its counts and the
estimator's _count_rule, the library's own sum and rule, with the terms
gathered from one table the cell fills once.  The estimates are
byte-identical to run_estimator's on the same draw.  A cell's reps run
in blocks of _BLOCK: block b draws from numpy's
default_rng(SeedSequence((master_seed, n, k, estimator index, b))), rep
after rep, so each rep's draw is fixed by (master_seed, n, k, estimator,
rep), a longer run extends a shorter one, and results are reproducible
bit-for-bit regardless of worker count.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, MinifuncError
from .estimators import ESTIMATORS, _count_rule, _fingerprint_sum, tuned_config
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


def _jackknife_ses(estimates: np.ndarray, theta: float, S: float, sq: np.ndarray, Q: float):
    """Jackknife standard errors of (bias, variance, mse), given S, the
    sum of estimates, sq, their squared errors, and Q, the sum of sq."""
    R = estimates.size
    if R < 2:
        return (0.0, 0.0, 0.0)
    loo_mean = (S - estimates) / (R - 1)
    loo_bias = loo_mean - theta
    loo_mse = (Q - sq) / (R - 1)
    loo_var = loo_mse - loo_bias**2

    def se(loo: np.ndarray) -> float:
        centered = loo - loo.mean()
        return math.sqrt((R - 1) / R * float(np.dot(centered, centered)))

    return (se(loo_bias), se(loo_var), se(loo_mse))


# reps per seed key: rep r is rep r % _BLOCK of block r // _BLOCK's
# stream, whatever the rep count, so the block size fixes every output
_BLOCK = 100

# (block functions, blocks per cell) of the simulation being forked: the
# pool's workers inherit it, so no closure is pickled
_SIMULATION: tuple = ()


def _run_block(i: int) -> list[float]:
    """Block i of the flat cell-then-block index of _SIMULATION."""
    run_blocks, blocks = _SIMULATION
    return run_blocks[i // blocks](i % blocks)


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


def _sampler(P: np.ndarray, table, n: int):
    """The exact draw of one rep of a cell: rng -> its counts, as
    run_estimator would see them.  The rule is picked once per cell.

    Where n > k, numpy's multinomial histogram (k conditional binomials),
    the call sample_histogram makes on the same rng.  Where n <= k, n
    symbols from P's alias table (q, alias), counted in O(n + k).  Where
    the table is None (its q would be 1 for every symbol), every
    alias coin would keep j: the draw takes the uniform symbols as they are
    and advances the rng past the n doubles the coins would take.  The risk
    lab's PCG64 spends one 64-bit output per double, so the counts and the
    64-bit stream position after them are the coin path's.  The advance
    also drops PCG64's buffered 32-bit half, which rng.integers leaves set
    after an odd n: from there on a block's later reps draw other symbols
    than the coin path would, all of them exact.
    """
    k = P.size
    if n > k:
        return lambda rng: rng.multinomial(n, P)
    if table is None:
        def draw(rng):
            sym = rng.integers(0, k, n)
            rng.bit_generator.advance(n)
            return np.bincount(sym, minlength=k)

        return draw
    q, alias = table

    def draw(rng):
        j = rng.integers(0, k, n)
        return np.bincount(np.where(rng.random(n) < q[j], j, alias[j]), minlength=k)

    return draw


def _tabled(values, limit: int):
    """values through a table of the counts 0, 1, ...: the function maps
    ascending counts to their terms with one gather, filling the table,
    doubling it, up to the largest count asked for but never past limit;
    larger counts go to values directly.  values gives a count the same
    bits wherever it sits in the array, so an entry is run_estimator's."""
    table = np.empty(0)

    def at(keys: np.ndarray) -> np.ndarray:
        nonlocal table
        top = int(keys[-1])
        if top >= table.size:
            if top > limit:
                return values(keys)
            size = min(max(top + 1, 2 * table.size), limit + 1)
            table = np.concatenate([table, values(np.arange(table.size, size))])
        return table[keys]

    return at


def _cell(spec, estimator, n, phi, cfg, master_seed, P, table, reps):
    """theta and the block function of one (spec, estimator, n) cell.

    P and its alias table (None for equal masses) are built once per spec,
    and the cell's _sampler and the estimator's per-count rule (the
    composite's Remez plan included) here; all before any pool forks, so
    every rep only reads them.  Block b runs reps b * _BLOCK up to the
    next block or reps, one after another on numpy's
    default_rng(SeedSequence((master_seed, n, k, estimator index, b))).
    The rule's value function is _tabled over the counts up to
    min(n, max(k, 2**16)), past k where a rep's counts are, in a table
    each process fills as its reps need; a rep is then a draw of bare
    counts and their _fingerprint_sum, one gather from the table and one
    math.fsum."""
    key = (master_seed, n, spec.k, ESTIMATORS.index(estimator))
    draw = _sampler(P, table, n)
    terms = _tabled(_count_rule(estimator, phi, cfg, n), min(n, max(spec.k, 2**16)))

    def run_block(b: int) -> list[float]:
        rng = np.random.default_rng(np.random.SeedSequence(key + (b,)))
        estimates = []
        for r in range(b * _BLOCK, min((b + 1) * _BLOCK, reps)):
            counts = draw(rng)
            try:
                estimates.append(_fingerprint_sum(counts, terms))
            except MinifuncError as e:
                raise type(e)(
                    f"estimator {estimator!r} failed at rep {r}: {e}"
                ) from e
        return estimates

    return additive_functional(P, phi), run_block


def _simulate(cells, phi, reps, master_seed, jobs) -> list[RiskReport]:
    """One RiskReport per (spec, estimator, n) cell, in cell order.

    P is built once per spec, and its alias table once where some cell
    draws by symbol, unless P's masses are all equal: they scale to one
    side of 1, so Vose's loop never pairs and q = 1 everywhere.  The cells
    get table None there, and where a built table has q = 1 everywhere
    (masses a few ulps apart, as zipf's at exponent 1e-16).  The blocks of reps run, and their estimates are
    collected, in cell-then-block order; with jobs > 1 the flat block
    index is mapped, ceil(blocks / workers) to a chunk, over one fork pool
    of min(jobs, cpu count, cells * blocks) workers.  Where fork is
    unavailable they run serially.
    """
    global _SIMULATION
    for _, estimator, n in cells:
        if estimator not in ESTIMATORS:
            raise ConfigurationError(
                f"estimator must be one of {ESTIMATORS}, got {estimator!r}"
            )
        if n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {n}")
    if reps < _BLOCK:
        raise ConfigurationError(f"reps must be >= {_BLOCK}, got {reps}")
    if master_seed < 0:
        raise ConfigurationError(f"master_seed must be >= 0, got {master_seed}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cfg = tuned_config(phi.alpha)
    dists, tables = {}, {}
    for spec, _, n in cells:
        if spec not in dists:
            seq = np.random.SeedSequence((master_seed, spec.k, _DIST_SEED_TAG))
            dists[spec] = spec.probability_vector(rng=np.random.default_rng(seq))
        P = dists[spec]
        if n <= spec.k and spec not in tables and (P != P[0]).any():
            q, alias = _alias_table(P)
            tables[spec] = None if (q == 1.0).all() else (q, alias)
    built = (_cell(s, est, n, phi, cfg, master_seed, dists[s], tables.get(s), reps) for s, est, n in cells)
    thetas, run_blocks = zip(*built)

    blocks = -(-reps // _BLOCK)
    workers = min(jobs, os.cpu_count() or 1, len(cells) * blocks)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        results = [run_block(b) for run_block in run_blocks for b in range(blocks)]
    else:
        _SIMULATION = run_blocks, blocks
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = pool.map(
                    _run_block, range(len(cells) * blocks), chunksize=math.ceil(blocks / workers)
                )
        finally:
            _SIMULATION = ()
    results = [x for block in results for x in block]

    reports = []
    for c, ((_, estimator, _), theta) in enumerate(zip(cells, thetas)):
        estimates = np.array(results[c * reps : (c + 1) * reps], dtype=float)
        S = math.fsum(estimates.tolist())
        sq = (estimates - theta) ** 2
        Q = math.fsum(sq.tolist())
        mean = S / reps
        se_bias, se_variance, se_mse = _jackknife_ses(estimates, theta, S, sq, Q)
        reports.append(
            RiskReport(
                estimator=estimator,
                estimates=estimates,
                bias=mean - theta,
                variance=math.fsum(((estimates - mean) ** 2).tolist()) / reps,
                mse=Q / reps,
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
    symbols from an alias table of P; where n > k it draws a multinomial
    histogram.  The reps run in blocks of 100, and block b draws from one
    stream seeded from (master_seed, n, k, estimator index, b), so rep r's
    draw is fixed by (master_seed, n, k, estimator, r), a longer run
    extends a shorter one sample-for-sample, and the worker count never
    changes the output.  This is rate_sweep's simulation on a single cell:
    with jobs > 1 the reps run in up to min(jobs, cpu count) forked worker
    processes, and serially where fork is unavailable.  Estimator failures
    are re-raised with the rep index.
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
