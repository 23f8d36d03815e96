"""Tests for distribution families, Monte Carlo risk, and rate sweeps."""

import collections
import math
import multiprocessing
import os

import numpy as np
import pytest

from minifunc import estimators, risklab
from minifunc.errors import ConfigurationError, NumericalError
from minifunc.estimators import (
    Histogram,
    run_estimator,
    sample_histogram,
    split_samples,
    tuned_config,
)
from minifunc.functionals import custom_functional, power_functional, shannon_functional
from minifunc.risklab import (
    ESTIMATORS,
    DistributionSpec,
    RiskReport,
    monte_carlo_risk,
    parse_k_rule,
    rate_sweep,
    theoretical_rate,
)

SH = shannon_functional()

# Table-style rate at alpha=1, n=k=1e4: k^2/(n ln n)^2 + ln^2(k)/n
RATE_ALPHA1_1E4 = 0.02027126803999131


class _InlineForkContext:
    """Stands in for a fork context: records the pool sizes asked for and
    runs the tasks in this process, so no worker is ever started."""

    def __init__(self):
        self.methods, self.sizes = [], []

    def get_context(self, method):
        self.methods.append(method)
        return self

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return [fn(x) for x in iterable]


def _rep_rngs(key, reps):
    """The generator each rep of a cell with seed key draws from, in rep
    order: one default_rng(SeedSequence(key + (b,))) per block of 100
    reps, shared by that block's reps one after another."""
    for b in range(-(-reps // 100)):
        rng = np.random.default_rng(np.random.SeedSequence(key + (b,)))
        for _ in range(min(100, reps - 100 * b)):
            yield rng


def _sampler_loop(phi, spec, n, estimator, reps, seed):
    """Each rep's estimate as _sampler's draw handed to run_estimator."""
    P = spec.probability_vector()
    draw = risklab._sampler(P, risklab._alias_table(P), n)
    cfg = tuned_config(phi.alpha)
    return [
        run_estimator(estimator, Histogram(draw(rng), n), phi, cfg).estimate
        for rng in _rep_rngs((seed, n, spec.k, ESTIMATORS.index(estimator)), reps)
    ]


class TestDistributionSpec:
    def test_uniform(self):
        p = DistributionSpec("uniform", 5).probability_vector()
        assert np.allclose(p, 0.2, rtol=0, atol=1e-15)

    def test_zipf_frozen(self):
        p = DistributionSpec("zipf", 4).probability_vector()
        assert p == pytest.approx([0.48, 0.24, 0.16, 0.12], rel=1e-12)

    def test_zipf_exponent(self):
        p = DistributionSpec("zipf", 3, param=2.0).probability_vector()
        weights = np.array([1.0, 0.25, 1.0 / 9.0])
        assert p == pytest.approx(weights / weights.sum(), rel=1e-12)

    # the power overflows from symbol 6 on at exponent 400 and from
    # symbol 9957 on at 77.1; the suite turns a RuntimeWarning into an error
    @pytest.mark.parametrize("k, s, finite", [(10, 400.0, 5), (10**4, 77.1, 9956)])
    def test_zipf_past_the_float_range_is_silent(self, k, s, finite):
        p = DistributionSpec("zipf", k, param=s).probability_vector()
        head = 1.0 / np.arange(1.0, finite + 1.0) ** s
        assert p[:finite].tolist() == (head / math.fsum(head.tolist())).tolist()
        assert (p[finite:] == 0.0).all()

    def test_two_spike(self):
        p = DistributionSpec("two_spike", 4, param=0.3).probability_vector()
        assert p.tolist() == [0.3, 0.7, 0.0, 0.0]
        default = DistributionSpec("two_spike", 2).probability_vector()
        assert default.tolist() == [0.5, 0.5]

    def test_dirichlet_on_simplex_and_reproducible(self):
        spec = DistributionSpec("dirichlet", 6, param=2.0)
        a = spec.probability_vector(np.random.default_rng(3))
        b = spec.probability_vector(np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.size == 6
        assert (a > 0).all()
        assert abs(math.fsum(a.tolist()) - 1.0) <= 1e-12

    def test_labels(self):
        assert DistributionSpec("uniform", 3).label == "uniform"
        assert DistributionSpec("zipf", 3).label == "zipf(1)"
        assert DistributionSpec("two_spike", 3, param=0.3).label == "two_spike(0.3)"
        assert DistributionSpec("dirichlet", 3, param=2.0).label == "dirichlet(2)"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="family"):
            DistributionSpec("geometric", 4)
        with pytest.raises(ConfigurationError, match=">= 1"):
            DistributionSpec("uniform", 0)
        for k in (2.5, 3.0, "4"):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                DistributionSpec("uniform", k)
        assert DistributionSpec("uniform", np.int64(3)).probability_vector().size == 3
        with pytest.raises(ConfigurationError, match="k >= 2"):
            DistributionSpec("two_spike", 1)
        with pytest.raises(ConfigurationError, match="positive"):
            DistributionSpec("zipf", 4, param=0.0)
        for family in ("zipf", "dirichlet"):
            for param in (math.inf, math.nan):
                with pytest.raises(ConfigurationError, match="positive and finite"):
                    DistributionSpec(family, 4, param=param)
        with pytest.raises(ConfigurationError, match="0, 1"):
            DistributionSpec("two_spike", 4, param=1.5)

    def test_nan_vector_leaves_the_simplex(self):
        # past the parameter check, numpy's dirichlet at an infinite
        # concentration returns NaNs; the simplex check must catch them
        spec = DistributionSpec("dirichlet", 4, param=1.0)
        object.__setattr__(spec, "param", math.inf)
        with pytest.raises(ConfigurationError, match="left the simplex"):
            spec.probability_vector(rng=0)


class TestRiskReport:
    def test_identity_enforced(self):
        with pytest.raises(ConfigurationError, match="identity"):
            RiskReport(
                estimator="plugin",
                estimates=np.zeros(100),
                bias=0.1,
                variance=0.2,
                mse=0.5,
                reps=100,
                theta_true=1.0,
            )

    def test_estimates_frozen_and_sized(self):
        rep = RiskReport(
            estimator="plugin",
            estimates=np.full(100, 1.25),
            bias=0.25,
            variance=0.0,
            mse=0.0625,
            reps=100,
            theta_true=1.0,
        )
        with pytest.raises(ValueError):
            rep.estimates[0] = 2.0
        with pytest.raises(ConfigurationError, match="estimates"):
            RiskReport(
                estimator="plugin",
                estimates=np.zeros(3),
                bias=0.0,
                variance=0.0,
                mse=0.0,
                reps=100,
                theta_true=0.0,
            )


class TestMonteCarloRisk:
    def test_degenerate_distribution_zero_mse(self):
        # P = (1, 0, 0) gives the same histogram every rep and the
        # plugin hits theta exactly, so the MSE is literally zero
        spec = DistributionSpec("two_spike", 3, param=1.0)
        rep = monte_carlo_risk(spec, power_functional(0.5), "plugin", 50, reps=100)
        assert rep.mse == 0.0
        assert rep.bias == 0.0
        assert rep.se_mse == 0.0

    def test_validation(self):
        spec = DistributionSpec("uniform", 4)
        with pytest.raises(ConfigurationError, match="reps"):
            monte_carlo_risk(spec, SH, "plugin", 100, reps=99)
        with pytest.raises(ConfigurationError, match="estimator"):
            monte_carlo_risk(spec, SH, "bootstrap", 100, reps=100)
        with pytest.raises(ConfigurationError, match="jobs"):
            monte_carlo_risk(spec, SH, "plugin", 100, reps=100, jobs=0)
        for n in (0, -3):
            with pytest.raises(ConfigurationError, match="sample size must be >= 1"):
                monte_carlo_risk(spec, SH, "plugin", n, reps=100)
        with pytest.raises(ConfigurationError, match="master_seed must be >= 0"):
            monte_carlo_risk(spec, SH, "plugin", 100, reps=100, master_seed=-1)

    def test_miller_bias_matches_expansion(self):
        # plugin entropy bias at uniform is -(k-1)/2n to leading order
        rep = monte_carlo_risk(
            DistributionSpec("uniform", 100), SH, "plugin", 10**5, reps=400
        )
        target = -(100 - 1) / (2 * 10**5)
        assert rep.se_bias > 0
        assert abs(rep.bias - target) <= 3 * rep.se_bias

    def test_bias_variance_identity(self):
        rep = monte_carlo_risk(
            DistributionSpec("zipf", 30), SH, "composite", 300, reps=200
        )
        scale = max(abs(rep.mse), 1e-30)
        assert abs(rep.mse - (rep.bias**2 + rep.variance)) <= 1e-10 * scale

    def test_longer_run_extends_shorter(self):
        # rep r is rep r % 100 of block r // 100's stream in both runs, so
        # the short run is a prefix and the MSEs agree statistically
        spec = DistributionSpec("uniform", 50)
        small = monte_carlo_risk(spec, SH, "composite", 500, reps=100)
        big = monte_carlo_risk(spec, SH, "composite", 500, reps=2000)
        assert np.array_equal(small.estimates, big.estimates[:100])
        assert abs(small.mse - big.mse) <= 5 * small.se_mse

    def test_jackknife_se_scales_with_reps(self):
        spec = DistributionSpec("uniform", 50)
        r1 = monte_carlo_risk(spec, SH, "plugin", 500, reps=400)
        r4 = monte_carlo_risk(spec, SH, "plugin", 500, reps=1600)
        assert 1.5 <= r1.se_mse / r4.se_mse <= 2.6

    def test_jobs_do_not_change_output(self):
        spec = DistributionSpec("zipf", 20)
        serial = monte_carlo_risk(spec, SH, "composite", 200, reps=100, jobs=1)
        forked = monte_carlo_risk(spec, SH, "composite", 200, reps=100, jobs=4)
        assert np.array_equal(serial.estimates, forked.estimates)
        assert serial.mse == forked.mse

    def test_worker_failure_reaches_caller(self, monkeypatch):
        # a rep sums its values from the fingerprint of its counts, taken
        # by the library's own _fingerprint_sum
        real = estimators._fingerprint
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # n = 200 is drawn by symbol at k = 200 and as a histogram at k = 20
        for k in (200, 20):
            spec = DistributionSpec("uniform", k)
            # the counts the estimate sees at rep 150: the cell's own draw
            # (uniform P, so no alias table), the 51st of block 1's stream
            P = spec.probability_vector()
            draw = risklab._sampler(P, None, 200)
            key = (0, 200, k, ESTIMATORS.index("plugin"))
            counts150 = [draw(rng) for rng in _rep_rngs(key, 151)][150]

            def failing(counts, counts150=counts150):
                if np.array_equal(counts, counts150):
                    raise NumericalError("injected")
                return real(counts)

            monkeypatch.setattr(estimators, "_fingerprint", failing)
            with pytest.raises(NumericalError, match="failed at rep 150: injected"):
                monte_carlo_risk(spec, SH, "plugin", 200, reps=300, jobs=2)

    @pytest.mark.parametrize("cores, workers", [(3, 3), (10**4, 16)])
    def test_pool_capped_by_cores_and_reps(self, monkeypatch, cores, workers):
        # one pool for the whole sweep: 4 n values x 2 estimators x 2 blocks
        # of reps (100 and 50) are 16 tasks, so 16 workers at most
        fake = _InlineForkContext()
        monkeypatch.setattr(multiprocessing, "get_context", fake.get_context)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        args = ("zipf", SH, ["plugin", "composite"], [30, 60, 120, 300])
        serial = rate_sweep(*args, k_rule="fixed:20", reps=150, jobs=1)
        pooled = rate_sweep(*args, k_rule="fixed:20", reps=150, jobs=10**6)
        assert fake.methods == ["fork"]
        assert fake.sizes == [workers]
        assert pooled.to_csv() == serial.to_csv()

    def test_serial_without_fork(self, monkeypatch):
        fake = _InlineForkContext()
        monkeypatch.setattr(multiprocessing, "get_context", fake.get_context)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        spec = DistributionSpec("zipf", 20)
        serial = monte_carlo_risk(spec, SH, "composite", 200, reps=100, jobs=1)
        fallback = monte_carlo_risk(spec, SH, "composite", 200, reps=100, jobs=4)
        assert fake.methods == []
        assert np.array_equal(serial.estimates, fallback.estimates)
        assert serial.mse == fallback.mse

    def test_estimator_failure_carries_rep_index(self):
        # order-2 correction needs two derivatives; this functional
        # exposes one, so the corrected estimator dies on rep 0
        phi = custom_functional(
            lambda x: np.sqrt(x), [lambda x: 0.5 / np.sqrt(x)], alpha=0.5
        )
        spec = DistributionSpec("uniform", 4)
        with pytest.raises(ConfigurationError, match="rep 0"):
            monte_carlo_risk(spec, phi, "corrected", 100, reps=100)

    @pytest.mark.parametrize("estimator", ["corrected", "composite"])
    def test_values_evaluated_per_table_fill_not_per_rep(self, monkeypatch, estimator):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        rule = estimators._CompositeRule
        monkeypatch.setattr(rule, "poly_values", counting("poly", rule.poly_values))
        monkeypatch.setattr(rule, "plugin_values", counting("plugin", rule.plugin_values))
        monkeypatch.setattr(
            estimators, "bias_corrected_fn", counting("corrected", estimators.bias_corrected_fn)
        )
        # counts near n/2 in a cell at k = n: the tables grow past their first fill
        n = 1000
        monte_carlo_risk(DistributionSpec("two_spike", n), SH, estimator, n, reps=1000)
        # a table doubles up to n + 1 entries, so it is filled at most
        # log2(n + 1) + 1 times, however many reps read it
        fills = math.log2(n + 1) + 1
        if estimator == "composite":
            assert calls["plugin"] >= 2
            assert calls["poly"] <= fills
            assert calls["plugin"] <= fills
        else:
            assert calls["poly"] == calls["plugin"] == 0
        assert 2 <= calls["corrected"] <= fills

    def test_registry_is_stable(self):
        # seeding uses registry positions, so the order is a contract
        assert ESTIMATORS == ("plugin", "corrected", "composite")


def _moments_within(samples, mean, cov, z=4.0):
    """Sample mean and covariance of the rows of samples lie within z
    standard errors of mean and cov."""
    R = samples.shape[0]
    x = samples - samples.mean(axis=0)
    se_mean = np.sqrt(np.diag(cov) / R)
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= z * se_mean)
    prods = x[:, :, None] * x[:, None, :]
    se_cov = prods.std(axis=0) / math.sqrt(R)
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= z * se_cov)


class TestSampler:
    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec("uniform", 1000),
            DistributionSpec("zipf", 1000),
            DistributionSpec("two_spike", 50, param=0.3),
            DistributionSpec("dirichlet", 1000, param=0.5),
        ],
        ids=lambda spec: spec.label,
    )
    def test_alias_table_rebuilds_p(self, spec):
        P = spec.probability_vector(rng=4)
        q, alias = risklab._alias_table(P)
        k = P.size
        assert ((q >= 0) & (q <= 1)).all()
        rebuilt = q / k + np.bincount(alias, weights=(1.0 - q) / k, minlength=k)
        assert np.max(np.abs(rebuilt - P)) <= 1e-15

    @pytest.fixture(scope="class")
    def small_draws(self):
        # k = 5, n = 4 <= k: the by-symbol path, each draw then split by
        # split_samples on the same rng
        P = DistributionSpec("zipf", 5).probability_vector()
        draw = risklab._sampler(P, risklab._alias_table(P), 4)
        rng = np.random.default_rng(11)
        splits = [split_samples(Histogram(draw(rng), 4), rng) for _ in range(20_000)]
        est, sel = (np.array([getattr(s, half).counts for s in splits]) for half in ("est", "sel"))
        return P, est, sel

    def test_counts_are_multinomial(self, small_draws):
        P, est, sel = small_draws
        n = 4
        counts = est + sel
        assert (counts.sum(axis=1) == n).all()
        _moments_within(counts, n * P, n * (np.diag(P) - np.outer(P, P)))

    def test_estimation_half_is_binomial(self, small_draws):
        P, est, _ = small_draws
        half = P / 2.0
        for i in range(P.size):
            _moments_within(est[:, i : i + 1], [4 * half[i]], [[4 * half[i] * (1 - half[i])]])

    @pytest.mark.parametrize("estimator", ["plugin", "composite"])
    def test_n_above_k_is_the_multinomial_loop(self, estimator):
        spec, n, reps, seed = DistributionSpec("zipf", 20), 200, 100, 3
        report = monte_carlo_risk(spec, SH, estimator, n, reps=reps, master_seed=seed)
        P = spec.probability_vector()
        cfg = tuned_config(SH.alpha)
        loop = []
        for rng in _rep_rngs((seed, n, spec.k, ESTIMATORS.index(estimator)), reps):
            loop.append(run_estimator(estimator, sample_histogram(P, n, rng=rng), SH, cfg).estimate)
        assert report.estimates.tolist() == loop

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize(
        "phi, spec, n",
        [
            # order-4 correction, n = k by symbol
            (power_functional(1.2), DistributionSpec("zipf", 300), 300),
            # counts near n/2 at k = n grow the plugin tables past their first fill
            (SH, DistributionSpec("two_spike", 400), 400),
            # n > k, every count within k: a multinomial histogram, tabled
            (SH, DistributionSpec("uniform", 40), 200),
            # n > k, counts far above k: grouped by np.unique, tabled
            (SH, DistributionSpec("uniform", 5), 1000),
            # counts past the largest table: evaluated directly, the
            # composite's by quadrature
            (SH, DistributionSpec("uniform", 2), 2**17 + 1000),
        ],
        ids=["power1.2-zipf", "two_spike", "uniform-n-above-k", "uniform-counts-above-k",
             "uniform-counts-above-the-table"],
    )
    def test_reps_are_the_sampler_and_run_estimator_loop(self, phi, spec, n, estimator):
        report = monte_carlo_risk(spec, phi, estimator, n, reps=100, master_seed=3)
        assert report.estimates.tolist() == _sampler_loop(phi, spec, n, estimator, 100, 3)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_partial_last_block_is_the_loop(self, monkeypatch, jobs):
        # 250 reps are blocks of 100, 100 and 50; at jobs 3 one worker each
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec, n = DistributionSpec("zipf", 300), 300
        longer = monte_carlo_risk(spec, SH, "composite", n, reps=250, master_seed=3, jobs=jobs)
        assert longer.estimates.tolist() == _sampler_loop(SH, spec, n, "composite", 250, 3)
        shorter = monte_carlo_risk(spec, SH, "composite", n, reps=150, master_seed=3, jobs=jobs)
        assert shorter.estimates.tolist() == longer.estimates.tolist()[:150]

    # uniform P k rounds just below 1 at k = 49 and to 1 at k = 1000
    @pytest.mark.parametrize("k, below", [(49, True), (1000, False)])
    def test_uniform_alias_table_keeps_every_symbol(self, k, below):
        P = DistributionSpec("uniform", k).probability_vector()
        assert ((P * k < 1.0) == below).all()
        q, alias = risklab._alias_table(P)
        assert q.dtype == np.float64 and alias.dtype == np.int64
        assert q.tolist() == [1.0] * k and alias.tolist() == list(range(k))

    def test_zipf_alias_table_has_coins(self):
        q, _ = risklab._alias_table(DistributionSpec("zipf", 1000).probability_vector())
        assert (q < 1.0).any()

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize(
        "spec, n",
        [
            (DistributionSpec("uniform", 49), 49),
            (DistributionSpec("uniform", 49), 48),
            (DistributionSpec("uniform", 1000), 999),
            (DistributionSpec("uniform", 1000), 1000),
            (DistributionSpec("zipf", 1000), 999),
            (DistributionSpec("zipf", 1000), 1000),
        ],
        ids=["uniform49-odd", "uniform49-even", "uniform1000-odd", "uniform1000-even",
             "zipf-odd", "zipf-even"],
    )
    def test_draws_are_the_alias_coin_formula(self, spec, n, split):
        # uniform P draws with no table, as the risk lab passes it, so the
        # draw skips the coins its table would keep every symbol with and
        # advances past them; its counts must be the coin path's, bit for
        # bit, and so must the 64-bit stream position it leaves: with
        # split, the draw's thinning by split_samples reads from there
        P = spec.probability_vector()
        q, alias = table = risklab._alias_table(P)
        draw = risklab._sampler(P, None if spec.family == "uniform" else table, n)
        k = spec.k
        for seed in range(200):
            rng = np.random.default_rng(seed)
            j = rng.integers(0, k, n)
            want = np.bincount(np.where(rng.random(n) < q[j], j, alias[j]), minlength=k)
            got_rng = np.random.default_rng(seed)
            got = draw(got_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state["state"] == rng.bit_generator.state["state"]
            if split:
                want_est = rng.binomial(want, 0.5)
                got_est = split_samples(Histogram(got, n), got_rng).est.counts
                assert got_est.tobytes() == want_est.tobytes()


class TestTheoreticalRate:
    def test_alpha_one_frozen(self):
        got = theoretical_rate(1.0, 10**4, 10**4)
        assert got == pytest.approx(RATE_ALPHA1_1E4, rel=1e-15)
        nl = 10**4 * math.log(10**4)
        main = 10**8 / nl**2
        tail = math.log(10**4) ** 2 / 10**4
        assert main == pytest.approx(0.01179, rel=1e-3)
        assert tail == pytest.approx(0.00848, rel=1e-3)
        assert got == main + tail

    @pytest.mark.parametrize("alpha", [1.5, 1.7, 2.0])
    def test_parametric_branch_is_one_over_n(self, alpha):
        for n in (10, 100, 12345):
            assert theoretical_rate(alpha, n, 7) == 1.0 / n

    def test_branch_structure(self):
        n, k = 1000, 50
        nl = n * math.log(n)
        assert theoretical_rate(0.4, n, k) == pytest.approx(k**2 / nl**0.8, rel=1e-14)
        assert theoretical_rate(0.7, n, k) == pytest.approx(
            k**2 / nl**1.4 + k**0.6 / n, rel=1e-14
        )
        assert theoretical_rate(1.2, n, k) == pytest.approx(
            k**2 / nl**2.4 + 1.0 / n, rel=1e-14
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.0])
    def test_monotone_in_n_and_k(self, alpha):
        rates_n = [theoretical_rate(alpha, n, 100) for n in (10, 50, 250, 1250)]
        assert all(a > b for a, b in zip(rates_n, rates_n[1:]))
        rates_k = [theoretical_rate(alpha, 1000, k) for k in (2, 10, 100, 1000)]
        assert all(a <= b for a, b in zip(rates_k, rates_k[1:]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError, match="no consistent estimator"):
            theoretical_rate(0.0, 100, 10)
        with pytest.raises(ConfigurationError, match="no consistent estimator"):
            theoretical_rate(-1.0, 100, 10)
        with pytest.raises(ConfigurationError, match="0, 2"):
            theoretical_rate(2.5, 100, 10)

    def test_rejects_bad_n_k(self):
        with pytest.raises(ConfigurationError, match="n >= 2"):
            theoretical_rate(1.0, 1, 10)
        with pytest.raises(ConfigurationError, match="k >= 1"):
            theoretical_rate(1.0, 100, 0)


class TestParseKRule:
    def test_rules(self):
        assert parse_k_rule("n")(400) == 400
        assert parse_k_rule("sqrt")(400) == 20
        assert parse_k_rule("fixed:17")(400) == 17

    def test_bad_rules(self):
        with pytest.raises(ConfigurationError):
            parse_k_rule("cube")
        with pytest.raises(ConfigurationError):
            parse_k_rule("fixed:x")
        with pytest.raises(ConfigurationError):
            parse_k_rule("fixed:0")


@pytest.fixture(scope="module")
def uniform_sweeps():
    kwargs = dict(
        n_grid=[100, 200, 500, 1000],
        k_rule="n",
        reps=120,
        master_seed=5,
    )
    one = rate_sweep("uniform", SH, ["plugin", "composite"], **kwargs, jobs=1)
    three = rate_sweep("uniform", SH, ["plugin", "composite"], **kwargs, jobs=3)
    return one, three


class TestRateSweep:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match=">= 4"):
            rate_sweep("uniform", SH, ["plugin"], [100, 200, 1000])
        with pytest.raises(ConfigurationError, match="decade"):
            rate_sweep("uniform", SH, ["plugin"], [100, 200, 300, 400])
        with pytest.raises(ConfigurationError, match="estimator"):
            rate_sweep("uniform", SH, ["oracle"], [100, 200, 500, 1000])
        with pytest.raises(ConfigurationError, match="values must be >= 2"):
            rate_sweep("uniform", SH, ["plugin"], [1, 20, 50, 100])

    def test_empty_estimator_list(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            rate_sweep("uniform", SH, [], [100, 200, 500, 1000])

    @pytest.mark.parametrize(
        "names, n_grid, match",
        [
            (["composite", "composite"], [30, 60, 120, 300], "estimators must be distinct"),
            (["plugin", "composite", "plugin"], [30, 60, 120, 300], "estimators must be distinct"),
            # four points but two distinct values
            (["plugin"], [10, 10, 10, 100], r"n_grid values must be distinct, got \[10\]"),
            (["plugin"], [30, 60, 120, 300, 60], r"got \[60\]"),
        ],
        ids=["estimator-twice", "estimator-apart", "n-thrice", "n-twice"],
    )
    def test_repeats_rejected_before_any_rep(self, names, n_grid, match, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a rep ran before the repeat was caught")

        monkeypatch.setattr(risklab, "_sampler", fail)
        with pytest.raises(ConfigurationError, match=match):
            rate_sweep("uniform", SH, names, n_grid, reps=100)

    @pytest.mark.parametrize("alpha", [2.5, -1.0])
    def test_bad_exponent_rejected_before_any_rep(self, alpha, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a rep ran before the exponent was checked")

        monkeypatch.setattr(risklab, "_sampler", fail)
        with pytest.raises(ConfigurationError, match="alpha"):
            rate_sweep(
                "uniform", power_functional(alpha), ["plugin", "composite"],
                [30, 60, 120, 300], reps=100,
            )

    def test_alias_table_built_once_per_distribution(self, monkeypatch):
        # 4 n values x 2 estimators, all drawn by symbol at k = n: one
        # table per distinct P, not one per cell (zipf: uniform P has
        # equal masses and builds none)
        built = []
        real = risklab._alias_table
        monkeypatch.setattr(risklab, "_alias_table", lambda P: built.append(P.size) or real(P))
        rate_sweep("zipf", SH, ["plugin", "composite"], [30, 60, 120, 300], reps=100)
        assert built == [30, 60, 120, 300]

    def test_table_keeping_every_symbol_draws_without_coins(self, monkeypatch):
        # zipf masses at exponent 1e-16 differ by ulps but all scale below
        # 1, so the table keeps every symbol: the cell gets no table and
        # draws as uniform P does
        spec = DistributionSpec("zipf", 7, 1e-16)
        P = spec.probability_vector()
        assert (P != P[0]).any() and (risklab._alias_table(P)[0] == 1.0).all()
        seen = []
        real = risklab._sampler
        monkeypatch.setattr(risklab, "_sampler", lambda P, table, n: seen.append(table) or real(P, table, n))
        monte_carlo_risk(spec, SH, "plugin", 7, reps=100)
        assert seen == [None]

    def test_csv_identical_across_jobs(self, uniform_sweeps):
        one, three = uniform_sweeps
        assert one.to_csv() == three.to_csv()

    def test_csv_shape(self, uniform_sweeps):
        one, _ = uniform_sweeps
        lines = one.to_csv().splitlines()
        assert lines[0] == "family,k,n,estimator,bias,var,mse,se,theory_rate"
        assert len(lines) == 1 + 4 * 2
        assert len(one.rows) == 8

    def test_plugin_mse_flat_at_k_equals_n(self, uniform_sweeps):
        # with k = n the squared-bias term k^2/n^2 is constant, and it
        # dominates the plugin MSE, so the fitted slope sits near zero
        one, _ = uniform_sweeps
        assert abs(one.slopes["plugin"]) <= 0.2

    def test_composite_mse_decreases_at_k_equals_n(self, uniform_sweeps):
        # the fitted slope only: the averaged composite's bias, and with it
        # its MSE, is not monotone in n on this grid
        one, _ = uniform_sweeps
        assert one.slopes["composite"] < -0.3

    def test_theory_slope_tracks_composite(self, uniform_sweeps):
        one, _ = uniform_sweeps
        assert math.isfinite(one.theory_slope)
        assert abs(one.slopes["composite"] - one.theory_slope) <= 0.35

    def test_rows_carry_theory_rate(self, uniform_sweeps):
        one, _ = uniform_sweeps
        for row in one.rows:
            assert row.theory_rate == theoretical_rate(1.0, row.n, row.k)
            assert row.family == "uniform"
