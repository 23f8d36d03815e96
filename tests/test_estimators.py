"""Tests for sampling, splitting, config validation, and the composite estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minifunc.errors import ConfigurationError
from minifunc.estimators import (
    CompositeResult,
    EstimatorConfig,
    Histogram,
    SplitHistograms,
    best_poly_symbol_estimate,
    composite_estimate,
    corrected_plugin_estimate,
    default_config,
    default_correction_order,
    factorial_moment,
    plain_plugin_estimate,
    plugin_symbol_estimate,
    poissonized_split_pair,
    recommended_estimator,
    sample_histogram,
    split_samples,
    tuned_config,
    validate_config,
)
from minifunc.functionals import (
    additive_functional,
    bias_corrected_fn,
    power_functional,
    range_on_interval,
    shannon_functional,
    truncated_deriv,
)
from minifunc.polyapprox import remez_best_approx

SH = shannon_functional()

# third admissibility inequality at the documented (C1, C2) = (1/1458, 9)
COND3_LHS = 1.7325213594732334

# default_config output per alpha: (c1, c2, correction_order)
DEFAULT_CONSTANTS = {
    0.3: (0.012721351516385102, 3.4, 2),
    0.5: (0.004, 5.0, 2),
    1.0: (0.0006858710562414266, 9.0, 2),
    1.4: (0.0002753534436803081, 12.2, 4),
    1.9: (1.3442803211167298e-05, 16.2, 2),
}

# per-symbol plugin values at n=100 with delta pinned to 0.05
PLUGIN_POWER2_FULL = 0.99
PLUGIN_SH_ZERO = 0.14978661367769955
PLUGIN_SH_HALF = 0.35157359027997265

# mixed-branch composite on est=(3,50,1,46), sel=(0,40,0,40), n_eff=100,
# Power(0.3) with C1=0.03, C2=2.5, order 2
MIXED_ESTIMATE = 2.4004060673214584
MIXED_THRESHOLD = 23.02585092994046


def _pinned_delta_config(n: float, delta: float) -> EstimatorConfig:
    return EstimatorConfig(c1=0.1, c2=delta * n / math.log(n), correction_order=2)


class TestValidateConfig:
    def test_documented_admissible_pair(self):
        cfg = EstimatorConfig(c1=1.0 / 1458.0, c2=9.0)
        assert validate_config(cfg, 1.0) == []
        lhs = 2.0 - 3.0 * cfg.c1 * math.log(2.0) - 2.0 * math.sqrt(cfg.c1 * cfg.c2) * math.log(2.0 * math.e)
        assert lhs == pytest.approx(COND3_LHS, rel=1e-12)
        assert lhs > 1.0

    def test_boundary_c2_fails_at_equality(self):
        cfg = EstimatorConfig(c1=1.0 / 1458.0, c2=8.0)
        violations = validate_config(cfg, 1.0)
        assert len(violations) == 1
        assert "C2" in violations[0].condition
        assert violations[0].lhs == 8.0
        assert violations[0].rhs == 8.0

    def test_cube_condition_violation(self):
        cfg = EstimatorConfig(c1=0.01, c2=9.0)
        violations = validate_config(cfg, 0.5)
        assert len(violations) == 1
        assert violations[0].lhs == pytest.approx(7.29, rel=1e-12)
        assert violations[0].rhs == 0.5

    def test_violations_are_data_not_errors(self):
        cfg = EstimatorConfig(c1=5.0, c2=1.0)
        violations = validate_config(cfg, 1.9)
        assert len(violations) == 3
        for v in violations:
            assert math.isfinite(v.lhs)
            assert "vs" in str(v)


class TestDefaultAndTunedConfig:
    @pytest.mark.parametrize("alpha", sorted(DEFAULT_CONSTANTS))
    def test_default_constants_frozen(self, alpha):
        c1, c2, order = DEFAULT_CONSTANTS[alpha]
        cfg = default_config(alpha)
        assert cfg.c1 == pytest.approx(c1, rel=1e-12)
        assert cfg.c2 == pytest.approx(c2, rel=1e-12)
        assert cfg.correction_order == order

    @pytest.mark.parametrize("alpha", sorted(DEFAULT_CONSTANTS))
    def test_default_passes_validation(self, alpha):
        assert validate_config(default_config(alpha), alpha) == []

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.95, 2.0])
    def test_default_rejects_out_of_range_alpha(self, alpha):
        with pytest.raises(ConfigurationError):
            default_config(alpha)

    def test_tuned_violates_admissibility_knowingly(self):
        cfg = tuned_config(1.0)
        assert cfg.c1 == 0.9
        assert cfg.c2 == 0.5
        assert len(validate_config(cfg, 1.0)) >= 1

    def test_correction_order_defaults(self):
        assert default_correction_order(0.5) == 2
        assert default_correction_order(1.0) == 2
        assert default_correction_order(1.2) == 4
        assert default_correction_order(1.4) == 4
        assert default_correction_order(1.6) == 2

    def test_recommended_estimator(self):
        assert recommended_estimator(0.3) == "composite"
        assert recommended_estimator(1.0) == "composite"
        assert recommended_estimator(1.49) == "composite"
        assert recommended_estimator(1.5) == "plugin"
        assert recommended_estimator(2.0) == "plugin"
        with pytest.raises(ConfigurationError):
            recommended_estimator(2.1)
        with pytest.raises(ConfigurationError):
            recommended_estimator(0.0)


class TestEstimatorConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(c1=0.0, c2=1.0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(c1=0.1, c2=-1.0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(c1=0.1, c2=1.0, correction_order=3)

    def test_derived_quantities_at_n100(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        assert cfg.degree(100) == 4
        assert cfg.delta_nk(100) == pytest.approx(2.302585092994046, rel=1e-15)
        assert cfg.count_threshold(100) == pytest.approx(4.605170185988092, rel=1e-15)
        assert cfg.delta(100) == pytest.approx(0.02302585092994046, rel=1e-15)
        lo, hi = cfg.poly_interval(100)
        assert lo == 0.0
        assert hi == pytest.approx(0.09210340371976183, rel=1e-15)

    def test_poly_interval_caps_at_one(self):
        cfg = EstimatorConfig(c1=0.9, c2=50.0)
        assert cfg.poly_interval(100) == (0.0, 1.0)

    def test_degenerate_n(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        assert cfg.degree(1) == 0
        assert cfg.delta_nk(1) == 0.0
        assert cfg.poly_interval(1) == (0.0, 1.0)


class TestHistogram:
    def test_valid_multinomial(self):
        h = Histogram(counts=np.array([3, 5, 2]), n_nominal=10)
        assert h.k == 3
        assert h.model == "multinomial"

    def test_counts_frozen(self):
        h = Histogram(counts=np.array([3, 5, 2]), n_nominal=10)
        with pytest.raises(ValueError):
            h.counts[0] = 7

    def test_integral_floats_accepted(self):
        h = Histogram(counts=np.array([3.0, 5.0, 2.0]), n_nominal=10)
        assert h.counts.dtype == np.int64

    def test_rejects_fractional_counts(self):
        with pytest.raises(ConfigurationError, match="integer"):
            Histogram(counts=np.array([3.5, 5.0, 1.5]), n_nominal=10)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            Histogram(counts=np.array([3, -1, 8]), n_nominal=10)

    def test_multinomial_sum_enforced(self):
        with pytest.raises(ConfigurationError, match="sum"):
            Histogram(counts=np.array([3, 5, 2]), n_nominal=11)

    def test_poissonized_sum_unconstrained(self):
        h = Histogram(counts=np.array([3, 5, 2]), n_nominal=11, model="poissonized")
        assert h.n_nominal == 11

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigurationError, match="model"):
            Histogram(counts=np.array([1]), n_nominal=1, model="bootstrap")

    def test_split_histograms_validation(self):
        a = Histogram(counts=np.array([1, 2]), n_nominal=3)
        b = Histogram(counts=np.array([1, 2, 3]), n_nominal=6)
        with pytest.raises(ConfigurationError, match="alphabet"):
            SplitHistograms(est=a, sel=b, n_effective=1.0)
        with pytest.raises(ConfigurationError, match="n_effective"):
            SplitHistograms(est=a, sel=a, n_effective=-1.0)


class TestSampling:
    def test_degenerate_multinomial_is_deterministic(self):
        P = np.array([1.0, 0.0, 0.0])
        for seed in range(5):
            h = sample_histogram(P, 10, rng=np.random.default_rng(seed))
            assert h.counts.tolist() == [10, 0, 0]

    def test_zero_samples(self):
        P = np.array([0.25, 0.75])
        for model in ("multinomial", "poissonized"):
            h = sample_histogram(P, 0, model=model, rng=np.random.default_rng(0))
            assert h.counts.tolist() == [0, 0]

    def test_poissonized_mean_matches_rate(self):
        # counts[0] ~ Poi(5e5); mean over 1e4 reps within 3 standard errors
        P = np.array([0.5, 0.5])
        rng = np.random.default_rng(7)
        reps = 10_000
        total = 0
        for _ in range(reps):
            total += sample_histogram(P, 10**6, model="poissonized", rng=rng).counts[0]
        mean = total / reps
        band = 3.0 * math.sqrt(5e5) / math.sqrt(reps)
        assert abs(mean - 5e5) <= band

    def test_rejects_negative_n(self):
        with pytest.raises(ConfigurationError):
            sample_histogram(np.array([1.0]), -1)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigurationError, match="model"):
            sample_histogram(np.array([1.0]), 5, model="jackknife")


class TestSplitting:
    def test_all_zero_input(self):
        h = Histogram(counts=np.zeros(4, dtype=np.int64), n_nominal=0)
        split = split_samples(h, rng=np.random.default_rng(0))
        assert split.est.counts.tolist() == [0, 0, 0, 0]
        assert split.sel.counts.tolist() == [0, 0, 0, 0]

    def test_conservation_large_count(self):
        h = Histogram(counts=np.array([10**6]), n_nominal=10**6)
        split = split_samples(h, rng=np.random.default_rng(1))
        assert int(split.est.counts[0] + split.sel.counts[0]) == 10**6

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conservation_random(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, size=8)
        h = Histogram(counts=counts, n_nominal=int(counts.sum()))
        split = split_samples(h, rng=rng)
        assert np.array_equal(split.est.counts + split.sel.counts, counts)

    def test_halves_are_poissonized_at_half_size(self):
        h = Histogram(counts=np.array([4, 6]), n_nominal=10)
        split = split_samples(h, rng=np.random.default_rng(2))
        assert split.est.model == "poissonized"
        assert split.sel.model == "poissonized"
        assert split.n_effective == 5.0

    def test_thinning_independence(self):
        # rate-2e4 Poisson counts thinned in half: est and sel are
        # independent Poi(1e4), so their covariance over 1e4 symbols
        # sits within 3 sigma of zero (sigma^2 ~ var*var/reps)
        rng = np.random.default_rng(11)
        counts = rng.poisson(2e4, size=10_000)
        h = Histogram(counts=counts, n_nominal=20_000, model="poissonized")
        split = split_samples(h, rng=rng)
        cov = float(np.cov(split.est.counts.astype(float), split.sel.counts.astype(float))[0, 1])
        sigma = math.sqrt(1e4 * 1e4 / 10_000)
        assert abs(cov) <= 3.0 * sigma

    def test_poissonized_split_pair_scale(self):
        split = poissonized_split_pair(np.array([0.5, 0.5]), 1000, rng=np.random.default_rng(3))
        assert split.n_effective == 1000.0
        assert split.est.n_nominal == 1000
        # each half sits near its Poisson rate n*p = 500
        assert abs(int(split.est.counts[0]) - 500) < 5 * math.sqrt(500)


class TestFactorialMoment:
    def test_examples(self):
        assert factorial_moment(5, 2) == 20.0
        assert factorial_moment(3, 5) == 0.0
        assert factorial_moment(7, 0) == 1.0

    @given(st.integers(min_value=0, max_value=18), st.integers(min_value=0, max_value=18))
    @settings(max_examples=200, deadline=None)
    def test_matches_falling_factorial(self, N, m):
        # products below 2^53 round-trip exactly through float
        assert factorial_moment(N, m) == float(math.perm(N, m))

    def test_large_values_match_to_rounding(self):
        for N, m in ((24, 20), (60, 35), (100, 12)):
            assert factorial_moment(N, m) == pytest.approx(math.perm(N, m), rel=5e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorial_moment(-1, 2)
        with pytest.raises(ValueError):
            factorial_moment(2, -1)


class TestBestPolySymbol:
    def test_constant_approx_passes_through(self):
        approx = remez_best_approx(lambda x: 0.3, 0, (0.0, 1.0))
        for N in (0, 1, 17, 10**6):
            assert best_poly_symbol_estimate(N, 50.0, approx, (0.0, 1.0)) == pytest.approx(0.3, rel=1e-12)

    def test_zero_count_clamps_intercept(self):
        # best linear fit to x^2 on [0,1] is x - 1/8; at N=0 only the
        # intercept survives and the clamp floor lifts it to 0
        approx = remez_best_approx(lambda x: x * x, 1, (0.0, 1.0))
        assert approx.poly.coeffs[0] == pytest.approx(-0.125, abs=1e-9)
        assert best_poly_symbol_estimate(0, 50.0, approx, (0.0, 1.0)) == 0.0
        wide = best_poly_symbol_estimate(0, 50.0, approx, (-10.0, 10.0))
        assert wide == pytest.approx(approx.poly.coeffs[0], rel=1e-12)

    def test_unbiased_for_poisson_counts(self):
        # E (N)_m / n^m = p^m for N ~ Poi(np), so the transform's mean
        # equals sum a_m p^m; checked to 4 standard errors over 1e6 draws
        approx = remez_best_approx(SH.eval, 3, (0.0, 0.2))
        coeffs = approx.poly.coeffs
        n, p = 50.0, 0.08
        rng = np.random.default_rng(3)
        draws = rng.poisson(n * p, size=10**6).astype(float)
        total = np.full(draws.shape, coeffs[0])
        prod = np.ones_like(draws)
        for m in range(1, len(coeffs)):
            prod = prod * (draws - (m - 1)) / n
            total = total + coeffs[m] * prod
        target = math.fsum(coeffs[m] * p**m for m in range(len(coeffs)))
        se = total.std(ddof=1) / math.sqrt(total.size)
        assert abs(total.mean() - target) <= 4.0 * se
        # the per-symbol routine agrees with the raw transform when the
        # clamp is slack
        for N in (0, 1, 5, 17):
            api = best_poly_symbol_estimate(N, n, approx, (-1e9, 1e9))
            inline = math.fsum(
                [coeffs[0]]
                + [coeffs[m] * math.prod((N - j) / n for j in range(m)) for m in range(1, len(coeffs))]
            )
            assert api == pytest.approx(inline, rel=1e-12)

    def test_clamp_is_a_contraction(self):
        lo, hi = 0.1, 0.7
        for x in np.linspace(-2.0, 3.0, 41):
            clamped = min(max(x, lo), hi)
            for v in np.linspace(lo, hi, 13):
                assert abs(clamped - v) <= abs(x - v) + 1e-15


class TestPluginSymbol:
    def test_power2_full_count(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        assert cfg.delta(100.0) == pytest.approx(0.05, rel=1e-15)
        got = plugin_symbol_estimate(100, 100.0, power_functional(2.0), cfg)
        assert got == pytest.approx(PLUGIN_POWER2_FULL, rel=1e-12)

    def test_shannon_zero_count_hits_truncation_floor(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        got = plugin_symbol_estimate(0, 100.0, SH, cfg)
        assert got == pytest.approx(PLUGIN_SH_ZERO, rel=1e-12)
        assert got == pytest.approx(-0.05 * math.log(0.05), rel=1e-12)

    def test_shannon_half_count(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        got = plugin_symbol_estimate(50, 100.0, SH, cfg)
        assert got == pytest.approx(PLUGIN_SH_HALF, rel=1e-12)

    def test_matches_scalar_correction(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        got = plugin_symbol_estimate(30, 200.0, SH, cfg)
        want = bias_corrected_fn(SH, 2, cfg.delta(200.0), 200.0, 0.15)
        assert got == pytest.approx(want, rel=1e-14)


def _mixed_split():
    est = Histogram(counts=np.array([3, 50, 1, 46]), n_nominal=100, model="poissonized")
    sel = Histogram(counts=np.array([0, 40, 0, 40]), n_nominal=100, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=100.0)


def _repeated_split():
    # k = 2000 symbols over a few dozen distinct counts: at threshold
    # 2*0.5*ln(100) both branches hold hundreds of symbols per count
    rng = np.random.default_rng(12)
    est = Histogram(counts=rng.integers(0, 30, size=2000), n_nominal=100, model="poissonized")
    sel = Histogram(counts=rng.integers(0, 12, size=2000), n_nominal=100, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=100.0)


class TestComposite:
    def test_all_plugin_when_selector_clears_threshold(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        est = Histogram(counts=np.array([3, 50, 1, 46]), n_nominal=100, model="poissonized")
        sel = Histogram(counts=np.array([1000, 1000, 1000, 1000]), n_nominal=100, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=100.0)
        res = composite_estimate(split, SH, cfg)
        assert res.branch_counts == {"plugin": 4, "poly": 0}
        want = math.fsum(plugin_symbol_estimate(int(N), 100.0, SH, cfg) for N in est.counts)
        assert res.estimate == pytest.approx(want, rel=1e-14)

    def test_all_poly_when_selector_is_zero(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        est = Histogram(counts=np.array([0, 1, 2, 5]), n_nominal=100, model="poissonized")
        sel = Histogram(counts=np.zeros(4, dtype=np.int64), n_nominal=100, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=100.0)
        res = composite_estimate(split, SH, cfg)
        assert res.branch_counts == {"plugin": 0, "poly": 4}
        approx = remez_best_approx(SH.eval, cfg.degree(100.0), cfg.poly_interval(100.0))
        clamp = range_on_interval(SH.eval, cfg.poly_interval(100.0))
        want = math.fsum(
            best_poly_symbol_estimate(int(N), 100.0, approx, clamp) for N in est.counts
        )
        assert res.estimate == pytest.approx(want, rel=1e-12)

    def test_mixed_branches_frozen_value(self):
        phi = power_functional(0.3)
        cfg = EstimatorConfig(c1=0.03, c2=2.5, correction_order=2)
        res = composite_estimate(_mixed_split(), phi, cfg)
        assert res.branch_counts == {"plugin": 2, "poly": 2}
        assert res.threshold == pytest.approx(MIXED_THRESHOLD, rel=1e-14)
        assert res.degree == 0
        assert res.estimate == pytest.approx(MIXED_ESTIMATE, rel=1e-12)

    @pytest.mark.parametrize(
        "make_split, cfg",
        [
            (_mixed_split, EstimatorConfig(c1=0.03, c2=2.5, correction_order=2)),
            (_repeated_split, EstimatorConfig(c1=0.9, c2=0.5, correction_order=2)),
        ],
        ids=["k4", "k2000"],
    )
    def test_mixed_branches_term_by_term(self, make_split, cfg):
        phi = power_functional(0.3)
        split = make_split()
        res = composite_estimate(split, phi, cfg)
        assert res.branch_counts["plugin"] > 0 and res.branch_counts["poly"] > 0
        approx = remez_best_approx(phi.eval, cfg.degree(100.0), cfg.poly_interval(100.0))
        clamp = range_on_interval(phi.eval, cfg.poly_interval(100.0))
        terms = []
        for N_est, N_sel in zip(split.est.counts, split.sel.counts):
            if N_sel >= res.threshold:
                terms.append(plugin_symbol_estimate(int(N_est), 100.0, phi, cfg))
            else:
                terms.append(best_poly_symbol_estimate(int(N_est), 100.0, approx, clamp))
        assert res.estimate == pytest.approx(math.fsum(terms), rel=1e-13)

    def test_permutation_invariance(self):
        phi = power_functional(0.3)
        cfg = EstimatorConfig(c1=0.03, c2=2.5, correction_order=2)
        base = composite_estimate(_mixed_split(), phi, cfg).estimate
        perm = np.array([2, 0, 3, 1])
        est = Histogram(counts=np.array([3, 50, 1, 46])[perm], n_nominal=100, model="poissonized")
        sel = Histogram(counts=np.array([0, 40, 0, 40])[perm], n_nominal=100, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=100.0)
        assert composite_estimate(split, phi, cfg).estimate == base

    def test_multinomial_input_is_split_with_warning(self):
        cfg = tuned_config(1.0)
        h = sample_histogram(np.full(10, 0.1), 1000, rng=np.random.default_rng(4))
        res = composite_estimate(h, SH, cfg, rng=np.random.default_rng(5))
        assert any("multinomial" in w for w in res.warnings)
        assert res.n_effective == 500.0
        assert res.branch_counts["plugin"] + res.branch_counts["poly"] == 10

    def test_tiny_n_degrades_to_plain_plugin(self):
        cfg = tuned_config(1.0)
        h = Histogram(counts=np.array([2, 1, 1]), n_nominal=4)
        res = composite_estimate(h, SH, cfg, rng=np.random.default_rng(6))
        assert any("plain plugin" in w for w in res.warnings)
        assert res.branch_counts == {"plugin": 3, "poly": 0}
        combined = Histogram(counts=h.counts, n_nominal=4, model="poissonized")
        assert res.estimate == pytest.approx(plain_plugin_estimate(combined, SH), rel=1e-14)

    def test_huge_truncation_degrades(self):
        # delta = C2 ln(n)/n >= 1 leaves no plugin region at all
        cfg = EstimatorConfig(c1=0.9, c2=60.0)
        est = Histogram(counts=np.array([5, 5]), n_nominal=10, model="poissonized")
        sel = Histogram(counts=np.array([5, 5]), n_nominal=10, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=10.0)
        res = composite_estimate(split, SH, cfg)
        assert any("plain plugin" in w for w in res.warnings)

    def test_rejects_wrong_input_type(self):
        with pytest.raises(ConfigurationError, match="Histogram"):
            composite_estimate(np.array([1, 2, 3]), SH, tuned_config(1.0))

    def test_result_type(self):
        res = composite_estimate(_mixed_split(), SH, tuned_config(1.0))
        assert isinstance(res, CompositeResult)
        assert res.poly_interval[0] == 0.0


# a multinomial histogram, and a poissonized one whose count of 10**12
# would make a bincount-sized table impossible
_PLUGIN_HISTOGRAMS = (
    Histogram(counts=np.array([10, 30, 60]), n_nominal=100),
    Histogram(counts=np.array([0, 3, 10**12]), n_nominal=10**12, model="poissonized"),
)


class TestPluginEstimators:
    def test_corrected_plugin_matches_manual_sum(self):
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        for h in _PLUGIN_HISTOGRAMS:
            n = h.n_nominal
            got = corrected_plugin_estimate(h, SH, cfg)
            want = math.fsum(
                float(bias_corrected_fn(SH, 2, cfg.delta(n), n, int(c) / n)) for c in h.counts
            )
            assert got == pytest.approx(want, rel=1e-14)

    def test_plain_plugin_matches_manual_sum(self):
        for h in _PLUGIN_HISTOGRAMS:
            got = plain_plugin_estimate(h, SH)
            want = math.fsum(float(SH.eval(int(c) / h.n_nominal)) for c in h.counts)
            assert got == pytest.approx(want, rel=1e-14)

    def test_plain_plugin_point_mass(self):
        h = Histogram(counts=np.array([100, 0, 0]), n_nominal=100)
        assert plain_plugin_estimate(h, power_functional(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_plain_plugin_uniform_counts(self):
        h = Histogram(counts=np.full(4, 25), n_nominal=100)
        assert plain_plugin_estimate(h, SH) == pytest.approx(math.log(4), rel=1e-12)

    def test_plain_plugin_entropy_bias_is_negative(self):
        # Jensen forces the plugin entropy below ln k on average
        k, n, reps = 100, 100, 2000
        P = np.full(k, 1.0 / k)
        rng = np.random.default_rng(9)
        total = 0.0
        for _ in range(reps):
            total += plain_plugin_estimate(sample_histogram(P, n, rng=rng), SH)
        assert total / reps < math.log(k)


class TestCorrectionOrderIdentity:
    def test_per_symbol_difference(self):
        # order-4 minus order-2 equals the displayed third/fourth
        # derivative terms exactly
        phi = power_functional(1.4)
        n, delta = 5.0, 0.08
        for p in np.linspace(0.1, 1.0, 10):
            d4 = float(bias_corrected_fn(phi, 4, delta, n, p))
            d2 = float(bias_corrected_fn(phi, 2, delta, n, p))
            t3 = float(truncated_deriv(phi, 3, delta, p))
            t4 = float(truncated_deriv(phi, 4, delta, p))
            want = p / (3 * n**2) * t3 + 5 * p / (24 * n**3) * t4 + p**2 / (8 * n**2) * t4
            assert d4 - d2 == pytest.approx(want, rel=1e-10)

    def test_composite_level_difference(self):
        # subtracting two O(1) sums leaves ~1e-16/diff relative noise,
        # so the band here is looser than the per-symbol identity
        phi = power_functional(1.4)
        n = 500.0
        cfg2 = EstimatorConfig(c1=0.9, c2=0.5, correction_order=2)
        cfg4 = EstimatorConfig(c1=0.9, c2=0.5, correction_order=4)
        counts = np.array([120, 260, 45, 75])
        est = Histogram(counts=counts, n_nominal=500, model="poissonized")
        sel = Histogram(counts=np.full(4, 10_000), n_nominal=500, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=n)
        diff = composite_estimate(split, phi, cfg4).estimate - composite_estimate(split, phi, cfg2).estimate
        p_hat = counts / n
        delta = cfg2.delta(n)
        t3 = truncated_deriv(phi, 3, delta, p_hat)
        t4 = truncated_deriv(phi, 4, delta, p_hat)
        want = math.fsum(p_hat / (3 * n**2) * t3 + 5 * p_hat / (24 * n**3) * t4 + p_hat**2 / (8 * n**2) * t4)
        assert diff == pytest.approx(want, rel=1e-8)


class TestPoissonizationSanity:
    @pytest.mark.parametrize("dist", ["uniform", "zipf"])
    def test_composite_mse_close_across_models(self, dist):
        # same estimator, same n: the poissonized and multinomial models
        # should give MSEs within a factor of 4 of each other
        k, n, reps = 100, 2000, 1500
        if dist == "uniform":
            P = np.full(k, 1.0 / k)
        else:
            P = 1.0 / np.arange(1.0, k + 1.0)
            P /= P.sum()
        truth = additive_functional(P, SH)
        cfg = tuned_config(1.0)
        mses = {}
        for model, seed in (("multinomial", 42), ("poissonized", 43)):
            rng = np.random.default_rng(seed)
            errs = np.empty(reps)
            for r in range(reps):
                h = sample_histogram(P, n, model=model, rng=rng)
                errs[r] = composite_estimate(h, SH, cfg, rng=rng).estimate - truth
            mses[model] = float(np.mean(errs**2))
        ratio = mses["poissonized"] / mses["multinomial"]
        assert max(ratio, 1.0 / ratio) <= 4.0
