"""Tests for sampling, splitting, config validation, and the composite estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from minifunc import estimators
from minifunc.errors import ConfigurationError, NumericalError
from minifunc.estimators import (
    ESTIMATORS,
    CompositeResult,
    EstimatorConfig,
    Histogram,
    SplitHistograms,
    composite_estimate,
    corrected_plugin_estimate,
    default_config,
    default_correction_order,
    plain_plugin_estimate,
    recommended_estimator,
    run_estimator,
    sample_histogram,
    split_samples,
    tuned_config,
    validate_config,
)
from minifunc.functionals import (
    additive_functional,
    bias_corrected_fn,
    custom_functional,
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

# dense grid over the open range (0, 1.95) where default_config is defined
ALPHA_GRID = np.linspace(0.0, 1.95, 2002)[1:-1].tolist()


def _default_c1_brentq_reference(alpha):
    # root of the third inequality at margin 0.05 by bracketing, as
    # default_config found it before its closed form; the relative
    # tolerance keeps the tiny roots near alpha = 1.95 accurate
    c2 = 8.0 * alpha + 1.0

    def slack(c1):
        lhs = 2.0 - 3.0 * c1 * math.log(2.0) - 2.0 * math.sqrt(c1 * c2) * math.log(2.0 * math.e)
        return lhs - alpha - 0.05

    hi = 1.0
    while slack(hi) > 0:
        hi *= 2.0
    return min(1.0 / (2.0 * c2**3), brentq(slack, 0.0, hi, xtol=1e-300))


# per-symbol plugin values at n=100 with delta pinned to 0.05
PLUGIN_POWER2_FULL = 0.99
PLUGIN_SH_ZERO = 0.14978661367769955
PLUGIN_SH_HALF = 0.35157359027997265

# composite on est=(3,50,1,46), sel=(0,40,0,40), n_eff=100, Power(0.3)
# with C1=0.03, C2=2.5, order 2: degree floor(0.03 ln 100) = 0, so the
# plain plugin on the unsplit counts (4,90,1,86) at n=200
MIXED_ESTIMATE = 2.0510073821790726

# composite on _repeated_split() for Power(0.3) with C1=0.9, C2=0.5:
# degree 4, 1756 plugin and 244 poly symbols
POLY_BRANCH_ESTIMATE = 971.9080567103271


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

    def test_default_c1_matches_brentq_reference(self):
        for alpha in ALPHA_GRID:
            assert default_config(alpha).c1 == pytest.approx(
                _default_c1_brentq_reference(alpha), rel=1e-9
            ), alpha

    def test_default_admissible_on_dense_grid(self):
        for alpha in ALPHA_GRID:
            assert validate_config(default_config(alpha), alpha) == [], alpha

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
        for c1, c2 in ((math.inf, 0.5), (0.9, math.inf), (math.nan, 0.5), (0.9, math.nan)):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                EstimatorConfig(c1=c1, c2=c2)

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

    @pytest.mark.parametrize("big", [1e20, math.inf, 2.0**63, -math.inf, -1e20])
    def test_rejects_float_counts_past_int64_before_casting(self, big):
        # the cast would warn and wrap; the range is checked first
        with pytest.raises(ConfigurationError, match=r"below 2\*\*63"):
            Histogram(counts=np.array([big, 0.0]), n_nominal=1, model="poissonized")
        top = 2.0**63 - 1024  # the largest float below 2**63
        h = Histogram(counts=np.array([top, 0.0]), n_nominal=1, model="poissonized")
        assert h.counts.tolist() == [2**63 - 1024, 0]

    @pytest.mark.parametrize("big", [[2**63, 0], [2**64 - 1, 1]])
    def test_rejects_uint64_counts_past_int64_before_casting(self, big):
        # the int64 cast would wrap these to negative counts
        with pytest.raises(ConfigurationError, match=r"non-negative and below 2\*\*63"):
            Histogram(counts=np.array(big, dtype=np.uint64), n_nominal=1, model="poissonized")
        h = Histogram(counts=np.array([2**63 - 1], dtype=np.uint64), n_nominal=1, model="poissonized")
        assert h.counts.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("counts", [np.array([], dtype=np.int64), np.ones((2, 2), dtype=np.int64)],
                             ids=["empty", "2d"])
    def test_rejects_empty_or_2d_counts(self, counts):
        with pytest.raises(ConfigurationError, match="non-empty 1-d"):
            Histogram(counts=counts, n_nominal=int(counts.sum()))

    def test_multinomial_sum_enforced(self):
        with pytest.raises(ConfigurationError, match="sum"):
            Histogram(counts=np.array([3, 5, 2]), n_nominal=11)

    def test_multinomial_sum_is_exact_past_int64(self):
        # an int64 or uint64 sum of these counts wraps to 0
        with pytest.raises(ConfigurationError, match="sum to 18446744073709551616, expected 0"):
            Histogram(counts=np.array([2**63 - 1, 2**63 - 1, 2]), n_nominal=0)
        assert Histogram(counts=np.array([2**63 - 1, 1]), n_nominal=2**63).k == 2

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

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_rate_scale(self, scale):
        with pytest.raises(ConfigurationError, match="n_nominal must be non-negative and finite"):
            Histogram(counts=np.array([3, 5]), n_nominal=scale, model="poissonized")
        h = Histogram(counts=np.array([3, 5]), n_nominal=8, model="poissonized")
        with pytest.raises(ConfigurationError, match="n_effective must be non-negative and finite"):
            SplitHistograms(est=h, sel=h, n_effective=scale)


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

    def test_odd_n_halves_share_the_rate_scale(self):
        h = Histogram(counts=np.array([4, 9]), n_nominal=13)
        split = split_samples(h, rng=np.random.default_rng(2))
        assert split.est.n_nominal == split.sel.n_nominal == split.n_effective == 6.5
        # too small for the split construction: the fallback plugin runs on
        # the unsplit counts at their own size 13
        res = composite_estimate(split, SH, default_config(1.0))
        assert res.branch_counts == {"plugin": 2, "poly": 0}
        assert res.estimate == plain_plugin_estimate(h, SH)

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
        # draw poissonized at 2n, split into halves at rate n
        rng = np.random.default_rng(3)
        h = sample_histogram(np.array([0.5, 0.5]), 2000, model="poissonized", rng=rng)
        split = split_samples(h, rng=rng)
        assert split.n_effective == 1000.0
        assert split.est.n_nominal == 1000
        # each half sits near its Poisson rate n*p = 500
        assert abs(int(split.est.counts[0]) - 500) < 5 * math.sqrt(500)


def _poly_symbol(N, n, approx, clamp):
    # the composite's poly branch for one count, term by term:
    # clamp(sum_m a_m prod_{j<m} (N - j) / n), each product taken in order
    a = approx.poly.coeffs
    total = math.fsum(float(a[m]) * math.prod((N - j) / n for j in range(m)) for m in range(len(a)))
    return min(max(total, min(clamp)), max(clamp))


def _poly_rule(approx, interval, clamp, n):
    # a rule built around a given approximation, solved on interval, and
    # clamp, for poly_values
    return estimators._CompositeRule(
        phi=SH, correction_order=2, n_eff=n, degree=len(approx.poly.coeffs) - 1,
        threshold=math.inf, delta=0.0, interval=interval, approx=approx, clamp=clamp,
    )


UNIT = (0.0, 1.0)


class TestBestPolySymbol:
    def test_constant_approx_passes_through(self):
        approx = remez_best_approx(lambda x: 0.3, 0, (0.0, 1.0))
        got = _poly_rule(approx, UNIT, (0.0, 1.0), 50.0).poly_values(np.array([0, 1, 17, 10**6]))
        assert got == pytest.approx([0.3] * 4, rel=1e-12)

    def test_zero_count_clamps_intercept(self):
        # best linear fit to x^2 on [0,1] is x - 1/8; at N=0 only the
        # intercept survives and the clamp floor lifts it to 0
        approx = remez_best_approx(lambda x: x * x, 1, (0.0, 1.0))
        assert approx.poly.coeffs[0] == pytest.approx(-0.125, abs=1e-9)
        zero = np.array([0])
        assert _poly_rule(approx, UNIT, (0.0, 1.0), 50.0).poly_values(zero).tolist() == [0.0]
        wide = _poly_rule(approx, UNIT, (-10.0, 10.0), 50.0).poly_values(zero)[0]
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
        # the rule's poly branch agrees with the raw transform when the
        # clamp is slack
        counts = [0, 1, 5, 17]
        api = _poly_rule(approx, (0.0, 0.2), (-1e9, 1e9), n).poly_values(np.array(counts))
        inline = [_poly_symbol(N, n, approx, (-1e9, 1e9)) for N in counts]
        assert api == pytest.approx(inline, rel=1e-12)

    def test_clamp_is_a_contraction(self):
        # clamping moves each raw value no farther from any point of
        # [lo, hi]; the raw values of a linear fit to x^2 span -0.125..2.9
        approx = remez_best_approx(lambda x: x * x, 1, (0.0, 1.0))
        counts = np.arange(0, 150, 4)
        raw = _poly_rule(approx, UNIT, (-1e9, 1e9), 50.0).poly_values(counts)
        lo, hi = 0.1, 0.7
        clamped = _poly_rule(approx, UNIT, (lo, hi), 50.0).poly_values(counts)
        assert raw.min() < lo and raw.max() > hi
        for v in np.linspace(lo, hi, 13):
            assert (np.abs(clamped - v) <= np.abs(raw - v) + 1e-15).all()

    @pytest.mark.parametrize("phi", [SH, power_functional(0.5)], ids=["shannon", "power0.5"])
    def test_poly_values_equal_the_scalar_reference(self, phi):
        # the Chebyshev recurrence against the monomial sum, to 1e-9 E_L below
        # the threshold; far above it both take the same end of the clamp
        cfg = tuned_config(phi.alpha)
        rule = estimators._composite_rule(phi, cfg, 5000.0)
        assert rule.degree > 1
        counts = list(range(int(rule.threshold) + 2))
        want = [_poly_symbol(N, 5000.0, rule.approx, rule.clamp) for N in counts]
        got = rule.poly_values(np.array(counts, dtype=np.int64))
        assert np.abs(got - want).max() <= 1e-9 * rule.approx.sup_error
        clamped = [10**6, 10**12, 2**53 + 1]
        want = [_poly_symbol(N, 5000.0, rule.approx, rule.clamp) for N in clamped]
        assert rule.poly_values(np.array(clamped, dtype=np.int64)).tolist() == want

    @staticmethod
    def _degree12_rule():
        # shannon's L = 12 best approximation on [0, 0.05] at n_eff 1e5,
        # slack clamp, so every count's value is the recurrence's own
        approx = remez_best_approx(SH.eval, 12, (0.0, 0.05))
        return _poly_rule(approx, (0.0, 0.05), (-1e9, 1e9), 1e5)

    def test_poly_values_blocks_are_bit_identical(self, monkeypatch):
        rule = self._degree12_rule()
        counts = np.arange(0, 30_000, 3, dtype=np.int64)
        # one block at the default, so whole is a single pass
        assert counts.size <= estimators._POLY_BLOCK
        whole = rule.poly_values(counts)
        monkeypatch.setattr(estimators, "_POLY_BLOCK", 7)
        assert rule.poly_values(counts).tobytes() == whole.tobytes()
        assert rule.poly_values(counts[:0]).shape == (0,)

    def test_poly_values_memory_is_bounded(self):
        # one pass over 3e5 distinct counts at L = 12 held about 150 MiB of
        # rows; in blocks only a block's rows and the values are live
        import tracemalloc

        rule = self._degree12_rule()
        counts = np.arange(300_000, dtype=np.int64)
        tracemalloc.start()
        try:
            values = rule.poly_values(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(values).all()
        assert peak < 32 * 2**20


def _plugin_symbol(N, n, phi, cfg):
    # the composite's plugin branch for one symbol: phi_bar(N/n) at cfg's order
    return float(bias_corrected_fn(phi, cfg.correction_order, cfg.delta(n), n, N / n))


def _coin_mean(N, n, phi, cfg, approx, clamp):
    # the composite's term at count N by exact enumeration of the fair
    # coin's estimation count a: sum_a C(N, a) 2^-N times the plugin branch
    # at a where N - a reaches the threshold, the poly branch at a otherwise
    threshold = cfg.count_threshold(n)
    return math.fsum(
        math.comb(N, a) / 2**N * (
            _plugin_symbol(a, n, phi, cfg) if N - a >= threshold else _poly_symbol(a, n, approx, clamp)
        )
        for a in range(N + 1)
    )


class TestPluginSymbol:
    def test_power2_full_count(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        assert cfg.delta(100.0) == pytest.approx(0.05, rel=1e-15)
        got = _plugin_symbol(100, 100.0, power_functional(2.0), cfg)
        assert got == pytest.approx(PLUGIN_POWER2_FULL, rel=1e-12)

    def test_shannon_zero_count_hits_truncation_floor(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        got = _plugin_symbol(0, 100.0, SH, cfg)
        assert got == pytest.approx(PLUGIN_SH_ZERO, rel=1e-12)
        assert got == pytest.approx(-0.05 * math.log(0.05), rel=1e-12)

    def test_shannon_half_count(self):
        cfg = _pinned_delta_config(100.0, 0.05)
        got = _plugin_symbol(50, 100.0, SH, cfg)
        assert got == pytest.approx(PLUGIN_SH_HALF, rel=1e-12)


def _mixed_split():
    est = Histogram(counts=np.array([3, 50, 1, 46]), n_nominal=100, model="poissonized")
    sel = Histogram(counts=np.array([0, 40, 0, 40]), n_nominal=100, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=100.0)


def _repeated_split():
    # k = 2000 symbols over a few dozen distinct counts est + sel: at
    # threshold 2*0.5*ln(100) each count above 4 averages both branches
    rng = np.random.default_rng(12)
    est = Histogram(counts=rng.integers(0, 30, size=2000), n_nominal=100, model="poissonized")
    sel = Histogram(counts=rng.integers(0, 12, size=2000), n_nominal=100, model="poissonized")
    return SplitHistograms(est=est, sel=sel, n_effective=100.0)


class TestComposite:
    def test_all_plugin_when_selector_clears_threshold(self):
        # counts of about 1000 at n_eff 1e4 (threshold 9.2): the selector
        # half reaches the threshold but with probability below 2**-960
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        n = 1e4
        est = Histogram(counts=np.array([3, 50, 1, 46]), n_nominal=n, model="poissonized")
        sel = Histogram(counts=np.array([1000, 1000, 1000, 1000]), n_nominal=n, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=n)
        res = composite_estimate(split, SH, cfg)
        assert res.branch_counts == {"plugin": 4, "poly": 0}
        approx = remez_best_approx(SH.eval, cfg.degree(n), cfg.poly_interval(n))
        clamp = range_on_interval(SH.eval, cfg.poly_interval(n))
        want = math.fsum(_coin_mean(int(N), n, SH, cfg, approx, clamp) for N in est.counts + sel.counts)
        assert res.estimate == pytest.approx(want, rel=1e-14)

    def test_all_poly_when_selector_is_zero(self):
        # every count is below the threshold 4.6, so the selector half is too
        cfg = EstimatorConfig(c1=0.9, c2=0.5)
        est = Histogram(counts=np.array([0, 1, 2, 4]), n_nominal=100, model="poissonized")
        sel = Histogram(counts=np.zeros(4, dtype=np.int64), n_nominal=100, model="poissonized")
        split = SplitHistograms(est=est, sel=sel, n_effective=100.0)
        res = composite_estimate(split, SH, cfg)
        assert res.branch_counts == {"plugin": 0, "poly": 4}
        approx = remez_best_approx(SH.eval, cfg.degree(100.0), cfg.poly_interval(100.0))
        clamp = range_on_interval(SH.eval, cfg.poly_interval(100.0))
        want = math.fsum(_coin_mean(int(N), 100.0, SH, cfg, approx, clamp) for N in est.counts)
        assert res.estimate == pytest.approx(want, rel=1e-12)

    def test_mixed_branches_frozen_value(self):
        phi = power_functional(0.3)
        cfg = EstimatorConfig(c1=0.03, c2=2.5, correction_order=2)
        res = composite_estimate(_mixed_split(), phi, cfg)
        assert res.branch_counts == {"plugin": 4, "poly": 0}
        assert res.threshold == 23.02585092994046
        assert res.degree == 0
        assert res.estimate == pytest.approx(MIXED_ESTIMATE, rel=1e-12)

    def test_poly_branch_frozen_value(self):
        res = composite_estimate(_repeated_split(), power_functional(0.3), EstimatorConfig(0.9, 0.5))
        assert (res.degree, res.branch_counts) == (4, {"plugin": 1756, "poly": 244})
        assert res.estimate == POLY_BRANCH_ESTIMATE

    @pytest.mark.parametrize("phi", [SH, power_functional(0.5), power_functional(1.2)],
                             ids=["shannon", "power0.5", "power1.2"])
    @pytest.mark.parametrize("n_eff", [1e9, 1e12, 1e15])
    def test_tuned_plans_equioscillate(self, phi, n_eff):
        # E_L on these intervals is far below 1e-13, down to 1.7e-21
        approx = estimators._composite_rule(phi, tuned_config(phi.alpha), n_eff).approx
        assert approx.converged
        mags = np.abs(approx.alternation_residuals)
        assert mags.max() / mags.min() <= 1.0 + 1e-6

    def test_tuned_plan_error_is_the_best(self):
        # E_18(p^1.2) on [0, 2 ln(1e9) / 1e9], from the scale identity
        rule = estimators._composite_rule(power_functional(1.2), tuned_config(1.2), 1e9)
        assert rule.degree == 18
        assert rule.approx.sup_error == pytest.approx(5.42e-14, rel=1e-2, abs=0.0)

    def test_huge_poly_counts_give_a_finite_estimate(self):
        # counts past any the unscaled recurrence can carry at degree 31,
        # without a numpy overflow warning (the suite makes them errors);
        # both values land in the clamp
        rule = estimators._composite_rule(SH, tuned_config(1.0), 1e15)
        values = rule.poly_values(np.array([10**12, 2**63 - 1]))
        lo, hi = rule.clamp
        assert ((lo <= values) & (values <= hi)).all()

    def test_nonfinite_estimate_raises(self, monkeypatch):
        monkeypatch.setattr(estimators._CompositeRule, "plugin_values",
                            lambda self, counts: np.full(counts.size, math.inf))
        with pytest.raises(NumericalError, match="not finite"):
            composite_estimate(_repeated_split(), power_functional(0.3), EstimatorConfig(0.9, 0.5))

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
        if cfg.degree(100.0) == 0:
            # a degree-0 "polynomial" ignores the count: the plain plugin on
            # the unsplit counts answers for every symbol
            assert res.branch_counts == {"plugin": split.k, "poly": 0}
            terms = phi.eval((split.est.counts + split.sel.counts) / 200.0).tolist()
        else:
            assert res.branch_counts["plugin"] > 0 and res.branch_counts["poly"] > 0
            approx = remez_best_approx(phi.eval, cfg.degree(100.0), cfg.poly_interval(100.0))
            clamp = range_on_interval(phi.eval, cfg.poly_interval(100.0))
            counts = (split.est.counts + split.sel.counts).tolist()
            term = {N: _coin_mean(N, 100.0, phi, cfg, approx, clamp) for N in set(counts)}
            terms = [term[N] for N in counts]
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

    def test_multinomial_input_is_averaged_without_a_warning(self):
        # no split is drawn, so the model does not enter the estimate
        cfg = tuned_config(1.0)
        h = sample_histogram(np.full(10, 0.1), 1000, rng=np.random.default_rng(4))
        res = composite_estimate(h, SH, cfg)
        assert res.warnings == ()
        assert res.n_effective == 500.0
        assert res.branch_counts["plugin"] + res.branch_counts["poly"] == 10
        poissonized = Histogram(counts=h.counts, n_nominal=1000, model="poissonized")
        assert composite_estimate(poissonized, SH, cfg) == res

    @pytest.mark.parametrize("model", ["multinomial", "poissonized"])
    @pytest.mark.parametrize("make_cfg", [tuned_config, default_config], ids=["mixed", "degree0"])
    def test_bare_split_is_split_samples(self, model, make_cfg):
        # a pre-split pair is averaged on est + sel, its input's own counts
        zipf = 1.0 / np.arange(1.0, 501.0)
        h = sample_histogram(zipf / zipf.sum(), 2000, model=model, rng=np.random.default_rng(11))
        cfg = make_cfg(1.0)
        bare = composite_estimate(h, SH, cfg)
        split = composite_estimate(split_samples(h, rng=np.random.default_rng(12)), SH, cfg)
        if make_cfg is tuned_config:
            assert min(bare.branch_counts.values()) > 0
        else:
            assert bare.degree == 0 and bare.warnings == split.warnings
        assert bare.estimate == split.estimate
        fields = ("branch_counts", "n_effective", "degree", "threshold", "poly_interval")
        assert [getattr(bare, f) for f in fields] == [getattr(split, f) for f in fields]

    def test_tiny_n_degrades_to_plain_plugin(self):
        cfg = tuned_config(1.0)
        h = Histogram(counts=np.array([2, 1, 1]), n_nominal=4)
        res = composite_estimate(h, SH, cfg)
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
        # the result names the construction the warning does, not degree 0
        assert any(w.startswith("degree floor(C1 ln n_effective) = 2 ") for w in res.warnings)
        assert (res.degree, res.threshold, res.poly_interval) == (
            2, cfg.count_threshold(10.0), cfg.poly_interval(10.0)
        )

    def test_fallback_draws_nothing(self):
        # the rng keyword is accepted and never drawn from, in the fallback
        # or out of it; the fallback's answer is the input's own plugin
        h = Histogram(counts=np.array([2, 1, 1]), n_nominal=4)
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        res = composite_estimate(h, SH, tuned_config(1.0), rng=rng)
        assert len(res.warnings) == 1 and "plain plugin" in res.warnings[0]
        assert res.estimate == plain_plugin_estimate(h, SH)
        mixed = composite_estimate(_REGISTRY_HISTOGRAMS[0], SH, tuned_config(1.0), rng=rng)
        assert min(mixed.branch_counts.values()) > 0
        assert rng.bit_generator.state == before

    def test_fallback_keeps_a_fractional_rate_scale(self):
        h = Histogram(counts=np.array([4, 9]), n_nominal=12.5, model="poissonized")
        res = composite_estimate(h, SH, default_config(1.0))
        assert res.n_effective == 6.25
        assert res.estimate == math.fsum(SH.eval(np.array([4, 9]) / 12.5).tolist())

    def test_custom_functionals_with_one_label_keep_their_own_plans(self, monkeypatch):
        # sqrt(p) and 3 sqrt(p) share kind, label and alpha; the plan cached
        # for the first must not answer for the second
        monkeypatch.setattr(estimators, "_PLAN_CACHE", {})
        root = power_functional(0.5)

        def scaled(c):
            return custom_functional(
                lambda p: c * root.eval(p),
                [lambda p, ell=ell: c * root.deriv(ell, p) for ell in range(1, 5)],
                alpha=0.5,
            )

        cfg = tuned_config(0.5)
        h = sample_histogram(np.full(1000, 1e-3), 2000, rng=np.random.default_rng(8))
        split = split_samples(h, rng=np.random.default_rng(9))
        one = composite_estimate(split, scaled(1.0), cfg)
        three = composite_estimate(split, scaled(3.0), cfg)
        assert one.branch_counts["poly"] > 0
        assert three.estimate == pytest.approx(3.0 * one.estimate, rel=1e-9)

    def test_rejects_wrong_input_type(self):
        with pytest.raises(ConfigurationError, match="Histogram"):
            composite_estimate(np.array([1, 2, 3]), SH, tuned_config(1.0))

    def test_result_type(self):
        res = composite_estimate(_mixed_split(), SH, tuned_config(1.0))
        assert isinstance(res, CompositeResult)
        assert res.poly_interval[0] == 0.0


def _last_exact_count():
    # the largest count whose window spans fewer than _WINDOW_POINTS points
    N = np.arange(1, 40_000)
    lo, hi = estimators._window(N)
    return int(N[hi - lo < estimators._WINDOW_POINTS].max())


class TestCoinAverage:
    def test_values_are_the_mean_over_fair_coin_splits(self):
        # threshold 4.6 at n_eff 100: counts 3 and 4 are all poly, the rest
        # average both branches
        rule = estimators._composite_rule(SH, tuned_config(1.0), 100.0)
        rng = np.random.default_rng(7)
        for N in (3, 4, 6, 9, 14, 40):
            a = rng.binomial(N, 0.5, size=10**5)
            g = np.where(N - a >= rule.threshold, rule.plugin_values(a), rule.poly_values(a))
            se = g.std(ddof=1) / math.sqrt(g.size)
            assert se > 0
            assert abs(rule.values(np.array([N]))[0] - g.mean()) <= 3.0 * se

    @pytest.mark.parametrize("N", [1, 2, 57, 4000, _last_exact_count()])
    def test_window_weights_are_exact(self, N):
        (a,), (w,) = estimators._half_binomial(np.array([N]))
        lo, hi = estimators._window(np.array([N]))
        assert (a[0], a[-1]) == (lo[0], hi[0]) and a.tolist() == list(range(a[0], a[-1] + 1))
        # C(N, a) in exact integers, stepped along the window
        exact, c, scale = [], math.comb(N, int(a[0])), 2**N
        for x in a.tolist():
            exact.append(c / scale)
            c = c * (N - x) // (x + 1)
        assert (np.abs(w - exact) <= 1e-13 * np.array(exact)).all()

    @pytest.mark.parametrize("phi", [SH, power_functional(0.5), power_functional(1.2)],
                             ids=["shannon", "power0.5", "power1.2"])
    def test_quadrature_agrees_with_the_window_sum(self, phi, monkeypatch):
        N = np.array([_last_exact_count() + 1])
        rule = estimators._composite_rule(phi, tuned_config(phi.alpha), 1e5)
        lo, hi = estimators._window(N)
        assert hi - lo >= estimators._WINDOW_POINTS
        quadrature = rule.values(N)
        monkeypatch.setattr(estimators, "_WINDOW_POINTS", 2**20)
        assert quadrature[0] == pytest.approx(rule.values(N)[0], rel=1e-13, abs=0.0)

    def test_values_do_not_depend_on_the_other_counts(self, monkeypatch):
        # as the risk lab's tables need: one count's value, bit for bit,
        # alone, among others, and in blocks of one row
        rule = estimators._composite_rule(SH, tuned_config(1.0), 1e4)
        counts = np.array([250, 0, 3, 17, 4000, _last_exact_count(), 10**6, 5, 3])
        whole = rule.values(counts)
        alone = np.concatenate([rule.values(counts[i : i + 1]) for i in range(counts.size)])
        monkeypatch.setattr(estimators, "_WINDOW_CELLS", 1)
        assert whole.tobytes() == alone.tobytes() == rule.values(counts).tobytes()

    def test_variance_falls_tenfold_at_uniform_k_equals_n(self):
        # the split estimator drawn by a test-local coin on the same counts
        k = n = 1000
        P = np.full(k, 1.0 / k)
        cfg = tuned_config(1.0)
        rule = estimators._composite_rule(SH, cfg, n / 2.0)
        rng = np.random.default_rng(5)
        averaged, split = [], []
        for _ in range(120):
            h = sample_histogram(P, n, rng=rng)
            averaged.append(composite_estimate(h, SH, cfg).estimate)
            est = rng.binomial(h.counts, 0.5)
            terms = np.where(h.counts - est >= rule.threshold, rule.plugin_values(est), rule.poly_values(est))
            split.append(math.fsum(terms.tolist()))
        assert np.var(split) >= 10.0 * np.var(averaged)

    @pytest.mark.parametrize("threshold", [0.5, 1.0, 2.5, 4.6, 7.0, 13.1])
    def test_branch_rule_matches_exact_enumeration(self, threshold):
        # plugin-branch where the selector count B ~ Binomial(N, 1/2)
        # reaches the threshold with probability at least 1/2
        n = 1e4
        cfg = EstimatorConfig(c1=0.9, c2=threshold / (2.0 * math.log(n)))
        h = Histogram(counts=np.arange(120), n_nominal=2 * n, model="poissonized")
        res = composite_estimate(h, SH, cfg)
        plugin = sum(
            2 * sum(math.comb(N, b) for b in range(N + 1) if b >= res.threshold) >= 2**N
            for N in range(120)
        )
        assert res.branch_counts == {"plugin": plugin, "poly": 120 - plugin}

    def test_largest_counts_take_the_plugin_branch(self):
        # 2**63 - 1 is averaged by quadrature, its poly branch out of reach
        h = Histogram(counts=np.array([10**12, 2**63 - 1]), n_nominal=2e15, model="poissonized")
        res = composite_estimate(h, SH, tuned_config(1.0))
        assert res.branch_counts == {"plugin": 2, "poly": 0}
        assert math.isfinite(res.estimate)


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

    def test_corrected_rejects_an_empty_sample_before_dividing(self):
        # n = 0 is checked before any count is divided by it, so the
        # suite's RuntimeWarning filter does not turn a 0/0 into the error
        h = Histogram(counts=np.zeros(3, dtype=np.int64), n_nominal=0)
        with pytest.raises(ConfigurationError, match="sample size n must be positive, got 0"):
            corrected_plugin_estimate(h, SH, tuned_config(1.0))
        with pytest.raises(ConfigurationError, match="sample size n must be positive, got 0"):
            run_estimator("corrected", h, SH, tuned_config(1.0))

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


# a multinomial and a poissonized histogram, both well inside the split regime
_REGISTRY_HISTOGRAMS = (
    Histogram(counts=np.array([40, 25, 15, 10, 6, 3, 1, 0]), n_nominal=100),
    Histogram(counts=np.array([12, 0, 7, 3, 30, 1]), n_nominal=50, model="poissonized"),
)


class TestRunEstimator:
    @pytest.mark.parametrize("h", _REGISTRY_HISTOGRAMS, ids=["multinomial", "poissonized"])
    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_matches_direct_call(self, name, h):
        cfg = tuned_config(1.0)
        direct = {
            "plugin": lambda: plain_plugin_estimate(h, SH),
            "corrected": lambda: corrected_plugin_estimate(h, SH, cfg),
            "composite": lambda: composite_estimate(h, SH, cfg).estimate,
        }
        res = run_estimator(name, h, SH, cfg)
        assert isinstance(res, CompositeResult)
        assert res.estimate == direct[name]()

    def test_composite_record_is_composite_estimate(self):
        h = _REGISTRY_HISTOGRAMS[0]
        want = composite_estimate(h, SH, tuned_config(1.0))
        assert run_estimator("composite", h, SH, tuned_config(1.0)) == want
        # no estimator reads the config's seed
        assert run_estimator("composite", h, SH, tuned_config(1.0, rng_seed=4)) == want

    @pytest.mark.parametrize("name", ["plugin", "corrected"])
    def test_plugins_leave_split_fields_none(self, name):
        for h in _REGISTRY_HISTOGRAMS:
            res = run_estimator(name, h, SH, tuned_config(1.0))
            assert res.branch_counts == {"plugin": h.k, "poly": 0}
            assert res.warnings == ()
            assert res.n_effective is None
            assert res.degree is None
            assert res.threshold is None
            assert res.poly_interval is None

    def test_corrected_warns_when_most_symbols_are_floored(self):
        # zipf(1) at k = n = 1e3: most counts fall below C2 ln n, where the
        # corrected plugin floors each term at phi(delta)
        cfg = tuned_config(1.0)
        k = n = 1000
        P = 1.0 / np.arange(1.0, k + 1.0)
        h = sample_histogram(P / P.sum(), n, rng=np.random.default_rng(3))
        (warning,) = run_estimator("corrected", h, SH, cfg).warnings
        floored = np.count_nonzero(h.counts < cfg.delta_nk(n)) / k
        assert floored > 0.5
        assert f"{floored:.1%} of symbols" in warning
        assert f"delta = {cfg.delta(n):g}" in warning
        # the well-sampled regime of the plugin-bias gate: no warning
        h = sample_histogram(np.full(100, 0.01), 10**5, rng=np.random.default_rng(3))
        assert run_estimator("corrected", h, SH, cfg).warnings == ()

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="estimator must be one of"):
            run_estimator("oracle", _REGISTRY_HISTOGRAMS[0], SH, tuned_config(1.0))


def _dyadic_values(c):
    # short dyadic significands, so multiplicity x value is exact and the
    # fingerprint sum must equal the per-symbol sum bit for bit
    return c / 4.0 + 0.5


class TestFingerprintSum:
    K = 50

    @pytest.mark.parametrize(
        "top", [K - 1, K, 2**63 - 1], ids=["just-below-k", "at-k", "far-above-k"]
    )
    def test_equals_the_per_symbol_sum_either_side_of_the_grouping_switch(self, top):
        # the largest count is top; far above k it is the largest int64
        counts = np.random.default_rng(1).integers(0, self.K - 1, self.K)
        counts[7] = top
        want = math.fsum(float(_dyadic_values(np.array([c]))[0]) for c in counts.tolist())
        assert estimators._fingerprint_sum(counts, _dyadic_values) == want


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
        split = SplitHistograms(est=est, sel=est, n_effective=n)
        diff = composite_estimate(split, phi, cfg4).estimate - composite_estimate(split, phi, cfg2).estimate
        # the poly branch does not depend on the order, so the difference is
        # the identity's mean over the plugin branch's estimation counts a
        delta = cfg2.delta(n)
        want = []
        for N in (2 * counts).tolist():
            a = np.arange(N + 1)
            p_hat = a[N - a >= cfg2.count_threshold(n)] / n
            t3 = truncated_deriv(phi, 3, delta, p_hat)
            t4 = truncated_deriv(phi, 4, delta, p_hat)
            terms = p_hat / (3 * n**2) * t3 + 5 * p_hat / (24 * n**3) * t4 + p_hat**2 / (8 * n**2) * t4
            want += [math.comb(N, int(b)) / 2**N * t for b, t in zip(a, terms.tolist())]
        assert diff == pytest.approx(math.fsum(want), rel=1e-8)


class TestPoissonizationSanity:
    @pytest.mark.parametrize("dist", ["uniform", "zipf"])
    def test_composite_bias_close_across_models(self, dist):
        # same estimator, same n: the poissonized and multinomial models
        # give biases within 3 standard errors of each other.  (Their MSEs
        # differ by far more: a fixed total removes most of the averaged
        # composite's variance.)
        k, n, reps = 100, 2000, 1500
        if dist == "uniform":
            P = np.full(k, 1.0 / k)
        else:
            P = 1.0 / np.arange(1.0, k + 1.0)
            P /= P.sum()
        truth = additive_functional(P, SH)
        cfg = tuned_config(1.0)
        errs = {}
        for model, seed in (("multinomial", 42), ("poissonized", 43)):
            rng = np.random.default_rng(seed)
            errs[model] = np.array([
                composite_estimate(sample_histogram(P, n, model=model, rng=rng), SH, cfg).estimate - truth
                for _ in range(reps)
            ])
        gap = errs["poissonized"].mean() - errs["multinomial"].mean()
        se = math.sqrt(sum(e.var(ddof=1) / reps for e in errs.values()))
        assert abs(gap) <= 3.0 * se
