"""Tests for the lower-bound constructions.

Frozen reference values were produced by direct evaluation of the
implementation at fixed inputs and hand-checked against the closed
forms where those exist (two-point divergences, the x^2 pair, the
Poisson TV bound arithmetic).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy
from scipy.stats import poisson

from minifunc import estimators
from minifunc.errors import ConfigurationError, MinifuncError, NumericalError, SupportError
from minifunc.functionals import (
    ProbabilityVector,
    additive_functional,
    check_divergence_speed,
    power_functional,
    shannon_functional,
)
from minifunc.lowerbounds import (
    MeasurePair,
    canonical_two_point_pair,
    composite_lower_bound,
    divergence,
    fitted_bound_constants,
    hellinger_le_cam_bound,
    hoelder_norm,
    le_cam_bound,
    log_speed_constants,
    moment_matched_pair,
    poisson_mixture_tv,
    tilted_pair,
    two_point_pair,
)
from minifunc.polyapprox import remez_best_approx

SH = shannon_functional()

# two-point family at p=0.5, q=0.4, k=3, frozen
TP_KL_PQ = 0.020410997260127586
TP_KL_QP = 0.020135513550688863
TP_CHI2_PQ = 0.041666666666666644
TP_CHI2_QP = 0.03999999999999998
TP_THETA_GAP = 0.0894502316066832


def _chi2(P, Q):
    # chi-square of P against the reference Q, which has full support here
    return float(np.sum((P.probs - Q.probs) ** 2 / Q.probs))


def _tv(P, Q):
    return 0.5 * float(np.sum(np.abs(P.probs - Q.probs)))


class TestDivergence:
    @pytest.mark.parametrize("kind", ["kl", "hellinger"])
    def test_identical_is_zero(self, kind):
        P = ProbabilityVector([0.5, 0.3, 0.2])
        assert divergence(P, P, kind) == 0.0

    def test_two_point_values(self):
        tp = two_point_pair(SH, 3, 0.5, 0.4)
        assert divergence(tp.P, tp.Q, "kl") == pytest.approx(TP_KL_PQ, rel=1e-12)
        assert divergence(tp.Q, tp.P, "kl") == pytest.approx(TP_KL_QP, rel=1e-12)
        assert _chi2(tp.P, tp.Q) == pytest.approx(TP_CHI2_PQ, rel=1e-12)
        assert _chi2(tp.Q, tp.P) == pytest.approx(TP_CHI2_QP, rel=1e-12)

    def test_two_point_chi2_halves_and_kl(self):
        # the closed form (p-q)^2/(2p(1-p)) equals half the chi-square
        # with reference P; the KL values straddle it within a few
        # percent at this separation but are NOT certified below it
        tp = two_point_pair(SH, 3, 0.5, 0.4)
        assert tp.kl_bound == pytest.approx(0.02, rel=1e-12)
        assert tp.kl_bound == pytest.approx(_chi2(tp.Q, tp.P) / 2, rel=1e-12)
        for kl in (TP_KL_PQ, TP_KL_QP):
            assert kl == pytest.approx(tp.kl_bound, rel=0.03)
        # same-orientation chi-square/2 does dominate at this point
        assert divergence(tp.P, tp.Q, "kl") <= _chi2(tp.P, tp.Q) / 2

    @given(
        p=st.floats(0.01, 0.99),
        q=st.floats(0.01, 0.99),
        k=st.integers(2, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_kl_below_chi2(self, p, q, k):
        tp = two_point_pair(SH, k, p, q)
        kl = divergence(tp.P, tp.Q, "kl")
        assert 0.0 <= kl <= _chi2(tp.P, tp.Q) + 1e-12

    @given(
        p=st.floats(0.01, 0.99),
        q=st.floats(0.01, 0.99),
        k=st.integers(2, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_symmetric_kinds_and_ranges(self, p, q, k):
        tp = two_point_pair(SH, k, p, q)
        h2 = divergence(tp.P, tp.Q, "hellinger")
        assert divergence(tp.Q, tp.P, "hellinger") == pytest.approx(h2, abs=1e-14)
        assert 0.0 <= h2 <= 4.0 + 1e-12
        assert h2 <= 4.0 * _tv(tp.P, tp.Q) + 1e-12

    def test_support_violation(self):
        P = ProbabilityVector([0.5, 0.5, 0.0])
        Q = ProbabilityVector([0.5, 0.0, 0.5])
        with pytest.raises(SupportError, match="symbol 1"):
            divergence(P, Q, "kl")
        # hellinger tolerates disjoint pieces
        divergence(P, Q, "hellinger")

    def test_hellinger_disjoint_is_four(self):
        P = ProbabilityVector([1.0, 0.0])
        Q = ProbabilityVector([0.0, 1.0])
        assert divergence(P, Q, "hellinger") == pytest.approx(4.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="alphabet"):
            divergence([0.5, 0.5], [0.4, 0.3, 0.3], "hellinger")

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            divergence([0.5, 0.5], [0.4, 0.6], "wasserstein")

    def test_kind_case_insensitive(self):
        assert divergence([0.5, 0.5], [0.4, 0.6], "KL") == pytest.approx(
            divergence([0.5, 0.5], [0.4, 0.6], "kl")
        )


class TestTwoPointPair:
    def test_shape_and_fields(self):
        tp = two_point_pair(SH, 4, 0.5, 0.4)
        assert tp.P.probs[0] == pytest.approx(0.5)
        assert np.allclose(tp.P.probs[1:], 0.5 / 3)
        assert tp.Q.probs[0] == pytest.approx(0.6)
        assert tp.theta_gap == pytest.approx(
            additive_functional(tp.P, SH) - additive_functional(tp.Q, SH)
        )

    def test_frozen_gap(self):
        tp = two_point_pair(SH, 3, 0.5, 0.4)
        assert tp.theta_gap == pytest.approx(TP_THETA_GAP, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            two_point_pair(SH, 1, 0.5, 0.4)
        with pytest.raises(ConfigurationError):
            two_point_pair(SH, 3, 0.0, 0.4)
        with pytest.raises(ConfigurationError):
            two_point_pair(SH, 3, 0.5, 1.0)

    def test_canonical_scale(self):
        tp = canonical_two_point_pair(SH, 100, 10**4)
        assert tp.q == pytest.approx(0.5 - 1e-2)
        # q = 1/2 - 1/sqrt(2) < 0
        with pytest.raises(ConfigurationError, match="escapes"):
            canonical_two_point_pair(SH, 10, 2)
        for n in (0, -5):
            with pytest.raises(ConfigurationError, match="n must be positive"):
                canonical_two_point_pair(SH, 10, n)


class TestLeCamBound:
    def test_zero_gap(self):
        tp = two_point_pair(SH, 5, 0.3, 0.3)
        assert le_cam_bound(tp.P, tp.Q, SH, 100) == 0.0

    def test_n_zero_quarter_gap_squared(self):
        tp = two_point_pair(SH, 5, 0.5, 0.4)
        assert le_cam_bound(tp.P, tp.Q, SH, 0) == pytest.approx(
            0.25 * tp.theta_gap**2, rel=1e-12
        )

    def test_frozen_values(self):
        tp = canonical_two_point_pair(SH, 100, 10**4)
        assert tp.theta_gap == pytest.approx(0.04615121183681392, rel=1e-12)
        assert le_cam_bound(tp.P, tp.Q, SH, 10**4) == pytest.approx(
            7.203498982010996e-05, rel=1e-10
        )
        tp7 = canonical_two_point_pair(SH, 100, 1000)
        assert le_cam_bound(tp7.P, tp7.Q, SH, 1000) == pytest.approx(
            0.0007312808458165241, rel=1e-10
        )


class TestHellingerLeCamBound:
    def test_identical(self):
        P = ProbabilityVector([0.5, 0.5])
        assert hellinger_le_cam_bound(P, P, SH, 10) == 0.0

    def test_disjoint_supports(self):
        P = ProbabilityVector([1.0, 0.0])
        Q = ProbabilityVector([0.0, 1.0])
        assert hellinger_le_cam_bound(P, Q, SH, 5) == 0.0

    def test_tail_shift_chain(self):
        # tail-shift family, fitted first divergence-speed constant
        phi = power_functional(-0.5)
        P = ProbabilityVector(np.concatenate([np.full(49, 0.01 / 49), [1.0 - 0.01]]))
        Q = ProbabilityVector(np.concatenate([np.full(49, 0.02 / 49), [1.0 - 0.02]]))
        assert divergence(P, Q, "hellinger") == pytest.approx(
            0.003482219253395371, rel=1e-10
        )
        bound = hellinger_le_cam_bound(P, Q, phi, 100)
        assert bound == pytest.approx(211979.61406212606, rel=1e-9)
        W1 = check_divergence_speed(phi, 1).W
        assert W1 == pytest.approx(0.5, rel=1e-9)
        chain = 0.25 * (W1 * 49 * math.log(2)) ** 2
        assert chain == pytest.approx(72.0979804011001, rel=1e-9)
        assert bound >= chain

    @pytest.mark.parametrize(
        "pair, n",
        [
            (canonical_two_point_pair(SH, 100, 1000), 1000),
            (two_point_pair(SH, 2, 0.5, 0.49), 1),
        ],
        ids=["canonical", "near-identical"],
    )
    def test_between_kl_bound_and_midpoint_risk(self, pair, n):
        # no two-point argument beats the midpoint estimator's risk gap^2/4
        bound = hellinger_le_cam_bound(pair.P, pair.Q, SH, n)
        assert le_cam_bound(pair.P, pair.Q, SH, n) <= bound <= 0.25 * pair.theta_gap**2


class TestMeasurePairType:
    def test_rejects_negative_weights(self):
        with pytest.raises(NumericalError, match="non-negative"):
            MeasurePair(
                support=np.array([0.0, 1.0]),
                w0=np.array([1.5, -0.5]),
                w1=np.array([0.5, 0.5]),
                matched_orders=1,
                gap=0.0,
            )

    def test_rejects_nan_weights(self):
        with pytest.raises(NumericalError):
            MeasurePair(
                support=np.array([0.0, 1.0]),
                w0=np.array([np.nan, 0.5]),
                w1=np.array([0.5, 0.5]),
                matched_orders=1,
                gap=0.0,
            )

    def test_rejects_unnormalized(self):
        with pytest.raises(NumericalError, match="sums to"):
            MeasurePair(
                support=np.array([0.0, 1.0]),
                w0=np.array([0.3, 0.3]),
                w1=np.array([0.5, 0.5]),
                matched_orders=1,
                gap=0.0,
            )

    @pytest.mark.parametrize("support, w0, w1, orders, error, match", [
        ([], [], [], 1, ConfigurationError, "support is empty"),
        ([-1.0, 1.0], [1.0, 0.0], [0.0, 1.0], 1, ConfigurationError, "support points .* got -1.0"),
        ([math.nan, 1.0], [0.5, 0.5], [0.5, 0.5], 1, ConfigurationError, "support points .* got nan"),
        ([math.inf, 1.0], [0.5, 0.5], [0.5, 0.5], 1, ConfigurationError, "support points .* got inf"),
        ([0.0, 1.0], [0.5, 0.5], [0.5, 0.5], -1, ConfigurationError, "matched_orders must be >= 0"),
        ([0.0, 1.0], [1.0, 0.0], [0.0, 1.0], 1, NumericalError, "moment constraints violated by 1"),
    ], ids=["empty", "negative", "nan", "inf", "orders", "moments"])
    def test_rejects_invalid_pair(self, support, w0, w1, orders, error, match):
        with pytest.raises(MinifuncError, match=match) as info:
            MeasurePair(support=support, w0=w0, w1=w1, matched_orders=orders, gap=0.0)
        assert type(info.value) is error

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            MeasurePair(
                support=np.array([0.0, 1.0]),
                w0=np.array([0.5, 0.5, 0.0]),
                w1=np.array([0.5, 0.5]),
                matched_orders=1,
                gap=0.0,
            )


class TestMomentMatchedPair:
    def test_square_function_quarter_gap(self):
        pair = moment_matched_pair(lambda x: np.asarray(x, dtype=float) ** 2, 1, (0.0, 1.0))
        assert abs(pair.gap - 0.25) <= 0.005
        # 2 E_1(x^2, [0, 1]) with E_1 = 1/8 (best line x - 1/8)
        assert pair.gap == pytest.approx(0.25, rel=1e-9)
        assert pair.expected_gap == pytest.approx(0.25, rel=1e-9)
        assert pair.warnings == ()
        # extremal shape: w0 at the endpoints, w1 near the midpoint
        heavy0 = pair.support[pair.w0 > 1e-9]
        heavy1 = pair.support[pair.w1 > 1e-9]
        assert heavy0 == pytest.approx([0.0, 1.0], abs=1e-12)
        assert len(heavy1) <= 2
        assert np.all(np.abs(heavy1 - 0.5) < 0.02)

    def test_polynomial_gap_vanishes(self):
        f = lambda x: np.asarray(x, dtype=float) ** 3 - 0.5 * np.asarray(x, dtype=float)
        pair = moment_matched_pair(f, 3, (0.0, 1.0))
        assert pair.gap <= 1e-8

    @pytest.mark.parametrize(
        "degrees", [pytest.param((2, 8), id="2"), pytest.param((4, 14), id="4")]
    )
    def test_moments_matched_and_gap_tracks_remez(self, degrees):
        for phi in (SH, power_functional(0.5)):
            for L in degrees:
                pair = moment_matched_pair(phi, L, (0.0, 4e-3))
                assert pair.support.size == L + 2
                assert pair.moment_residuals().max() <= 1e-8
                assert pair.w0.min() >= 0.0 and pair.w1.min() >= 0.0
                assert math.fsum(pair.w0.tolist()) == pytest.approx(1.0, abs=1e-9)
                assert math.fsum(pair.w1.tolist()) == pytest.approx(1.0, abs=1e-9)
                assert pair.gap == pytest.approx(pair.expected_gap, rel=1e-9)

    def test_degree_validation(self):
        with pytest.raises(ConfigurationError, match="L"):
            moment_matched_pair(SH, 0, (0.0, 1.0))

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError, match="interval"):
            moment_matched_pair(SH, 2, (0.5, 0.5))

    def test_nonfinite_function_rejected(self):
        # the Remez solve finds the pole at 0 and raises, as approx does
        with pytest.raises(NumericalError, match="not finite"):
            moment_matched_pair(power_functional(-0.5), 2, (0.0, 1.0))
        with pytest.raises(ConfigurationError, match="bad interval"):
            moment_matched_pair(SH, 3, (0.0, math.inf))


class TestTiltedPair:
    def test_polynomial_gap_vanishes(self):
        f = lambda x: np.asarray(x, dtype=float) ** 2 - np.asarray(x, dtype=float)
        pair = tilted_pair(f, 1, 0.1, 0.5)
        assert pair.gap <= 1e-8
        assert pair.matched_orders == 2

    def test_first_moments_pinned(self):
        pair = tilted_pair(SH, 3, 0.05, 0.2)
        for w in (pair.w0, pair.w1):
            assert float(pair.support @ w) == pytest.approx(0.05, abs=1e-10)
        assert pair.moment_residuals().max() <= 1e-8
        assert pair.support[0] == 0.0
        assert pair.support.max() == pytest.approx(0.25)

    # lp_ratio is what the grid LP that this construction replaced
    # reached; the extremal pair can only do better
    @pytest.mark.parametrize(
        "L,lp_ratio",
        [(4, 0.10375848880585531), (6, 0.1079572216246517), (8, 0.10946880966504358)],
    )
    def test_zero_pinned_entropy_variant(self, L, lp_ratio):
        # phi_g(x) = -x log(x/g) vanishes at 0 and at g; the normalized
        # gap stays bounded away from zero as the degree grows
        g = 1.0 / (2 * L * L)

        def phi_g(x):
            x = np.asarray(x, dtype=float)
            return -xlogy(x, x / g)

        pair = tilted_pair(phi_g, L, g, g)
        got = pair.gap / (2 * g)
        # the gap is 2 g E_L(phi_g(x)/x, [g, 1])
        ratio = remez_best_approx(lambda x: phi_g(x) / x, L, (g, 1.0)).sup_error
        assert got == pytest.approx(ratio, rel=1e-6)
        assert got >= lp_ratio
        assert got >= 0.1

    def test_requires_zero_at_origin(self):
        with pytest.raises(ConfigurationError, match="f\\(0\\)"):
            tilted_pair(lambda x: np.asarray(x, dtype=float) + 1.0, 2, 0.1, 0.5)

    def test_requires_gamma_below_eta(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            tilted_pair(SH, 2, 0.5, 0.1)


class TestPoissonMixtureTV:
    def test_identical_measures(self):
        base = moment_matched_pair(lambda x: np.asarray(x, dtype=float) ** 2, 1, (0.0, 1.0))
        same = MeasurePair(
            support=base.support, w0=base.w0, w1=base.w0, matched_orders=1, gap=0.0
        )
        res = poisson_mixture_tv(same, 1, 1)
        assert res.numeric_tv == 0.0

    def test_bound_arithmetic(self):
        pair = moment_matched_pair(SH, 10, (0.0, 1.0))
        res = poisson_mixture_tv(pair, 1, 1)
        assert res.max_rate == pytest.approx(1.0)
        assert res.bound == pytest.approx((2 * math.e / 10) ** 10, rel=1e-12)
        assert res.bound == pytest.approx(2.2555100973882048e-3, rel=1e-12)
        assert res.numeric_tv <= res.bound

    @pytest.mark.parametrize("L", [8, 12])
    def test_tv_below_bound(self, L):
        pair = moment_matched_pair(SH, L, (0.0, 1.0))
        res = poisson_mixture_tv(pair, 1, 1)
        assert math.isfinite(res.bound)
        assert 0.0 <= res.numeric_tv <= res.bound
        assert res.numeric_tv <= 1.0

    def test_infinite_sentinel_when_degree_small(self):
        f = lambda x: np.asarray(x, dtype=float) ** 3 - 0.5 * np.asarray(x, dtype=float)
        pair = moment_matched_pair(f, 3, (0.0, 1.0))
        res = poisson_mixture_tv(pair, 2, 1)  # M = 2, L = 3 < 2eM
        assert res.bound == math.inf

    def test_default_truncation(self):
        pair = moment_matched_pair(SH, 8, (0.0, 1.0))
        res = poisson_mixture_tv(pair, 1, 1)
        assert res.trunc == 63

    @pytest.mark.parametrize("s, L", [(1.0, 6), (1.0, 8), (1.0, 10), (0.5, 4)])
    def test_matches_scipy_pmf_on_gate_pairs(self, s, L):
        pair = moment_matched_pair(SH.eval, L, (0.0, s))
        res = poisson_mixture_tv(pair, 1, 1)
        assert res.numeric_tv == pytest.approx(_scipy_mixture_tv(pair, 1, 1, res.trunc), abs=1e-15)

    def test_matches_scipy_pmf_at_large_rate(self):
        # rates up to 1000 reach j ~ 1400, where ln j! is large
        pair = moment_matched_pair(SH.eval, 20, (0.0, 1.0))
        res = poisson_mixture_tv(pair, 1000, 1)
        assert res.max_rate == pytest.approx(1000.0)
        want = _scipy_mixture_tv(pair, 1000, 1, res.trunc)
        assert 0.5 < want < 0.99
        assert res.numeric_tv == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n, k", [(-1, 1), (0, 1), (1, 0), (1, -1)])
    def test_rejects_n_or_k_below_one(self, n, k):
        pair = moment_matched_pair(SH, 8, (0.0, 1.0))
        with pytest.raises(ConfigurationError, match="need n >= 1 and k >= 1"):
            poisson_mixture_tv(pair, n, k)

    def test_separated_pair_at_a_million_reads_one_in_windows(self):
        # rates up to 1e6: one window of ~24 000 points per support point,
        # where a dense table over 0..trunc took 260 MB
        import tracemalloc

        pair = moment_matched_pair(SH, 8, (0.0, 1.0))
        tracemalloc.start()
        try:
            res = poisson_mixture_tv(pair, 10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.0 - 1e-14 <= res.numeric_tv <= 1.0
        assert peak < 40e6

    @pytest.mark.parametrize("rate", [Fraction(3, 2), Fraction(7), Fraction(250)])
    def test_window_weights_are_exact(self, rate):
        rates = np.array([float(rate)])
        lo, hi = estimators._window(rates, 12.0 * np.sqrt(rates) + 50.0)
        (a,), (w,) = estimators._pmf_window(lo, hi, lambda a: rates[:, None] / (a + 1.0))
        assert (a[0], a[-1]) == (lo[0], hi[0]) and a.tolist() == list(range(a[0], a[-1] + 1))
        # rate^a / a! in exact rationals; e^-rate cancels in the normalisation
        terms = [rate ** x / math.factorial(x) for x in a.tolist()]
        total = sum(terms)
        exact = np.array([float(t / total) for t in terms])
        assert (np.abs(w - exact) <= 1e-13 * exact).all()

    @pytest.mark.parametrize("rates", [
        np.array([0.0, 1.0, 233.3, 1e3, 1e6]), np.concatenate([[0.0], np.geomspace(1e-3, 1e8, 300)]),
    ], ids=["named", "sweep"])
    def test_window_certificate(self, rates):
        # Bernstein's 2 exp(-72) bounds the Poisson(r) mass outside every
        # window, here in log space against scipy
        lo, hi = estimators._window(rates, 12.0 * np.sqrt(rates) + 50.0)
        outside = np.logaddexp(poisson.logcdf(lo - 1.0, rates), poisson.logsf(hi, rates))
        assert (outside <= math.log(2.0) - 72.0).all()


def _scipy_mixture_tv(pair, n, k, trunc):
    pmf = poisson.pmf(np.arange(trunc + 1)[:, None], (n * pair.support / k)[None, :])
    return 0.5 * float(np.abs(pmf @ pair.w0 - pmf @ pair.w1).sum())


class TestCompositeLowerBound:
    def test_zero_gap_nonpositive(self):
        res = composite_lower_bound(
            SH, 10**6, 100, 1.0 / 24.0, 3, 0.0, W=8.0, Wprime=8.0
        )
        assert res.bound <= 0.0

    def test_condition_one_path(self):
        res = composite_lower_bound(
            SH, 10**6, 100, 1.0 / 24.0, 3, 1e-4, W=8.0, Wprime=8.0
        )
        assert res.condition == 1
        assert res.e_l == pytest.approx(1.0146074009532383e-05, rel=1e-9)
        assert res.gamma is None
        # this deep into the asymptotic regime the Poisson-tail factors
        # have underflowed to zero
        assert res.terms["concentration"] == 0.0

    def test_condition_two_path_small_tv_term(self):
        n = k = 10**4
        lam = 0.05 * k * math.log(n) / n
        L = math.ceil(2.0 * math.log(n))
        res = composite_lower_bound(SH, n, k, lam, L, 7e-5, W=8.0, Wprime=8.0)
        assert res.condition == 2
        assert res.gamma == pytest.approx(6.378352058155251e-08, rel=1e-9)
        assert res.terms["tv_term"] == pytest.approx(1.8902300303370275e-13, rel=1e-6)
        assert res.terms["tv_term"] < 1e-3

    def test_neither_condition_raises(self):
        with pytest.raises(ConfigurationError, match="side condition"):
            composite_lower_bound(SH, 100, 4, 10.0, 3, 100.0, W=8.0, Wprime=8.0)

    def test_alpha_branches(self):
        pw = power_functional(0.5)
        r = composite_lower_bound(pw, 10**6, 100, 1.0 / 24.0, 3, 1e-4, W=2.0, Wprime=2.0)
        assert set(r.terms) == {
            "main", "tv_term", "mass_shift", "concentration", "normalization",
            "total_correction",
        }
        r1 = composite_lower_bound(SH, 10**6, 100, 1.0 / 24.0, 3, 1e-4, W=8.0, Wprime=8.0)
        assert r1.alpha == 1.0  # picked up from the functional
        assert "renormalization" in r1.terms
        pw14 = power_functional(1.4)
        r14 = composite_lower_bound(
            pw14, 10**6, 100, 1.0 / 24.0, 3, 1e-5, W=3.9, Wprime=3.9
        )
        assert r14.condition == 1
        assert r14.terms["normalization"] == pytest.approx(
            16.0 * 3.9 * (1.0 / 24.0) ** 2 / 100**2, rel=1e-12
        )

    def test_terms_sum_to_bound(self):
        res = composite_lower_bound(
            SH, 10**6, 100, 1.0 / 24.0, 3, 1e-4, W=8.0, Wprime=8.0
        )
        assert res.bound == pytest.approx(
            res.terms["main"] - res.terms["total_correction"], rel=1e-12
        )

    def test_requires_constants(self):
        # W and Wprime are calibration inputs with no default
        with pytest.raises(TypeError, match="W"):
            composite_lower_bound(SH, 100, 10, 0.05, 3, 1e-4)

    @pytest.mark.parametrize("n, k", [(1000, 0), (1000, 1), (0, 100)])
    def test_rejects_bad_k_n(self, n, k):
        with pytest.raises(ConfigurationError, match="k >= 2 and n >= 1"):
            composite_lower_bound(SH, n, k, 0.01, 3, 1e-6, W=1.0, Wprime=1.0)

    @pytest.mark.parametrize(
        "lam, L, d", [(0.01, 0, 1e-6), (0.0, 3, 1e-6), (-0.01, 3, 1e-6), (0.01, 3, -1e-6)],
        ids=["L-zero", "lam-zero", "lam-negative", "d-negative"],
    )
    def test_rejects_bad_L_lam_d(self, lam, L, d):
        with pytest.raises(ConfigurationError, match="need L >= 1, lam > 0, d >= 0"):
            composite_lower_bound(SH, 1000, 100, lam, L, d, W=1.0, Wprime=1.0)

    def test_tv_term_overflow_rejected(self):
        # k (2e n lam / (L k))^L = 2 * 3.9e9^56 is past the float range
        with pytest.raises(ConfigurationError, match="tv_term .* overflows a float"):
            composite_lower_bound(SH, 10**12, 2, 0.08, 56, 1e-30, W=1.0, Wprime=1.0)

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            composite_lower_bound(
                power_functional(2.5), 100, 10, 0.05, 3, 1e-4, W=1.0, Wprime=1.0
            )


class TestFittedConstants:
    def test_hoelder_power_half(self):
        assert hoelder_norm(power_functional(0.5), 0.5) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "phi, beta",
        [(power_functional(0.5), 0.5), (power_functional(0.3), 0.3), (SH, 0.9),
         (power_functional(1.5), 1.0)],
        ids=["p0.5", "p0.3", "shannon", "p1.5"],
    )
    def test_hoelder_matches_dense_pair_matrix(self, phi, beta):
        # the row-blocked maximum equals the one over the whole pair matrix
        u_cheb = 0.5 * (1.0 - np.cos(np.pi * np.arange(768) / 767))
        x = np.unique(np.concatenate([[0.0], u_cheb, np.geomspace(1e-14, 1.0, 384)]))
        fx = phi.eval(x)
        dx = np.abs(x[:, None] - x[None, :])
        df = np.abs(fx[:, None] - fx[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            dense = float(np.nanmax(np.where(dx > 0.0, df / dx**beta, 0.0)))
        assert hoelder_norm(phi, beta) == dense

    def test_hoelder_beta_validation(self):
        with pytest.raises(ConfigurationError, match="beta"):
            hoelder_norm(SH, 0.0)

    def test_log_speed_shannon(self):
        W1, c1 = log_speed_constants(SH)
        assert W1 == pytest.approx(0.9636712846781708, rel=1e-9)
        assert c1 == pytest.approx(0.9999980363277334, rel=1e-9)

    def test_fitted_constants(self):
        W, Wp = fitted_bound_constants(power_functional(0.5), 0.5)
        assert W == pytest.approx(2.0, rel=1e-9)
        assert Wp == W
        Ws, _ = fitted_bound_constants(SH, 1.0)
        assert Ws == pytest.approx(7.711994404519578, rel=1e-9)
        with pytest.raises(ConfigurationError):
            fitted_bound_constants(power_functional(0.5), 2.5)
