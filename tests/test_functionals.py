"""Tests for functionals, truncation, bias correction, and speed checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minifunc.errors import ConfigurationError, FunctionalDomainError
from minifunc.functionals import (
    _GOLDEN_STEPS,
    ProbabilityVector,
    _golden_max,
    additive_functional,
    bias_corrected_fn,
    check_divergence_speed,
    custom_functional,
    power_functional,
    range_on_interval,
    shannon_functional,
    truncated_deriv,
    truncated_eval,
)

SH = shannon_functional()


class TestBuiltins:
    def test_power_eval(self):
        phi = power_functional(0.5)
        assert phi.eval(0.25) == pytest.approx(0.5)
        assert phi.eval(0.0) == 0.0
        assert phi.eval(1.0) == 1.0

    def test_power_derivatives(self):
        phi = power_functional(0.5)
        # alpha (alpha-1) ... (alpha-l+1) p^(alpha-l)
        assert phi.deriv(1, 0.25) == pytest.approx(1.0)
        assert phi.deriv(2, 0.25) == pytest.approx(0.5 * (-0.5) * 0.25**-1.5)
        phi2 = power_functional(2.0)
        assert phi2.deriv(2, 0.37) == pytest.approx(2.0)
        assert phi2.deriv(1, 0.5) == pytest.approx(1.0)

    def test_shannon_eval_and_derivatives(self):
        assert SH.eval(0.0) == 0.0
        assert SH.eval(0.5) == pytest.approx(-0.5 * math.log(0.5))
        assert SH.deriv(1, 0.5) == pytest.approx(-math.log(0.5) - 1.0)
        assert SH.deriv(2, 0.5) == pytest.approx(-2.0)
        # -(-1)^l (l-2)! p^(1-l) for l >= 2
        assert SH.deriv(3, 0.5) == pytest.approx(4.0)
        assert SH.deriv(4, 0.5) == pytest.approx(-2.0 * 0.5**-3)

    def test_deriv_order_capped(self):
        phi = custom_functional(
            lambda p: np.asarray(p, dtype=float),
            [lambda p: np.ones_like(np.asarray(p, dtype=float))],
            alpha=1.0,
        )
        with pytest.raises(ConfigurationError, match="order"):
            phi.deriv(2, 0.5)

    def test_deriv_orders_available(self):
        # orders demanded by the composite estimator's corrections
        assert power_functional(0.5).max_deriv_order >= 4
        assert power_functional(1.2).max_deriv_order >= 6
        assert SH.max_deriv_order >= 4

    def test_custom_requires_derivatives(self):
        with pytest.raises(ConfigurationError, match="derivative"):
            custom_functional(lambda p: p, [], alpha=1.0)

    def test_eval_vectorized(self):
        p = np.array([0.0, 0.1, 0.9])
        assert SH.eval(p) == pytest.approx([-x * math.log(x) if x else 0.0 for x in p])


class TestProbabilityVector:
    def test_valid(self):
        P = ProbabilityVector([0.2, 0.3, 0.5])
        assert P.k == 3
        assert len(P) == 3

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="negative"):
            ProbabilityVector([0.7, -0.2, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError, match="sum"):
            ProbabilityVector([0.5, 0.4])

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ProbabilityVector([0.5, math.nan])


class TestAdditiveFunctional:
    def test_uniform_entropy(self):
        P = ProbabilityVector([0.25] * 4)
        assert additive_functional(P, SH) == pytest.approx(math.log(4), rel=1e-12)

    def test_degenerate_power(self):
        P = ProbabilityVector([1.0, 0.0, 0.0])
        assert additive_functional(P, power_functional(0.5)) == 1.0

    def test_uniform_power_two(self):
        for k in (3, 17):
            P = ProbabilityVector([1.0 / k] * k)
            assert additive_functional(P, power_functional(2.0)) == pytest.approx(1.0 / k)

    def test_nonfinite_names_index(self):
        P = ProbabilityVector([0.5, 0.0, 0.5])
        with pytest.raises(FunctionalDomainError, match="index 1"):
            additive_functional(P, power_functional(-0.5))

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, raw, rnd):
        probs = np.array(raw) / math.fsum(raw)
        shuffled = list(probs)
        rnd.shuffle(shuffled)
        a = additive_functional(ProbabilityVector(probs), SH)
        b = additive_functional(ProbabilityVector(shuffled), SH)
        assert a == pytest.approx(b, abs=1e-12)

    def test_centered_linear_shift_invariance(self):
        # adding c' (p - 1/k) leaves theta unchanged on the simplex
        cprime = 1.7
        k = 5

        def shifted(p):
            p = np.asarray(p, dtype=float)
            return SH.eval(p) + cprime * (p - 1.0 / k)

        phi_c = custom_functional(
            shifted,
            [lambda p: SH.deriv(1, p) + cprime],
            alpha=1.0,
        )
        rng = np.random.default_rng(3)
        for _ in range(5):
            probs = rng.dirichlet(np.ones(k))
            P = ProbabilityVector(probs)
            assert additive_functional(P, phi_c) == pytest.approx(
                additive_functional(P, SH), abs=1e-12
            )


class TestTruncatedEval:
    def test_clamps_below(self):
        assert truncated_eval(SH, 0.1, 0.05) == pytest.approx(-0.1 * math.log(0.1))

    def test_pass_through(self):
        assert truncated_eval(SH, 0.1, 0.5) == pytest.approx(-0.5 * math.log(0.5))

    def test_clamps_above_one(self):
        assert truncated_eval(power_functional(2.0), 0.1, 1.5) == 1.0

    def test_delta_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError, match="delta"):
                truncated_eval(SH, bad, 0.5)

    @pytest.mark.parametrize("phi", [SH, power_functional(0.5), power_functional(2.0)])
    def test_continuous_in_p(self, phi):
        # max adjacent jump shrinks as the grid refines
        jumps = []
        for pts in (20_001, 40_001):
            p = np.linspace(0.0, 1.2, pts)
            v = truncated_eval(phi, 0.1, p)
            jumps.append(np.abs(np.diff(v)).max())
        assert jumps[0] <= 1e-3
        assert jumps[1] <= 0.6 * jumps[0]


class TestTruncatedDeriv:
    def test_zero_below_delta(self):
        assert truncated_deriv(SH, 2, 0.1, 0.05) == 0.0

    def test_inside(self):
        assert truncated_deriv(SH, 2, 0.1, 0.5) == pytest.approx(-2.0)

    def test_zero_above_one(self):
        assert truncated_deriv(power_functional(2.0), 2, 0.1, 2.0) == 0.0

    def test_left_limit_at_one(self):
        assert truncated_deriv(SH, 2, 0.1, 1.0) == pytest.approx(-1.0)

    def test_order_validation(self):
        with pytest.raises(ConfigurationError, match="order"):
            truncated_deriv(SH, 9, 0.1, 0.5)


class TestBiasCorrected:
    def test_power_two_order_two(self):
        got = bias_corrected_fn(power_functional(2.0), 2, 0.1, 100, 0.5)
        assert got == pytest.approx(0.245, rel=1e-12)

    def test_shannon_order_two(self):
        got = bias_corrected_fn(SH, 2, 0.1, 100, 0.5)
        assert got == pytest.approx(0.35157359027997265, rel=1e-12)

    def test_below_delta_clamps(self):
        got = bias_corrected_fn(SH, 2, 0.1, 100, 0.05)
        assert got == pytest.approx(0.23025850929940458, rel=1e-12)

    def test_second_order_identity(self):
        # on [delta, 1]: correction equals -p phi''(p) / 2n exactly
        n, delta = 250, 0.05
        p = np.linspace(delta, 1.0, 101)
        for phi in (SH, power_functional(0.5)):
            got = bias_corrected_fn(phi, 2, delta, n, p) - phi.eval(p)
            want = -p * phi.deriv(2, p) / (2 * n)
            assert got == pytest.approx(want, rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ConfigurationError, match="order"):
            bias_corrected_fn(SH, 3, 0.1, 100, 0.5)

    def test_order_four_needs_derivatives(self):
        phi = custom_functional(
            lambda p: np.asarray(p, dtype=float) ** 2,
            [lambda p: 2.0 * np.asarray(p, dtype=float),
             lambda p: np.full_like(np.asarray(p, dtype=float), 2.0)],
            alpha=2.0,
        )
        with pytest.raises(ConfigurationError):
            bias_corrected_fn(phi, 4, 0.1, 100, 0.5)

    def test_n_validation(self):
        with pytest.raises(ConfigurationError, match="n"):
            bias_corrected_fn(SH, 2, 0.1, 0, 0.5)


class TestDivergenceSpeed:
    def test_power_half_fourth_order(self):
        r = check_divergence_speed(power_functional(0.5), 4)
        assert r.holds
        assert r.W == pytest.approx(0.9375, rel=1e-12)
        assert r.c == 0.0 and r.c_prime == 0.0

    def test_shannon_second_order(self):
        r = check_divergence_speed(SH, 2)
        assert r.holds
        assert r.W == pytest.approx(1.0, rel=1e-12)
        assert r.c <= 1e-7 and r.c_prime <= 1e-7

    def test_power_two_second_order(self):
        r = check_divergence_speed(power_functional(2.0), 2)
        assert r.holds
        assert r.W == pytest.approx(2.0, rel=1e-12)
        assert r.c == 0.0 and r.c_prime == 0.0

    def test_wrong_alpha_fails_with_witness(self):
        # |phi'| = ln(1/p) - 1 grows without bound, so it is no W p^0: over
        # the four decades p <= 1e-4 the ratio halves
        r = check_divergence_speed(SH, 1)
        assert not r.holds
        assert r.witness is not None and r.witness <= 1e-4
        assert r.spread > 0.5
        assert r.c == r.c_prime == math.inf

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_power_sandwich_tight(self, alpha):
        # c and c' vanish up to round-off against the huge envelope peak
        for ell in range(1, 7):
            if ell <= alpha:
                continue
            r = check_divergence_speed(power_functional(alpha), ell)
            peak = r.W * (1e-8) ** (alpha - ell)
            tol = max(1e-9, 1e-12 * peak)
            assert r.holds
            assert r.c <= tol and r.c_prime <= tol


class TestRangeOnInterval:
    def test_shannon_range(self):
        lo, hi = range_on_interval(SH, (0.0, 1.0))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_monotone_piece(self):
        lo, hi = range_on_interval(power_functional(2.0), (0.2, 0.6))
        assert lo == pytest.approx(0.04, rel=1e-9)
        assert hi == pytest.approx(0.36, rel=1e-9)

    def test_empty_interval(self):
        with pytest.raises(ConfigurationError, match="interval"):
            range_on_interval(SH, (0.5, 0.5))


def test_golden_max_one_call_per_step():
    calls = []

    def g(x):
        calls.append(x.size)
        return -((x - np.array([0.3, 0.7])) ** 2)

    t = _golden_max(g, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert t == pytest.approx([0.3, 0.7], abs=1e-12)
    assert calls == [2] * (_GOLDEN_STEPS + 2)


def test_domain_errors_print_plain_floats():
    # numpy 2 reprs a scalar as np.float64(...); the messages print the float
    def nowhere_finite(p):
        return np.full(np.shape(p), np.inf)

    phi = custom_functional(nowhere_finite, [nowhere_finite], alpha=1.0)
    for call, message in [
        (lambda: additive_functional(ProbabilityVector([0.5, 0.5]), phi),
         "phi(0.5) is not finite at index 0"),
        (lambda: check_divergence_speed(phi, 1), "|phi^(1)| not finite at p=1e-08"),
        (lambda: range_on_interval(phi, (0.0, 1.0)), "f(0.0) not finite while scanning"),
    ]:
        with pytest.raises(FunctionalDomainError) as exc:
            call()
        assert str(exc.value).startswith(message)
        assert "np.float64" not in str(exc.value)
