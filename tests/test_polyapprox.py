"""Tests for the Remez engine."""

import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from minifunc.errors import ConfigurationError
from minifunc.functionals import power_functional, shannon_functional
from minifunc.polyapprox import remez_best_approx

SH = shannon_functional()


class TestRemez:
    def test_degree_zero_midrange(self):
        r = remez_best_approx(lambda x: np.asarray(x, dtype=float), 0, (0.0, 1.0))
        assert r.converged
        assert r.poly.coeffs == pytest.approx([0.5], abs=1e-12)
        assert r.sup_error == pytest.approx(0.5, rel=1e-10)

    def test_even_function_affine_best(self):
        r = remez_best_approx(lambda x: np.asarray(x, dtype=float) ** 2, 1, (-1.0, 1.0))
        assert r.poly.coeffs == pytest.approx([0.5, 0.0], abs=1e-10)
        assert r.sup_error == pytest.approx(0.5, rel=1e-10)

    def test_polynomial_recovered_exactly(self):
        f = lambda x: 2.0 * np.asarray(x, dtype=float) ** 3 - np.asarray(x, dtype=float)
        for L in (3, 5):
            r = remez_best_approx(f, L, (0.0, 1.0))
            assert r.sup_error <= 1e-12
            assert r.converged and r.iterations < 10

    def test_flat_residual_stops_at_once(self):
        # an exact fit leaves no alternating reference to exchange to
        for c in (0.0, 3.0):
            r = remez_best_approx(lambda x, c=c: np.full(np.shape(x), c), 4, (0.0, 1.0))
            assert r.converged and r.at_roundoff_floor and r.iterations == 1
            assert r.sup_error <= 1e-14

    def test_equioscillation_certificate(self):
        for phi, L in ((SH, 6), (power_functional(0.5), 9)):
            r = remez_best_approx(phi, L, (0.0, 1.0))
            assert r.converged and not r.at_roundoff_floor
            pts = r.alternation_points
            assert pts.size == L + 2
            assert np.all(np.diff(pts) > 0)
            resid = r.alternation_residuals
            signs = np.sign(resid)
            assert np.all(signs[1:] * signs[:-1] == -1.0)
            mags = np.abs(resid)
            assert mags.min() >= r.sup_error * (1.0 - 1e-6)
            assert mags.max() <= r.sup_error * (1.0 + 1e-6)

    @pytest.mark.parametrize("phi", [power_functional(0.5), SH])
    def test_error_nonincreasing_in_degree(self, phi):
        errs = [remez_best_approx(phi, L, (0.0, 1.0)).sup_error for L in range(21)]
        assert np.all(np.diff(errs) <= 1e-12)

    def test_shannon_degree_zero_analytic(self):
        # E_0(-p ln p, [0,1]) = (max - min)/2 = 1/(2e)
        r = remez_best_approx(SH, 0, (0.0, 1.0))
        assert r.sup_error == pytest.approx(1.0 / (2.0 * math.e), rel=1e-9)

    def test_best_below_chebyshev_interpolant(self):
        xs = np.linspace(0.0, 1.0, 4097)
        interp = Chebyshev.interpolate(SH.eval, 8, domain=[0.0, 1.0])
        cheb = float(np.abs(interp(xs) - SH.eval(xs)).max())
        best = remez_best_approx(SH, 8, (0.0, 1.0)).sup_error
        assert best <= cheb
        assert best == pytest.approx(0.003526450676265065, rel=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception, match="finite"):
            remez_best_approx(power_functional(-0.5), 3, (0.0, 1.0))

    def test_bad_degree_or_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="degree must be >= 0"):
            remez_best_approx(SH, -1, (0.0, 1.0))
        # np.arange raises at 2**62 and 10**400 but returns an empty array at 2**63
        for L in (2**62, 2**63, 10**400):
            with pytest.raises(ConfigurationError, match="too large to allocate"):
                remez_best_approx(SH, L, (0.0, 1.0))
        for interval in ((math.nan, 1.0), (0.0, math.inf), (0.5, 0.5)):
            with pytest.raises(ConfigurationError, match="bad interval"):
                remez_best_approx(SH, 3, interval)


    @pytest.mark.parametrize("L", [32, 40])
    def test_converges_at_roundoff_floor(self, L):
        # E_L(p^1.5, [0,1]) is about 2e-6 here, so residuals carry about
        # (L+2) eps / E_L = 3e-9 of relative noise: no reference levels
        # them to 1e-10, and the floor stops the exchange
        r = remez_best_approx(power_functional(1.5), L, (0.0, 1.0))
        assert r.converged and r.at_roundoff_floor
        assert r.iterations < 10
        mags = np.abs(r.alternation_residuals)
        floor = (L + 2) * np.finfo(float).eps / r.sup_error
        assert 1e-10 <= r.sup_error / mags.min() - 1.0 < floor


class TestScaleIdentity:
    # phi(h s) = h^a phi(s) for x^a, and h phi(s) - (h ln h) s for -x ln x,
    # whose linear term lies in the polynomial space: E_L on [0, h] is h^a,
    # or h, times E_L on [0, 1], however small E_L on [0, h] is
    @pytest.mark.parametrize("L", [18, 24])
    @pytest.mark.parametrize("phi, a", [(SH, 1.0), (power_functional(0.5), 0.5),
                                        (power_functional(1.2), 1.2)],
                             ids=["shannon", "power0.5", "power1.2"])
    def test_error_scales_with_the_interval(self, phi, a, L):
        unit = remez_best_approx(phi.eval, L, (0.0, 1.0)).sup_error
        for lam in (1e-12, 1e-9, 1e-6):
            r = remez_best_approx(phi.eval, L, (0.0, lam))
            assert r.converged
            assert r.sup_error == pytest.approx(lam**a * unit, rel=1e-6, abs=0.0)

    def test_tiny_interval_levels(self):
        # E_30 here is 2.5e-17, below any absolute threshold: the stop is
        # relative to max|f| on the interval, so the reference still levels
        r = remez_best_approx(SH.eval, 30, (0.0, 1e-13))
        assert r.converged and r.iterations > 1
        mags = np.abs(r.alternation_residuals)
        assert mags.max() / mags.min() <= 1.0 + 1e-6
        unit = remez_best_approx(SH.eval, 30, (0.0, 1.0)).sup_error
        assert r.sup_error == pytest.approx(1e-13 * unit, rel=1e-6, abs=0.0)

    def test_chebyshev_coefficients_match_the_monomial_form(self):
        r = remez_best_approx(SH.eval, 8, (0.0, 0.5))
        x = np.linspace(0.0, 0.5, 101)
        cheb = Chebyshev(r.cheb_coeffs, domain=[0.0, 0.5])(x)
        mono = np.polynomial.Polynomial(r.poly.coeffs)(x)
        assert np.abs(cheb - mono).max() <= 1e-12
        assert not r.cheb_coeffs.flags.writeable
