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
