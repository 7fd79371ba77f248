import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superint import specfun
from superint.errors import DomainError


class TestChebyshevFirstKind:
    def test_degree_zero_is_one(self):
        assert specfun.chebyshev_T(0, 0.37) == 1.0

    def test_degree_two(self):
        # recurrence gives 2x^2 - 1
        assert specfun.chebyshev_T(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_three(self):
        # 4x^3 - 3x at x = 0.8
        assert specfun.chebyshev_T(3, 0.8) == pytest.approx(-0.352, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(-0.999999, 0.999999))
    def test_matches_cosine_form(self, n, x):
        assert specfun.chebyshev_T(n, x) == pytest.approx(
            math.cos(n * math.acos(x)), abs=1e-12)

    def test_clamps_roundoff_overshoot(self):
        assert specfun.chebyshev_T(4, 1.0 + 5e-13) == pytest.approx(1.0)

    def test_rejects_far_outside(self):
        with pytest.raises(DomainError):
            specfun.chebyshev_T(4, 1.01)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            specfun.chebyshev_T(-1, 0.5)

    def test_array_input(self):
        x = np.array([-0.5, 0.0, 0.5])
        np.testing.assert_allclose(specfun.chebyshev_T(2, x), 2 * x * x - 1, atol=1e-15)

    def test_scalar_in_float_out(self):
        assert type(specfun.chebyshev_T(3, 0.2)) is float
        assert type(specfun.chebyshev_U(0, 0.2)) is float


class TestClampUnit:
    def test_nan_and_signed_zero_pass_through(self):
        assert math.isnan(specfun.clamp_unit(math.nan))
        assert math.copysign(1.0, specfun.clamp_unit(-0.0)) == -1.0
        out = specfun.clamp_unit(np.array([np.nan, -0.0, 1.0 + 5e-13, -1.0 - 5e-13]))
        assert math.isnan(out[0]) and math.copysign(1.0, out[1]) == -1.0
        assert out[2:].tolist() == [1.0, -1.0]


class TestChebyshevSecondKind:
    def test_degree_zero(self):
        assert specfun.chebyshev_U(0, -0.9) == 1.0

    def test_degree_one(self):
        assert specfun.chebyshev_U(1, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_degree_two_root(self):
        # 4x^2 - 1 vanishes at x = 1/2
        assert specfun.chebyshev_U(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(-0.9999, 0.9999))
    def test_matches_sine_form(self, n, x):
        theta = math.acos(x)
        expected = math.sin((n + 1) * theta) / math.sin(theta)
        assert specfun.chebyshev_U(n, x) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.floats(-0.999999, 0.999999))
    def test_pell_identity(self, n, x):
        t = specfun.chebyshev_T(n, x)
        u = specfun.chebyshev_U(n - 1, x)
        assert t * t + (1 - x * x) * u * u == pytest.approx(1.0, abs=1e-12)


class TestLaguerre:
    def test_degree_zero(self):
        assert specfun.laguerre(0, 2.5, 7.0) == 1.0

    def test_degree_one(self):
        # 1 + alpha - x
        assert specfun.laguerre(1, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_degree_two(self):
        # (x^2 - 4x + 2)/2 at x = 1
        assert specfun.laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_bad_parameter(self):
        with pytest.raises(DomainError):
            specfun.laguerre(2, -1.0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.floats(-0.9, 4.0), st.floats(0.1, 12.0))
    def test_differential_equation(self, n, alpha, x):
        # x y'' + (alpha + 1 - x) y' + n y = 0, derivatives by central differences
        h = 1e-5 * max(1.0, x)
        f = lambda t: specfun.laguerre(n, alpha, t)
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        residual = x * d2 + (alpha + 1 - x) * d1 + n * f(x)
        scale = max(1.0, abs(f(x)), abs(d1), abs(x * d2))
        assert abs(residual) / scale < 5e-5


class TestJacobi:
    def test_degree_zero(self):
        assert specfun.jacobi(0, 0.5, 0.5, 0.1) == 1.0

    def test_degree_one_legendre(self):
        # P_1^{(0,0)} is x
        assert specfun.jacobi(1, 0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_odd_symmetry_at_zero(self):
        assert specfun.jacobi(1, 0.5, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            specfun.jacobi(2, -1.5, 0.0, 0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10), st.floats(-0.8, 3.0), st.floats(-0.8, 3.0),
           st.floats(-0.95, 0.95))
    def test_differential_equation(self, m, a, b, x):
        # (1-x^2) y'' + (b - a - (a+b+2)x) y' + m(m+a+b+1) y = 0
        h = 1e-5
        f = lambda t: specfun.jacobi(m, a, b, t)
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        residual = (1 - x * x) * d2 + (b - a - (a + b + 2) * x) * d1 + m * (m + a + b + 1) * f(x)
        scale = max(1.0, abs(f(x)), abs(d1), abs(d2))
        assert abs(residual) / scale < 5e-5


class TestQuadrature:
    def test_single_node_is_midpoint(self):
        x, w = specfun.quadrature_nodes(1, -1.0, 1.0)
        assert x.tolist() == [pytest.approx(0.0)] and w.tolist() == [pytest.approx(2.0)]

    def test_exact_for_quadratic(self):
        x, w = specfun.quadrature_nodes(2, -1.0, 1.0)
        value = np.sum(w * x * x)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_exact_for_quintic(self):
        x, w = specfun.quadrature_nodes(3, 0.0, 1.0)
        value = np.sum(w * x ** 5)
        assert value == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_degenerate_interval(self):
        with pytest.raises(DomainError):
            specfun.quadrature_nodes(4, 1.0, 1.0)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            specfun.quadrature_nodes(0, 0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12))
    def test_exactness_degree(self, n):
        # degree 2n - 1 monomial integrates exactly on [0, 1]
        d = 2 * n - 1
        x, w = specfun.quadrature_nodes(n, 0.0, 1.0)
        value = np.sum(w * x ** d)
        assert value == pytest.approx(1.0 / (d + 1), rel=1e-13)

    def test_returned_arrays_are_fresh(self):
        x0, w0 = specfun.quadrature_nodes(7, -1.0, 1.0)
        x_ref, w_ref = x0.copy(), w0.copy()
        x0[:] = 0.0
        w0 *= 2.0
        x1, w1 = specfun.quadrature_nodes(7, -1.0, 1.0)
        assert np.array_equal(x1, x_ref) and np.array_equal(w1, w_ref)

    def test_cached_rule_is_read_only(self):
        t, w = specfun._legendre_rule(7)
        assert specfun._legendre_rule(7)[0] is t
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
