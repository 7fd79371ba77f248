import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superint import specfun
from superint.errors import DomainError


def chebyshev_T(n, x):
    """T_n(x) by the recurrence orbit_residual runs."""
    return specfun.chebyshev_recurrence(n, x)


def chebyshev_U(n, x):
    """U_n(x) the same way."""
    return specfun.chebyshev_recurrence(n, x, second_kind=True)


class TestChebyshevFirstKind:
    def test_degree_zero_is_one(self):
        assert chebyshev_T(0, 0.37) == 1.0

    def test_degree_two(self):
        # recurrence gives 2x^2 - 1
        assert chebyshev_T(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_three(self):
        # 4x^3 - 3x at x = 0.8
        assert chebyshev_T(3, 0.8) == pytest.approx(-0.352, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(-0.999999, 0.999999))
    def test_matches_cosine_form(self, n, x):
        assert chebyshev_T(n, x) == pytest.approx(
            math.cos(n * math.acos(x)), abs=1e-12)

    def test_array_input(self):
        x = np.array([-0.5, 0.0, 0.5])
        np.testing.assert_allclose(chebyshev_T(2, x), 2 * x * x - 1, atol=1e-15)

    def test_scalar_in_float_out(self):
        assert type(chebyshev_T(3, 0.2)) is float
        assert type(chebyshev_U(0, 0.2)) is float


class TestChebyshevOffTheInterval:
    """Outside [-1, 1] the recurrence is the hyperbolic form; the orbit residual
    reads T_c there for any point off the radial annulus."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(1.0, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_first_kind_matches_cosh_form(self, n, a, sign):
        expected = sign ** n * math.cosh(n * math.acosh(a))
        assert chebyshev_T(n, sign * a) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(1.0001, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_second_kind_matches_sinh_form(self, n, a, sign):
        theta = math.acosh(a)
        expected = sign ** n * math.sinh((n + 1) * theta) / math.sinh(theta)
        assert chebyshev_U(n, sign * a) == pytest.approx(expected, rel=1e-12)


class TestChebyshevSecondKind:
    def test_degree_zero(self):
        assert chebyshev_U(0, -0.9) == 1.0

    def test_degree_one(self):
        assert chebyshev_U(1, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_degree_two_root(self):
        # 4x^2 - 1 vanishes at x = 1/2
        assert chebyshev_U(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.floats(-0.9999, 0.9999))
    def test_matches_sine_form(self, n, x):
        theta = math.acos(x)
        expected = math.sin((n + 1) * theta) / math.sin(theta)
        assert chebyshev_U(n, x) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.floats(-0.999999, 0.999999))
    def test_pell_identity(self, n, x):
        t = chebyshev_T(n, x)
        u = chebyshev_U(n - 1, x)
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


class TestGaussRule:
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_legendre_matrix_gives_the_legendre_rule(self, n):
        # Legendre's Jacobi matrix: diagonal 0, off-diagonal j / sqrt(4 j^2 - 1);
        # the weight 1 on [-1, 1] has mass 2
        j = np.arange(1, n)
        x, w = specfun.gauss_rule(np.zeros(n), j / np.sqrt(4.0 * j * j - 1.0))
        t, v = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - t)) <= 1e-14
        assert np.max(np.abs(w / (0.5 * v) - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n", [5, 40])
    def test_laguerre_tail_weights_keep_their_relative_accuracy(self, n):
        # Laguerre's: diagonal 2j + 1, off-diagonal j; at n = 40 the last weight
        # is 2.7e-61, far below the 1e-16 absolute error of eigenvector weights
        j = np.arange(n)
        x, w = specfun.gauss_rule(2.0 * j + 1.0, j[1:].astype(float))
        t, v = np.polynomial.laguerre.laggauss(n)
        assert np.max(np.abs(x / t - 1.0)) <= 1e-13
        assert np.max(np.abs(w / v - 1.0)) <= 1e-11
