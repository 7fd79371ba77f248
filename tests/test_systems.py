import cmath
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angular_invariant, hamiltonian_gradient, potential
from superint.errors import DomainError, SingularityError, UsageError
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    _barrier_kernel,
    _radial_kernel,
    bounded_dc_state,
    energy_and_invariant,
    hamilton_kernel,
    hamiltonian,
    params_to_text,
    radial_period_closed_form,
    radial_turning_points,
    random_dc_state,
    random_ttw_state,
    validate_bounded,
)


class TestRationalIndex:
    def test_reduces_to_lowest_terms(self):
        k = RationalIndex(4, 6)
        assert (k.c, k.d) == (2, 3)

    def test_value(self):
        assert RationalIndex(3, 2).value == 1.5

    def test_from_string(self):
        assert RationalIndex.from_string("3/2") == RationalIndex(3, 2)
        assert RationalIndex.from_string("2") == RationalIndex(2, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            RationalIndex(0, 1)
        with pytest.raises(DomainError):
            RationalIndex(1, -2)


class TestPotentials:
    def test_pure_coulomb(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        for phi in (0.3, 1.0, 2.5):
            assert potential(p, 2.0, phi) == pytest.approx(-0.5, abs=1e-15)

    def test_barrier_terms(self):
        # k = 2 at the cell midpoint: each barrier term contributes 2
        p = DCParams(Q=0.0, alpha=1.0, beta=1.0, k=RationalIndex(2))
        assert potential(p, 1.0, math.pi / 4) == pytest.approx(4.0, rel=1e-14)

    def test_symmetric_couplings_at_midpoint(self):
        p = DCParams(Q=0.5, alpha=0.7, beta=0.7, k=RationalIndex(2))
        k = p.k.value
        mid = math.pi / (2 * k)  # cos^2 = sin^2 = 1/2 there
        a_term = p.alpha * k * k / (4 * 1.21 * 0.5)
        b_term = p.beta * k * k / (4 * 1.21 * 0.5)
        assert potential(p, 1.1, mid) == pytest.approx(-p.Q / 1.1 + a_term + b_term, rel=1e-14)

    def test_coupling_swap_equals_cell_reflection(self):
        # swapping (alpha, beta) is the reflection about the cell midline
        p = DCParams(Q=1.0, alpha=0.2, beta=0.5, k=RationalIndex(3, 2))
        swapped = DCParams(Q=1.0, alpha=0.5, beta=0.2, k=p.k)
        cell = math.pi / p.k.value
        for phi in (0.2 * cell, 0.45 * cell, 0.8 * cell):
            assert potential(p, 1.3, phi) == pytest.approx(
                potential(swapped, 1.3, cell - phi), rel=1e-13)

    def test_wall_is_singular(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2))
        with pytest.raises(SingularityError):
            potential(p, 1.0, 0.0)
        with pytest.raises(SingularityError):
            potential(p, 1.0, math.pi / 2)

    def test_origin_is_singular(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        with pytest.raises(SingularityError):
            potential(p, 0.0, 1.0)

    def test_ttw_pure_oscillator(self):
        p = TTWParams(omega2=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        assert potential(p, 2.0, 0.7) == pytest.approx(4.0, abs=1e-14)

    def test_ttw_barriers(self):
        p = TTWParams(omega2=1.0, alpha=1.0, beta=1.0, k=RationalIndex(1))
        assert potential(p, 1.0, math.pi / 4) == pytest.approx(5.0, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
    def test_ttw_radial_scaling(self, rho, c):
        # with no barriers the potential is homogeneous of degree 2
        p = TTWParams(omega2=0.8, alpha=0.0, beta=0.0, k=RationalIndex(1))
        assert potential(p, c * rho, 0.5) == pytest.approx(
            c * c * potential(p, rho, 0.5), rel=1e-12)


class TestHamiltonian:
    def test_circular_orbit_energy(self):
        # L^2/r^2 - Q/r at r = 1 with L^2 = 1/2
        p = DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        pt = PhasePoint(1.0, math.pi, 0.0, math.sqrt(0.5), DC_CHART)
        assert hamiltonian(pt, p) == pytest.approx(-0.5, abs=1e-15)

    def test_ttw_rest_state(self):
        p = TTWParams(omega2=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        pt = PhasePoint(1.0, 0.8, 0.0, 0.0, TTW_CHART)
        assert hamiltonian(pt, p) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.5, 3.0), st.floats(0.2, 1.2), st.floats(-1.5, 1.5),
           st.floats(-1.5, 1.5))
    def test_even_in_momenta(self, r, phi, p1, p2):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2))
        a = hamiltonian(PhasePoint(r, phi, p1, p2, DC_CHART), p)
        b = hamiltonian(PhasePoint(r, phi, -p1, -p2, DC_CHART), p)
        assert a == pytest.approx(b, rel=1e-15)

    def test_chart_mismatch(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        with pytest.raises(UsageError):
            hamiltonian(PhasePoint(1.0, 0.3, 0.0, 0.0, TTW_CHART), p)


class TestGradient:
    def test_momentum_partials(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        pt = PhasePoint(1.3, 1.1, 0.4, -0.2, DC_CHART)
        g = hamiltonian_gradient(pt, p)
        assert g[2] == pytest.approx(2 * pt.p1, abs=1e-15)
        assert g[3] == pytest.approx(2 * pt.p2 / pt.q1 ** 2, rel=1e-15)

    def test_circular_orbit_stationary(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        pt = PhasePoint(1.0, math.pi, 0.0, math.sqrt(0.5), DC_CHART)
        g = hamiltonian_gradient(pt, p)
        assert g[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("family", ["dc", "ttw"])
    def test_matches_finite_differences(self, family, rng):
        if family == "dc":
            params = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
            chart, cell = DC_CHART, math.pi / params.k.value
        else:
            params = TTWParams(omega2=1.0, alpha=0.3, beta=0.45, k=RationalIndex(3, 2))
            chart, cell = TTW_CHART, 0.5 * math.pi / params.k.value
        h = 1e-6
        for _ in range(100):
            pt = PhasePoint(rng.uniform(0.7, 2.0), rng.uniform(0.15, 0.85) * cell,
                            rng.uniform(-1, 1), rng.uniform(-1, 1), chart)
            g = hamiltonian_gradient(pt, params)
            for i, name in enumerate(("q1", "q2", "p1", "p2")):
                x = getattr(pt, name)
                up = hamiltonian(PhasePoint(**{**pt.__dict__, name: x + h}), params)
                dn = hamiltonian(PhasePoint(**{**pt.__dict__, name: x - h}), params)
                fd = (up - dn) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_wall_singular(self):
        p = TTWParams(omega2=1.0, alpha=0.3, beta=0.45, k=RationalIndex(1))
        assert np.all(np.isnan(hamiltonian_gradient(PhasePoint(1.0, 0.0, 0.1, 0.1, TTW_CHART), p)))


def _family(name: str, alpha: float, beta: float):
    """Params, chart and u/q2 of one family: u = k phi / 2 (DC) or k theta (TTW)."""
    k = RationalIndex(3, 2)
    if name == "dc":
        return DCParams(Q=1.0, alpha=alpha, beta=beta, k=k), DC_CHART, 0.5 * k.value
    return TTWParams(omega2=1.0, alpha=alpha, beta=beta, k=k), TTW_CHART, k.value


def _evaluate(fn, params, chart, q2):
    if fn is potential:
        return fn(params, 1.2, q2)
    return fn(PhasePoint(1.2, q2, 0.3, 0.4, chart), params)


KERNELS = [potential, hamiltonian, angular_invariant, hamiltonian_gradient]


@pytest.mark.parametrize("wall", ["alpha", "beta"])
@pytest.mark.parametrize("family", ["dc", "ttw"])
@pytest.mark.parametrize("fn", KERNELS, ids=lambda fn: fn.__name__)
class TestBarrierWalls:
    # the alpha wall is cos u = 0, the beta wall sin u = 0

    def test_wall_is_singular(self, fn, family, wall):
        params, chart, s = _family(family, 0.2, 0.3)
        q2 = 0.5 * math.pi / s if wall == "alpha" else 0.0
        if fn is hamiltonian_gradient:  # Hamilton's equations give NaN there
            assert np.all(np.isnan(_evaluate(fn, params, chart, q2)))
            return
        with pytest.raises(SingularityError):
            _evaluate(fn, params, chart, q2)

    def test_zero_coupling_disables_its_wall(self, fn, family, wall):
        params, chart, s = _family(family, 0.0 if wall == "alpha" else 0.2,
                                   0.0 if wall == "beta" else 0.3)
        q2 = 0.5 * math.pi / s if wall == "alpha" else 0.0
        assert np.all(np.isfinite(_evaluate(fn, params, chart, q2)))


@pytest.mark.parametrize("family", ["dc", "ttw"])
def test_hamiltonian_splits_into_angular_invariant_and_radial_term(family, rng):
    params, _, _ = _family(family, 0.2, 0.3)
    for _ in range(200):
        if family == "dc":
            pt = random_dc_state(rng, params)
            V_r = -params.Q / pt.q1
        else:
            pt = random_ttw_state(rng, params)
            V_r = params.omega2 * pt.q1 ** 2
        expected = pt.p1 ** 2 + angular_invariant(pt, params) / pt.q1 ** 2 + V_r
        assert hamiltonian(pt, params) == pytest.approx(expected, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("family", ["dc", "ttw"])
def test_energy_and_invariant_are_the_separate_evaluations_to_the_bit(family, rng):
    # H as a closure of one radial and one barrier kernel evaluated it,
    # p1^2 + (p2^2 + B)/q1^2 + V_r, and L as the oracle p2^2 + B gives it, on
    # real points and on each complex step
    params, _, _ = _family(family, 0.2, 0.3)
    draw = random_dc_state if family == "dc" else random_ttw_state
    for _ in range(100):
        pt = draw(rng, params)
        for field in (None, "q1", "q2", "p1", "p2"):
            s = pt if field is None else replace(pt, **{field: complex(getattr(pt, field), 1e-20)})
            V_r, _ = _radial_kernel(params)(s.q1)
            B, _ = _barrier_kernel(params, cmath if isinstance(s.q2, complex) else math)(s.q2)
            H = s.p1 ** 2 + (s.p2 ** 2 + B) / (s.q1 * s.q1) + V_r
            assert energy_and_invariant(s, params) == (H, angular_invariant(s, params))
            assert hamiltonian(s, params) == H


@pytest.mark.parametrize("family", ["dc", "ttw"])
def test_kernels_match_written_out_formulas(family, rng):
    # sec^2/csc^2 potential and its gradient written out per family, as an oracle
    params, _, _ = _family(family, 0.2, 0.3)
    k = params.k.value
    for _ in range(500):
        if family == "dc":
            pt = random_dc_state(rng, params)
            u, K, du, V_r, dV_r = 0.5 * k * pt.q2, k * k / 4, k / 2, -params.Q / pt.q1, \
                params.Q / pt.q1 ** 2
        else:
            pt = random_ttw_state(rng, params)
            u, K, du, V_r, dV_r = k * pt.q2, k * k, k, params.omega2 * pt.q1 ** 2, \
                2 * params.omega2 * pt.q1
        sec2, csc2 = 1 / math.cos(u) ** 2, 1 / math.sin(u) ** 2
        B = K * (params.alpha * sec2 + params.beta * csc2)
        dB = 2 * K * du * (params.alpha * sec2 * math.tan(u) - params.beta * csc2 / math.tan(u))
        r = pt.q1
        H = pt.p1 ** 2 + pt.p2 ** 2 / r ** 2 + V_r + B / r ** 2
        scale = pt.p1 ** 2 + (pt.p2 ** 2 + B) / r ** 2 + abs(V_r)
        assert abs(hamiltonian(pt, params) - H) <= 1e-14 * scale
        grad = [-2 * pt.p2 ** 2 / r ** 3 - 2 * B / r ** 3 + dV_r, dB / r ** 2,
                2 * pt.p1, 2 * pt.p2 / r ** 2]
        g = hamiltonian_gradient(pt, params)
        assert np.max(np.abs(g - grad)) <= 1e-14 * np.max(np.abs(grad))


def _written_out_gradient(params, q1, q2, p1, p2):
    """The gradient as it reads term by term, every constant taken from params per call.

    The products run in the order the kernels fold them, so this oracle
    agrees with them to the last bit, not only to roundoff.
    """
    s = 0.5 * params.k.value if isinstance(params, DCParams) else params.k.value
    K = s * s
    cu, su = math.cos(s * q2), math.sin(s * q2)
    B = dB = 0.0
    if params.alpha != 0.0:
        c2 = cu * cu
        B += params.alpha * K / c2
        dB += 2.0 * s * params.alpha * K * su / (c2 * cu)
    if params.beta != 0.0:
        s2 = su * su
        B += params.beta * K / s2
        dB -= 2.0 * s * params.beta * K * cu / (s2 * su)
    dV_r = params.Q / (q1 * q1) if isinstance(params, DCParams) else 2.0 * params.omega2 * q1
    inv_q1_2 = 1.0 / (q1 * q1)
    return (-2.0 * (p2 * p2 + B) * inv_q1_2 / q1 + dV_r, dB * inv_q1_2,
            2.0 * p1, 2.0 * p2 * inv_q1_2)


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


K_TEXTS = ["1", "2", "3", "1/2", "3/2", "2/3"]


class TestHamiltonKernel:
    @pytest.mark.parametrize("couplings", [(0.2, 0.3), (0.0, 0.3), (0.2, 0.0)],
                             ids=["both", "alpha=0", "beta=0"])
    @pytest.mark.parametrize("k_text", K_TEXTS)
    @pytest.mark.parametrize("family", ["dc", "ttw"])
    def test_is_hamiltons_equations_bit_for_bit(self, family, k_text, couplings, rng):
        k = RationalIndex.from_string(k_text)
        if family == "dc":
            params = DCParams(Q=1.0, alpha=couplings[0], beta=couplings[1], k=k)
            states = [random_dc_state(rng, params) for _ in range(2000)]
        else:
            params = TTWParams(omega2=1.0, alpha=couplings[0], beta=couplings[1], k=k)
            states = [random_ttw_state(rng, params) for _ in range(2000)]
        rhs = hamilton_kernel(params)
        got, written_out = [], []
        for pt in states:
            x = (pt.q1, pt.q2, pt.p1, pt.p2)
            got.append(rhs(*x))
            g = _written_out_gradient(params, *x)
            written_out.append((g[2], g[3], -g[0], -g[1]))
        assert np.array_equal(_bits(got), _bits(written_out))

    @pytest.mark.parametrize("family", ["dc", "ttw"])
    def test_nan_off_the_domain(self, family):
        params, _, s = _family(family, 0.2, 0.3)
        rhs = hamilton_kernel(params)
        inside = 0.4 / s
        for state in [(0.0, inside, 0.3, 0.4),             # q1 = 0
                      (-1.2, inside, 0.3, 0.4),            # q1 < 0
                      (1.2, 0.5 * math.pi / s, 0.3, 0.4),  # the alpha wall, cos u = 0
                      (1.2, 0.0, 0.3, 0.4),                # the beta wall, sin u = 0
                      (1e-200, inside, 0.3, 0.4)]:         # q1 * q1 underflows
            out = rhs(*state)
            assert len(out) == 4 and all(math.isnan(v) for v in out), state
        assert all(math.isfinite(v) for v in rhs(1.2, inside, 0.3, 0.4))

    @pytest.mark.parametrize("wall", ["alpha", "beta"])
    @pytest.mark.parametrize("family", ["dc", "ttw"])
    def test_zero_coupling_drops_its_wall(self, family, wall):
        params, _, s = _family(family, 0.0 if wall == "alpha" else 0.2,
                               0.0 if wall == "beta" else 0.3)
        q2 = 0.5 * math.pi / s if wall == "alpha" else 0.0
        assert all(math.isfinite(v) for v in hamilton_kernel(params)(1.2, q2, 0.3, 0.4))


class TestTurningPoints:
    def test_radial_roots(self):
        assert radial_turning_points(2.0, -1.0, 0.75) == pytest.approx((0.5, 1.5))

    def test_zero_angular_constant(self):
        r1, r2 = radial_turning_points(1.5, -0.5, 0.0)
        assert r1 == pytest.approx(0.0, abs=1e-15)
        assert r2 == pytest.approx(3.0, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 3.0), st.floats(-1.0, -0.05), st.floats(0.01, 1.0))
    def test_roots_satisfy_quadratic(self, Q, E, A):
        if Q * Q + 4 * A * E <= 0:
            return
        for r in radial_turning_points(Q, E, A):
            assert E * r * r + Q * r - A == pytest.approx(0.0, abs=1e-12)

    def test_unbounded_is_error(self):
        with pytest.raises(DomainError):
            radial_turning_points(1.0, 0.1, 0.5)

    def test_no_real_roots_is_error(self):
        with pytest.raises(DomainError):
            radial_turning_points(1.0, -1.0, 5.0)

    # the angular roots come from the gate's shell; E = -0.01 keeps D1 = 1 - 0.04 A > 0
    def test_angular_roots(self):
        p = DCParams(Q=1.0, alpha=1.0, beta=1.0, k=RationalIndex(2))
        shell = validate_bounded(p, -0.01, 6.0)
        assert shell.u1 == pytest.approx(0.5 - math.sqrt(3) / 6, rel=1e-13)
        assert shell.u2 == pytest.approx(0.5 + math.sqrt(3) / 6, rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.02, 0.8), st.floats(0.02, 0.8), st.floats(0.8, 4.0))
    def test_vieta_product(self, alpha, beta, A):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex(2))
        k2 = p.k.value ** 2
        if (A - k2 * (alpha + beta) / 4) ** 2 - alpha * beta * k2 * k2 / 4 <= 0:
            return
        shell = validate_bounded(p, -0.01, A)
        assert shell.u1 * shell.u2 == pytest.approx(alpha * k2 / (4 * A), rel=1e-10, abs=1e-13)


def _bounded_shells(rng, draws):
    """Constants over Q in [0.5, 3], -E in [0.05, 1], alpha, beta in [0.01, 1] and six k,
    kept when they pass the gate."""
    for i in range(draws):
        p = DCParams(Q=rng.uniform(0.5, 3.0), alpha=rng.uniform(0.01, 1.0),
                     beta=rng.uniform(0.01, 1.0),
                     k=RationalIndex.from_string(["1", "2", "3", "1/2", "3/2", "2/3"][i % 6]))
        E = -rng.uniform(0.05, 1.0)
        A = rng.uniform(0.0, p.Q ** 2 / (-4.0 * E))
        try:
            validate_bounded(p, E, A)
        except DomainError:
            continue
        yield p, E, A


class TestValidateBounded:
    def test_all_rows_pass(self):
        p = DCParams(Q=1.0, alpha=0.1, beta=0.1, k=RationalIndex(1))
        shell = validate_bounded(p, -0.1, 1.0)
        assert shell.D1 == pytest.approx(0.6)
        assert 0 < shell.u1 < shell.u2 < 1
        assert 0 < shell.r1 < shell.r2

    def test_positive_energy_fails(self):
        p = DCParams(Q=1.0, alpha=0.1, beta=0.1, k=RationalIndex(1))
        with pytest.raises(DomainError, match=r"no bounded orbit: fails the rows \['E_negative'\]$"):
            validate_bounded(p, 1.0, 1.0)

    def test_zero_alpha_fails_its_row(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.1, k=RationalIndex(1))
        with pytest.raises(DomainError, match=r"fails the rows \['alpha_positive'\]$"):
            validate_bounded(p, -0.1, 1.0)

    def test_every_failed_row_is_named_in_order(self):
        p = DCParams(Q=-1.0, alpha=0.0, beta=0.1, k=RationalIndex(1))
        with pytest.raises(DomainError,
                           match=r"fails the rows \['Q_positive', 'E_negative', 'alpha_positive'\]$"):
            validate_bounded(p, 1.0, 1.0)

    def test_passing_shell_fields_are_their_closed_forms(self, rng):
        # bit for bit: D1 = Q Q + 4AE, D2, the radial roots, the stable angular
        # roots q / A and (alpha k^2 / 4) / q, and T_r = Q pi / (2 (-E)^(3/2))
        shells = list(_bounded_shells(rng, 200))
        assert len(shells) > 50
        for p, E, A in shells:
            k2 = p.k.value ** 2
            D2 = (A - k2 * (p.beta + p.alpha) / 4.0) ** 2 - p.alpha * p.beta * k2 * k2 / 4.0
            q = 0.5 * (A + (p.alpha - p.beta) * k2 / 4.0 + math.sqrt(D2))
            expected = (p.Q * p.Q + 4.0 * A * E, D2, *radial_turning_points(p.Q, E, A),
                        *sorted((p.alpha * k2 / 4.0 / q, q / A)),
                        p.Q * math.pi / (2.0 * (-E) ** 1.5))
            assert [x.hex() for x in astuple(validate_bounded(p, E, A))] == \
                [x.hex() for x in expected]
            assert radial_period_closed_form(p.Q, E) == expected[-1]

    def test_one_written_d1_decides_the_radial_roots(self):
        # Q ** 2 rounds one ulp above Q * Q here, so D1 = Q * Q + 4AE is 0.0 and
        # the gate fails D1_positive: no second D1 can pass it and then find no roots
        p = DCParams(Q=2.8556193209639056, alpha=0.05, beta=0.07, k=RationalIndex(1))
        E, A = -2.6078395571769417, 0.7817353720841913
        assert p.Q * p.Q + 4.0 * A * E == 0.0
        with pytest.raises(DomainError, match=r"fails the rows \['D1_positive'\]$"):
            validate_bounded(p, E, A)
        with pytest.raises(DomainError, match="no real radial turning points"):
            radial_turning_points(p.Q, E, A)

    def test_shell_state_reproduces_constants(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        pt = bounded_dc_state(p, -0.2, 0.9, r_frac=0.3, u_frac=0.7)
        assert hamiltonian(pt, p) == pytest.approx(-0.2, abs=1e-13)
        assert angular_invariant(pt, p) == pytest.approx(0.9, abs=1e-13)

    def test_turning_point_corners_build_on_the_shell(self, rng):
        # at a turning point a momentum square is a difference of terms of size A
        # (angular) or Q/r (radial) that rounds to a little below 0: it reads 0
        built = 0
        for p, E, A in _bounded_shells(rng, 1500):
            for r_frac in (0.0, 1.0):
                for u_frac in (0.0, 1.0):
                    H, L = energy_and_invariant(bounded_dc_state(p, E, A, r_frac, u_frac), p)
                    assert H == pytest.approx(E, rel=1e-10) and L == pytest.approx(A, rel=1e-10)
                    built += 1
        assert built > 2000

    def test_an_angle_short_of_the_wall_still_raises(self):
        # Q = 1e4 at k = 2: the float angle cannot reach the wall, and there
        # p_phi^2 = -1.3e-3 A, no rounding
        p = DCParams(Q=1e4, alpha=0.1463082726435886, beta=0.001182222066641795,
                     k=RationalIndex(2))
        with pytest.raises(DomainError, match="negative momentum square"):
            bounded_dc_state(p, -1e-3, 9012473933.936289, r_frac=0.35, u_frac=1.0)


def _params_from_text(text):
    """Read back the document params_to_text writes: one key=value line per field."""
    fields = dict(line.split("=", 1) for line in text.splitlines())
    k = RationalIndex(int(fields["k_num"]), int(fields["k_den"]))
    alpha, beta = float(fields["alpha"]), float(fields["beta"])
    if fields["family"] == "dc":
        return DCParams(Q=float(fields["Q"]), alpha=alpha, beta=beta, k=k)
    return TTWParams(omega2=float(fields["omega2"]), alpha=alpha, beta=beta, k=k)


class TestSerialization:
    def test_dc_round_trip(self):
        p = DCParams(Q=1.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        assert _params_from_text(params_to_text(p)) == p

    def test_ttw_round_trip(self):
        p = TTWParams(omega2=0.5, alpha=0.1, beta=0.7, k=RationalIndex(2))
        assert _params_from_text(params_to_text(p)) == p

    def test_keys_present(self):
        text = params_to_text(DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(2)))
        for key in ("family", "Q", "alpha", "beta", "k_num", "k_den"):
            assert f"{key}=" in text
