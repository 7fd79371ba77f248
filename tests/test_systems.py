import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superint.errors import DomainError, SingularityError, UsageError
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    angular_invariant,
    angular_turning_points,
    bounded_dc_state,
    hamiltonian,
    hamiltonian_gradient,
    params_from_text,
    params_to_text,
    potential,
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
        with pytest.raises(SingularityError):
            hamiltonian_gradient(PhasePoint(1.0, 0.0, 0.1, 0.1, TTW_CHART), p)


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

    def test_angular_roots(self):
        p = DCParams(Q=1.0, alpha=1.0, beta=1.0, k=RationalIndex(2))
        u1, u2 = angular_turning_points(p, 6.0)
        assert u1 == pytest.approx(0.5 - math.sqrt(3) / 6, rel=1e-13)
        assert u2 == pytest.approx(0.5 + math.sqrt(3) / 6, rel=1e-13)

    def test_zero_alpha_pins_inner_root(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.4, k=RationalIndex(2))
        u1, _ = angular_turning_points(p, 2.0)
        assert u1 == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.02, 0.8), st.floats(0.02, 0.8), st.floats(0.8, 4.0))
    def test_vieta_product(self, alpha, beta, A):
        p = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex(2))
        k2 = p.k.value ** 2
        if (A - k2 * (alpha + beta) / 4) ** 2 - alpha * beta * k2 * k2 / 4 <= 0:
            return
        u1, u2 = angular_turning_points(p, A)
        assert u1 * u2 == pytest.approx(alpha * k2 / (4 * A), rel=1e-10, abs=1e-13)


class TestBoundednessReport:
    def test_all_rows_pass(self):
        p = DCParams(Q=1.0, alpha=0.1, beta=0.1, k=RationalIndex(1))
        report = validate_bounded(p, -0.1, 1.0)
        assert report.D1 == pytest.approx(0.6)
        assert report.all_passed
        assert 0 < report.u1 < report.u2 < 1
        assert 0 < report.r1 < report.r2

    def test_positive_energy_fails(self):
        p = DCParams(Q=1.0, alpha=0.1, beta=0.1, k=RationalIndex(1))
        report = validate_bounded(p, 1.0, 1.0)
        assert not report.rows["E_negative"]
        assert report.r2 is None  # no outer turning point to report

    def test_zero_alpha_fails_its_row(self):
        p = DCParams(Q=1.0, alpha=0.0, beta=0.1, k=RationalIndex(1))
        report = validate_bounded(p, -0.1, 1.0)
        assert not report.rows["alpha_positive"]
        assert "alpha_positive" in report.failed()

    def test_shell_state_reproduces_constants(self):
        p = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        pt = bounded_dc_state(p, -0.2, 0.9, r_frac=0.3, u_frac=0.7)
        assert hamiltonian(pt, p) == pytest.approx(-0.2, abs=1e-13)
        assert angular_invariant(pt, p) == pytest.approx(0.9, abs=1e-13)


class TestSerialization:
    def test_dc_round_trip(self):
        p = DCParams(Q=1.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        assert params_from_text(params_to_text(p)) == p

    def test_ttw_round_trip(self):
        p = TTWParams(omega2=0.5, alpha=0.1, beta=0.7, k=RationalIndex(2))
        assert params_from_text(params_to_text(p)) == p

    def test_keys_present(self):
        text = params_to_text(DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(2)))
        for key in ("family", "Q", "alpha", "beta", "k_num", "k_den"):
            assert f"{key}=" in text

    def test_missing_key_rejected(self):
        with pytest.raises(DomainError):
            params_from_text("family=dc\nQ=1.0\n")

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            params_from_text("family=zzz\nQ=1\nalpha=0\nbeta=0\nk_num=1\nk_den=1\n")
