import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    exchange_time_by_quadrature,
    hausdorff_search,
    potential,
    pullback_phase,
    ttw_radial_period,
)
from superint.dynamics import (
    integrate,
    orbit_constants_from_point,
    orbit_residual,
    radial_period_closed_form,
)
from superint.errors import DomainError
from superint.invariants import poisson_bracket_numeric
from superint.quantum import bound_state, dc_operator_residual, default_grid, ttw_bound_state
from superint.stackel import (
    _exchange_time,
    exchange_potential,
    map_trajectory,
    map_wavefunction,
    mapped_orbit_hausdorff,
    pushforward_phase,
    stackel_identity_residual,
    ttw_to_dc,
)
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    hamiltonian,
    random_ttw_state,
)


def ttw_orbit_start(p, frac=0.45):
    cell = 0.5 * math.pi / p.k.value
    return PhasePoint(1.3, frac * cell, 0.3, 0.6, TTW_CHART)


CORRESPONDENCE_CASES = [("1", 1.0), ("3/2", 0.25), ("2", 0.5)]


def correspondence_orbits(k_text, omega2, energy_factor=1.0):
    """A TTW orbit over 2cd + 0.3 periods and the DC orbit from its image start.

    The DC system is the image at energy_factor times the orbit's energy,
    so a factor other than 1 builds a wrong image system.
    """
    ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
    n = 2 * ttw.k.c * ttw.k.d + 0.3
    s0 = ttw_orbit_start(ttw)
    traj = integrate(ttw, s0, n * ttw_radial_period(omega2), tol=1e-12)
    dc, E_tilde = ttw_to_dc(ttw, energy_factor * hamiltonian(s0, ttw))
    dc_traj = integrate(dc, pushforward_phase(s0), n * radial_period_closed_form(dc.Q, E_tilde),
                        tol=1e-12)
    return traj, dc_traj


def image_hamiltonian(W, pt):
    """H~ = p_r^2 + p_phi^2/r^2 + W(r, phi) at a DC-chart point."""
    return pt.p1 ** 2 + (pt.p2 / pt.q1) ** 2 + W(pt.q1, pt.q2)


def exchange_identity_error(V, E, W, pt):
    """|H~(image) - rho^-2 (H - E)| / (1 + |rho^-2 (H - E)|) at a TTW-chart point."""
    rhs = (pt.p1 ** 2 + (pt.p2 / pt.q1) ** 2 + V(pt.q1, pt.q2) - E) / pt.q1 ** 2
    return abs(image_hamiltonian(W, pushforward_phase(pt)) - rhs) / (1.0 + abs(rhs))


def random_ttw_chart_point(rng):
    return PhasePoint(rng.uniform(0.3, 2.5), rng.uniform(-math.pi, math.pi),
                      rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), TTW_CHART)


def non_separable(rho, theta):
    """0.7x + 0.3xy^2 - 0.2/(1 + rho^2) + 0.05y^3: no f1(rho) + f2(theta)/rho^2 form."""
    x, y = rho * math.cos(theta), rho * math.sin(theta)
    return 0.7 * x + 0.3 * x * y * y - 0.2 / (1.0 + rho * rho) + 0.05 * y ** 3


class TestExchangePotential:
    def test_trivial_potentials_leave_coulomb_term(self):
        W = exchange_potential(lambda rho, theta: 0.0, E=3.0)
        for r in (0.5, 1.0, 2.5):
            assert W(r, 1.0) == pytest.approx(-3.0 / (2 * r), rel=1e-15)

    def test_barrier_pair_maps_to_dc_potential(self):
        k = RationalIndex(3, 2)
        kv = k.value
        alpha, beta = 0.2, 0.3

        def barrier(rho, theta):
            return (alpha * kv ** 2 / math.cos(kv * theta) ** 2
                    + beta * kv ** 2 / math.sin(kv * theta) ** 2) / rho ** 2

        E = 2.6
        W = exchange_potential(barrier, E)
        dc = DCParams(Q=E / 2, alpha=alpha, beta=beta, k=k)
        for r, phi in [(0.7, 0.5), (1.4, 1.1), (2.2, 1.9)]:
            assert W(r, phi) == pytest.approx(potential(dc, r, phi), rel=1e-13)

    def test_pointwise_exchange_identity(self, rng):
        # omega^2 rho^2 + f1(rho) + f2(theta)/rho^2 with generic f1, f2
        def V(rho, theta):
            return 0.7 * rho * rho + 0.3 * rho + 1.0 / (math.sin(theta) ** 2 * rho * rho)

        E = 1.9
        W = exchange_potential(V, E)
        for _ in range(200):
            pt = random_ttw_chart_point(rng)
            assert exchange_identity_error(V, E, W, pt) < 1e-13

    def test_identity_for_a_non_separable_potential(self, rng):
        E = 1.3
        W = exchange_potential(non_separable, E)
        worst = max(exchange_identity_error(non_separable, E, W, random_ttw_chart_point(rng))
                    for _ in range(2000))
        assert worst < 1e-13

    def test_cartesian_term_maps_to_its_closed_form(self, rng):
        # a uniform field F x on an oscillator: F rho cos(theta) / rho^2 = F cos(phi/2)/sqrt(2r)
        omega2, F, E = 0.8, 0.45, 1.7

        def V(rho, theta):
            return omega2 * rho * rho + F * rho * math.cos(theta)

        W = exchange_potential(V, E)
        for _ in range(200):
            r, phi = rng.uniform(0.05, 3.0), rng.uniform(-2 * math.pi, 2 * math.pi)
            expected = omega2 + F * math.cos(0.5 * phi) / math.sqrt(2 * r) - E / (2 * r)
            assert W(r, phi) == pytest.approx(expected, rel=1e-13, abs=1e-13)
            pt = random_ttw_chart_point(rng)
            assert exchange_identity_error(V, E, W, pt) < 1e-13

    @pytest.mark.parametrize("k_text", ["1", "3/2", "2", "2/3"])
    def test_ttw_image_is_dc_potential_plus_omega2(self, rng, k_text):
        # the mapped system against the direct one: W of the TTW potential at E
        # is the DC potential at Q = E/2, shifted by the oscillator coupling
        ttw = TTWParams(omega2=0.6, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        E = 2.4
        dc, E_tilde = ttw_to_dc(ttw, E)
        W = exchange_potential(lambda rho, theta: potential(ttw, rho, theta), E)
        cell = math.pi / ttw.k.value  # the DC wedge 0 < phi < pi/k
        for _ in range(500):
            r, phi = rng.uniform(0.05, 4.0), rng.uniform(0.02, 0.98) * cell
            direct = potential(dc, r, phi) - E_tilde
            assert W(r, phi) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_image_at_a_wrong_energy_is_detected(self, rng):
        # negative control: the image built at E * 1.001 breaks the identity
        E = 1.3
        W_wrong = exchange_potential(non_separable, E * 1.001)
        worst = max(exchange_identity_error(non_separable, E, W_wrong, random_ttw_chart_point(rng))
                    for _ in range(2000))
        assert worst > 1e-3

    def test_rejects_nonpositive_radius(self):
        W = exchange_potential(lambda rho, theta: rho, 1.0)
        for r in (0.0, -1.0):
            with pytest.raises(DomainError):
                W(r, 0.3)


class TestPhaseMaps:
    def test_pushforward_example(self):
        pt = PhasePoint(math.sqrt(2), math.pi / 4, 0.0, 1.0, TTW_CHART)
        image = pushforward_phase(pt)
        assert image.q1 == pytest.approx(1.0, rel=1e-15)
        assert image.q2 == pytest.approx(math.pi / 2, rel=1e-15)
        assert image.p1 == 0.0
        assert image.p2 == 0.5
        assert image.chart == DC_CHART

    def test_round_trip(self, rng):
        for _ in range(50):
            pt = PhasePoint(rng.uniform(0.3, 2.5), rng.uniform(0.1, 1.0),
                            rng.uniform(-1, 1), rng.uniform(-1, 1), TTW_CHART)
            back = pullback_phase(pushforward_phase(pt))
            np.testing.assert_allclose(back.as_array(), pt.as_array(), rtol=1e-14)

    def test_kinetic_identity(self, rng):
        # p_r^2 + p_phi^2/r^2 = rho^-2 (p_rho^2 + p_theta^2/rho^2)
        for _ in range(100):
            pt = PhasePoint(rng.uniform(0.3, 2.5), rng.uniform(0.1, 1.0),
                            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), TTW_CHART)
            im = pushforward_phase(pt)
            lhs = im.p1 ** 2 + (im.p2 / im.q1) ** 2
            rhs = (pt.p1 ** 2 + (pt.p2 / pt.q1) ** 2) / pt.q1 ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_canonical_brackets_preserved(self, rng):
        p = TTWParams(omega2=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        pairs = [
            (lambda s: pushforward_phase(s).q1, lambda s: pushforward_phase(s).p1, 1.0),
            (lambda s: pushforward_phase(s).q2, lambda s: pushforward_phase(s).p2, 1.0),
            (lambda s: pushforward_phase(s).q1, lambda s: pushforward_phase(s).p2, 0.0),
            (lambda s: pushforward_phase(s).q2, lambda s: pushforward_phase(s).p1, 0.0),
        ]
        for _ in range(25):
            s = random_ttw_state(rng, p)
            for F, G, target in pairs:
                est = poisson_bracket_numeric(F, G, s)
                assert est.value == pytest.approx(target, abs=1e-8)

    def test_rejects_wrong_chart(self):
        with pytest.raises(DomainError):
            pushforward_phase(PhasePoint(1.0, 0.3, 0.0, 0.0, DC_CHART))


class TestIdentityResidual:
    def test_roundoff_level_everywhere(self, rng):
        p = TTWParams(omega2=1.0, alpha=0.3, beta=0.45, k=RationalIndex(3, 2))
        for _ in range(500):
            s = random_ttw_state(rng, p)
            E = rng.uniform(0.5, 4.0)
            res = stackel_identity_residual(s, p, E)
            H = hamiltonian(s, p)
            assert abs(res) <= 1e-11 * (1.0 + abs(H))

    def test_pure_oscillator_case(self, rng):
        p = TTWParams(omega2=0.5, alpha=0.0, beta=0.0, k=RationalIndex(1))
        for _ in range(100):
            s = random_ttw_state(rng, p)
            res = stackel_identity_residual(s, p, 2.0)
            assert abs(res) <= 1e-11 * (1.0 + abs(hamiltonian(s, p)))

    def test_wrong_coulomb_strength_detected(self, rng):
        p = TTWParams(omega2=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2))
        s = random_ttw_state(rng, p)
        E = 2.0
        dc, E_tilde = ttw_to_dc(p, E)

        def residual(dc):
            return (hamiltonian(pushforward_phase(s), dc) - E_tilde) \
                - (hamiltonian(s, p) - E) / s.q1 ** 2

        # the inline form is the library's residual at the right Q ...
        assert residual(dc) == stackel_identity_residual(s, p, E)
        # ... and the violation scales like the Coulomb-strength mismatch over r
        assert abs(residual(replace(dc, Q=dc.Q * 1.3))) > 0.01


class TestParameterExchange:
    def test_energy_two_gives_unit_coulomb(self):
        p = TTWParams(omega2=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2))
        dc, E_tilde = ttw_to_dc(p, 2.0)
        assert dc.Q == 1.0
        assert E_tilde == -1.0
        assert (dc.alpha, dc.beta, dc.k) == (p.alpha, p.beta, p.k)

    def test_sign_bookkeeping(self):
        p = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(1))
        _, E_tilde = ttw_to_dc(p, 1.0)
        assert E_tilde < 0

    def test_round_trip_recovers_coupling(self):
        p = TTWParams(omega2=0.37, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        E = 2.2
        dc, E_tilde = ttw_to_dc(p, E)
        # the inverse identification: omega^2 = -E~ and E = 2 Q
        omega2_back, E_back = -E_tilde, 2.0 * dc.Q
        assert omega2_back == pytest.approx(p.omega2, rel=1e-12)
        assert E_back == pytest.approx(E, rel=1e-12)

    def test_nonpositive_energy_flagged_downstream(self):
        from superint.systems import validate_bounded
        p = TTWParams(omega2=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1))
        dc, _ = ttw_to_dc(p, -1.0)
        assert dc.Q < 0
        with pytest.raises(DomainError, match="'Q_positive'"):
            validate_bounded(dc, -0.5, 0.5)


class TestTrajectoryMap:
    def test_image_satisfies_orbit_equation(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        s0 = ttw_orbit_start(ttw)
        traj = integrate(ttw, s0, 12 * ttw_radial_period(ttw.omega2), tol=1e-12)
        dc, _ = ttw_to_dc(ttw, hamiltonian(s0, ttw))
        x0 = pushforward_phase(s0)
        consts = orbit_constants_from_point(dc, x0)
        mapped = map_trajectory(traj)
        worst = max(abs(orbit_residual(dc, consts, mapped[i, 0], mapped[i, 1]))
                    for i in range(0, mapped.shape[0], 5))
        assert worst < 1e-6

    def test_circular_image_is_circular(self):
        # rho constant maps to r constant
        ttw = TTWParams(omega2=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        L = 0.8
        rho0 = (L * L / ttw.omega2) ** 0.25  # radius of the circular orbit
        s0 = PhasePoint(rho0, 0.7, 0.0, L, TTW_CHART)
        traj = integrate(ttw, s0, 8.0, tol=1e-12)
        mapped = map_trajectory(traj)
        assert np.max(np.abs(mapped[:, 0] - mapped[0, 0])) < 1e-9

    def test_matches_the_map_written_out_per_column(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        traj = integrate(ttw, ttw_orbit_start(ttw), 3 * ttw_radial_period(ttw.omega2), tol=1e-12)
        rho, theta, p_rho, p_theta = traj.y
        expected = np.empty((traj.t.size, 4))
        expected[:, 0] = 0.5 * rho * rho
        expected[:, 1] = 2.0 * theta
        expected[:, 2] = p_rho / rho
        expected[:, 3] = 0.5 * p_theta
        assert np.array_equal(map_trajectory(traj), expected)
        # each row is also the scalar pushforward of its sample
        for i in range(0, traj.t.size, 7):
            image = pushforward_phase(traj.point(i))
            assert [image.q1, image.q2, image.p1, image.p2] == expected[i].tolist()

    @pytest.mark.parametrize("k_text,omega2", CORRESPONDENCE_CASES)
    def test_geometric_overlap_with_integrated_orbit(self, k_text, omega2):
        traj, dc_traj = correspondence_orbits(k_text, omega2)
        assert hamiltonian(dc_traj.point(0), dc_traj.params) == pytest.approx(-omega2, rel=1e-12)
        distance = mapped_orbit_hausdorff(traj, dc_traj)
        assert distance < 1e-5
        # the matched-time reading bounds the searched Hausdorff distance from above
        assert distance >= hausdorff_search(traj, dc_traj)

    @pytest.mark.parametrize("k_text,omega2", CORRESPONDENCE_CASES)
    def test_image_system_at_a_wrong_energy_is_detected(self, k_text, omega2):
        # negative control: the Hausdorff search reads 6e-7 to 5e-6 here,
        # within the 1e-5 tolerance; the matched-time distance does not
        traj, dc_traj = correspondence_orbits(k_text, omega2, energy_factor=1.0 + 1e-6)
        assert mapped_orbit_hausdorff(traj, dc_traj) > 1e-5

    @pytest.mark.parametrize("k_text,omega2", CORRESPONDENCE_CASES)
    def test_exchange_time_over_full_periods(self, k_text, omega2):
        # <rho^2> = E / (2 omega^2) over a TTW radial period T, so 2cd periods
        # take tau = 2cd T E / (2 omega^2) = 2cd T_dc
        ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        n = 2 * ttw.k.c * ttw.k.d
        s0 = ttw_orbit_start(ttw)
        traj = integrate(ttw, s0, n * ttw_radial_period(omega2), tol=1e-12)
        dc, E_tilde = ttw_to_dc(ttw, hamiltonian(s0, ttw))
        T_dc = radial_period_closed_form(dc.Q, E_tilde)
        assert _exchange_time(traj)[-1] == pytest.approx(n * T_dc, rel=1e-10)

    @pytest.mark.parametrize("k_text,omega2", CORRESPONDENCE_CASES)
    def test_exchange_time_matches_quadrature_at_every_step(self, k_text, omega2):
        # the closed form against 8-point Gauss-Legendre on the dense output's
        # rho^2: 5.9e-13, 3.4e-12 and 6.9e-13 of tau_end measured
        traj, _ = correspondence_orbits(k_text, omega2)
        tau, reference = _exchange_time(traj), exchange_time_by_quadrature(traj)
        assert np.max(np.abs(tau - reference)) <= 1e-10 * reference[-1]

    @pytest.mark.parametrize("k_text,omega2", CORRESPONDENCE_CASES)
    def test_exchange_time_at_a_wrong_omega2_is_detected(self, k_text, omega2):
        # negative control: the orbit at omega^2 (1 + 1e-6), read with omega^2,
        # is off the quadrature by 3.8e-7 to 8.0e-7 of tau_end
        traj, _ = correspondence_orbits(k_text, omega2)
        ttw = traj.params
        moved = integrate(replace(ttw, omega2=omega2 * (1.0 + 1e-6)), traj.point(0), traj.t[-1],
                          tol=1e-12)
        reference = exchange_time_by_quadrature(moved)
        tau = _exchange_time(replace(moved, params=ttw))
        assert np.max(np.abs(tau - reference)) > 1e-10 * reference[-1]

    @pytest.mark.parametrize("omega2", [0.0, -0.5])
    def test_exchange_time_needs_positive_omega2(self, omega2):
        ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3, k=RationalIndex(1))
        traj = integrate(ttw, ttw_orbit_start(ttw), 0.5, tol=1e-12)
        with pytest.raises(DomainError):
            _exchange_time(traj)

    def test_correspondence_leaves_the_ttw_dense_output_unbuilt(self):
        traj, dc_traj = correspondence_orbits("3/2", 0.25)
        mapped_orbit_hausdorff(traj, dc_traj)
        assert traj.dense._F is None

    def test_circular_orbit_corresponds_at_roundoff(self):
        # p_r vanishes along the whole orbit; the distance must not divide by it
        ttw = TTWParams(omega2=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        s0 = PhasePoint(math.sqrt(0.8), 0.7, 0.0, 0.8, TTW_CHART)
        traj = integrate(ttw, s0, 8.0, tol=1e-12)
        dc, _ = ttw_to_dc(ttw, hamiltonian(s0, ttw))
        dc_traj = integrate(dc, pushforward_phase(s0), 8.0, tol=1e-12)
        assert mapped_orbit_hausdorff(traj, dc_traj) < 1e-10


class TestWavefunctionMap:
    def test_constant_maps_to_constant(self):
        mapped = map_wavefunction(lambda rho, theta: 1.0)
        assert mapped(0.7, 1.1) == 1.0

    def test_rejects_nonpositive_radius(self):
        mapped = map_wavefunction(lambda rho, theta: rho)
        with pytest.raises(DomainError):
            mapped(-1.0, 0.3)

    def test_eigenfunction_maps_to_eigenfunction(self):
        # oscillator bound state pushed through the map solves the
        # Coulomb-side equation at the exchanged energy
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        psi, E_ttw = ttw_bound_state(ttw, 1, 1)
        dc, E_tilde = ttw_to_dc(ttw, E_ttw)
        spec = bound_state(dc, 1, 1)
        assert spec.E == pytest.approx(E_tilde, rel=1e-12)
        grid = default_grid(spec, n_r=700, n_phi=450)
        res = dc_operator_residual(dc, E_tilde, map_wavefunction(psi), grid)
        finer = dc_operator_residual(dc, E_tilde, map_wavefunction(psi), grid.refined())
        assert finer < 5e-5
        assert 2.5 < res / finer < 6.5  # second-order stencil convergence

    def test_radial_node_count_preserved(self):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
        n = 2
        psi, E_ttw = ttw_bound_state(ttw, n, 0)
        mapped = map_wavefunction(psi)
        cell = math.pi / ttw.k.value

        def count_sign_changes(f, xs):
            vals = np.array([f(x) for x in xs])
            return int(np.sum(np.abs(np.diff(np.sign(vals))) > 1))

        ray = 0.4 * cell
        rr = np.linspace(0.05, 60.0, 4000)
        direct = count_sign_changes(lambda rho: psi(rho, ray / 2), np.sqrt(2 * rr))
        through_map = count_sign_changes(lambda r: mapped(r, ray), rr)
        assert direct == through_map == n
