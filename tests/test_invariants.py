import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    dc_integral_by_pullback,
    dc_setup,
    hamiltonian_gradient,
    ttw_params,
    ttw_radial_period,
)
from superint.cli import EXIT_PASS, main
from superint.dynamics import integrate, radial_period_closed_form
from superint.errors import DomainError
from superint.invariants import (
    _trig_form,
    ab_quantities,
    dc_integral,
    l2_cos,
    l2_cos_trig,
    l2_poly,
    l2_trig,
    lower_degree_variant,
    minimal_integral_degree,
    poisson_bracket_numeric,
)
from superint.stackel import pushforward_phase
from superint.systems import (
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    angular_invariant,
    hamiltonian,
    random_dc_state,
    random_ttw_state,
)

K_LIST = ["1", "2", "3", "1/2", "3/2", "2/3"]


def interior_ttw_point(p, frac=0.3):
    cell = 0.5 * math.pi / p.k.value
    return PhasePoint(1.1, frac * cell, 0.4, 0.7, TTW_CHART)


# Reference: the central-difference stencil the library used before
# complex-step brackets, at steps h and h/2 with Richardson extrapolation.
_FIELDS = ("q1", "q2", "p1", "p2")


def _step(state):
    return 1e-5 * (1.0 + float(np.linalg.norm(state.as_array())))


def _partials(F, state, h):
    out = np.empty(4)
    for i, name in enumerate(_FIELDS):
        x = getattr(state, name)
        plus = F(replace(state, **{name: x + h}))
        minus = F(replace(state, **{name: x - h}))
        out[i] = (plus - minus) / (2.0 * h)
    return out


def _bracket_once(F, G, state, h):
    dF = _partials(F, state, h)
    dG = _partials(G, state, h)
    return float(dF[0] * dG[2] - dF[2] * dG[0] + dF[1] * dG[3] - dF[3] * dG[1])


def _richardson_bracket(F, G, state):
    h = _step(state)
    return (4.0 * _bracket_once(F, G, state, 0.5 * h) - _bracket_once(F, G, state, h)) / 3.0


def _richardson_gradient(F, state):
    h = _step(state)
    return (4.0 * _partials(F, state, 0.5 * h) - _partials(F, state, h)) / 3.0


def _complex_step_gradient(F, state):
    """(dF/dq1, dF/dq2, dF/dp1, dF/dp2) as brackets with the canonical coordinates."""
    bracket = lambda A, B: poisson_bracket_numeric(A, B, state).value
    return np.array([bracket(F, lambda x: x.p1), bracket(F, lambda x: x.p2),
                     bracket(lambda x: x.q1, F), bracket(lambda x: x.q2, F)])


class TestAngularIntegral:
    def test_reduces_to_momentum_square(self):
        p = ttw_params("1", alpha=0.0, beta=0.0)
        s = PhasePoint(1.0, 0.7, 0.0, 1.3, TTW_CHART)
        assert angular_invariant(s, p) == pytest.approx(1.69, rel=1e-15)

    def test_symmetric_midpoint_value(self):
        p = ttw_params("1", alpha=1.0, beta=1.0)
        s = PhasePoint(1.0, math.pi / 4, 0.0, 0.0, TTW_CHART)
        assert angular_invariant(s, p) == pytest.approx(4.0, rel=1e-14)

    def test_conserved_along_orbit(self):
        p = ttw_params("3/2")
        traj = integrate(p, interior_ttw_point(p), 20 * ttw_radial_period(p.omega2), tol=1e-12)
        vals = [angular_invariant(traj.at_time(t), p) for t in np.linspace(0, traj.t[-1], 400)]
        assert max(abs(v - vals[0]) for v in vals) / abs(vals[0]) < 1e-9


class TestAuxiliaryQuadruple:
    @pytest.mark.parametrize("k_text", K_LIST)
    def test_squared_norm_identities(self, k_text, rng):
        p = ttw_params(k_text)
        k2 = p.k.value ** 2
        for _ in range(200):
            s = random_ttw_state(rng, p)
            ab = ab_quantities(p, s)
            L1 = angular_invariant(s, p)
            H = hamiltonian(s, p)
            lhs_a = ab.A_x ** 2 + ab.A_y ** 2
            rhs_a = (L1 - (p.alpha + p.beta) * k2) ** 2 - 4 * k2 * k2 * p.alpha * p.beta
            assert lhs_a == pytest.approx(rhs_a, rel=1e-10)
            lhs_b = ab.B_x ** 2 + ab.B_y ** 2
            rhs_b = H * H - 4 * p.omega2 * L1
            assert lhs_b == pytest.approx(rhs_b, rel=1e-10)
        # the Coulomb-side pairs, with L1 = 4A
        params, _, _, _ = dc_setup(k_text)
        for _ in range(200):
            s = random_dc_state(rng, params)
            ab = ab_quantities(params, s)
            A = angular_invariant(s, params)
            H = hamiltonian(s, params)
            lhs_a = ab.A_x ** 2 + ab.A_y ** 2
            rhs_a = ((4 * A - (params.alpha + params.beta) * k2) ** 2
                     - 4 * k2 * k2 * params.alpha * params.beta)
            assert lhs_a == pytest.approx(rhs_a, rel=1e-10)
            assert ab.B_x ** 2 + ab.B_y ** 2 == pytest.approx(16 * A * H + 4 * params.Q ** 2,
                                                              rel=1e-10)

    def test_radial_component_vanishes_at_turning(self):
        p = ttw_params("2")
        s = PhasePoint(1.2, 0.3, 0.0, 0.9, TTW_CHART)  # p_rho = 0
        assert ab_quantities(p, s).B_x == 0.0

    def test_angular_component_vanishes_at_quarter(self):
        p = ttw_params("1", alpha=0.0, beta=0.0)
        s = PhasePoint(1.0, math.pi / 4, 0.3, 0.8, TTW_CHART)  # cos(2k theta) = 0
        assert ab_quantities(p, s).A_y == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_l1(self):
        p = ttw_params("1", alpha=0.0, beta=0.0)
        s = PhasePoint(1.0, 0.4, 0.5, 0.0, TTW_CHART)  # L1 = 0
        with pytest.raises(DomainError):
            ab_quantities(p, s)


class TestHigherIntegralForms:
    @pytest.mark.parametrize("k_text", K_LIST)
    def test_trig_equals_poly(self, k_text, rng):
        p = ttw_params(k_text)
        for _ in range(500):
            s = random_ttw_state(rng, p)
            t, q = l2_trig(p, s), l2_poly(p, s)
            assert t == pytest.approx(q, rel=1e-9, abs=1e-9 * max(1.0, abs(q)))
            tc, qc = l2_cos_trig(p, s), l2_cos(p, s)
            assert tc == pytest.approx(qc, rel=1e-9, abs=1e-9 * max(1.0, abs(qc)))
            # the conserved amplitude |B|^c |A|^d / sqrt(L1)^parity bounds |L2|
            assert abs(q) <= _trig_form(p, s, None, 1) * (1 + 1e-12)
            assert abs(qc) <= _trig_form(p, s, None, 0) * (1 + 1e-12)

    def test_k1_reduction(self, rng):
        # c = d = 1 collapses the sums to a single cross term over sqrt(L1)
        p = ttw_params("1")
        for _ in range(50):
            s = random_ttw_state(rng, p)
            ab = ab_quantities(p, s)
            L1 = angular_invariant(s, p)
            expected = (ab.B_y * ab.A_x - ab.A_y * ab.B_x) / math.sqrt(L1)
            assert l2_poly(p, s) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_momentum_reversal_parity(self, k_text, rng):
        # flipping both momenta multiplies each variant by a fixed sign
        p = ttw_params(k_text)
        c, d = p.k.c, p.k.d
        sin_parity = (-1.0) ** (c + d + 1)
        cos_parity = (-1.0) ** (c + d)
        for _ in range(30):
            s = random_ttw_state(rng, p)
            flipped = replace(s, p1=-s.p1, p2=-s.p2)
            assert l2_poly(p, flipped) == pytest.approx(sin_parity * l2_poly(p, s), rel=1e-12)
            assert l2_cos(p, flipped) == pytest.approx(cos_parity * l2_cos(p, s), rel=1e-12)

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_polynomial_in_scaled_momenta(self, k_text, rng):
        # evaluations at (q, lambda p) must fit a polynomial in lambda
        p = ttw_params(k_text)
        c, d = p.k.c, p.k.d
        deg = 2 * (c + d)
        s = random_ttw_state(rng, p)
        lams = np.linspace(0.5, 1.8, deg + 3)
        vals = np.array([l2_poly(p, replace(s, p1=lam * s.p1, p2=lam * s.p2))
                         for lam in lams])
        coeffs = np.polynomial.polynomial.polyfit(lams, vals, deg)
        fit = np.polynomial.polynomial.polyval(lams, coeffs)
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert float(np.max(np.abs(fit - vals))) / scale < 1e-8

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_minimal_degree_scaling(self, k_text, rng):
        # the lower-degree variant scales as lambda^(2(c+d)-1) at large lambda
        p = ttw_params(k_text)
        k = p.k
        deg = minimal_integral_degree(k)
        fn = l2_poly if lower_degree_variant(k) == "sin" else l2_cos
        s = random_ttw_state(rng, p)
        ratios = []
        for lam in (60.0, 120.0, 240.0):
            v = fn(p, replace(s, p1=lam * s.p1, p2=lam * s.p2))
            ratios.append(v / lam ** deg)
        assert ratios[1] == pytest.approx(ratios[2], rel=2e-2)
        # the other variant grows one power faster
        other = l2_cos if fn is l2_poly else l2_poly
        w = [abs(other(p, replace(s, p1=lam * s.p1, p2=lam * s.p2))) / lam ** deg
             for lam in (60.0, 240.0)]
        assert w[1] > 2.0 * w[0]


class TestConservation:
    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3"])
    def test_higher_integrals_conserved(self, k_text):
        p = ttw_params(k_text)
        traj = integrate(p, interior_ttw_point(p), 20 * ttw_radial_period(p.omega2), tol=1e-12)
        tt = np.linspace(0, traj.t[-1], 300)
        for fn in (l2_poly, l2_cos):
            vals = np.array([fn(p, traj.at_time(t)) for t in tt])
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift < 1e-6

    def test_report_csv(self, tmp_path):
        p = ttw_params("3/2")
        s = interior_ttw_point(p)
        code = main(["conserve", "--k", "3/2", "--omega2", "1", "--alpha", "0.3", "--beta", "0.45",
                     "--q1", repr(s.q1), "--q2", repr(s.q2), "--p1", repr(s.p1), "--p2", repr(s.p2),
                     "--periods", "6", "--integrator-tol", "1e-11", "--out-dir", str(tmp_path)])
        assert code == EXIT_PASS
        lines = (tmp_path / "conserve.csv").read_text().strip().splitlines()
        assert lines[0] == "t,H,L1,L2sin,L2cos,drift_H,drift_L1,drift_L2sin,drift_L2cos"
        assert len(lines) == 401  # conserve samples the orbit 400 times
        last = [float(x) for x in lines[-1].split(",")]
        assert all(d < 1e-7 for d in last[5:])


class TestPoissonBracket:
    def test_canonical_pair(self, rng):
        p = ttw_params("1")
        s = random_ttw_state(rng, p)
        est = poisson_bracket_numeric(lambda x: x.q1, lambda x: x.p1, s)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_self_bracket_vanishes(self, rng):
        p = ttw_params("2")
        H = lambda x: hamiltonian(x, p)
        s = random_ttw_state(rng, p)
        est = poisson_bracket_numeric(H, H, s)
        assert abs(est.value) < 1e-10

    def test_separation_constant_commutes(self, rng):
        p = ttw_params("3/2")
        H = lambda x: hamiltonian(x, p)
        L1 = lambda x: angular_invariant(x, p)
        for _ in range(20):
            s = random_ttw_state(rng, p, rho_range=(0.9, 1.5), p_max=1.0, margin=0.2)
            est = poisson_bracket_numeric(H, L1, s)
            assert abs(est.value) < 1e-8

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_higher_integral_commutes(self, k_text, rng):
        # couplings scaled so the barrier strength alpha k^2 stays moderate;
        # otherwise the integral's magnitude swamps the difference stencil
        kv = RationalIndex.from_string(k_text).value
        p = ttw_params(k_text, alpha=0.3 / kv ** 2, beta=0.45 / kv ** 2)
        H = lambda x: hamiltonian(x, p)
        for fn in (l2_poly, l2_cos):
            G = lambda x: fn(p, x)
            for _ in range(50):
                s = random_ttw_state(rng, p, rho_range=(1.0, 1.4), p_max=0.8, margin=0.3)
                est = poisson_bracket_numeric(H, G, s)
                assert abs(est.value) < 1e-6

    def test_known_brackets_exact(self, rng):
        p = ttw_params("1")
        for _ in range(20):
            s = random_ttw_state(rng, p)
            H = lambda x: hamiltonian(x, p)
            assert poisson_bracket_numeric(lambda x: x.q1, H, s).value \
                == pytest.approx(2.0 * s.p1, rel=1e-12)
            assert _complex_step_gradient(H, s) == pytest.approx(
                hamiltonian_gradient(s, p), rel=1e-12)
            F = lambda x: x.q1 ** 3 * x.p2
            G = lambda x: x.p1 * x.q2
            exact = 3.0 * s.q1 ** 2 * s.p2 * s.q2 - s.q1 ** 3 * s.p1
            assert poisson_bracket_numeric(F, G, s).value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_gradients_match_richardson_reference(self, k_text, rng):
        # dF/dq_i = {F, p_i} and dF/dp_i = {q_i, F}: the gradient through the bracket
        kv = RationalIndex.from_string(k_text).value
        p = ttw_params(k_text, alpha=0.3 / kv ** 2, beta=0.45 / kv ** 2)
        params, _, _, _ = dc_setup(k_text)
        fields = [lambda x, f=f: getattr(pushforward_phase(x), f) for f in _FIELDS]
        operands = [lambda x: hamiltonian(x, p), lambda x: angular_invariant(x, p),
                    lambda x: l2_poly(p, x), lambda x: l2_cos(p, x), *fields]
        for _ in range(10):
            s = random_ttw_state(rng, p, rho_range=(1.0, 1.4), p_max=0.8, margin=0.3)
            for F in operands:
                assert _complex_step_gradient(F, s) == pytest.approx(
                    _richardson_gradient(F, s), rel=1e-7, abs=1e-12)
            s = random_dc_state(rng, params, r_range=(0.8, 1.6), p_max=0.6, margin=0.3)
            G = lambda x: dc_integral(params, x)
            assert _complex_step_gradient(G, s) == pytest.approx(
                _richardson_gradient(G, s), rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("k_text", K_LIST)
    def test_separation_constants_do_not_commute(self, k_text, rng):
        # {L1, L2} is the next element of the algebra, not zero
        kv = RationalIndex.from_string(k_text).value
        p = ttw_params(k_text, alpha=0.3 / kv ** 2, beta=0.45 / kv ** 2)
        L1 = lambda x: angular_invariant(x, p)
        L2 = lambda x: l2_poly(p, x)
        values = []
        for _ in range(10):
            s = random_ttw_state(rng, p, rho_range=(1.0, 1.4), p_max=0.8, margin=0.3)
            values.append(poisson_bracket_numeric(L1, L2, s).value)
            assert values[-1] == pytest.approx(_richardson_bracket(L1, L2, s), rel=1e-6)
        assert max(map(abs, values)) > 0.1

    def test_real_only_operand_raises(self, rng):
        # atan2 cannot carry a complex step; the bracket must not read 0
        p = ttw_params("3/2")
        s = random_ttw_state(rng, p)
        with pytest.raises(TypeError):
            poisson_bracket_numeric(lambda x: hamiltonian(x, p), lambda x: l2_trig(p, x), s)


class TestCoulombPullback:
    @pytest.mark.parametrize("k_text", ["1", "2", "3/2"])
    def test_conserved_along_dc_orbits(self, k_text):
        params, E, A, pt = dc_setup(k_text)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 20 * T, tol=1e-12)
        tt = np.linspace(0, traj.t[-1], 300)
        for variant in ("sin", "cos"):
            vals = np.array([dc_integral(params, traj.at_time(t), variant) for t in tt])
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift < 1e-6

    @pytest.mark.parametrize("k_text", ["1", "2", "3/2"])
    def test_commutes_with_hamiltonian(self, k_text, rng):
        params, _, _, _ = dc_setup(k_text)
        H = lambda s: hamiltonian(s, params)
        G = lambda s: dc_integral(params, s)
        for _ in range(40):
            s = random_dc_state(rng, params, r_range=(0.8, 1.6), p_max=0.6, margin=0.3)
            est = poisson_bracket_numeric(H, G, s)
            assert abs(est.value) < 1e-6

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3", "5/3"])
    def test_agrees_with_the_pullback_route(self, k_text, rng):
        # the direct form against the mapped system: the oscillator integral at
        # the pulled-back state, with omega^2 = -H
        params = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        for _ in range(200):
            s = random_dc_state(rng, params)
            for variant in ("sin", "cos"):
                expected = dc_integral_by_pullback(params, s, variant)
                assert abs(dc_integral(params, s, variant) - expected) \
                    <= 1e-12 * max(1.0, abs(expected))

    def test_k1_laplace_runge_lenz(self, rng):
        # k = 1, no barrier: H = p^2 - Q/r, L = p_phi, and the Runge-Lenz vector
        # A = p x L - (Q/2) r_hat gives L2sin = 8 L A_y and L2cos = 16 L^2 A_x
        params = DCParams(Q=1.3, alpha=0.0, beta=0.0, k=RationalIndex(1))
        for _ in range(100):
            s = random_dc_state(rng, params)
            r, phi, p_r, L = s.q1, s.q2, s.p1, s.p2
            p_x = p_r * math.cos(phi) - L / r * math.sin(phi)
            p_y = p_r * math.sin(phi) + L / r * math.cos(phi)
            A_x = L * p_y - 0.5 * params.Q * math.cos(phi)
            A_y = -L * p_x - 0.5 * params.Q * math.sin(phi)
            assert dc_integral(params, s, "sin") == pytest.approx(8 * L * A_y, rel=1e-12,
                                                                  abs=1e-12)
            assert dc_integral(params, s, "cos") == pytest.approx(16 * L * L * A_x, rel=1e-12,
                                                                  abs=1e-12)

    def test_k1_symbolic_expansion(self, rng):
        # at c = d = 1 the explicit pairs reduce to a cubic expression
        params, _, _, _ = dc_setup("1")
        for _ in range(40):
            s = random_dc_state(rng, params)
            A = (s.p2 ** 2
                 + params.alpha / (4 * math.cos(s.q2 / 2) ** 2)
                 + params.beta / (4 * math.sin(s.q2 / 2) ** 2))
            expected = 2.0 * ((4 * A / s.q1 - 2 * params.Q) * math.sin(s.q2) * s.p2
                              - (4 * A * math.cos(s.q2) + params.beta - params.alpha) * s.p1)
            assert dc_integral(params, s) == pytest.approx(expected, rel=1e-11)

    def test_requires_dc_chart(self):
        params, _, _, _ = dc_setup("1")
        with pytest.raises(DomainError):
            dc_integral(params, PhasePoint(1.0, 0.3, 0.1, 0.2, TTW_CHART))
        # the parameter type picks the chart, so a DC point fails oscillator params
        with pytest.raises(DomainError):
            ab_quantities(ttw_params("1"), dc_setup("1")[3])

    def test_unknown_variant(self):
        params, _, _, pt = dc_setup("1")
        with pytest.raises(DomainError):
            dc_integral(params, pt, variant="tan")
