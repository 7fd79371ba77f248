import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import dc_setup, ttw_params, ttw_radial_period
from superint import dynamics
from superint.cli import EXIT_PASS, main
from superint.dynamics import (
    StackedDense,
    _refine_maxima,
    closure_check,
    integrate,
    measure_radial_period,
    radial_maxima_times,
    orbit_constants_from_point,
    orbit_residual,
    radial_period_closed_form,
    time_equation_residual,
)
from superint.errors import DegenerateOrbitError, DomainError, IntegrationError
from superint.invariants import _phase_difference, ab_quantities
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    angular_invariant,
    bounded_dc_state,
    hamilton_kernel,
    hamiltonian,
    radial_turning_points,
    validate_bounded,
)


def pure_coulomb():
    return DCParams(Q=1.0, alpha=0.0, beta=0.0, k=RationalIndex(1))


class TestIntegrate:
    def test_circular_orbit_stays_circular(self):
        p = pure_coulomb()
        pt = PhasePoint(1.0, 1.0, 0.0, math.sqrt(0.5), DC_CHART)
        traj = integrate(p, pt, 50.0, tol=1e-12)
        tt = np.linspace(0.0, 50.0, 800)
        rr = np.array([traj.dense(t)[0] for t in tt])
        assert np.max(np.abs(rr - 1.0)) < 1e-9

    def test_free_particle_moves_straight(self):
        # V = 0: polar samples must fall on a straight Cartesian line
        p = DCParams(Q=0.0, alpha=0.0, beta=0.0, k=RationalIndex(1))
        pt = PhasePoint(2.0, 1.2, 0.3, 0.8, DC_CHART)
        traj = integrate(p, pt, 1.5, tol=1e-12)
        tt = np.linspace(0.0, 1.5, 60)
        pts = np.array([traj.dense(t)[:2] for t in tt])
        xy = np.stack([pts[:, 0] * np.cos(pts[:, 1]), pts[:, 0] * np.sin(pts[:, 1])], axis=1)
        direction = xy[-1] - xy[0]
        direction /= np.linalg.norm(direction)
        rel = xy - xy[0]
        cross = rel[:, 0] * direction[1] - rel[:, 1] * direction[0]
        assert np.max(np.abs(cross)) < 1e-9
        # uniform speed: equal time steps sweep equal arc lengths
        gaps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-9

    def test_energy_drift_contract(self):
        params, E, A, pt = dc_setup("3/2")
        for tol in (1e-8, 1e-10, 1e-12):
            traj = integrate(params, pt, 40.0, tol=tol)
            assert traj.max_energy_drift <= 10.0 * tol

    def test_time_axis_strictly_increasing(self):
        params, _, _, pt = dc_setup("1")
        traj = integrate(params, pt, 10.0, tol=1e-10)
        assert np.all(np.diff(traj.t) > 0)

    def test_long_run_invariant_drift(self):
        # energy and the angular constant hold to 1e-9 over 50 radial periods
        params, E, A, pt = dc_setup("3/2")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 50 * T, tol=1e-12)
        assert traj.max_energy_drift < 1e-9
        worst_A = max(abs(angular_invariant(traj.at_time(t), params) - A)
                      for t in np.linspace(0, traj.t[-1], 500))
        assert worst_A / abs(A) < 1e-9

    def test_tolerance_bounds(self):
        params, _, _, pt = dc_setup("1")
        with pytest.raises(DomainError):
            integrate(params, pt, 1.0, tol=1e-2)
        with pytest.raises(DomainError):
            integrate(params, pt, 1.0, tol=1e-15)

    def test_collision_raises_with_last_state(self):
        # head straight at the center: the run must fail and carry a state
        p = pure_coulomb()
        pt = PhasePoint(1.0, 1.0, -0.8, 0.0, DC_CHART)
        with pytest.raises(IntegrationError) as err:
            integrate(p, pt, 10.0, tol=1e-10)
        assert err.value.state_last is not None
        assert err.value.state_last.q1 < 1.0

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_end_time_must_be_finite_and_positive(self, t_end):
        params, _, _, pt = dc_setup("1")
        with pytest.raises(DomainError):
            integrate(params, pt, t_end, tol=1e-10)

    def test_step_budget_raises_with_last_state(self, monkeypatch):
        params, _, _, pt = dc_setup("3/2")
        traj = integrate(params, pt, 10.0, tol=1e-12)
        monkeypatch.setattr(dynamics, "_MAX_STEPS", traj.steps)
        assert integrate(params, pt, 10.0, tol=1e-12).steps == traj.steps
        monkeypatch.setattr(dynamics, "_MAX_STEPS", traj.steps - 1)
        with pytest.raises(IntegrationError, match="step budget") as err:
            integrate(params, pt, 10.0, tol=1e-12)
        assert err.value.t_last == traj.t[-2]
        assert err.value.state_last == traj.point(traj.steps - 1)


def _scipy_rhs(params):
    """Hamilton's equations in scipy's f(t, y) -> array form, NaN off the domain."""
    f = hamilton_kernel(params)
    return lambda t, y: np.array(f(*y.tolist()))


def _reference_dense(traj):
    """scipy's OdeSolution over Dop853DenseOutput pieces of the trajectory's own steps."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    t, y, F = traj.t, traj.y.T, traj.dense._F
    return OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[i], F[:, i])
                           for i in range(traj.steps)])


class TestStageLoop:
    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        A = np.zeros((16, 16))
        for s, row in enumerate(dynamics._A):
            A[s, :s] = row
        assert np.array_equal(A, ref.A)
        assert np.array_equal(dynamics._B, ref.B)
        assert np.array_equal(dynamics._C, ref.C)
        assert np.array_equal(dynamics._E3, ref.E3)
        assert np.array_equal(dynamics._E5, ref.E5)
        assert np.array_equal(dynamics._D, ref.D)

    def test_evaluation_count(self, monkeypatch):
        calls = []

        def counted_kernel(params):
            rhs = hamilton_kernel(params)

            def counted(*args):
                calls.append(None)
                return rhs(*args)

            return counted

        monkeypatch.setattr(dynamics, "hamilton_kernel", counted_kernel)
        params, _, _, pt = dc_setup("3/2")
        for tol in (1e-8, 1e-12):
            calls.clear()
            traj = integrate(params, pt, 40.0, tol=tol)
            assert traj.nfev == len(calls)
            assert traj.nfev == 2 + 12 * (traj.steps + traj.rejected) + 3 * traj.steps
        assert traj.rejected > 0

    def test_one_kernel_per_integration(self, monkeypatch):
        built = []

        def recorded_kernel(params):
            built.append(params)
            return hamilton_kernel(params)

        monkeypatch.setattr(dynamics, "hamilton_kernel", recorded_kernel)
        params, _, _, pt = dc_setup("3/2")
        integrate(params, pt, 10.0, tol=1e-10)
        assert built == [params]

    @pytest.mark.parametrize("case", ["smooth", "signed zeros", "nan"])
    def test_generated_stages_match_the_combine_loop(self, case):
        # every sum of the generated code starts from 0.0 and adds the tableau's
        # products in its order, so even zero signs agree with the loop
        def f(q1, q2, p1, p2):
            if case == "signed zeros":
                return -0.0, 0.0 * q1, -0.0 * p2, 0.0
            return math.sin(q2) * p1, q1 - p2 * p2, math.cos(q1 * q2), q2 / (1.0 + p1 * p1)

        stages = dynamics._straight_line_stages()(f, 1e-10, 1e-10)
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.uniform(-2.0, 2.0, 4).tolist()
            if case == "signed zeros":
                y = [-0.0, 0.0, y[2], -0.0]
            elif case == "nan":
                y[rng.integers(4)] = math.nan
            h = float(rng.uniform(1e-3, 0.5))
            k0 = f(*y)
            got = stages(h, *y, k0)
            want = _combine_loop_step(f, h, y, k0, 1e-10, 1e-10)
            assert np.array_equal(_bits(got[0]), _bits(want[0]))
            assert np.array_equal(_bits(got[3]), _bits(want[3]))
            for a, b in zip(got[1:3], want[1:3]):  # the error norms: NaN of either sign
                assert (math.isnan(a) and math.isnan(b)) or _bits(a) == _bits(b)

    def test_first_step_matches_solve_ivp(self, orbit_and_reference):
        # the initial-step rule (exponent 1/8) is scipy's; later steps drift
        # apart by roundoff in the error estimate
        traj, sol, _ = orbit_and_reference
        assert traj.t[1] == pytest.approx(sol.t[1], rel=1e-14)


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


def _combine_loop_step(f, h, y, k0, atol, rtol):
    """((z0, .., z3), n5, n3, ks) of one step by loops over the (stage, weight) pairs."""
    K = [k0] + [None] * 12

    def combine(weights):
        d = [0.0] * 4
        for j, w in weights:
            for c in range(4):
                d[c] += w * K[j][c]
        return d

    for s in range(1, 12):
        K[s] = f(*[yc + dc * h for yc, dc in zip(y, combine(dynamics._A_NZ[s]))])
    z = [yc + h * bc for yc, bc in zip(y, combine(dynamics._B_NZ))]
    K[12] = f(*z)
    n5 = n3 = 0.0
    for yc, zc, e5, e3 in zip(y, z, combine(dynamics._E5_NZ), combine(dynamics._E3_NZ)):
        scale = atol + max(abs(yc), abs(zc)) * rtol
        e5, e3 = e5 / scale, e3 / scale
        n5 += e5 * e5
        n3 += e3 * e3
    return z, n5, n3, [v for s in dynamics._DENSE_STAGES for v in K[s]]


def _scalar_coefficients(params, traj):
    """(7, steps, 4) dense coefficients, each step's 16 stages redone from (y[i], h_i).

    Python floats in the order the scalar step loop takes: stages 1-11, the
    8th-order solution and its derivative (stage 12), stages 13-15, then the
    seven rows of F.
    """
    f = hamilton_kernel(params)

    def combine(K, weights):
        d = [0.0] * 4
        for j, w in weights:
            for c in range(4):
                d[c] += w * K[j][c]
        return d

    t, y = traj.t.tolist(), traj.y.T.tolist()
    F = []
    for i in range(traj.steps):
        h, y0 = t[i + 1] - t[i], y[i]
        K = [f(*y0)] + [None] * 15
        for s in range(1, 12):
            K[s] = f(*[yc + dc * h for yc, dc in zip(y0, combine(K, dynamics._A_NZ[s]))])
        y1 = [yc + h * bc for yc, bc in zip(y0, combine(K, dynamics._B_NZ))]
        assert y1 == y[i + 1]
        K[12] = f(*y1)
        for s in range(13, 16):
            K[s] = f(*[yc + dc * h for yc, dc in zip(y0, combine(K, dynamics._A_NZ[s]))])
        dy = [b - a for a, b in zip(y0, y1)]
        rows = [dy, [h * f0 - d for f0, d in zip(K[0], dy)],
                [2.0 * d - h * (f1 + f0) for f0, f1, d in zip(K[0], K[12], dy)]]
        rows += [[h * c for c in combine(K, weights)] for weights in dynamics._D_NZ]
        F.append(rows)
    return np.array(F).transpose(1, 0, 2)


def _family_run(family, k_text, tol=1e-10):
    """A short orbit of either family: 1.5 radial periods (DC) or 3 periods (TTW)."""
    if family == "dc":
        params, E, _, pt = dc_setup(k_text)
        t_end = 1.5 * radial_period_closed_form(params.Q, E)
    else:
        params = ttw_params(k_text)
        pt = PhasePoint(1.1, 0.3 / params.k.value, 0.4, 0.7, TTW_CHART)
        t_end = 3.0 * ttw_radial_period(params.omega2)
    return params, pt, t_end, integrate(params, pt, t_end, tol=tol)


class TestDenseCoefficients:
    """The coefficient pass after the step loop gives the scalar loop's F bit for bit."""

    @pytest.mark.parametrize("family", ["dc", "ttw"])
    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3"])
    def test_match_the_scalar_stage_order(self, family, k_text):
        params, _, _, traj = _family_run(family, k_text)
        assert traj.rejected > 0  # the step controller rejected attempts on this run
        assert np.array_equal(traj.dense._F, _scalar_coefficients(params, traj))

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.3), (0.0, 0.0)])
    def test_zero_coupling_orbit_matches_the_scalar_stage_order(self, alpha, beta):
        # a zero coupling drops its term and its wall: the straight-line stages
        # and the scalar loop still agree to the last bit, y and F alike
        params = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex(3, 2))
        traj = integrate(params, PhasePoint(1.2, 0.9, 0.1, 0.5, DC_CHART), 15.0, tol=1e-10)
        assert traj.steps > 20
        assert np.array_equal(traj.dense._F, _scalar_coefficients(params, traj))

    def test_any_block_size(self, monkeypatch):
        params, pt, t_end, traj = _family_run("ttw", "3/2")
        assert traj.steps > 2 * 7
        for block in (1, 7, traj.steps - 1):  # the last block ragged, or one step alone
            monkeypatch.setattr(dynamics, "_DENSE_BLOCK", block)
            other = integrate(params, pt, t_end, tol=1e-10)
            assert np.array_equal(other.t, traj.t) and np.array_equal(other.y, traj.y)
            assert np.array_equal(other.dense._F, traj.dense._F)
            assert (other.nfev, other.rejected) == (traj.nfev, traj.rejected)

    def test_peak_memory_per_step_of_a_long_run(self):
        # the stores hold 328 bytes per step (t, y, the 9 stages the pass
        # reads) and F 224 more; 591 were measured with 512-step blocks and
        # 1,324 with one block of every step
        params = ttw_params("3/2")
        pt = PhasePoint(1.1, 0.3, 0.4, 0.7, TTW_CHART)
        integrate(params, pt, 1.0, tol=1e-12)  # warm imports and caches
        tracemalloc.start()
        try:
            traj = integrate(params, pt, 200 * ttw_radial_period(params.omega2), tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps >= 18_000
        assert peak < 650 * traj.steps


@pytest.fixture(scope="module", params=["1", "3/2", "2/3"])
def orbit_and_reference(request):
    """An integrated orbit, scipy's solve_ivp run of it and the reference dense output of its steps."""
    from scipy.integrate import solve_ivp

    params, E, _, pt = dc_setup(request.param)
    t_end = 3.2 * radial_period_closed_form(params.Q, E)
    sol = solve_ivp(_scipy_rhs(params), (0.0, t_end), pt.as_array(), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    traj = integrate(params, pt, t_end, tol=1e-12)
    return traj, sol, _reference_dense(traj)


class TestStackedDense:
    def test_steps_match_solve_ivp(self, orbit_and_reference):
        # the same method and controller in another arithmetic order: the same
        # number of accepted steps, and dense output within 1e-10 of scipy's
        traj, sol, _ = orbit_and_reference
        assert traj.steps == sol.t.size - 1
        tt = np.linspace(0.0, traj.t[-1], 5001)
        assert np.max(np.abs(traj.dense(tt) - sol.sol(tt))) < 1e-10

    def test_scalars(self, orbit_and_reference):
        traj, _, ref = orbit_and_reference
        for t in np.random.default_rng(3).uniform(0.0, traj.t[-1], 200).tolist():
            assert np.array_equal(traj.dense(t), ref(t))
            assert np.array_equal(traj.dense(np.float64(t)), ref(t))
        assert traj.dense(1.0).shape == (4,)

    def test_sorted_unsorted_and_repeated_arrays(self, orbit_and_reference):
        traj, _, ref = orbit_and_reference
        tt = np.random.default_rng(4).uniform(0.0, traj.t[-1], 3000)
        repeated = np.repeat(tt[:50], 3)
        for times in (np.sort(tt), tt, repeated, tt[:1]):
            out = traj.dense(times)
            assert out.shape == (4, times.size)
            assert np.array_equal(out, ref(times))

    def test_every_breakpoint_takes_the_step_that_ends_there(self, orbit_and_reference):
        traj, _, ref = orbit_and_reference
        assert np.array_equal(traj.dense(traj.t), ref(traj.t))
        for t in traj.t.tolist():
            assert np.array_equal(traj.dense(t), ref(t))

    def test_tie_rule_where_neighbouring_steps_disagree(self):
        # integrated steps meet to the last bit at most breakpoints, so random
        # coefficients show which step a breakpoint takes
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        rng = np.random.default_rng(5)
        t, y, F = np.array([0.0, 0.5, 1.25, 2.0]), rng.normal(size=(4, 4)), rng.normal(size=(7, 3, 4))
        dense = StackedDense(t, y, F)
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[i], F[:, i]) for i in range(3)])
        times = np.concatenate([t, [-0.3, 0.2, 1.0, 2.4]])
        assert np.array_equal(dense(times), ref(times))
        for s in times.tolist():
            assert np.array_equal(dense(s), ref(s))

    def test_times_outside_extrapolate_the_end_steps(self, orbit_and_reference):
        traj, _, ref = orbit_and_reference
        outside = np.array([-0.5, -1e-3, traj.t[-1] + 1e-3, traj.t[-1] + 0.5])
        assert np.array_equal(traj.dense(outside), ref(outside))
        for t in outside.tolist():
            assert np.array_equal(traj.dense(t), ref(t))

    def test_empty_and_two_dimensional_arrays(self, orbit_and_reference):
        traj, _, _ = orbit_and_reference
        assert traj.dense(np.empty(0)).shape == (4, 0)
        with pytest.raises(ValueError):
            traj.dense(np.zeros((2, 2)))

    def test_peak_memory_below_one_coefficient_gather(self, orbit_and_reference):
        # an (n, 7, 4) gather of every coefficient would alone take 224 n bytes
        traj, _, _ = orbit_and_reference
        n = 200_000
        tt = np.linspace(0.0, traj.t[-1], n)
        tracemalloc.start()
        try:
            traj.dense(tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 224 * n


class TestRadialPeriod:
    def test_closed_form_values(self):
        assert radial_period_closed_form(2.0, -1.0) == pytest.approx(math.pi, rel=1e-15)
        # Q pi / (2 (1/2)^(3/2)) = pi sqrt(2); confirmed against the
        # measured period below, so the value is pinned here exactly
        assert radial_period_closed_form(1.0, -0.5) == pytest.approx(math.pi * math.sqrt(2), rel=1e-15)

    def test_energy_scaling_law(self):
        # halving |E| multiplies the period by 2 sqrt(2)
        base = radial_period_closed_form(1.0, -0.4)
        assert radial_period_closed_form(1.0, -0.2) == pytest.approx(2 * math.sqrt(2) * base, rel=1e-14)

    def test_unbounded_rejected(self):
        with pytest.raises(DomainError):
            radial_period_closed_form(1.0, 0.0)

    def test_measured_matches_closed_form(self):
        params, E, A, pt = dc_setup("3/2")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 6 * T, tol=1e-12)
        assert measure_radial_period(traj) == pytest.approx(T, rel=1e-6)

    def test_period_independent_of_peak_pair(self):
        params, E, A, pt = dc_setup("1")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 6 * T, tol=1e-12)
        peaks = radial_maxima_times(traj)
        gaps = np.diff(peaks)
        assert np.max(np.abs(gaps - T)) / T < 1e-6

    def test_circular_orbit_is_degenerate(self):
        p = pure_coulomb()
        pt = PhasePoint(1.0, 1.0, 0.0, math.sqrt(0.5), DC_CHART)
        traj = integrate(p, pt, 20.0, tol=1e-10)
        with pytest.raises(DegenerateOrbitError):
            measure_radial_period(traj)


    def test_orbit_shorter_than_one_period_is_degenerate(self):
        params, E, A, pt = dc_setup("1")
        traj = integrate(params, pt, 0.5, tol=1e-12)
        assert radial_maxima_times(traj).size == 0
        with pytest.raises(DegenerateOrbitError):
            measure_radial_period(traj)


def _refine_maximum_loop(f, t0, t1, t2, iterations=40):
    """The scalar per-bracket loop _refine_maxima replaced, kept as its reference.

    Squares are written as products, as numpy squares arrays; a scalar
    ``x ** 2`` goes through libm pow and can differ in the last bit.
    """
    ts = [t0, t1, t2]
    fs = [f(t) for t in ts]
    for _ in range(iterations):
        (a, b, c), (fa, fb, fc) = ts, fs
        denom = (b - a) * (fb - fc) - (b - c) * (fb - fa)
        if denom == 0.0:
            break
        t_new = b - 0.5 * ((b - a) * (b - a) * (fb - fc) - (b - c) * (b - c) * (fb - fa)) / denom
        if not (min(ts) <= t_new <= max(ts)) or \
                any(abs(t_new - t) < 1e-15 * max(1.0, abs(t_new)) for t in ts):
            break
        ts.append(t_new)
        fs.append(f(t_new))
        order = np.argsort(ts)
        ts = [ts[i] for i in order]
        fs = [fs[i] for i in order]
        j = int(np.argmax(fs))
        lo = 0 if j == 0 else len(ts) - 3 if j == len(ts) - 1 else j - 1
        ts, fs = ts[lo:lo + 3], fs[lo:lo + 3]
    return ts[int(np.argmax(fs))]


class TestRefineMaxima:
    def test_batch_matches_one_bracket_calls_and_the_scalar_loop(self):
        c = np.linspace(0.3, 2.9, 9)
        h = np.linspace(0.01, 0.4, 9)
        f = lambda t, rows: np.cos(t - c[rows]) + 0.2 * np.sin(3.0 * (t - c[rows]))
        t0, t1, t2 = c - h, c + 0.3 * h, c + 1.1 * h
        t1[4] = t2[4] - 1e-3  # a bracket with its best point at an end
        batch = _refine_maxima(f, t0, t1, t2)
        for i in range(c.size):
            scalar = lambda t: float(f(np.array([t]), np.array([i]))[0])
            assert _refine_maximum_loop(scalar, t0[i], t1[i], t2[i]) == batch[i]
            one = _refine_maxima(lambda t, rows: f(t, rows + i), t0[i:i + 1], t1[i:i + 1],
                                 t2[i:i + 1])
            assert one.tobytes() == batch[i:i + 1].tobytes()

    def test_recovers_known_maxima(self):
        c = np.linspace(0.3, 2.9, 9)
        h = np.linspace(0.01, 0.3, 9)
        t = _refine_maxima(lambda t, rows: -np.sin(t - c[rows]) ** 2, c - h, c + 0.3 * h,
                           c + 1.1 * h)
        assert np.max(np.abs(t - c)) < 1e-12

    def test_monotone_bracket_returns_its_best_point(self):
        t = _refine_maxima(lambda t, rows: t, np.array([0.0, 5.0]), np.array([1.0, 6.0]),
                           np.array([2.0, 7.0]))
        assert t.tolist() == [2.0, 7.0]

    def test_empty_batch_never_calls_the_objective(self):
        def f(t, rows):
            raise AssertionError("objective called on an empty batch")

        empty = np.empty(0)
        t = _refine_maxima(f, empty, empty, empty)
        assert isinstance(t, np.ndarray) and t.size == 0


class TestClosure:
    def test_k1_closes_after_one_period(self):
        params, E, A, pt = dc_setup("1")
        report = closure_check(params, pt, 2, tol=1e-6)
        assert report.closed and report.n_radial == 1
        assert report.return_distance < 1e-6

    def test_k2_closes_within_bound(self):
        params, E, A, pt = dc_setup("2")
        report = closure_check(params, pt, 2 * 2 * 1, tol=1e-6)
        assert report.closed and report.n_radial <= 4

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_first_return_at_exactly_d_radial_periods(self, k_text):
        # C is conserved and theta_r gains 2 pi per radial period, so with
        # gcd(c, d) = 1 the orbit first returns after d periods, at d T_r
        params, E, A, pt = dc_setup(k_text)
        d = params.k.d
        T_r = radial_period_closed_form(params.Q, E)
        report = closure_check(params, pt, 2 * params.k.c * d, tol=1e-6)
        assert report.closed and report.n_radial == d
        assert abs(report.period_total - d * T_r) / (d * T_r) < 1e-10
        if d > 1:
            early = closure_check(params, pt, d - 1, tol=1e-6)
            assert not early.closed and early.return_distance > 0.1

    def test_vacuous_search(self):
        params, E, A, pt = dc_setup("1")
        report = closure_check(params, pt, 0, tol=1e-6)
        assert not report.closed

    def test_unbounded_start_rejected(self):
        p = pure_coulomb()
        pt = PhasePoint(1.0, 1.0, 2.0, 0.5, DC_CHART)  # E > 0
        with pytest.raises(DomainError):
            closure_check(p, pt, 2, tol=1e-6)


MOMENTUM_SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _branch_case(k_text, sign_r, sign_phi):
    """One start per momentum branch; the p_r, p_phi > 0 start keeps the plain k id."""
    negative = [name for name, sign in (("p_r<0", sign_r), ("p_phi<0", sign_phi)) if sign < 0]
    return pytest.param(k_text, sign_r, sign_phi, id="-".join([k_text, *negative]))


class TestOrbitConstants:
    def test_energy_is_hamiltonian(self):
        params, E, A, pt = dc_setup("3/2")
        consts = orbit_constants_from_point(params, pt)
        assert consts.E == hamiltonian(pt, params)
        assert consts.A == pytest.approx(angular_invariant(pt, params), abs=1e-14)

    def test_phase_relation(self):
        # C = -2 sqrt(A) c delta2 + (c + d) pi / 2 by construction
        params, E, A, pt = dc_setup("3/2")
        c, d = params.k.c, params.k.d
        consts = orbit_constants_from_point(params, pt)
        lhs = -2 * math.sqrt(consts.A) * c * consts.delta2 + (c + d) * math.pi / 2
        assert lhs == pytest.approx(consts.C, rel=1e-12)

    def test_angular_constant_conserved_along_orbit(self):
        params, E, A, pt = dc_setup("2")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 10 * T, tol=1e-12)
        values = [angular_invariant(traj.at_time(t), params)
                  for t in np.linspace(0, traj.t[-1], 300)]
        assert max(abs(v - A) for v in values) < 1e-9

    def test_turning_point_argument_is_unit(self):
        params, E, A, pt = dc_setup("1")
        r1, r2 = radial_turning_points(params.Q, E, A)
        D1 = params.Q ** 2 + 4 * A * E
        for r, expected in ((r1, 1.0), (r2, -1.0)):
            X = (2 * A - params.Q * r) / (r * math.sqrt(D1))
            assert X == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k_text, sign_r, sign_phi",
                             [_branch_case(k, *signs) for k in ["1", "3/2", "2/3", "2"]
                              for signs in MOMENTUM_SIGNS])
    def test_phases_read_anywhere_on_the_orbit_agree(self, k_text, sign_r, sign_phi):
        # C is conserved, and the point at time t reads delta1 + t (mod T_r)
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 2.5 * T, tol=1e-12)
        dC, d1 = [], []
        for i in range(traj.t.size):
            later = orbit_constants_from_point(params, traj.point(i))
            dC.append(math.remainder(later.C - consts.C, 2 * math.pi))
            d1.append(math.remainder(later.delta1 - consts.delta1 - traj.t[i], T) / T)
        assert np.max(np.abs(dC)) < 1e-9 and np.max(np.abs(d1)) < 1e-9

    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3", "2"])
    def test_phase_is_the_transformed_integral_phase(self, k_text, rng):
        # C(x) + the phase of the Coulomb-side integrals at x = (c + d) pi / 2
        # (mod 2 pi)
        k = RationalIndex.from_string(k_text)
        deviations = []
        while len(deviations) < 400:
            params = DCParams(Q=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.05, 0.5),
                              beta=rng.uniform(0.05, 0.5), k=k)
            E, A = rng.uniform(-0.5, -0.05), rng.uniform(0.1, 4.0)
            if not validate_bounded(params, E, A).all_passed:
                continue
            x = bounded_dc_state(params, E, A, r_frac=rng.uniform(0.02, 0.98),
                                 u_frac=rng.uniform(0.02, 0.98))
            x = replace(x, p1=rng.choice([-1, 1]) * x.p1, p2=rng.choice([-1, 1]) * x.p2)
            C = orbit_constants_from_point(params, x).C
            phase = _phase_difference(params, ab_quantities(params, x))
            deviations.append(math.remainder(phase + C - (k.c + k.d) * math.pi / 2, 2 * math.pi))
        assert np.max(np.abs(deviations)) < 1e-12


@pytest.mark.parametrize("k_text, sign_r, sign_phi",
                         [_branch_case(k, *signs) for k in ["1", "2", "3", "1/2", "3/2", "2/3"]
                          for signs in MOMENTUM_SIGNS])
class TestOrbitEquation:
    def test_residual_vanishes_along_orbit(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, (2 * params.k.c * params.k.d + 0.2) * T, tol=1e-12)
        worst = 0.0
        for t in np.linspace(0.0, traj.t[-1], 1500):
            s = traj.at_time(t)
            worst = max(worst, abs(orbit_residual(params, consts, s.q1, s.q2)))
        assert worst < 1e-6

    def test_residual_vanishes_at_anchor(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        assert abs(orbit_residual(params, consts, pt.q1, pt.q2)) < 1e-10

    def test_off_orbit_point_detected(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, T, tol=1e-12)
        _, r2 = radial_turning_points(params.Q, E, A)
        s = traj.at_time(0.13 * T)
        r_pert = s.q1 * 1.05 if s.q1 * 1.05 < r2 else s.q1 * 0.95
        assert abs(orbit_residual(params, consts, r_pert, s.q2)) > 1e-3

    def test_angular_periodicity(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        period = 2 * math.pi / params.k.value
        base = orbit_residual(params, consts, pt.q1, pt.q2)
        shifted = orbit_residual(params, consts, pt.q1, pt.q2 + period)
        assert shifted == pytest.approx(base, abs=1e-10)


class TestTimeEquation:
    # the time-law tests run every momentum branch in one test each
    def test_residual_with_branch_tracking(self):
        for sign_r, sign_phi in MOMENTUM_SIGNS:
            params, E, A, pt = dc_setup("3/2", sign_r, sign_phi)
            consts = orbit_constants_from_point(params, pt)
            T = radial_period_closed_form(params.Q, E)
            traj = integrate(params, pt, 5 * T, tol=1e-12)
            worst = 0.0
            for t in np.linspace(0.0, traj.t[-1], 1200):
                q1, _, p1, _ = traj.dense(t)
                worst = max(worst, abs(time_equation_residual(params, consts, t, q1, p1)))
            assert worst < 1e-6, (sign_r, sign_phi)

    def test_turning_point_phase_alignment(self):
        # at the outer turning radius the X term is +1 and the sine is -1
        for sign_r, sign_phi in MOMENTUM_SIGNS:
            params, E, A, pt = dc_setup("1", sign_r, sign_phi)
            consts = orbit_constants_from_point(params, pt)
            T = radial_period_closed_form(params.Q, E)
            traj = integrate(params, pt, 3 * T, tol=1e-12)
            t_peak = radial_maxima_times(traj)[1]
            r_peak, _, p_peak, _ = traj.dense(t_peak)
            D1 = params.Q ** 2 + 4 * A * E
            X = (-2 * E * r_peak - params.Q) / math.sqrt(D1)
            assert X == pytest.approx(1.0, abs=1e-9)
            assert abs(time_equation_residual(params, consts, t_peak, r_peak, p_peak)) < 1e-6, \
                (sign_r, sign_phi)

    def test_period_shift_invariance(self):
        params, E, A, pt = dc_setup("1")
        consts = orbit_constants_from_point(params, pt)
        T = radial_period_closed_form(params.Q, E)
        base = time_equation_residual(params, consts, 0.37, 2.2, 0.3)
        shifted = time_equation_residual(params, consts, 0.37 + T, 2.2, 0.3)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_off_shell_state_detected(self):
        # negative control: the law holds at the start, and moving r off the
        # energy shell at the same p_r, inside the annulus or far outside it, breaks it
        params, E, A, pt = dc_setup("1")
        consts = orbit_constants_from_point(params, pt)
        assert abs(time_equation_residual(params, consts, 0.0, pt.q1, pt.p1)) < 1e-12
        for r in (1.05 * pt.q1, 100.0):
            assert abs(time_equation_residual(params, consts, 0.0, r, pt.p1)) > 1e-3

    def test_no_radial_turning_points_rejected(self):
        params, E, A, pt = dc_setup("1")
        consts = orbit_constants_from_point(params, pt)
        with pytest.raises(DomainError):  # Q^2 + 4 A E = 1 - 1.6 < 0
            time_equation_residual(params, replace(consts, A=2.0), 0.0, pt.q1, pt.p1)


class TestTrajectoryExport:
    def test_csv_columns_and_rows(self, tmp_path):
        params, E, A, pt = dc_setup("1")
        traj = integrate(params, pt, 5.0, tol=1e-10)
        code = main(["trajectory", "--family", "dc", "--k", "1", "--Q", "1",
                     "--alpha", "0.2", "--beta", "0.3", "--E", str(E), "--A", str(A),
                     "--t-end", "5", "--tol", "1e-10", "--out-dir", str(tmp_path)])
        assert code == EXIT_PASS
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H,A"
        assert len(lines) == traj.t.size + 1
        first = [float(x) for x in lines[1].split(",")]
        assert first[5] == pytest.approx(E, abs=1e-12)
        assert first[6] == pytest.approx(A, abs=1e-12)
