import math
import tracemalloc
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import angular_invariant, dc_setup, energy_drift, ttw_params, ttw_radial_period
from superint import dynamics, specfun
from superint.cli import EXIT_PASS, main
from superint.dynamics import (
    ClosureReport,
    StackedDense,
    closure_check,
    integrate,
    measure_radial_period,
    off_orbit_control,
    radial_maxima_times,
    orbit_constants_from_point,
    orbit_residual,
    radial_period_closed_form,
)
from superint.errors import DegenerateOrbitError, DomainError, IntegrationError
from superint.invariants import _phase_difference, ab_quantities
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    bounded_dc_state,
    hamilton_kernel,
    hamiltonian,
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
            assert energy_drift(traj) <= 10.0 * tol

    def test_time_axis_strictly_increasing(self):
        params, _, _, pt = dc_setup("1")
        traj = integrate(params, pt, 10.0, tol=1e-10)
        assert np.all(np.diff(traj.t) > 0)

    def test_long_run_invariant_drift(self):
        # energy and the angular constant hold to 1e-9 over 50 radial periods
        params, E, A, pt = dc_setup("3/2")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 50 * T, tol=1e-12)
        assert energy_drift(traj) < 1e-9
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


def _counting_kernel(calls):
    """hamilton_kernel with every right-hand-side evaluation appended to calls."""
    def counted_kernel(params):
        rhs = hamilton_kernel(params)

        def counted(*args):
            calls.append(None)
            return rhs(*args)

        return counted

    return counted_kernel


def _reference_dense(traj):
    """scipy's OdeSolution over Dop853DenseOutput pieces of the trajectory's own steps,
    with every step's coefficients from the scalar stage order (_scalar_coefficients)."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    t, y, F = traj.t, traj.y.T, _scalar_coefficients(traj.params, traj)
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
        # the nodes are the row sums (measured: within 1.8e-15 of scipy's C)
        nodes = [math.fsum(row) for row in dynamics._A]
        assert np.max(np.abs(np.subtract(nodes, ref.C))) < 4e-15
        assert np.array_equal(dynamics._E3, ref.E3)
        assert np.array_equal(dynamics._E5, ref.E5)
        assert np.array_equal(dynamics._D, ref.D)

    def test_evaluation_count(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "hamilton_kernel", _counting_kernel(calls))
        params, _, _, pt = dc_setup("3/2")
        for tol in (1e-8, 1e-12):
            calls.clear()
            traj = integrate(params, pt, 40.0, tol=tol)
            assert traj.nfev == len(calls)
            assert traj.nfev == 2 + 12 * (traj.steps + traj.rejected)
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


def _built_coefficients(traj):
    """The dense output's F once a read has touched every step."""
    traj.dense(traj.t)
    return traj.dense._F


class TestDenseCoefficients:
    """The coefficients built on read give the scalar loop's F bit for bit."""

    @pytest.mark.parametrize("family", ["dc", "ttw"])
    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3"])
    def test_match_the_scalar_stage_order(self, family, k_text):
        params, _, _, traj = _family_run(family, k_text)
        assert traj.rejected > 0  # the step controller rejected attempts on this run
        assert np.array_equal(_built_coefficients(traj), _scalar_coefficients(params, traj))

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.3), (0.0, 0.0)])
    def test_zero_coupling_orbit_matches_the_scalar_stage_order(self, alpha, beta):
        # a zero coupling drops its term and its wall: the straight-line stages
        # and the scalar loop still agree to the last bit, y and F alike
        params = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex(3, 2))
        traj = integrate(params, PhasePoint(1.2, 0.9, 0.1, 0.5, DC_CHART), 15.0, tol=1e-10)
        assert traj.steps > 20
        assert np.array_equal(_built_coefficients(traj), _scalar_coefficients(params, traj))

    def test_any_block_size(self, monkeypatch):
        params, pt, t_end, traj = _family_run("ttw", "3/2")
        assert traj.steps > 2 * 7
        F = _built_coefficients(traj)
        for block in (1, 7, traj.steps - 1):  # the last block ragged, or one step alone
            monkeypatch.setattr(dynamics, "_DENSE_BLOCK", block)
            other = integrate(params, pt, t_end, tol=1e-10)
            assert np.array_equal(other.t, traj.t) and np.array_equal(other.y, traj.y)
            assert np.array_equal(_built_coefficients(other), F)
            assert (other.nfev, other.rejected) == (traj.nfev, traj.rejected)

    def test_peak_memory_per_step_of_a_long_run(self):
        # the stores hold 328 bytes per step (t, y, the 9 stages the build
        # reads) and F 224 more, and a read of every step builds them all;
        # 591 were measured with 512-step blocks and 1,324 with one block of
        # every step
        params = ttw_params("3/2")
        pt = PhasePoint(1.1, 0.3, 0.4, 0.7, TTW_CHART)
        warm = integrate(params, pt, 1.0, tol=1e-12)  # warm imports and caches
        warm.dense(warm.t)
        tracemalloc.start()
        try:
            traj = integrate(params, pt, 200 * ttw_radial_period(params.omega2), tol=1e-12)
            traj.dense(traj.t)
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
        dense = StackedDense(t, y, lambda idx: F[:, idx])
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


@pytest.fixture(scope="module")
def built_on_read():
    """Twin integrations of one orbit, so each read order starts unbuilt, and the full pass."""
    params, E, _, pt = dc_setup("3/2")
    t_end = 1.5 * radial_period_closed_form(params.Q, E)
    traj = integrate(params, pt, t_end, tol=1e-10)
    return (lambda: integrate(params, pt, t_end, tol=1e-10)), _scalar_coefficients(params, traj), \
        _reference_dense(traj)


_READS = {
    "array": lambda t_end: np.linspace(0.2, 0.4, 40) * t_end,
    "scalar": lambda t_end: [float(t) for t in np.linspace(0.25, 0.35, 7) * t_end],
    "repeated": lambda t_end: np.repeat(np.linspace(0.6, 0.7, 10) * t_end, 3),
    "unsorted": lambda t_end: np.random.default_rng(8).uniform(0.0, t_end, 60),
    "outside": lambda t_end: np.array([-0.5, -1e-3, t_end + 1e-3, t_end + 0.5]),
    "empty": lambda t_end: np.empty(0),
}


class TestBuildOnRead:
    """integrate returns after the step loop; a read builds the steps it first touches."""

    def test_integrate_evaluates_no_dense_stage_and_a_read_three_per_new_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "hamilton_kernel", _counting_kernel(calls))
        params = ttw_params("3/2")
        traj = integrate(params, PhasePoint(1.1, 0.3, 0.4, 0.7, TTW_CHART),
                         20 * ttw_radial_period(params.omega2), tol=1e-12)
        assert len(calls) == traj.nfev == 2 + 12 * (traj.steps + traj.rejected)
        touched = set()
        for lo, hi in ((0.0, 1.0), (0.3, 0.8), (0.3, 0.8)):
            tt = np.linspace(lo, hi, 400) * traj.t[-1]
            seg = set(np.searchsorted(traj.t[1:-1], tt).tolist())
            calls.clear()
            traj.dense(tt)
            assert len(calls) == 3 * len(seg - touched)
            touched |= seg
        assert 400 <= len(touched) < traj.steps / 2  # the reads left most steps unbuilt

    def test_a_scalar_read_of_an_unbuilt_step_builds_every_remaining_one(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "hamilton_kernel", _counting_kernel(calls))
        params, E, _, pt = dc_setup("3/2")
        traj = integrate(params, pt, 1.5 * radial_period_closed_form(params.Q, E), tol=1e-10)
        t_mid = 0.5 * (traj.t[3] + traj.t[4])
        for read, new_steps in ((np.array([t_mid]), 1), (t_mid, 0), (traj.t[-2], traj.steps - 1),
                                (np.array([0.0, traj.t[-1]]), 0)):
            calls.clear()
            traj.dense(read)
            assert len(calls) == 3 * new_steps
        assert traj.dense._coefficients is None  # the stage buffer is released

    def test_memory_a_run_holds_unread_part_read_and_built(self):
        # per step, t, y, h and the 9 stages the build reads take 336 bytes
        # and F 224 more: an unread run holds no F (350 measured), a part read
        # run both (590), a built one F without the stages (330); a run that
        # is never fully read keeps its stages for its whole life
        params = ttw_params("3/2")
        pt = PhasePoint(1.1, 0.3, 0.4, 0.7, TTW_CHART)
        warm = integrate(params, pt, 1.0, tol=1e-12)  # warm imports and caches
        warm.dense(np.linspace(0.0, 1.0, 5))
        warm.at_time(0.5)
        tracemalloc.start()
        try:
            traj = integrate(params, pt, 20 * ttw_radial_period(params.omega2), tol=1e-12)
            unread = tracemalloc.get_traced_memory()[0]
            traj.dense(np.linspace(0.0, traj.t[-1], 400))
            part_read = tracemalloc.get_traced_memory()[0]
            traj.at_time(0.5 * traj.t[-1])
            built = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traj.steps > 1_500 and traj.dense._coefficients is None
        assert unread < 400 * traj.steps
        assert part_read < 650 * traj.steps
        assert built < 360 * traj.steps

    @pytest.mark.parametrize("order", [
        ("array", "scalar", "repeated", "unsorted", "outside", "empty"),
        ("empty", "outside", "unsorted", "repeated", "scalar", "array"),
        ("scalar", "array", "empty", "repeated", "outside", "unsorted"),
        ("repeated", "array", "outside", "scalar", "unsorted", "empty"),
    ], ids="-".join)
    def test_reads_in_any_order_match_the_full_pass(self, built_on_read, order):
        fresh, F, ref = built_on_read
        traj = fresh()
        t_end = traj.t[-1]
        for kind in order:
            times = _READS[kind](t_end)
            if kind == "scalar":
                for t in times:
                    assert np.array_equal(traj.dense(t), ref(t))
            else:
                out = traj.dense(times)
                assert out.shape == (4, times.size)
                assert times.size == 0 or np.array_equal(out, ref(times))  # scipy's takes none
        traj.dense(traj.t)
        assert np.array_equal(traj.dense._F, F)
        assert traj.dense._coefficients is None  # every step built, the stage buffer released


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

    def test_dense_calls_ask_only_for_the_brackets(self, period_sweep):
        # the accepted steps where p1 turns negative bracket the maxima, so no
        # dense call samples the orbit: measured 5-6 calls on every sweep orbit
        for params, E, A, pt, T, traj, consts in period_sweep:
            p1 = traj.y[2]
            brackets = np.count_nonzero((p1[:-1] > 0.0) & (p1[1:] <= 0.0))
            sizes = []

            def counting(t):
                sizes.append(np.size(t))
                return traj.dense(t)

            measure_radial_period(replace(traj, dense=counting))
            assert brackets >= 2 and max(sizes) <= brackets
            assert len(sizes) <= 40

    def test_peaks_are_zeros_of_p_r(self, period_sweep):
        # measured: |p_r| at the peaks is at most 1.6e-15 of max |p_r| over
        # the sweep (1.1e-14 refining -p1^2 by parabolas, 1.2e-8 refining q1)
        for params, E, A, pt, T, traj, consts in period_sweep:
            p_r = traj.dense(radial_maxima_times(traj))[2]
            assert np.max(np.abs(p_r)) / np.max(np.abs(traj.y[2])) < 1e-13

    def test_sweep_period_and_gap_errors(self, period_sweep):
        # measured over the criterion-2 sweep: worst relative period error
        # 6.5e-11 and worst single peak gap 1.2e-10 (9.7e-10 and 7.0e-9
        # refining q1); criterion 2's own gate stays 1e-6
        worst_period = worst_gap = 0.0
        for params, E, A, pt, T, traj, consts in period_sweep:
            gaps = np.diff(radial_maxima_times(traj))
            worst_period = max(worst_period, abs(np.mean(gaps) - T) / T)
            worst_gap = max(worst_gap, np.max(np.abs(gaps - T)) / T)
        assert worst_period < 2e-10
        assert worst_gap < 5e-10

    def test_circular_orbit_is_degenerate(self):
        p = pure_coulomb()
        pt = PhasePoint(1.0, 1.0, 0.0, math.sqrt(0.5), DC_CHART)
        traj = integrate(p, pt, 20.0, tol=1e-10)
        with pytest.raises(DegenerateOrbitError):
            measure_radial_period(traj)

    def test_long_period_orbit_reads_only_its_brackets(self):
        # a long-period orbit: T = 10,977 over its ~700 steps, so a read that grew
        # with the time span or the steps would show; measured: five calls of 2 points
        params = DCParams(Q=5.0, alpha=0.001, beta=0.001, k=RationalIndex(1))
        E = -0.008
        pt = bounded_dc_state(params, E, 10.0, r_frac=0.4, u_frac=0.55)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 2.2 * T, tol=1e-12)
        p1 = traj.y[2]
        brackets = np.count_nonzero((p1[:-1] > 0.0) & (p1[1:] <= 0.0))
        sizes = []

        def counting(t):
            sizes.append(np.size(t))
            return traj.dense(t)

        assert measure_radial_period(replace(traj, dense=counting)) == pytest.approx(T, rel=1e-6)
        assert brackets >= 2 and max(sizes) <= brackets
        assert len(sizes) <= 40


    def test_orbit_shorter_than_one_period_is_degenerate(self):
        params, E, A, pt = dc_setup("1")
        traj = integrate(params, pt, 0.5, tol=1e-12)
        assert radial_maxima_times(traj).size == 0
        with pytest.raises(DegenerateOrbitError):
            measure_radial_period(traj)

    @staticmethod
    def _stub(q1, p1, t):
        """A trajectory at the times t whose states and dense output are q1(t) and p1(t),
        with q2 = p2 = 0."""
        params, E, A, pt = dc_setup("1")

        def dense(s):
            s = np.asarray(s, dtype=float)
            zero = np.zeros_like(s)
            return np.array([q1(s), zero, p1(s), zero])

        return replace(integrate(params, pt, 1.0), t=t, y=dense(t), dense=dense)

    def test_zero_of_p_r_at_a_step_end_is_counted_once(self):
        # q1 = 3 - (t - 1)^2 peaks at the step end t = 1, where p1 = 1 - t is exactly 0
        traj = self._stub(lambda t: 3.0 - (t - 1.0) ** 2, lambda t: 1.0 - t,
                          np.linspace(0.0, 2.0, 9))
        assert traj.y[2, 4] == 0.0
        assert radial_maxima_times(traj).tolist() == [1.0]

    def test_start_at_the_outer_turning_point_is_not_a_maximum(self):
        # q1 = 2 + cos t starts at its top, where p1 = -sin(t)/2 is 0
        traj = self._stub(lambda t: 2.0 + np.cos(t), lambda t: -0.5 * np.sin(t),
                          np.linspace(0.0, 3.0 * math.pi, 61))
        peaks = radial_maxima_times(traj)
        assert peaks.size == 1 and peaks[0] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_start_with_p_r_negative(self):
        # q1 = 2 - sin t falls first; its maxima are at 3 pi/2 and 7 pi/2
        traj = self._stub(lambda t: 2.0 - np.sin(t), lambda t: -0.5 * np.cos(t),
                          np.linspace(0.0, 4.0 * math.pi - 1.0, 80))
        assert radial_maxima_times(traj) == pytest.approx([1.5 * math.pi, 3.5 * math.pi],
                                                          abs=1e-12)
        assert measure_radial_period(traj) == pytest.approx(2.0 * math.pi, rel=1e-12)


def _placement_case(k_text, r_frac, u_frac):
    """One start per shell placement; the default placement keeps the plain k id."""
    moved = [f"{name}={value:g}" for name, value, default in
             (("r_frac", r_frac, 0.35), ("u_frac", u_frac, 0.6)) if value != default]
    return pytest.param(k_text, r_frac, u_frac, id="-".join([k_text, *moved]))


def _closure_period(params, pt):
    """T_r at H(pt), the energy closure_check reads (the setup's E differs in its last bits)."""
    return radial_period_closed_form(params.Q, hamiltonian(pt, params))


@pytest.fixture
def closure_runs(monkeypatch):
    """Every step-loop run closure_check makes, in order, as t and y of shape (4, len(t))."""
    runs = []
    step_loop = dynamics._step_loop

    def recording(params, initial, t_end, tol):
        f, t, y, Ks, rejected = step_loop(params, initial, t_end, tol)
        runs.append(SimpleNamespace(t=t, y=y.T))
        return f, t, y, Ks, rejected

    monkeypatch.setattr(dynamics, "_step_loop", recording)
    return runs


def _closure_by_integrate(params, pt, max_radial_periods, tol):
    """closure_check's report, scored on a chain of one-period integrate runs from pt."""
    T_r = _closure_period(params, pt)
    period_phi = 2 * math.pi / params.k.value
    y0 = pt.as_array()
    scales = np.abs(y0)
    best = ClosureReport(closed=False, n_radial=0, return_distance=math.inf, period_total=0.0)
    point = pt
    for n in range(1, max_radial_periods + 1):
        traj = integrate(params, point, T_r, tol=1e-12)
        point = traj.point(-1)
        scales = np.maximum(scales, np.max(np.abs(traj.y), axis=1))
        scales[1] = period_phi
        scales[2] = max(scales[2], np.max(np.hypot(traj.y[2], traj.y[3] / traj.y[0])))
        dy = traj.y[:, -1] - y0
        dy[1] -= period_phi * np.round(dy[1] / period_phi)
        distance = float(np.linalg.norm(dy / scales))
        if distance < best.return_distance:
            best = ClosureReport(closed=distance < tol, n_radial=n, return_distance=distance,
                                 period_total=n * T_r)
        if best.closed:
            break
    return best


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

    @pytest.mark.parametrize("k_text,r_frac,u_frac", [
        _placement_case(k_text, r_frac, u_frac)
        for k_text in ["1", "2", "3", "1/2", "3/2", "2/3"]
        for r_frac, u_frac in [(0.35, 0.6), (0.0, 0.6), (1.0, 0.6), (0.35, 0.0), (0.35, 1.0)]])
    def test_first_return_at_exactly_d_radial_periods(self, k_text, r_frac, u_frac):
        # C is conserved and theta_r gains 2 pi per radial period, so with
        # gcd(c, d) = 1 the orbit first returns after d periods, at d T_r;
        # a start at a turning point (r_frac or u_frac 0 or 1) is no exception
        params, E, A, _ = dc_setup(k_text)
        pt = bounded_dc_state(params, E, A, r_frac=r_frac, u_frac=u_frac)
        d = params.k.d
        report = closure_check(params, pt, 2 * params.k.c * d, tol=1e-6)
        assert report.closed and report.n_radial == d
        # an identity, not a measurement: the state is read at whole periods only
        assert report.period_total == report.n_radial * _closure_period(params, pt)
        if d > 1:
            early = closure_check(params, pt, d - 1, tol=1e-6)
            assert not early.closed and early.return_distance > 0.1

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_search_stops_at_the_first_span_holding_the_return(self, closure_runs, k_text):
        # each span is one radial period, integrated from the last accepted
        # state of the one before, and the search never reads d: the d-th
        # span holds the return, and no stretch of orbit is integrated twice
        params, E, A, pt = dc_setup(k_text)
        c, d = params.k.c, params.k.d
        T_r = _closure_period(params, pt)
        report = closure_check(params, pt, 2 * c * d, tol=1e-6)
        assert report.closed and report.n_radial == d
        assert len(closure_runs) == d
        assert all(run.t[0] == 0.0 and run.t[-1] == T_r for run in closure_runs)
        starts = [pt.as_array()] + [run.y[:, -1] for run in closure_runs[:-1]]
        assert all(np.array_equal(run.y[:, 0], y) for run, y in zip(closure_runs, starts))

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_few_refinement_calls_on_the_span_holding_the_return(self, monkeypatch, k_text):
        # the state is read at each span's end, where the return can only
        # happen, so no span reads the dense output
        calls = []
        monkeypatch.setattr(StackedDense, "__call__", lambda *a: calls.append("dense"))
        params, E, A, pt = dc_setup(k_text)
        report = closure_check(params, pt, 2 * params.k.c * params.k.d, tol=1e-6)
        assert report.closed and calls == []

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_builds_no_dense_output_or_trajectory(self, monkeypatch, k_text):
        # closure reads each period's end state off the step loop, so nothing
        # that only the dense output or a Trajectory needs is built
        def refuse(*args, **kwargs):
            raise AssertionError("closure_check built dense output or a Trajectory")

        for name in ("_dense_coefficients", "StackedDense", "Trajectory"):
            monkeypatch.setattr(dynamics, name, refuse)
        params, E, A, pt = dc_setup(k_text)
        report = closure_check(params, pt, 2 * params.k.c * params.k.d, tol=1e-6)
        assert report.closed and report.n_radial == params.k.d

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_report_matches_a_chain_of_integrate_runs(self, k_text):
        # the step loop alone against the full integrate path, one T_r run
        # per period from the last run's end state: the same report, bit for bit
        params, E, A, pt = dc_setup(k_text)
        bound = 2 * params.k.c * params.k.d
        report = closure_check(params, pt, bound, tol=1e-6)
        oracle = _closure_by_integrate(params, pt, bound, tol=1e-6)
        assert report.closed and report == oracle
        assert report.return_distance.hex() == oracle.return_distance.hex()

    def test_no_return_below_tol_integrates_the_cap(self, closure_runs):
        # tol = 0 passes no distance, so every period runs up to the cap, and
        # the report is the least distance, one of the returns at n = 3, 6, 9, 12
        params, E, A, pt = dc_setup("2/3")
        T_r = _closure_period(params, pt)
        report = closure_check(params, pt, 12, tol=0.0)
        assert [run.t[-1] for run in closure_runs] == [T_r] * 12
        assert not report.closed
        assert report.n_radial % 3 == 0 and report.return_distance < 1e-9
        assert report.period_total == report.n_radial * T_r

    def test_no_return_within_the_bound_reports_the_least_distance(self):
        # k = 2/3 first returns after 3 periods; below that the report is the
        # argmin n, against one integration from the start to each n T_r
        params, E, A, pt = dc_setup("2/3")
        T_r = _closure_period(params, pt)
        report = closure_check(params, pt, 2, tol=0.0)
        period_phi = 2 * math.pi / params.k.value
        least = []
        for n in (1, 2):
            traj = integrate(params, pt, n * T_r, tol=1e-12)
            scales = np.max(np.abs(traj.y), axis=1)
            scales[1] = period_phi
            dy = traj.y[:, -1] - pt.as_array()
            dy[1] = np.remainder(dy[1] + period_phi / 2, period_phi) - period_phi / 2
            least.append(np.linalg.norm(dy / scales))
        assert not report.closed and report.n_radial == 1 + int(np.argmin(least))
        assert report.return_distance == pytest.approx(min(least), rel=1e-6)
        assert report.period_total == report.n_radial * T_r

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


# the phase-law orbits: four k, each on all four momentum branches
PHASE_ORBITS = [(k, *signs) for k in ["1", "3/2", "2/3", "2"] for signs in MOMENTUM_SIGNS]


def _time_law_deviation(start, later, t, T):
    """delta1 read at time t less delta1 read at the start and t, mod T_r, in units of T_r:
    the radial time law holds where this is 0."""
    return math.remainder(later.delta1 - start.delta1 - t, T) / T


class TestOrbitConstants:
    def test_energy_is_hamiltonian(self):
        params, E, A, pt = dc_setup("3/2")
        consts = orbit_constants_from_point(params, pt)
        assert consts.E == hamiltonian(pt, params)
        assert consts.A == pytest.approx(angular_invariant(pt, params), abs=1e-14)

    def test_angular_constant_conserved_along_orbit(self):
        params, E, A, pt = dc_setup("2")
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 10 * T, tol=1e-12)
        values = [angular_invariant(traj.at_time(t), params)
                  for t in np.linspace(0, traj.t[-1], 300)]
        assert max(abs(v - A) for v in values) < 1e-9

    def test_turning_point_argument_is_unit(self):
        # X_r of the orbit equation and X_t of the time law
        params, E, A, pt = dc_setup("1")
        shell = validate_bounded(params, E, A)
        D1 = params.Q ** 2 + 4 * A * E
        for r, expected in ((shell.r1, 1.0), (shell.r2, -1.0)):
            X_r = (2 * A - params.Q * r) / (r * math.sqrt(D1))
            X_t = (-2 * E * r - params.Q) / math.sqrt(D1)
            assert X_r == pytest.approx(expected, abs=1e-12)
            assert X_t == pytest.approx(-expected, abs=1e-12)

    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3", "2"])
    def test_carries_the_gate_shell(self, k_text):
        params, E, A, pt = dc_setup(k_text)
        consts = orbit_constants_from_point(params, pt)
        assert np.array_equal(_bits(astuple(consts.shell)),
                              _bits(astuple(validate_bounded(params, consts.E, consts.A))))

    @pytest.mark.parametrize("k_text", ["1", "3/2", "2/3", "2"])
    def test_orbit_residual_reads_the_carried_discriminant(self, k_text):
        # the residual takes D1 from the constants, not recomputed from (E, A)
        params, E, A, pt = dc_setup(k_text)
        consts = orbit_constants_from_point(params, pt)
        assert abs(orbit_residual(params, consts, pt.q1, pt.q2)) < 1e-10
        wrong = replace(consts, shell=replace(consts.shell, D1=4 * consts.shell.D1))
        assert abs(orbit_residual(params, wrong, pt.q1, pt.q2)) > 1e-3

    @pytest.mark.parametrize("k_text, sign_r, sign_phi",
                             [_branch_case(*orbit) for orbit in PHASE_ORBITS])
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
            d1.append(_time_law_deviation(consts, later, traj.t[i], T))
        # measured: the delta1 deviation is at most 2.3e-11 over the 16 orbits
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
            try:
                validate_bounded(params, E, A)
            except DomainError:
                continue
            x = bounded_dc_state(params, E, A, r_frac=rng.uniform(0.02, 0.98),
                                 u_frac=rng.uniform(0.02, 0.98))
            x = replace(x, p1=rng.choice([-1, 1]) * x.p1, p2=rng.choice([-1, 1]) * x.p2)
            C = orbit_constants_from_point(params, x).C
            phase = _phase_difference(params, ab_quantities(params, x))
            deviations.append(math.remainder(phase + C - (k.c + k.d) * math.pi / 2, 2 * math.pi))
        assert np.max(np.abs(deviations)) < 1e-12


@pytest.mark.parametrize("k_text, expected", [("1", -math.inf), ("3", math.nan)])
def test_orbit_residual_at_the_origin(k_text, expected):
    # r must be positive: at r = 0 a float divides by zero, and an array reads
    # X_r = inf, so T_c(X_r) is inf for c <= 2 and inf - inf = NaN from c = 3 on
    params, E, A, pt = dc_setup(k_text)
    consts = orbit_constants_from_point(params, pt)
    with pytest.raises(ZeroDivisionError):
        orbit_residual(params, consts, 0.0, pt.q2)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = orbit_residual(params, consts, np.array([0.0]), np.array([pt.q2]))
    np.testing.assert_array_equal(residual, [expected])


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
        assert off_orbit_control(params, consts, traj) > 1e-3

    @pytest.mark.parametrize("where", ["inside_r1", "outside_r2"])
    def test_off_annulus_point_reads_a_large_residual(self, k_text, sign_r, sign_phi, where):
        # X_r lies past +-1 there; T_c is a polynomial, so the residual is finite
        # and at least T_c(|X_r|) - 1, with no domain error
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        r = 0.9 * consts.shell.r1 if where == "inside_r1" else 1.1 * consts.shell.r2
        residual = orbit_residual(params, consts, r, pt.q2)
        X_r = dynamics._arcsin_arguments(params, consts.A, consts.shell, r, pt.q2)[0]
        floor = math.cosh(params.k.c * math.acosh(abs(X_r))) - 1.0
        assert math.isfinite(residual) and floor > 1e-3
        assert abs(residual) >= floor * (1.0 - 1e-12)

    def test_sample_just_past_an_angular_turning_point_reads_as_at_it(
            self, k_text, sign_r, sign_phi):
        # state error can put X_phi a hair past +-1; the angular root then reads
        # 0, as at the turning point, where the residual is -T_c(X_r) + cos C (+-1)^d
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        k, c, d = params.k.value, params.k.c, params.k.d
        for u in (consts.shell.u1, consts.shell.u2):
            turn = 2.0 * math.acos(math.sqrt(u)) / k
            phi = np.array([turn - 1e-9, turn + 1e-9])
            X_r, X_phi = dynamics._arcsin_arguments(params, consts.A, consts.shell, pt.q1, phi)
            past = np.argmax(np.abs(X_phi))
            assert abs(X_phi[past]) > 1.0
            edge = math.copysign(1.0, X_phi[past])
            expected = -math.cos(c * math.acos(X_r)) + math.cos(consts.C) * edge ** d
            residual = orbit_residual(params, consts, pt.q1, phi)
            assert abs(residual[past] - expected) < 1e-6

    def test_nan_sample_reads_nan(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        assert math.isnan(orbit_residual(params, consts, math.nan, pt.q2))
        assert math.isnan(orbit_residual(params, consts, pt.q1, math.nan))
        out = orbit_residual(params, consts, np.array([math.nan, pt.q1, pt.q1]),
                             np.array([pt.q2, math.nan, pt.q2]))
        assert np.isnan(out[:2]).all() and abs(out[2]) < 1e-10

    def test_angular_periodicity(self, k_text, sign_r, sign_phi):
        params, E, A, pt = dc_setup(k_text, sign_r, sign_phi)
        consts = orbit_constants_from_point(params, pt)
        period = 2 * math.pi / params.k.value
        base = orbit_residual(params, consts, pt.q1, pt.q2)
        shifted = orbit_residual(params, consts, pt.q1, pt.q2 + period)
        assert shifted == pytest.approx(base, abs=1e-10)


class TestScalarPath:
    """A float sample takes the same operators and ufuncs as an array of samples."""

    @pytest.mark.parametrize("k_text", ["1", "2", "3", "1/2", "3/2", "2/3"])
    def test_float_samples_match_the_array_evaluation(self, k_text):
        params, E, A, pt = dc_setup(k_text)
        c, d = params.k.c, params.k.d
        consts = orbit_constants_from_point(params, pt)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, (2 * c * d + 0.3) * T, tol=1e-12)
        tt = np.linspace(0.0, traj.t[-1], 700)
        r, phi = traj.dense(tt)[:2]
        residual = orbit_residual(params, consts, r, phi)
        floats = [orbit_residual(params, consts, ri, phi_i)
                  for ri, phi_i in zip(r.tolist(), phi.tolist())]
        assert all(isinstance(v, float) for v in floats)
        assert np.array_equal(_bits(floats), _bits(residual))
        # both recurrences at every degree the residual reads, on the unclamped
        # arguments
        X = np.concatenate(dynamics._arcsin_arguments(params, consts.A, consts.shell, r, phi))
        for n, second_kind in ((c, False), (d, False), (d - 1, True), (0, False)):
            values = specfun.chebyshev_recurrence(n, X, second_kind)
            floats = [specfun.chebyshev_recurrence(n, x, second_kind) for x in X.tolist()]
            assert all(type(v) is float for v in floats)
            assert np.array_equal(_bits(floats), _bits(values))

    def test_at_time_is_the_dense_output(self):
        params, E, A, pt = dc_setup("3/2")
        traj = integrate(params, pt, 3.0 * radial_period_closed_form(params.Q, E), tol=1e-12)
        for t in np.linspace(0.0, traj.t[-1], 200).tolist():
            s = traj.at_time(t)
            values = [s.q1, s.q2, s.p1, s.p2]
            assert all(type(v) is float for v in values) and s.chart == DC_CHART
            assert np.array_equal(_bits(values), _bits(traj.dense(t)))


class TestTimeEquation:
    """The radial time law, read through delta1 on all of PHASE_ORBITS in each test
    (test_phases_read_anywhere_on_the_orbit_agree checks it at every accepted step)."""

    def test_turning_point_phase_alignment(self):
        # at each measured maximum of r, delta1 reads delta1 at the start plus
        # t_peak (mod T_r); measured: at most 2.3e-11 of T_r over 3 T_r
        for orbit in PHASE_ORBITS:
            params, E, A, pt = dc_setup(*orbit)
            consts = orbit_constants_from_point(params, pt)
            T = radial_period_closed_form(params.Q, E)
            traj = integrate(params, pt, 3 * T, tol=1e-12)
            peaks = radial_maxima_times(traj)
            assert peaks.size >= 2, orbit
            for t_peak in peaks.tolist():
                at_peak = orbit_constants_from_point(params, traj.at_time(t_peak))
                assert abs(_time_law_deviation(consts, at_peak, t_peak, T)) < 1e-9, (orbit, t_peak)

    def test_orbit_of_a_perturbed_coupling_breaks_the_law(self):
        # negative control: the orbit of Q (1 + 1e-6), read with the unperturbed
        # params, drifts off the law; measured: 5.5e-6 to 7.5e-6 of T_r over 2.5 T_r
        for orbit in PHASE_ORBITS:
            params, E, A, pt = dc_setup(*orbit)
            consts = orbit_constants_from_point(params, pt)
            T = radial_period_closed_form(params.Q, E)
            traj = integrate(replace(params, Q=params.Q * (1 + 1e-6)), pt, 2.5 * T, tol=1e-12)
            worst = max(abs(_time_law_deviation(
                consts, orbit_constants_from_point(params, traj.point(i)), traj.t[i], T))
                for i in range(traj.t.size))
            assert worst > 1e-9, orbit

    def test_no_radial_turning_points_rejected(self):
        # a circular orbit, p_r = 0 at r = 2 A / Q, has D1 = Q^2 + 4 A E = 0 and no
        # radial phase: with Q = 2, A = 1 (the barrier is below roundoff) and r = 1,
        # E = -1 and D1 = 0 exactly
        params = DCParams(Q=2.0, alpha=1e-20, beta=1e-20, k=RationalIndex(1))
        pt = PhasePoint(1.0, 1.0, 0.0, 1.0, DC_CHART)
        E, A = hamiltonian(pt, params), angular_invariant(pt, params)
        assert (E, A) == (-1.0, 1.0)
        with pytest.raises(DomainError, match=r"fails the rows \['D1_positive'\]$"):
            validate_bounded(params, E, A)
        with pytest.raises(DomainError, match="D1_positive"):
            orbit_constants_from_point(params, pt)


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
