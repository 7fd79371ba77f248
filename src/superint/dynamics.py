"""Time integration, period and closure detection, and closed-form orbit residuals.

The integrator is an adaptive 8th-order embedded explicit pair (DOP853)
with PI step control; symplecticity is not needed because runs are short
and energy drift is monitored on every trajectory.  `integrate` drives
scipy's DOP853 one accepted step at a time, up to a budget of _MAX_STEPS
steps, and stacks each step's dense-output coefficients; `StackedDense`
evaluates the stacked interpolant at any array of times in one pass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import BranchError, DegenerateOrbitError, DomainError, IntegrationError
from .systems import (
    DCParams,
    PhasePoint,
    _gradient,
    angular_invariant,
    discriminants,
    hamiltonian,
    radial_turning_points,
    validate_bounded,
)

TOL_MIN, TOL_MAX = 1e-14, 1e-3
# Accepted steps one integration may take (the longest run of the test suite
# takes 4,252); past it integrate raises, so no run grows without bound.
_MAX_STEPS = 100_000


class StackedDense:
    """DOP853 dense output of every accepted step, from stacked coefficients.

    Step i spans [t[i], t[i+1]], starts at y[i] and has the coefficients
    F[:, i] (F has shape (7, steps, 4)).  A time goes to the first step whose
    right end is not below it, times outside [t[0], t[-1]] extrapolate the
    first or last step, and the interpolant is summed in the Horner order of
    Hairer, Norsett and Wanner (Solving ODEs I, II.6).  Step choice and sums
    are scipy's own, so the values are those of scipy's dense output bit for
    bit.  A scalar time gives shape (4,), a 1-D array of n times shape (4, n).
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, F: np.ndarray):
        self._t, self._y, self._F = t, y, F
        self._h = np.diff(t)
        # counting the inner breakpoints below a time gives its step, already
        # clipped to the first and last
        self._inner = t[1:-1]
        self._t_list, self._h_list = t.tolist(), self._h.tolist()
        self._inner_list = self._inner.tolist()

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self._at(float(t))
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("times must be a scalar or a 1-D array")
        # seg lies in [0, steps - 1], so mode="clip" moves no index; it only
        # spares np.take its buffered bounds check
        seg = np.searchsorted(self._inner, t, side="left")
        x = t - np.take(self._t, seg, mode="clip")
        x /= np.take(self._h, seg, mode="clip")
        x = x[:, None]
        weights = (x, 1.0 - x)
        y = np.zeros((t.size, 4))
        row = np.empty_like(y)
        # one (n, 4) coefficient row per stage: an (n, 7, 4) gather would
        # hold 224 bytes per point at once
        for i in range(6, -1, -1):
            y += np.take(self._F[i], seg, axis=0, out=row, mode="clip")
            y *= weights[i % 2]
        y += np.take(self._y, seg, axis=0, out=row, mode="clip")
        return y.T

    def _at(self, t: float) -> np.ndarray:
        """The same sums in Python floats: one time costs no array set-up."""
        s = bisect.bisect_left(self._inner_list, t)
        x = (t - self._t_list[s]) / self._h_list[s]
        a = b = c = d = 0.0
        # stages 6, 5, ..., 0 take the weights x, 1 - x, x, ..., x
        for w, (f0, f1, f2, f3) in zip((x, 1.0 - x) * 4, self._F[::-1, s].tolist()):
            a, b, c, d = (a + f0) * w, (b + f1) * w, (c + f2) * w, (d + f3) * w
        y0, y1, y2, y3 = self._y[s].tolist()
        return np.array([a + y0, b + y1, c + y2, d + y3])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated orbit: accepted steps plus a dense interpolant.

    t is strictly increasing; y has shape (4, len(t)) in chart order
    (q1, q2, p1, p2).  max_energy_drift is the largest relative deviation
    of H from its initial value over the accepted steps.
    """

    params: object
    chart: str
    t: np.ndarray
    y: np.ndarray
    dense: object
    steps: int
    max_energy_drift: float
    tol: float

    @property
    def n_samples(self) -> int:
        return self.t.size

    def point(self, i: int) -> PhasePoint:
        q1, q2, p1, p2 = self.y[:, i]
        return PhasePoint(float(q1), float(q2), float(p1), float(p2), self.chart)

    def at_time(self, t: float) -> PhasePoint:
        q1, q2, p1, p2 = self.dense(t)
        return PhasePoint(float(q1), float(q2), float(p1), float(p2), self.chart)


@dataclass(frozen=True)
class OrbitConstants:
    """Separation constants and phases fixing one bounded orbit.

    C satisfies C = -2 sqrt(A) c delta2 + (c + d) pi / 2.
    """

    E: float
    A: float
    delta1: float
    delta2: float
    C: float


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    n_radial: int
    return_distance: float
    period_total: float


def _rhs(params):
    def rhs(t, y):
        try:
            g = _gradient(params, *y.tolist())
        except (DomainError, ArithmeticError):
            return np.full(4, np.nan)
        return np.array([g[2], g[3], -g[0], -g[1]])

    return rhs


def integrate(params, initial: PhasePoint, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate Hamilton's equations from an interior point up to t_end > 0.

    Raises IntegrationError, carrying the last accepted state, when the
    integrator fails or has taken _MAX_STEPS steps short of t_end.
    """
    from scipy.integrate import DOP853  # imported here: most CLI commands never integrate

    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"integration tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"integration end time {t_end} must be finite and positive")
    hamiltonian(initial, params)  # validates chart and interiorness
    chart = initial.chart
    rtol = max(tol, 3e-14)  # DOP853 floor
    solver = DOP853(_rhs(params), 0.0, initial.as_array(), float(t_end),
                    rtol=rtol, atol=tol)
    ts, ys, Fs = [solver.t], [solver.y], []
    for _ in range(_MAX_STEPS):
        message = solver.step()
        if solver.status == "failed":
            break
        # dense_output computes this step's three extra stages: call it before the next step
        Fs.append(solver.dense_output().F)
        ts.append(solver.t)
        ys.append(solver.y)
        if solver.status == "finished":
            break
    else:
        message = f"step budget of {_MAX_STEPS} steps spent before t = {t_end}"
    if solver.status != "finished":
        raise IntegrationError(f"integration stopped at t = {ts[-1]}: {message}",
                               t_last=float(ts[-1]), state_last=PhasePoint(*ys[-1], chart))

    t, y = np.array(ts), np.array(ys)
    h = np.array([hamiltonian(PhasePoint(*row, chart), params) for row in y])
    scale = max(abs(h[0]), 1e-12)
    drift = float(np.max(np.abs(h - h[0])) / scale)
    return Trajectory(params=params, chart=chart, t=t, y=y.T,
                      dense=StackedDense(t, y, np.stack(Fs, axis=1)),
                      steps=len(Fs), max_energy_drift=drift, tol=tol)


def radial_period_closed_form(Q: float, E: float) -> float:
    """Q pi / (2 (-E)^(3/2)), the exact radial period of the bounded motion."""
    if E >= 0.0:
        raise DomainError("radial motion is unbounded for E >= 0")
    if Q <= 0.0:
        raise DomainError("need Q > 0 for a bounded well")
    return Q * math.pi / (2.0 * (-E) ** 1.5)


def _refine_maxima(f, t0, t1, t2, iterations=40):
    """Successive three-point parabolic interpolation on arrays of brackets t0 < t1 < t2.

    f(t, rows) is the objective of brackets rows at times t.  A bracket takes
    the steps it would take alone and stops as it would alone; the best time
    of each bracket is returned.
    """
    ts = np.stack([t0, t1, t2], axis=1).astype(float)
    m = ts.shape[0]
    if m == 0:
        return np.empty(0)
    fs = f(ts.ravel(), np.repeat(np.arange(m), 3)).reshape(m, 3)
    active = np.arange(m)
    for _ in range(iterations):
        t, v = ts[active], fs[active]
        (a, b, c), (fa, fb, fc) = t.T, v.T
        denom = (b - a) * (fb - fc) - (b - c) * (fb - fa)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = b - 0.5 * ((b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)) / denom
        repeat = np.abs(t_new[:, None] - t) < 1e-15 * np.maximum(1.0, np.abs(t_new))[:, None]
        go = ((denom != 0.0) & (t.min(axis=1) <= t_new) & (t_new <= t.max(axis=1))
              & ~repeat.any(axis=1))
        active, t, v, t_new = active[go], t[go], v[go], t_new[go]
        if active.size == 0:
            break
        # keep the best three bracketing points of the four
        t4 = np.column_stack([t, t_new])
        v4 = np.column_stack([v, f(t_new, active)])
        order = np.argsort(t4, axis=1)
        t4, v4 = np.take_along_axis(t4, order, 1), np.take_along_axis(v4, order, 1)
        keep = np.clip(np.argmax(v4, axis=1) - 1, 0, 1)[:, None] + np.arange(3)
        ts[active], fs[active] = np.take_along_axis(t4, keep, 1), np.take_along_axis(v4, keep, 1)
    return ts[np.arange(m), np.argmax(fs, axis=1)]


def radial_maxima_times(traj: Trajectory, samples_per_unit: float = 400.0) -> np.ndarray:
    """Times of the local maxima of q1(t), parabolic-refined on dense output."""
    n = max(int(samples_per_unit * (traj.t[-1] - traj.t[0])), 200)
    tt = np.linspace(traj.t[0], traj.t[-1], n)
    rr = traj.dense(tt)[0]
    rel_span = (rr.max() - rr.min()) / max(abs(rr.max()), 1e-300)
    if rel_span < 1e-6:
        raise DegenerateOrbitError("radial coordinate is constant; no oscillation to measure")
    interior = (rr[1:-1] > rr[:-2]) & (rr[1:-1] >= rr[2:])
    idx = np.nonzero(interior)[0] + 1
    return _refine_maxima(lambda t, rows: traj.dense(t)[0], tt[idx - 1], tt[idx], tt[idx + 1])


def measure_radial_period(traj: Trajectory) -> float:
    """Mean spacing of successive maxima of q1(t)."""
    peaks = radial_maxima_times(traj)
    if peaks.size < 2:
        raise DegenerateOrbitError("need at least two radial maxima to measure a period")
    return float(np.mean(np.diff(peaks)))


def closure_check(params: DCParams, initial: PhasePoint, max_radial_periods: int,
                  tol: float, integrator_tol: float = 1e-12) -> ClosureReport:
    """Search multiples of the radial period for a phase-space return.

    The return metric is the Euclidean distance in (r, phi mod 2 pi/k,
    p_r, p_phi) with each coordinate scaled by its initial magnitude.
    """
    E = hamiltonian(initial, params)
    A = angular_invariant(initial, params)
    report = validate_bounded(params, E, A)
    if not report.all_passed:
        raise DomainError(f"initial point fails bounded-motion rows: {report.failed()}")
    if max_radial_periods < 1:
        return ClosureReport(closed=False, n_radial=0, return_distance=math.inf,
                             period_total=0.0)

    T_r = radial_period_closed_form(params.Q, E)
    period_phi = 2.0 * math.pi / params.k.value
    traj = integrate(params, initial, (max_radial_periods + 0.3) * T_r, tol=integrator_tol)
    y0 = initial.as_array()[:, None]
    scales = np.where(np.abs(y0) > 1e-9, np.abs(y0), 1.0)

    def distance(t):
        dy = traj.dense(t) - y0
        dy[1] -= period_phi * np.round(dy[1] / period_phi)
        return np.sqrt(np.sum((dy / scales) ** 2, axis=0))

    n = np.arange(1, max_radial_periods + 1)
    grid = np.linspace((n - 0.25) * T_r, (n + 0.25) * T_r, 160, axis=1)
    j = np.clip(np.argmin(distance(grid.ravel()).reshape(grid.shape), axis=1), 1, 158)
    t_star = _refine_maxima(lambda t, rows: -distance(t),
                            grid[n - 1, j - 1], grid[n - 1, j], grid[n - 1, j + 1])
    d_star = distance(t_star)
    closed = np.nonzero(d_star < tol)[0]
    i = int(closed[0]) if closed.size else int(np.argmin(d_star))
    return ClosureReport(closed=bool(closed.size), n_radial=i + 1,
                         return_distance=float(d_star[i]), period_total=float(t_star[i]))


# --- closed-form trajectory equations -------------------------------------

def _arcsin_arguments(params: DCParams, E, A, r, phi):
    """The pair (X_r, X_phi) entering the orbit and phase equations.

    The angular argument carries k^2 (alpha - beta) / 4; turning-point
    algebra forces this sign (X_phi = +-1 exactly at u = u1, u2).
    """
    D1, D2 = discriminants(params, E, A)
    if D1 <= 0.0 or D2 <= 0.0:
        raise DomainError("orbit equations need D1 > 0 and D2 > 0")
    k = params.k.value
    X_r = (2.0 * A - params.Q * r) / (r * math.sqrt(D1))
    s2 = np.sin(0.5 * k * np.asarray(phi, dtype=float)) ** 2
    X_phi = (2.0 * A * s2 - A + k * k * (params.alpha - params.beta) / 4.0) / math.sqrt(D2)
    return X_r, X_phi


def orbit_residual(params: DCParams, consts: OrbitConstants, r, phi,
                   branch: int | None = None, clamp_eps: float = 1e-9) -> float:
    """Residual of the implicit orbit equation linking r and phi.

    The square-root factor in the closed form carries a sign that flips at
    every angular turning point (it tracks sign(p_phi) along the motion).
    branch = +1 or -1 selects a half-oscillation arc explicitly; the
    default resolves the sign to the branch of smaller magnitude, so the
    residual vanishes along the whole orbit fixed by consts.  The function
    is exactly periodic in phi with period 2 pi / k.

    clamp_eps absorbs turning-point excursions of the arguments caused by
    state error; genuinely off-annulus points still raise a domain error.
    """
    c, d = params.k.c, params.k.d
    X_r, X_phi = _arcsin_arguments(params, consts.E, consts.A, r, phi)
    X_phi_c = np.asarray(specfun.clamp_unit(X_phi, eps=clamp_eps))
    base = (-specfun.chebyshev_T(c, specfun.clamp_unit(X_r, eps=clamp_eps))
            + math.cos(consts.C) * specfun.chebyshev_T(d, X_phi_c))
    wing = (math.sin(consts.C) * specfun.chebyshev_U(d - 1, X_phi_c)
            * np.sqrt(1.0 - X_phi_c ** 2))
    if branch is not None:
        out = base + branch * wing
    else:
        plus, minus = base + wing, base - wing
        out = np.where(np.abs(plus) <= np.abs(minus), plus, minus)
    return out if np.ndim(out) else float(out)


def time_equation_residual(params: DCParams, consts: OrbitConstants, t: float,
                           r: float, sign: int) -> float:
    """Residual of the radial time law at (t, r) on the given p_r branch.

    sign is +1 on the p_r > 0 half oscillation and -1 on the other half.
    """
    E, Q = consts.E, params.Q
    D1 = Q * Q + 4.0 * consts.A * E
    if D1 <= 0.0:
        raise DomainError("time equation needs D1 > 0")
    W = E * r * r + Q * r - consts.A
    if W < -1e-9 * max(1.0, abs(consts.A)):
        raise DomainError(f"radius {r} lies outside the radial annulus (W = {W})")
    W = max(W, 0.0)
    nu = (-E) ** 1.5
    phase = 4.0 * nu * (t + consts.delta1) / Q + 2.0 * sign * math.sqrt(-E) * math.sqrt(W) / Q
    return (-2.0 * E * r - Q) / math.sqrt(D1) + math.sin(phase)


def _candidate_C(params: DCParams, E, A, point: PhasePoint):
    X_r, X_phi = _arcsin_arguments(params, E, A, point.q1, point.q2)
    th_r = math.acos(float(specfun.clamp_unit(X_r)))
    th_phi = math.acos(float(specfun.clamp_unit(X_phi)))
    c, d = params.k.c, params.k.d
    return (c * th_r + d * th_phi, -c * th_r + d * th_phi)


def _candidate_delta1(params: DCParams, E, A, point: PhasePoint, t0=0.0):
    Q = params.Q
    D1 = Q * Q + 4.0 * A * E
    X_t = (-2.0 * E * point.q1 - Q) / math.sqrt(D1)
    W = max(E * point.q1 ** 2 + Q * point.q1 - A, 0.0)
    sign = 1.0 if point.p1 >= 0.0 else -1.0
    base = math.asin(float(specfun.clamp_unit(-X_t)))
    nu = (-E) ** 1.5
    out = []
    for target in (base, math.pi - base):
        out.append((target - 2.0 * sign * math.sqrt(-E) * math.sqrt(W) / Q) * Q / (4.0 * nu) - t0)
    return tuple(out)


def orbit_constants_from_point(params: DCParams, point: PhasePoint,
                               validation_fraction: float = 0.06,
                               integrator_tol: float = 1e-12) -> OrbitConstants:
    """Extract (E, A, delta1, delta2, C) from one phase point of a bounded orbit.

    Branches of the inverse trig constants are fixed by a two-candidate
    trial at the point, validated against a second sample a short
    integration step away.
    """
    E = hamiltonian(point, params)
    A = angular_invariant(point, params)
    report = validate_bounded(params, E, A)
    if not report.all_passed:
        raise DomainError(f"point fails bounded-motion rows: {report.failed()}")

    T_r = radial_period_closed_form(params.Q, E)
    tau = validation_fraction * T_r
    probe = integrate(params, point, tau, tol=integrator_tol)
    later = probe.point(probe.n_samples - 1)
    t_later = float(probe.t[-1])

    c, d = params.k.c, params.k.d
    sqrtA = math.sqrt(A)

    branch_later = 1 if later.p2 >= 0.0 else -1
    best_C, best_res = None, math.inf
    for cand in _candidate_C(params, E, A, point):
        consts = OrbitConstants(E=E, A=A, delta1=0.0, delta2=0.0, C=cand)
        res = abs(orbit_residual(params, consts, later.q1, later.q2, branch=branch_later))
        if res < best_res:
            best_C, best_res = cand, res
    if best_res > 1e-4:
        raise BranchError(f"no branch of C fits the orbit (best residual {best_res})")

    sign_later = 1 if later.p1 >= 0.0 else -1
    best_d1, best_res1 = None, math.inf
    for cand in _candidate_delta1(params, E, A, point):
        consts = OrbitConstants(E=E, A=A, delta1=cand, delta2=0.0, C=best_C)
        res = abs(time_equation_residual(params, consts, t_later, later.q1, sign_later))
        if res < best_res1:
            best_d1, best_res1 = cand, res
    if best_res1 > 1e-4:
        raise BranchError(f"no branch of delta1 fits the orbit (best residual {best_res1})")

    delta2 = ((c + d) * math.pi / 2.0 - best_C) / (2.0 * sqrtA * c)
    return OrbitConstants(E=E, A=A, delta1=best_d1, delta2=delta2, C=best_C)
