"""Time integration, period and closure detection, and closed-form orbit residuals.

The integrator is the adaptive 8th-order embedded explicit pair DOP853
(Hairer, Norsett and Wanner, Solving ODEs I, II.5-II.6) with its step
controller; symplecticity is not needed because runs are short and energy
drift is monitored on every trajectory.  `integrate` runs its own DOP853
stage loop on Python floats, up to a budget of _MAX_STEPS accepted steps,
and keeps each step's stage derivatives that the dense output reads.  Once
the loop has reached the end time, one pass computes every step's
dense-output coefficients in blocks of steps, as array arithmetic that
rounds as the scalar loop would; `StackedDense` evaluates the stacked
interpolant at any array of times in one pass.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import BranchError, DegenerateOrbitError, DomainError, IntegrationError
from .systems import (
    DCParams,
    PhasePoint,
    _energy,
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

# The DOP853 tableau of Hairer, Norsett and Wanner (Solving ODEs I, II.5-II.6).
# Stage s starts from y + h sum_j _A[s][j] K[j] at time t + _C[s] h (the
# equations are autonomous, so _C only documents the nodes).  Stages 0-11
# make the step, stage 12 is the derivative at its end, so _A[12] holds the
# weights of the 8th-order solution, and stages 13-15 serve only the dense
# output.  _E5 and _E3 weigh the 5th- and 3rd-order error estimates, and _D
# gives the interpolant coefficients F[3:].
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
        0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987
    ),
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0
)
_D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564
    ),
)
_B = _A[12]


def _nonzero(row):
    return tuple((j, c) for j, c in enumerate(row) if c != 0.0)


# the same weights as (stage, weight) pairs without the zeros, as the stage loop reads them
_A_NZ = tuple(_nonzero(row) for row in _A)
_B_NZ, _E3_NZ, _E5_NZ = _nonzero(_B), _nonzero(_E3), _nonzero(_E5)
_D_NZ = tuple(_nonzero(row) for row in _D)
# The step stages the dense output reads (stages 1-4 have zero weight in
# _A[13:] and _D), kept per accepted step for the pass after the loop, and
# the steps that pass combines per block: 512 was the fastest block size
# measured, and its arrays take under half a megabyte where one block of a
# whole long run would double the run's peak memory.
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12)
_DENSE_BLOCK = 512

# Step control: the step-size ratio is SAFETY err^(-1/8), kept within
# [MIN_FACTOR, MAX_FACTOR] (8 = order of the error estimator + 1); the
# initial step takes the same exponent.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_NAN4 = (math.nan,) * 4


class StackedDense:
    """DOP853 dense output of every accepted step, from stacked coefficients.

    Step i spans [t[i], t[i+1]], starts at y[i] and has the coefficients
    F[:, i] (F has shape (7, steps, 4)).  A time goes to the first step whose
    right end is not below it, times outside [t[0], t[-1]] extrapolate the
    first or last step, and the interpolant is summed in the Horner order of
    Hairer, Norsett and Wanner (Solving ODEs I, II.6).  Step choice and sums
    follow the reference DOP853 dense output, whose values the tests match
    bit for bit.  A scalar time gives shape (4,), a 1-D array of n times
    shape (4, n).
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
    of H from its initial value over the accepted steps.  nfev counts the
    right-hand-side evaluations and rejected the rejected step attempts.
    """

    params: object
    chart: str
    t: np.ndarray
    y: np.ndarray
    dense: object
    steps: int
    max_energy_drift: float
    tol: float
    nfev: int
    rejected: int

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


def _initial_step(f, y, f0, interval, rtol, atol):
    """First step size by the rule of Hairer, Norsett and Wanner (Solving ODEs I, II.4)."""
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = _rms([yi / s for yi, s in zip(y, scale)])
    d1 = _rms([fi / s for fi, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = f(*[yi + h0 * fi for yi, fi in zip(y, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100.0 * h0, h1, interval)


def _rms(v) -> float:
    """Root mean square of the four components of v."""
    return math.sqrt(sum(x * x for x in v)) / 2.0


def integrate(params, initial: PhasePoint, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate Hamilton's equations from an interior point up to t_end > 0.

    Raises IntegrationError, carrying the last accepted state, when the step
    size falls below ten float spacings at t or _MAX_STEPS steps end short of
    t_end.  A state off the domain of the Hamiltonian has a NaN derivative,
    so a step that reaches one is rejected and shrunk until one of the two
    happens.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"integration tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"integration end time {t_end} must be finite and positive")
    hamiltonian(initial, params)  # validates chart and interiorness
    chart = initial.chart
    t_end = float(t_end)
    rtol, atol = max(tol, 3e-14), tol  # DOP853 floor

    def f(q1, q2, p1, p2):
        try:
            g = _gradient(params, q1, q2, p1, p2)
        except (DomainError, ArithmeticError):
            return _NAN4
        return g[2], g[3], -g[0], -g[1]

    K = [_NAN4] * 16  # K[s]: the derivative of stage s

    def combine(weights):
        """sum_j w_j K[j] over the (j, w_j) pairs, per component."""
        d0 = d1 = d2 = d3 = 0.0
        for j, w in weights:
            k0, k1, k2, k3 = K[j]
            d0 += w * k0
            d1 += w * k1
            d2 += w * k2
            d3 += w * k3
        return d0, d1, d2, d3

    def step(t, y, h_abs):
        """(t_new, y_new, next step size) of one accepted step, or None if h gets too small."""
        nonlocal nfev, rejected
        y0, y1, y2, y3 = y
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        was_rejected = False
        while h_abs >= min_step:  # False for a NaN step size too
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            for s in range(1, 12):
                d0, d1, d2, d3 = combine(_A_NZ[s])
                K[s] = f(y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
            y_new = tuple(yi + h * bi for yi, bi in zip(y, combine(_B_NZ)))
            K[12] = f(*y_new)
            nfev += 12
            n5 = n3 = 0.0
            for yi, yni, e5, e3 in zip(y, y_new, combine(_E5_NZ), combine(_E3_NZ)):
                scale = atol + max(abs(yi), abs(yni)) * rtol
                e5, e3 = e5 / scale, e3 / scale
                n5 += e5 * e5
                n3 += e3 * e3
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                            _SAFETY * err ** _ERROR_EXPONENT)
                return t_new, y_new, h * (min(1.0, factor) if was_rejected else factor)
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            was_rejected = True
            rejected += 1
        return None

    t, y = 0.0, tuple(initial.as_array().tolist())
    K[0] = f(*y)
    h_abs = _initial_step(f, y, K[0], t_end, rtol, atol)
    nfev, rejected = 2, 0  # f at y and the initial-step probe
    # flat float buffers: a tuple per step would hold several times the memory;
    # Ks keeps each accepted step's derivatives of _DENSE_STAGES, in that order
    ts, ys, Ks = array("d", [t]), array("d", y), array("d")
    for _ in range(_MAX_STEPS):
        accepted = step(t, y, h_abs)
        if accepted is None:
            message = "step size fell below ten float spacings"
            break
        t, y, h_abs = accepted
        ts.append(t)
        ys.extend(y)
        Ks.fromlist([*K[0], *K[5], *K[6], *K[7], *K[8], *K[9], *K[10], *K[11], *K[12]])
        K[0] = K[12]
        if t >= t_end:
            break
    else:
        message = f"step budget of {_MAX_STEPS} steps spent before t = {t_end}"
    if t < t_end:
        raise IntegrationError(f"integration stopped at t = {t}: {message}",
                               t_last=t, state_last=PhasePoint(*y, chart))

    steps = len(ts) - 1
    t, y = np.frombuffer(ts), np.frombuffer(ys).reshape(steps + 1, 4)
    F = _dense_coefficients(f, t, y, np.frombuffer(Ks).reshape(steps, len(_DENSE_STAGES), 4))
    nfev += 3 * steps  # stages 13-15 of every step
    del Ks  # the stage buffer is the largest array; the drift pass below needs it no more
    h = np.array([_energy(params, *row) for row in y.tolist()])
    scale = max(abs(h[0]), 1e-12)
    drift = float(np.max(np.abs(h - h[0])) / scale)
    return Trajectory(params=params, chart=chart, t=t, y=y.T, dense=StackedDense(t, y, F),
                      steps=steps, max_energy_drift=drift, tol=tol, nfev=nfev,
                      rejected=rejected)


def _dense_coefficients(f, t, y, K):
    """The (7, steps, 4) dense-output coefficients F of every accepted step.

    Step i spans [t[i], t[i+1]] from y[i]; K[i] holds its derivatives of
    _DENSE_STAGES.  Blocks of _DENSE_BLOCK steps are combined as arrays: the
    inputs of stages 13-15, their derivatives through the scalar f, and the
    seven rows of F.  Every sum adds the same products in the same stage
    order as the scalar step would, and numpy's elementwise * and + round as
    Python floats do, so F is the scalar loop's to the last bit.
    """
    steps = t.size - 1
    F = np.empty((7, steps, 4))
    for a in range(0, steps, _DENSE_BLOCK):
        b = min(a + _DENSE_BLOCK, steps)
        y0, h = y[a:b], (t[a + 1:b + 1] - t[a:b])[:, None]
        # one contiguous (n, 4) array per stage
        block = K[a:b].transpose(1, 0, 2).copy()
        stage = dict(zip(_DENSE_STAGES, block))

        def combine(weights):
            """sum_j w_j K_j over the (j, w_j) pairs, in order, from 0.0 as the scalar sum."""
            acc = np.zeros_like(y0)
            for j, w in weights:
                acc += w * stage[j]
            return acc

        for s in (13, 14, 15):
            inputs = y0 + combine(_A_NZ[s]) * h
            stage[s] = np.array([f(*row) for row in inputs.tolist()])
        dy = np.subtract(y[a + 1:b + 1], y0, out=F[0, a:b])
        np.subtract(h * stage[0], dy, out=F[1, a:b])
        np.subtract(2.0 * dy, h * (stage[12] + stage[0]), out=F[2, a:b])
        for row, weights in enumerate(_D_NZ, start=3):
            np.multiply(h, combine(weights), out=F[row, a:b])
    return F


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
    # one clamp per argument; the recurrence then takes them as they are
    X_r = specfun.clamp_unit(X_r, eps=clamp_eps)
    X_phi = specfun.clamp_unit(X_phi, eps=clamp_eps)
    cheb = specfun.chebyshev_recurrence
    base = -cheb(c, X_r) + math.cos(consts.C) * cheb(d, X_phi)
    wing = (math.sin(consts.C) * cheb(d - 1, X_phi, second_kind=True)
            * np.sqrt(1.0 - X_phi * X_phi))
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
