"""Time integration, period and closure detection, and closed-form orbit residuals.

The integrator is the adaptive 8th-order embedded explicit pair DOP853
(Hairer, Norsett and Wanner, Solving ODEs I, II.5-II.6) with its step
controller; symplecticity is not needed because runs are short.  H drift
is checked where H is read: the `trajectory` criterion, `conserve`'s
drift_H and invariants.conservation_rows.  `_step_loop` runs DOP853 on
Python floats, up to _MAX_STEPS accepted steps, and keeps each step's
stage derivatives that the dense output reads; the right-hand side is the
system's Hamilton kernel (systems.hamilton_kernel), built once per
integration with its constants folded.  The twelve stages, the 8th-order
update and the error sums of a step are straight-line float code,
generated from the tableau on the first integration, adding the same
products in the same order as a loop over the tableau.  `integrate`
returns after the loop: `StackedDense` computes a step's dense-output
coefficients when a read first touches it, in blocks of array arithmetic
rounding as the scalar loop would, and evaluates them at any array of
times in one pass.  The maxima of the radius are the zeros where p1 turns
negative, bracketed by the accepted steps and closed by regula falsi on
the dense output (radial_maxima_times).
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DegenerateOrbitError, DomainError, IntegrationError
from .systems import (
    DCParams,
    PhasePoint,
    Shell,
    energy_and_invariant,
    hamilton_kernel,
    hamiltonian,
    radial_period_closed_form,  # re-exported: perfbench and the scripts call dynamics.<name>
    radial_turning_points,  # re-exported, as above
    validate_bounded,
)

TOL_MIN, TOL_MAX = 1e-14, 1e-3
# Accepted steps one integration, or one closure search over all its periods,
# may take (the test suite's longest run, its 200-period memory test, takes
# 19,186); past it they raise, so no run grows without bound.
_MAX_STEPS = 100_000

# The DOP853 tableau of Hairer, Norsett and Wanner (Solving ODEs I, II.5-II.6).
# Stage s starts from y + h sum_j _A[s][j] K[j] (the equations are
# autonomous, so the nodes, the row sums of _A, are not needed).  Stages 0-11
# make the step, stage 12 is the derivative at its end, so _A[12] holds the
# weights of the 8th-order solution, and stages 13-15 serve only the dense
# output.  _E5 and _E3 weigh the 5th- and 3rd-order error estimates, and _D
# gives the interpolant coefficients F[3:].
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


# the same weights as (stage, weight) pairs without the zeros, as the generated step
# code and the dense-output pass read them
_A_NZ = tuple(_nonzero(row) for row in _A)
_B_NZ, _E3_NZ, _E5_NZ = _nonzero(_B), _nonzero(_E3), _nonzero(_E5)
_D_NZ = tuple(_nonzero(row) for row in _D)
# The step stages the dense output reads (stages 1-4 have zero weight in
# _A[13:] and _D), kept per accepted step for the dense output, and the
# steps it builds per block: 512 was the fastest block size measured, and
# its arrays take under half a megabyte where one block of a whole long run
# would double the run's peak memory.
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12)
_DENSE_BLOCK = 512

# Step control: the step-size ratio is SAFETY err^(-1/8), kept within
# [MIN_FACTOR, MAX_FACTOR] (8 = order of the error estimator + 1); the
# initial step takes the same exponent.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


@functools.cache
def _straight_line_stages():
    """The arithmetic of one DOP853 step as straight-line float code, compiled once.

    Returns bind(f, atol, rtol) -> stages(h, y0, y1, y2, y3, K0), which
    gives ((z0, z1, z2, z3), n5, n3, ks) for the step of size h from y with
    first-stage derivative K0: z is the 8th-order solution, n5 and n3 are
    the squared scaled norms of the 5th- and 3rd-order error estimates, and
    ks holds the derivatives of _DENSE_STAGES in that order (stage 12, the
    derivative at z, last).

    Stage s is one function of the derivatives its row of the tableau reads,
    each a 4-tuple as f returns it; `finish` forms z, its derivative and
    the error norms.  A single function for the whole step runs about 5%
    faster, but under tracemalloc each traced allocation finds its line by
    scanning the function's code from the start, and the memory test of a
    long run took about fifteen times as long.

    The source is written from _A_NZ, _B_NZ, _E5_NZ and _E3_NZ, so the
    tableau stays the one copy of the coefficients.  Every sum adds the
    same products in the same stage order from 0.0 as a loop over the
    (stage, weight) pairs, so the values are that loop's to the last bit.
    It is built on the first integration, so nothing else pays for it.
    """
    def weighted(pairs, c):
        return "(0.0" + "".join(f" + {w!r} * k{j}_{c}" for j, w in pairs) + ")"

    def function(name, reads, body):
        args = ", ".join(f"K{j}" for j in reads)
        return ([f"def {name}(h, y0, y1, y2, y3, {args}):"]
                + [f"    k{j}_0, k{j}_1, k{j}_2, k{j}_3 = K{j}" for j in reads]
                + [f"    {line}" for line in body])

    source, calls = [], []
    for s in range(1, 12):
        reads = [j for j, _ in _A_NZ[s]]
        inputs = ", ".join(f"y{c} + {weighted(_A_NZ[s], c)} * h" for c in range(4))
        source += function(f"stage{s}", reads, [f"return f({inputs})"])
        calls.append(f"K{s} = stage{s}(h, y0, y1, y2, y3, {', '.join(f'K{j}' for j in reads)})")
    body = [f"z{c} = y{c} + h * {weighted(_B_NZ, c)}" for c in range(4)]
    body += ["K12 = f(z0, z1, z2, z3)", "n5 = n3 = 0.0"]
    for c in range(4):
        # max(abs(y), abs(z)) written out, which spares three builtin calls
        body += [f"a = y{c} if y{c} >= 0.0 else -y{c}", f"b = z{c} if z{c} >= 0.0 else -z{c}",
                 "scale = atol + (b if b > a else a) * rtol",
                 f"e5 = {weighted(_E5_NZ, c)} / scale",
                 f"e3 = {weighted(_E3_NZ, c)} / scale",
                 "n5 += e5 * e5",
                 "n3 += e3 * e3"]
    body.append(f"return (z0, z1, z2, z3), n5, n3, [{', '.join(f'*K{j}' for j in _DENSE_STAGES)}]")
    reads = sorted({j for j, _ in _B_NZ + _E5_NZ + _E3_NZ} | set(_DENSE_STAGES[:-1]))
    source += function("finish", reads, body)
    calls.append(f"return finish(h, y0, y1, y2, y3, {', '.join(f'K{j}' for j in reads)})")
    source += ["def stages(h, y0, y1, y2, y3, K0):"] + [f"    {line}" for line in calls]
    source = ("def bind(f, atol, rtol):\n" + "".join(f"    {line}\n" for line in source)
              + "    return stages\n")
    namespace = {}
    exec(compile(source, "<DOP853 stages>", "exec"), namespace)
    return namespace["bind"]


class StackedDense:
    """DOP853 dense output of every accepted step, each step's coefficients built on first read.

    Step i spans [t[i], t[i+1]], starts at y[i] and has the coefficients
    F[:, i] (F has shape (7, steps, 4)); coefficients(idx) gives them for an
    index array of steps, shape (7, len(idx), 4).  A step is built when a
    read first touches it: an array read builds its touched, unbuilt steps
    in one pass of _DENSE_BLOCK-step blocks, and a scalar read of an unbuilt
    step builds every remaining one.  A step built alone pays the array
    set-up of a whole block, about 25 times its share of a full block, so
    building the rest costs less as soon as a run's scalar reads touch one
    step in 25.  F is allocated by the first read; once every step is built,
    coefficients is dropped, and with it the stage buffer (288 bytes a step)
    it reads.

    A time goes to the first step whose right end is not below it, times
    outside [t[0], t[-1]] extrapolate the first or last step, and the
    interpolant is summed in the Horner order of Hairer, Norsett and Wanner
    (Solving ODEs I, II.6).  Step choice and sums follow the reference
    DOP853 dense output, whose values the tests match bit for bit.  A
    scalar time gives shape (4,), a 1-D array of n times shape (4, n).
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, coefficients):
        self._t, self._y, self._coefficients = t, y, coefficients
        self._F = None  # allocated by the first read: an unread run holds no coefficients
        self._built = np.zeros(t.size - 1, dtype=bool)
        self._h = np.diff(t)
        # counting the inner breakpoints below a time gives its step, already
        # clipped to the first and last
        self._inner = t[1:-1]
        self._t_list = None  # t as floats for the scalar path, made on its first read

    def _build(self, touched: np.ndarray) -> None:
        """Build the steps the boolean mask touched marks that are not built yet."""
        if self._F is None:
            self._F = np.empty((7, self._built.size, 4))
        touched[self._built] = False
        idx = np.flatnonzero(touched)
        for a in range(0, idx.size, _DENSE_BLOCK):
            part = idx[a:a + _DENSE_BLOCK]
            self._F[:, part] = self._coefficients(part)
        self._built[idx] = True
        if self._built.all():
            self._coefficients = None

    def __call__(self, t):
        # a float (np.float64 is one) skips np.ndim, which costs more than the sums
        if isinstance(t, float) or np.ndim(t) == 0:
            return self._at(float(t))
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("times must be a scalar or a 1-D array")
        # seg lies in [0, steps - 1], so mode="clip" moves no index; it only
        # spares np.take its buffered bounds check
        seg = np.searchsorted(self._inner, t, side="left")
        if self._coefficients is not None:
            touched = np.zeros(self._built.size, dtype=bool)
            touched[seg] = True
            self._build(touched)
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
        if self._t_list is None:
            self._t_list = self._t.tolist()
        ts = self._t_list
        s = bisect.bisect_left(ts, t, 1, len(ts) - 1) - 1
        if self._coefficients is not None and not self._built[s]:
            self._build(~self._built)
        x = (t - ts[s]) / (ts[s + 1] - ts[s])
        a = b = c = d = 0.0
        # stages 6, 5, ..., 0 take the weights x, 1 - x, x, ..., x
        for w, (f0, f1, f2, f3) in zip((x, 1.0 - x) * 4, reversed(self._F[:, s].tolist())):
            a, b, c, d = (a + f0) * w, (b + f1) * w, (c + f2) * w, (d + f3) * w
        y0, y1, y2, y3 = self._y[s].tolist()
        return np.array([a + y0, b + y1, c + y2, d + y3])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated orbit: accepted steps plus a dense interpolant.

    t is strictly increasing; y has shape (4, len(t)) in chart order
    (q1, q2, p1, p2), with no energy check.  nfev counts the right-hand-side
    evaluations of the integration and rejected the rejected step attempts;
    the three dense-output stages of a step are evaluated when a read first
    touches it (StackedDense), outside nfev.
    """

    params: object
    chart: str
    t: np.ndarray
    y: np.ndarray
    dense: object
    steps: int
    rejected: int

    @property
    def nfev(self) -> int:  # f(y0), the initial-step probe, 12 per try
        return 2 + 12 * (self.steps + self.rejected)

    def point(self, i: int) -> PhasePoint:
        q1, q2, p1, p2 = self.y[:, i]
        return PhasePoint(float(q1), float(q2), float(p1), float(p2), self.chart)

    def at_time(self, t: float) -> PhasePoint:
        return PhasePoint(*self.dense(t).tolist(), self.chart)


@dataclass(frozen=True)
class OrbitConstants:
    """Separation constants and phases fixing one bounded orbit.

    shell is the Shell that systems.validate_bounded returned for (E, A);
    the orbit formulas read its discriminants D1 = Q^2 + 4AE and D2, the
    radial turning points r1 <= r2 and the radial period T_r from it.
    C is the phase of the orbit equation and delta1 that of the radial time
    law -X_t = sin(4 (-E)^{3/2} (t + delta1) / Q + 2 sqrt(-E) r p_r / Q),
    X_t = (-2 E r - Q) / sqrt(D1).  Read off the state x(t) of one orbit,
    C stays fixed (mod 2 pi) and delta1(x(t)) = delta1(x(0)) + t (mod T_r).
    """

    E: float
    A: float
    shell: Shell
    delta1: float
    C: float


@dataclass(frozen=True)
class ClosureReport:
    """A closure search read at whole radial periods (see closure_check).

    (r, p_r) has the exact period T_r, so the state can return only at
    n T_r: n_radial is the first n within tol (closed), else the n of least
    return_distance; period_total is n_radial T_r, an identity; and the
    steps of all periods share one budget.
    """

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

    It returns after the step loop: the dense output builds a step's
    coefficients from the kept stage derivatives when a read first touches
    it (StackedDense), so steps no read touches cost nothing more.
    """
    f, t, y, Ks, rejected = _step_loop(params, initial, t_end, tol)
    steps = t.size - 1
    K = np.frombuffer(Ks).reshape(steps, len(_DENSE_STAGES), 4)
    dense = StackedDense(t, y, functools.partial(_dense_coefficients, f, t, y, K))
    return Trajectory(params=params, chart=initial.chart, t=t, y=y.T, dense=dense,
                      steps=steps, rejected=rejected)


def _step_loop(params, initial: PhasePoint, t_end: float, tol: float):
    """integrate's checks and DOP853 loop, no dense output: (f, t, y, Ks, rejected).

    f is the Hamilton kernel, y has shape (steps + 1, 4), and Ks is the flat
    buffer of each step's derivatives of _DENSE_STAGES, in that order.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"integration tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"integration end time {t_end} must be finite and positive")
    hamiltonian(initial, params)  # validates chart and interiorness
    t_end = float(t_end)
    rtol, atol = max(tol, 3e-14), tol  # DOP853 floor

    f = hamilton_kernel(params)
    stages = _straight_line_stages()(f, atol, rtol)

    def step(t, y, k0, h_abs):
        """(t_new, y_new, stage derivatives, next step size) of one accepted step, or None
        once the step size falls below ten float spacings at t."""
        nonlocal rejected
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        was_rejected = False
        while h_abs >= min_step:  # False for a NaN step size too
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            y_new, n5, n3, ks = stages(h, *y, k0)
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                            _SAFETY * err ** _ERROR_EXPONENT)
                return t_new, y_new, ks, h * (min(1.0, factor) if was_rejected else factor)
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            was_rejected = True
            rejected += 1
        return None

    t, y = 0.0, tuple(initial.as_array().tolist())
    k0 = f(*y)
    h_abs = _initial_step(f, y, k0, t_end, rtol, atol)
    rejected = 0
    # flat float buffers: a tuple per step would hold several times the memory
    ts, ys, Ks = array("d", [t]), array("d", y), array("d")
    for _ in range(_MAX_STEPS):
        accepted = step(t, y, k0, h_abs)
        if accepted is None:
            message = "step size fell below ten float spacings"
            break
        t, y, ks, h_abs = accepted
        ts.append(t)
        ys.extend(y)
        Ks.fromlist(ks)
        k0 = ks[-4:]  # stage 12, the derivative at the step's end
        if t >= t_end:
            break
    else:
        message = f"step budget of {_MAX_STEPS} steps spent before t = {t_end}"
    if t < t_end:
        raise IntegrationError(f"integration stopped at t = {t}: {message}",
                               t_last=t, state_last=PhasePoint(*y, initial.chart))
    return f, np.frombuffer(ts), np.frombuffer(ys).reshape(len(ts), 4), Ks, rejected


def _dense_coefficients(f, t, y, K, idx):
    """The (7, len(idx), 4) dense-output coefficients F of the accepted steps idx.

    Step i spans [t[i], t[i+1]] from y[i]; K[i] holds its derivatives of
    _DENSE_STAGES.  The steps are combined as arrays: the inputs of stages
    13-15, their derivatives through the scalar f, and the seven rows of F.
    Every sum adds the same products in the same stage order as the scalar
    step would, and numpy's elementwise * and + round as Python floats do,
    so F is the scalar loop's to the last bit, whichever steps idx holds.
    """
    y0, y1 = y[idx], y[idx + 1]
    h = (t[idx + 1] - t[idx])[:, None]
    # one contiguous (n, 4) array per stage
    stage = dict(zip(_DENSE_STAGES, K[idx].transpose(1, 0, 2).copy()))

    def combine(weights):
        """sum_j w_j K_j over the (j, w_j) pairs, in order, from 0.0 as the scalar sum."""
        acc = np.zeros_like(y0)
        for j, w in weights:
            acc += w * stage[j]
        return acc

    for s in (13, 14, 15):
        inputs = y0 + combine(_A_NZ[s]) * h
        stage[s] = np.array([f(*row) for row in inputs.tolist()])
    F = np.empty((7, idx.size, 4))
    dy = np.subtract(y1, y0, out=F[0])
    np.subtract(h * stage[0], dy, out=F[1])
    np.subtract(2.0 * dy, h * (stage[12] + stage[0]), out=F[2])
    for row, weights in enumerate(_D_NZ, start=3):
        np.multiply(h, combine(weights), out=F[row])
    return F


def radial_maxima_times(traj: Trajectory) -> np.ndarray:
    """Times of the local maxima of q1(t), as the zeros where p1 turns negative.

    Hamilton's equations give q1' = 2 p1, so each maximum lies in an
    accepted step whose p1 is > 0 at its start and <= 0 at its end: the
    integrator's own states bracket it, and no scan is needed.  All brackets
    close together by Illinois regula falsi on the dense p1(t) (Dowell and
    Jarratt, BIT 11 (1971) 168), each until a round moves neither of its
    ends, for at most 40 rounds.  p1 crosses zero with a nonzero slope, so
    its root is sharp, while the top of q1 is flat to roundoff over a band of
    times no search can narrow.
    """
    q1, p1 = traj.y[0], traj.y[2]
    if (q1.max() - q1.min()) / max(abs(q1.max()), 1e-300) < 1e-6:
        raise DegenerateOrbitError("radial coordinate is constant; no oscillation to measure")
    i = np.flatnonzero((p1[:-1] > 0.0) & (p1[1:] <= 0.0))
    peaks = traj.t[i + 1]
    active = np.arange(i.size)
    # fa > 0 >= fb throughout; last is +1 when a bracket's last round moved a, -1 when b
    a, b, fa, fb, last = traj.t[i], peaks.copy(), p1[i], p1[i + 1], np.zeros(i.size)
    for _ in range(40):
        if active.size == 0:
            break
        c = np.clip(b - fb / (fb - fa) * (b - a), a, b)
        peaks[active] = c
        fc = traj.dense(c)[2]
        left = fc > 0.0
        moved = np.where(left, c != a, c != b)
        # Illinois: an end kept for a second round in a row has its value halved
        fa = np.where(~left & (last < 0.0), 0.5 * fa, fa)
        fb = np.where(left & (last > 0.0), 0.5 * fb, fb)
        a, fa = np.where(left, c, a), np.where(left, fc, fa)
        b, fb = np.where(left, b, c), np.where(left, fb, fc)
        last = np.where(left, 1.0, -1.0)
        active, a, b, fa, fb, last = (x[moved] for x in (active, a, b, fa, fb, last))
    return peaks


def measure_radial_period(traj: Trajectory) -> float:
    """Mean spacing of successive maxima of q1(t)."""
    peaks = radial_maxima_times(traj)
    if peaks.size < 2:
        raise DegenerateOrbitError("need at least two radial maxima to measure a period")
    return float(np.mean(np.diff(peaks)))


def closure_check(params: DCParams, initial: PhasePoint, max_radial_periods: int,
                  tol: float, integrator_tol: float = 1e-12) -> ClosureReport:
    """Read the return to the start at each radial period's end, n = 1, ..., max_radial_periods.

    With A = p_phi^2 + B conserved, (r, p_r) is a one-dimensional Kepler
    motion of exact period T_r = Q pi / (2 (-E)^(3/2)), the T_r of the
    gate's shell, so the state can return only at t = n T_r.  Each pass
    runs the step loop of integrate over exactly T_r from the previous
    pass's last accepted state and scores its end state, so no stretch of
    orbit is integrated twice, and no dense output, Trajectory or energy
    pass is built.  The loop stops at the first n below tol, else reports
    the n of least distance, with period_total = n T_r; no pass at all
    reports n_radial = 0 at distance inf.  It never reads the predicted
    first return (d periods for k = c/d).

    The return metric is the Euclidean distance in (r, phi mod 2 pi/k, p_r,
    p_phi), each scaled by its largest magnitude along the orbit so far, p_r
    by the largest speed sqrt(p_r^2 + p_phi^2 / r^2) and phi by the period
    2 pi/k, so a start at a turning point or on a circle is measured like any
    other.  The steps of all periods count against one _MAX_STEPS budget;
    past it IntegrationError carries the absolute time and state.
    """
    T_r = validate_bounded(params, *energy_and_invariant(initial, params)).T_r
    period_phi = 2.0 * math.pi / params.k.value
    y0 = initial.as_array()
    scales = np.abs(y0)
    best = ClosureReport(closed=False, n_radial=0, return_distance=math.inf, period_total=0.0)
    point, steps = initial, 0
    for n in range(1, max_radial_periods + 1):
        _, _, y, _, _ = _step_loop(params, point, T_r, integrator_tol)
        point, steps = PhasePoint(*y[-1].tolist(), initial.chart), steps + len(y) - 1
        if steps > _MAX_STEPS:
            raise IntegrationError(
                f"integration stopped at t = {n * T_r}: step budget of {_MAX_STEPS} steps "
                f"spent before t = {max_radial_periods * T_r}", t_last=n * T_r, state_last=point)
        scales = np.maximum(scales, np.max(np.abs(y), axis=0))
        scales[1] = period_phi
        scales[2] = max(scales[2], np.max(np.hypot(y[:, 2], y[:, 3] / y[:, 0])))
        dy = y[-1] - y0
        dy[1] -= period_phi * np.round(dy[1] / period_phi)
        distance = float(np.linalg.norm(dy / scales))
        if distance < best.return_distance:
            best = ClosureReport(closed=distance < tol, n_radial=n, return_distance=distance,
                                 period_total=n * T_r)
        if best.closed:
            break
    return best


# --- closed-form trajectory equations -------------------------------------

def _arcsin_arguments(params: DCParams, A, shell: Shell, r, phi):
    """The pair (X_r, X_phi) entering the orbit and phase equations.

    D1 and D2 are the shell's discriminants, both > 0.
    The angular argument carries k^2 (alpha - beta) / 4; turning-point
    algebra forces this sign (X_phi = +-1 exactly at u = u1, u2).
    """
    k = params.k.value
    X_r = (2.0 * A - params.Q * r) / (r * math.sqrt(shell.D1))
    s = np.sin(0.5 * k * phi)
    s2 = s * s  # a numpy float's ** 2 is pow, which may round unlike an array's square
    X_phi = (2.0 * A * s2 - A + k * k * (params.alpha - params.beta) / 4.0) / math.sqrt(shell.D2)
    return X_r, X_phi


def orbit_residual(params: DCParams, consts: OrbitConstants, r, phi):
    """Residual of the implicit orbit equation linking r and phi.

    The square-root factor in the closed form carries the sign of p_phi,
    which flips at every angular turning point; a position alone does not
    fix it, so the residual takes the sign of smaller magnitude and
    vanishes along the whole orbit fixed by consts, whose shell's D1 and
    D2 it reads.  The function is exactly periodic in phi with period 2 pi / k.
    T_c takes any X_r, and the angular root takes the positive part of its
    radicand, so a sample that state error puts just past an angular
    turning point reads as at it.  A point off the radial annulus reads
    |residual| >= T_c(|X_r|) - 1 > 0, and NaN stays NaN.  Operators and
    ufuncs apply to r and phi as given: floats give a float, arrays an
    array of the same values.  r must be positive: at r = 0 a float
    divides by zero (ZeroDivisionError), while an array reads X_r = inf
    there, so -inf for c <= 2 and NaN from c = 3 on.
    """
    c, d = params.k.c, params.k.d
    X_r, X_phi = _arcsin_arguments(params, consts.A, consts.shell, r, phi)
    cheb = specfun.chebyshev_recurrence
    base = -cheb(c, X_r) + math.cos(consts.C) * cheb(d, X_phi)
    radicand = 1.0 - X_phi * X_phi
    wing = (math.sin(consts.C) * cheb(d - 1, X_phi, second_kind=True)
            * np.sqrt(radicand * (radicand > 0.0)))
    # base + wing or base - wing, whichever is smaller in magnitude
    return base - np.copysign(wing, base)


def orbit_constants_from_point(params: DCParams, point: PhasePoint) -> OrbitConstants:
    """Read (E, A, delta1, C) off one phase point of a bounded orbit, at t = 0.

    E = H and A = p_phi^2 + B come from the point, and so does every square
    root of the closed-form laws, as a momentum:
    1 - X_phi^2 = A p_phi^2 sin^2(k phi) / D2, 1 - X_r^2 = 4 A p_r^2 / D1
    and 1 - X_t^2 = -4 E r^2 p_r^2 / D1, where X_t = (-2 E r - Q) / sqrt(D1).
    Each angle is then one atan2 of a cosine and a signed sine, so C and
    delta1 hold on every momentum branch, with no integration and no
    branch trial.  A point failing a bounded-motion row (D1 > 0 among them)
    raises DomainError; the constants carry the gate's shell.
    """
    E, A = energy_and_invariant(point, params)
    shell = validate_bounded(params, E, A)

    Q, k, c, d = params.Q, params.k.value, params.k.c, params.k.d
    r, phi, p_r, p_phi = point.q1, point.q2, point.p1, point.p2
    X_r, X_phi = _arcsin_arguments(params, A, shell, r, phi)
    sqrtA, sqrtD1, sqrtD2 = math.sqrt(A), math.sqrt(shell.D1), math.sqrt(shell.D2)
    C = (d * math.atan2(sqrtA * p_phi * math.sin(k * phi) / sqrtD2, X_phi)
         + c * math.atan2(2.0 * sqrtA * p_r / sqrtD1, X_r))

    radial = 2.0 * math.sqrt(-E) * r * p_r
    X_t = (-2.0 * E * r - Q) / sqrtD1
    delta1 = Q / (4.0 * (-E) ** 1.5) * (math.atan2(-X_t, -radial / sqrtD1) - radial / Q)
    return OrbitConstants(E=E, A=A, shell=shell, delta1=delta1, C=C)


def off_orbit_control(params: DCParams, consts: OrbitConstants, traj: Trajectory) -> float:
    """|orbit residual| at a point off the orbit: the negative control of the orbit equation.

    The sample is the run's state at t = min(0.13 T_r, end of the run), so
    a short run is read at its end, never extrapolated past it.  The control
    point keeps the sample's phi and moves r to the quarter point of
    [r1, r2] farther from it, inside the annulus and off the orbit.
    """
    shell = consts.shell
    s = traj.at_time(min(0.13 * shell.T_r, traj.t[-1]))
    r1, r2 = shell.r1, shell.r2
    r = r1 + 0.25 * (r2 - r1) if s.q1 > 0.5 * (r1 + r2) else r2 - 0.25 * (r2 - r1)
    return abs(orbit_residual(params, consts, r, s.q2))
