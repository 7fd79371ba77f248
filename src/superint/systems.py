"""The two Hamiltonian families, their parameters, and bound-motion algebra.

Both systems use the convention H = p^2 + V (no 1/2 on the kinetic term),
so Hamilton's equations carry a factor 2: qdot = 2p etc.  All dynamics are
phrased in polar charts; the angular barrier walls are hard domain
boundaries and are never crossed.

The families share one angular barrier, B = K (alpha sec^2 u + beta csc^2 u),
and differ only in the radial term V_r (-Q/r or omega^2 rho^2), so
H = p1^2 + (p2^2 + B)/q1^2 + V_r.  The kernels _barrier_kernel and
_radial_kernel are the only code that knows either term, the walls or the
DC/TTW difference.  Each builds a closure with one system's constants
folded; Hamilton's equations (hamilton_kernel) are built from those
closures once per integration.  A point evaluation builds the ones it
needs on each call: energy_and_invariant gives H and the angular
invariant L = p2^2 + B from one radial and one barrier evaluation, so
H = p1^2 + L/q1^2 + V_r, and hamiltonian is its H.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, UsageError

DC_CHART = "DC-polar"
TTW_CHART = "TTW-polar"

# below this, a squared wall trig factor counts as "on the wall"
WALL_EPS = 1e-14
# Hamilton's equations off the domain: a step that reaches such a state is rejected
_NAN4 = (math.nan,) * 4


@dataclass(frozen=True)
class RationalIndex:
    """Deformation index k = c/d in lowest terms, c, d positive integers."""

    c: int
    d: int = 1

    def __post_init__(self):
        if not (isinstance(self.c, (int, np.integer)) and isinstance(self.d, (int, np.integer))):
            raise DomainError("rational index needs integer numerator and denominator")
        if self.c < 1 or self.d < 1:
            raise DomainError(f"rational index must be positive, got {self.c}/{self.d}")
        g = math.gcd(int(self.c), int(self.d))
        object.__setattr__(self, "c", int(self.c) // g)
        object.__setattr__(self, "d", int(self.d) // g)

    @property
    def value(self) -> float:
        return self.c / self.d

    @classmethod
    def from_string(cls, text: str) -> "RationalIndex":
        """Parse 'c/d' or a bare integer string."""
        parts = text.strip().split("/")
        if len(parts) == 1:
            return cls(int(parts[0]), 1)
        if len(parts) == 2:
            return cls(int(parts[0]), int(parts[1]))
        raise DomainError(f"cannot parse rational index from {text!r}")

    def __str__(self):
        return f"{self.c}/{self.d}" if self.d != 1 else str(self.c)


@dataclass(frozen=True)
class DCParams:
    """Coulomb strength Q plus two angular barrier couplings on a wedge.

    Bounded classical orbits need Q, alpha, beta > 0; the quantum module
    only needs alpha, beta > -1/4.  Neither is enforced here.
    """

    Q: float
    alpha: float
    beta: float
    k: RationalIndex


@dataclass(frozen=True)
class TTWParams:
    """Oscillator coupling omega^2 plus the same two barrier couplings."""

    omega2: float
    alpha: float
    beta: float
    k: RationalIndex


@dataclass(frozen=True)
class PhasePoint:
    """Polar phase-space state (q1, q2, p1, p2) tagged with its chart."""

    q1: float
    q2: float
    p1: float
    p2: float
    chart: str = DC_CHART

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.p1, self.p2], dtype=float)


def _require_chart(point: PhasePoint, params) -> None:
    family = DC_CHART if isinstance(params, DCParams) else TTW_CHART
    if point.chart != family:
        raise UsageError(f"phase point chart {point.chart!r} does not match {type(params).__name__}")


def _radial_kernel(params):
    """Radial term as a closure q1 -> (V_r, dV_r/dq1): -Q/r for DC, omega^2 rho^2 for TTW.

    The coupling is read once.  Arithmetic only, so a complex step passes;
    q1.real <= 0 raises SingularityError.
    """
    dc = isinstance(params, DCParams)
    c = params.Q if dc else params.omega2
    two_c = 2.0 * c

    def radial(q1):
        if q1.real <= 0.0:
            raise SingularityError("radial coordinate must be positive")
        if dc:
            return -c / q1, c / (q1 * q1)
        return c * q1 * q1, two_c * q1

    return radial


def _barrier_kernel(params, m=math):
    """Angular barrier as a closure q2 -> (B, dB/dq2), B = K (alpha sec^2 u + beta csc^2 u).

    u = k phi / 2 with K = k^2 / 4 in the DC chart, u = k theta with K = k^2
    in the TTW chart; the barrier is the same function of u in both.  The
    products of the constants are folded once, in the order the sums take
    them.  A zero coupling drops its term and with it its wall; a point on
    a wall raises SingularityError.  m is math for real q2 and cmath for a
    complex step.
    """
    s = 0.5 * params.k.value if isinstance(params, DCParams) else params.k.value
    K = s * s
    alpha, beta = params.alpha, params.beta
    aK, bK = alpha * K, beta * K
    daK, dbK = 2.0 * s * alpha * K, 2.0 * s * beta * K
    cos, sin = m.cos, m.sin

    def barrier(q2):
        cu, su = cos(s * q2), sin(s * q2)
        B = dB = 0.0
        if alpha != 0.0:
            c2 = cu * cu
            if abs(c2) < WALL_EPS:
                raise SingularityError("evaluation on a wall of the wedge cell")
            B += aK / c2
            dB += daK * su / (c2 * cu)
        if beta != 0.0:
            s2 = su * su
            if abs(s2) < WALL_EPS:
                raise SingularityError("evaluation on a wall of the wedge cell")
            B += bK / s2
            dB -= dbK * cu / (s2 * su)
        return B, dB

    return barrier


def hamilton_kernel(params):
    """Hamilton's equations of one system as a closure (q1, q2, p1, p2) -> (q1', q2', p1', p2').

    Built once per integration from the radial and barrier kernels.  Off
    the domain (q1 <= 0, a wall) or on an ArithmeticError it gives NaN in
    all four components, so a step that reaches such a state is rejected.
    """
    radial, barrier = _radial_kernel(params), _barrier_kernel(params)

    def rhs(q1, q2, p1, p2):
        try:
            _, dV_r = radial(q1)
            B, dB = barrier(q2)
            inv_q1_2 = 1.0 / (q1 * q1)
            return (2.0 * p1, 2.0 * p2 * inv_q1_2,
                    -(-2.0 * (p2 * p2 + B) * inv_q1_2 / q1 + dV_r), -(dB * inv_q1_2))
        except (DomainError, ArithmeticError):
            return _NAN4

    return rhs


def _math_of(*values):
    """cmath if any value is complex (a complex step), else math."""
    for value in values:
        if isinstance(value, complex):
            return cmath
    return math


def _barrier(params, q2) -> tuple[float, float]:
    """B and dB/dq2 at one angle."""
    return _barrier_kernel(params, _math_of(q2))(q2)


def energy_and_invariant(point: PhasePoint, params) -> tuple[float, float]:
    """(H, L) in the matching chart: L = p2^2 + B and H = p1^2 + L/q1^2 + V_r.

    L is the separation constant of the angular motion, A for DC and L1 for
    TTW.  One radial and one barrier evaluation serve both.
    """
    _require_chart(point, params)
    q1 = point.q1
    V_r, _ = _radial_kernel(params)(q1)
    B, _ = _barrier(params, point.q2)
    L = point.p2 ** 2 + B
    return point.p1 ** 2 + L / (q1 * q1) + V_r, L


def hamiltonian(point: PhasePoint, params) -> float:
    """H = p1^2 + (p2^2 + B)/q1^2 + V_r in the matching chart."""
    return energy_and_invariant(point, params)[0]


@dataclass(frozen=True)
class Shell:
    """The bounded (E, A) shell that validate_bounded passed, and nothing else builds.

    D1 = Q^2 + 4AE and D2 are the radial and angular discriminants, both
    > 0; r1 <= r2 are the radial turning points, u1 <= u2 the bounds of
    cos^2(k phi / 2) in the angular band, and T_r = Q pi / (2 (-E)^(3/2))
    the exact radial period.
    """

    D1: float
    D2: float
    r1: float
    r2: float
    u1: float
    u2: float
    T_r: float


def _radial_discriminant(Q: float, E: float, A: float) -> float:
    """D1 = Q^2 + 4AE, with Q^2 the correctly rounded Q * Q."""
    return Q * Q + 4.0 * A * E


def radial_turning_points(Q: float, E: float, A: float) -> tuple[float, float]:
    """The two roots of E r^2 + Q r - A = 0, ordered r1 <= r2 as -2E > 0."""
    D1 = _radial_discriminant(Q, E, A)
    if D1 <= 0.0:
        raise DomainError(f"no real radial turning points (D1 = {D1})")
    if E >= 0.0:
        raise DomainError("unbounded radial motion (E >= 0)")
    root = math.sqrt(D1)
    return (Q - root) / (-2.0 * E), (Q + root) / (-2.0 * E)


def radial_period_closed_form(Q: float, E: float) -> float:
    """Q pi / (2 (-E)^(3/2)), the exact radial period of the bounded motion."""
    if E >= 0.0:
        raise DomainError("radial motion is unbounded for E >= 0")
    if Q <= 0.0:
        raise DomainError("need Q > 0 for a bounded well")
    return Q * math.pi / (2.0 * (-E) ** 1.5)


def validate_bounded(p: DCParams, E: float, A: float) -> Shell:
    """The one bounded-orbit gate: the Shell of (E, A) if they pass every restriction.

    The rows are checked in a fixed order, and DomainError names every one
    that fails.  On a pass, b = A + k^2 (alpha - beta) / 4 > 0 by the
    angular gap, so u1, u2 are the stable roots q / A and c / q of
    A u^2 - b u + c = 0, c = alpha k^2 / 4, with q = (b + sqrt(D2)) / 2 > 0.
    """
    k2 = p.k.value ** 2
    D1 = _radial_discriminant(p.Q, E, A)
    D2 = (A - k2 * (p.beta + p.alpha) / 4.0) ** 2 - p.alpha * p.beta * k2 * k2 / 4.0
    rows = {
        "D1_positive": D1 > 0.0,
        "Q_positive": p.Q > 0.0,
        "A_positive": A > 0.0,
        "E_negative": E < 0.0,
        "D2_positive": D2 > 0.0,
        "angular_gap": A - k2 * abs(p.beta - p.alpha) / 4.0 > 0.0,
        "beta_positive": p.beta > 0.0,
        "alpha_positive": p.alpha > 0.0,
    }
    failed = [name for name, ok in rows.items() if not ok]
    if failed:
        raise DomainError(f"no bounded orbit: fails the rows {failed}")
    r1, r2 = radial_turning_points(p.Q, E, A)
    q = 0.5 * (A + (p.alpha - p.beta) * k2 / 4.0 + math.sqrt(D2))
    u1, u2 = sorted((p.alpha * k2 / 4.0 / q, q / A))
    return Shell(D1=D1, D2=D2, r1=r1, r2=r2, u1=u1, u2=u2,
                 T_r=radial_period_closed_form(p.Q, E))


def bounded_dc_state(p: DCParams, E: float, A: float, r_frac: float,
                     u_frac: float) -> PhasePoint:
    """Construct a phase point on the (E, A) shell of a bounded orbit.

    r_frac and u_frac place the point inside the radial annulus [r1, r2]
    and the angular band [u1, u2] of cos^2(k phi / 2), both read from the
    gate's shell; both momenta are non-negative.  At a turning point a
    momentum square is a difference of terms of size A (angular) and Q/r
    (radial), so a negative part below 1e-10 of that size is rounding and
    reads as 0.
    """
    shell = validate_bounded(p, E, A)
    r = shell.r1 + r_frac * (shell.r2 - shell.r1)
    u = shell.u1 + u_frac * (shell.u2 - shell.u1)
    k = p.k.value
    phi = 2.0 * math.acos(math.sqrt(u)) / k
    pphi2 = A - _barrier(p, phi)[0]
    pr2 = (E * r * r + p.Q * r - A) / (r * r)
    if pphi2 < -1e-10 * A or pr2 < -1e-10 * p.Q / r:
        raise DomainError("shell construction produced a negative momentum square")
    return PhasePoint(r, phi, math.sqrt(max(pr2, 0.0)), math.sqrt(max(pphi2, 0.0)), DC_CHART)


def random_ttw_state(rng: np.random.Generator, p: TTWParams,
                     rho_range=(0.6, 1.8), p_max: float = 1.4,
                     margin: float = 0.08) -> PhasePoint:
    """Draw an interior TTW phase point with moderate magnitudes."""
    k = p.k.value
    cell = 0.5 * math.pi / k
    rho = rng.uniform(*rho_range)
    theta = rng.uniform(margin * cell, (1.0 - margin) * cell)
    prho = rng.uniform(-p_max, p_max)
    ptheta = rng.uniform(-p_max, p_max)
    return PhasePoint(rho, theta, prho, ptheta, TTW_CHART)


def random_dc_state(rng: np.random.Generator, p: DCParams,
                    r_range=(0.7, 2.2), p_max: float = 0.8,
                    margin: float = 0.08) -> PhasePoint:
    """Draw an interior DC phase point inside one wedge cell."""
    k = p.k.value
    cell = math.pi / k
    r = rng.uniform(*r_range)
    phi = rng.uniform(margin * cell, (1.0 - margin) * cell)
    pr = rng.uniform(-p_max, p_max)
    pphi = rng.uniform(-p_max, p_max)
    return PhasePoint(r, phi, pr, pphi, DC_CHART)


def params_to_text(params) -> str:
    """Serialize parameters to a flat key-value document."""
    if isinstance(params, DCParams):
        lines = ["family=dc", f"Q={params.Q!r}"]
    elif isinstance(params, TTWParams):
        lines = ["family=ttw", f"omega2={params.omega2!r}"]
    else:
        raise UsageError(f"cannot serialize {type(params).__name__}")
    lines += [
        f"alpha={params.alpha!r}",
        f"beta={params.beta!r}",
        f"k_num={params.k.c}",
        f"k_den={params.k.d}",
    ]
    return "\n".join(lines) + "\n"
