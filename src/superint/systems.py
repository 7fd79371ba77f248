"""The two Hamiltonian families, their parameters, gradients, and bound-motion algebra.

Both systems use the convention H = p^2 + V (no 1/2 on the kinetic term),
so Hamilton's equations carry a factor 2: qdot = 2p etc.  All dynamics are
phrased in polar charts; the angular barrier walls are hard domain
boundaries and are never crossed.

The families share one angular barrier, B = K (alpha sec^2 u + beta csc^2 u),
and differ only in the radial term V_r (-Q/r or omega^2 rho^2), so
H = p1^2 + (p2^2 + B)/q1^2 + V_r.  The kernels _barrier and _radial are the
only code that knows either term, the walls or the DC/TTW difference; the
potential, Hamiltonian, angular invariant and gradient are built from them.
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


def _barrier(params, q2) -> tuple[float, float]:
    """Angular barrier B = K (alpha sec^2 u + beta csc^2 u) and dB/dq2.

    u = k phi / 2 with K = k^2 / 4 in the DC chart, u = k theta with K = k^2
    in the TTW chart; the barrier is the same function of u in both.  A zero
    coupling drops its term and with it its wall.  A complex q2 (a complex
    step) takes cmath; a real one stays on math, bit for bit.
    """
    s = 0.5 * params.k.value if isinstance(params, DCParams) else params.k.value
    K = s * s
    m = cmath if isinstance(q2, complex) else math
    cu, su = m.cos(s * q2), m.sin(s * q2)
    B = dB = 0.0
    if params.alpha != 0.0:
        c2 = cu * cu
        if abs(c2) < WALL_EPS:
            raise SingularityError("evaluation on a wall of the wedge cell")
        B += params.alpha * K / c2
        dB += 2.0 * s * params.alpha * K * su / (c2 * cu)
    if params.beta != 0.0:
        s2 = su * su
        if abs(s2) < WALL_EPS:
            raise SingularityError("evaluation on a wall of the wedge cell")
        B += params.beta * K / s2
        dB -= 2.0 * s * params.beta * K * cu / (s2 * su)
    return B, dB


def _radial(params, q1) -> tuple[float, float]:
    """Radial term V_r and dV_r/dq1: -Q/r for DC, omega^2 rho^2 for TTW."""
    if q1.real <= 0.0:
        raise SingularityError("radial coordinate must be positive")
    if isinstance(params, DCParams):
        return -params.Q / q1, params.Q / (q1 * q1)
    return params.omega2 * q1 * q1, 2.0 * params.omega2 * q1


def potential(params, q1, q2) -> float:
    """V = V_r(q1) + B(q2)/q1^2, valid strictly inside the wedge cell."""
    V_r, _ = _radial(params, q1)
    B, _ = _barrier(params, q2)
    return V_r + B / (q1 * q1)


def hamiltonian(point: PhasePoint, params) -> float:
    """H = p1^2 + (p2^2 + B)/q1^2 + V_r in the matching chart."""
    _require_chart(point, params)
    return _energy(params, point.q1, point.q2, point.p1, point.p2)


def angular_invariant(point: PhasePoint, params) -> float:
    """Separation constant p2^2 + B of the angular motion: A for DC, L1 for TTW."""
    _require_chart(point, params)
    return point.p2 ** 2 + _barrier(params, point.q2)[0]


def _energy(params, q1, q2, p1, p2) -> float:
    """H = p1^2 + (p2^2 + B)/q1^2 + V_r at the coordinates of a point, its chart unchecked."""
    V_r, _ = _radial(params, q1)
    B, _ = _barrier(params, q2)
    return p1 ** 2 + (p2 ** 2 + B) / (q1 * q1) + V_r


def _gradient(params, q1, q2, p1, p2) -> tuple[float, float, float, float]:
    """(dH/dq1, dH/dq2, dH/dp1, dH/dp2) from the radial and barrier kernels."""
    V_r, dV_r = _radial(params, q1)
    B, dB = _barrier(params, q2)
    inv_q1_2 = 1.0 / (q1 * q1)
    return (-2.0 * (p2 * p2 + B) * inv_q1_2 / q1 + dV_r, dB * inv_q1_2,
            2.0 * p1, 2.0 * p2 * inv_q1_2)


def hamiltonian_gradient(point: PhasePoint, params) -> np.ndarray:
    """Analytic (dH/dq1, dH/dq2, dH/dp1, dH/dp2) at an interior point."""
    _require_chart(point, params)
    return np.array(_gradient(params, point.q1, point.q2, point.p1, point.p2))


@dataclass(frozen=True)
class BoundednessReport:
    """Pass/fail per bounded-motion restriction plus the derived quantities."""

    rows: dict
    D1: float
    D2: float
    r1: float | None
    r2: float | None
    u1: float | None
    u2: float | None

    @property
    def all_passed(self) -> bool:
        return all(self.rows.values())

    def failed(self):
        return [name for name, ok in self.rows.items() if not ok]


def discriminants(p: DCParams, E: float, A: float) -> tuple[float, float]:
    """D1 = Q^2 + 4AE (radial) and D2 (angular) for the given constants."""
    k2 = p.k.value ** 2
    D1 = p.Q ** 2 + 4.0 * A * E
    D2 = (A - k2 * (p.beta + p.alpha) / 4.0) ** 2 - p.alpha * p.beta * k2 * k2 / 4.0
    return D1, D2


def radial_turning_points(Q: float, E: float, A: float) -> tuple[float, float]:
    """The two roots of E r^2 + Q r - A = 0, ordered r1 <= r2."""
    D1 = Q * Q + 4.0 * A * E
    if D1 <= 0.0:
        raise DomainError(f"no real radial turning points (D1 = {D1})")
    if E >= 0.0:
        raise DomainError("unbounded radial motion (E >= 0)")
    root = math.sqrt(D1)
    r1 = (Q - root) / (-2.0 * E)
    r2 = (Q + root) / (-2.0 * E)
    return (r1, r2) if r1 <= r2 else (r2, r1)


def angular_turning_points(p: DCParams, A: float) -> tuple[float, float]:
    """Roots u1 <= u2 of the quadratic bounding cos^2(k phi / 2)."""
    _, D2 = discriminants(p, 0.0, A)
    if D2 <= 0.0:
        raise DomainError(f"no real angular turning points (D2 = {D2})")
    if A == 0.0:
        raise DomainError("angular quadratic degenerates at A = 0")
    k2 = p.k.value ** 2
    b = A + (p.alpha - p.beta) * k2 / 4.0
    cterm = p.alpha * k2 / 4.0
    root = math.sqrt(D2)
    # stable quadratic roots of A u^2 - b u + cterm = 0
    q = 0.5 * (b + root) if b >= 0.0 else 0.5 * (b - root)
    u_big = q / A
    u_small = cterm / q if q != 0.0 else (b - root) / (2.0 * A)
    return (u_small, u_big) if u_small <= u_big else (u_big, u_small)


def validate_bounded(p: DCParams, E: float, A: float) -> BoundednessReport:
    """Evaluate every bounded-trajectory restriction and report each row."""
    D1, D2 = discriminants(p, E, A)
    k2 = p.k.value ** 2
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
    r1 = r2 = u1 = u2 = None
    if rows["D1_positive"] and rows["E_negative"]:
        r1, r2 = radial_turning_points(p.Q, E, A)
    if rows["D2_positive"] and A != 0.0:
        u1, u2 = angular_turning_points(p, A)
    return BoundednessReport(rows=rows, D1=D1, D2=D2, r1=r1, r2=r2, u1=u1, u2=u2)


def bounded_dc_state(p: DCParams, E: float, A: float, r_frac: float = 0.5,
                     u_frac: float = 0.5, sign_r: int = 1, sign_phi: int = 1) -> PhasePoint:
    """Construct a phase point on the (E, A) shell of a bounded orbit.

    r_frac and u_frac place the point inside the radial annulus and the
    angular band; the signs pick the momentum branch.
    """
    report = validate_bounded(p, E, A)
    if not report.all_passed:
        raise DomainError(f"constants fail bounded-motion rows: {report.failed()}")
    r = report.r1 + r_frac * (report.r2 - report.r1)
    u = report.u1 + u_frac * (report.u2 - report.u1)
    k = p.k.value
    phi = 2.0 * math.acos(math.sqrt(u)) / k
    pphi2 = A - _barrier(p, phi)[0]
    pr2 = (E * r * r + p.Q * r - A) / (r * r)
    if pphi2 < -1e-12 or pr2 < -1e-12:
        raise DomainError("shell construction produced a negative momentum square")
    return PhasePoint(r, phi, sign_r * math.sqrt(max(pr2, 0.0)),
                      sign_phi * math.sqrt(max(pphi2, 0.0)), DC_CHART)


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


def params_from_text(text: str):
    """Parse the flat key-value document written by params_to_text."""
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"malformed parameter line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        family = fields["family"].lower()
        k = RationalIndex(int(fields["k_num"]), int(fields["k_den"]))
        alpha = float(fields["alpha"])
        beta = float(fields["beta"])
        if family == "dc":
            return DCParams(Q=float(fields["Q"]), alpha=alpha, beta=beta, k=k)
        if family == "ttw":
            return TTWParams(omega2=float(fields["omega2"]), alpha=alpha, beta=beta, k=k)
    except KeyError as missing:
        raise DomainError(f"parameter document missing key {missing}") from None
    raise DomainError(f"unknown family {fields['family']!r}")
