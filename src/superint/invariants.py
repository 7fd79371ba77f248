"""Conserved quantities beyond the energy: the angular integral, the
higher-order polynomial integrals of both families, and a numerical
Poisson bracket estimator.

One auxiliary quadruple serves both families: the oscillator pairs of
Tremblay, Turbiner and Winternitz, and on the Coulomb side, with L1 = 4A,
the paper's explicit pairs (4 sqrt(A) p_phi sin k phi,
4A cos k phi - k^2 (alpha - beta)) and (4 sqrt(A) p_r, 4A/r - 2Q).  The
polynomial form of the higher-order integral is assembled from four
explicit binomial sums; the trigonometric form (phase angles recovered
atan2-style from the auxiliary pairs) serves as an independent oracle.

Every kernel here except the trigonometric form is built from arithmetic
and cmath-or-math picks on its input, so it also takes a complex-step
perturbed state; that is what makes the Poisson brackets exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    _math_of,
    angular_invariant,
    hamiltonian,
)

# complex-step size: Im F(x + i h) / h is dF/dx to roundoff for any h this small
_STEP = 1e-20


@dataclass(frozen=True)
class ABQuad:
    """Auxiliary quadruple feeding the higher-order integrals.

    (A_x, A_y) depends on the angular motion only, (B_x, B_y) on the
    radial motion; both squared norms are functions of H, L1 and the
    couplings alone.  sqrt_L1 rides along for the integrals' denominators.
    """

    A_x: float
    A_y: float
    B_x: float
    B_y: float
    sqrt_L1: float


@dataclass(frozen=True)
class BracketEstimate:
    value: float


def ab_quantities(p, state: PhasePoint) -> ABQuad:
    """The four auxiliary quantities, and sqrt(L1), at a state with L1 > 0.

    The parameter type picks the chart.  On the Coulomb side L1 = 4A, and
    the pairs are the paper's (4 sqrt(A) p_phi sin k phi,
    4A cos k phi - k^2 (alpha - beta)) and (4 sqrt(A) p_r, 4A/r - 2Q).
    """
    dc = isinstance(p, DCParams)
    chart = DC_CHART if dc else TTW_CHART
    if state.chart != chart:
        raise DomainError(f"ab_quantities needs a {chart} state, got {state.chart}")
    L1 = angular_invariant(state, p)
    if dc:
        L1 = 4.0 * L1
    if L1.real <= 0.0:
        raise DomainError(f"auxiliary quantities need L1 > 0, got {L1}")
    k = p.k.value
    q1, q2 = state.q1, state.q2
    # the angle can be complex while L1 is real: with no barrier, L1 = p2^2
    m = _math_of(L1, q2)
    sqrtL1 = m.sqrt(L1)
    if dc:
        angle, p_angle = k * q2, 2.0 * state.p2
        B_x, B_y = 2.0 * sqrtL1 * state.p1, L1 / q1 - 2.0 * p.Q
    else:
        H = hamiltonian(state, p)
        angle, p_angle = 2.0 * k * q2, state.p2
        # exponential radial variable: exp(-2R) = rho^-2, p_R = rho p_rho
        inv_rho2 = 1.0 / (q1 * q1)
        p_R = q1 * state.p1
        B_x, B_y = 2.0 * sqrtL1 * inv_rho2 * p_R, 2.0 * L1 * inv_rho2 - H
    return ABQuad(A_x=sqrtL1 * m.sin(angle) * p_angle,
                  A_y=L1 * m.cos(angle) - p.alpha * k * k + p.beta * k * k,
                  B_x=B_x, B_y=B_y, sqrt_L1=sqrtL1)


def _binomial_re_im(x: float, y: float, n: int) -> tuple[float, float]:
    """Real and imaginary binomial sums of (x + i y)^n by explicit loops."""
    re = 0.0
    for m in range(n // 2 + 1):
        re += math.comb(n, 2 * m) * (-1.0) ** m * x ** (n - 2 * m) * y ** (2 * m)
    im = 0.0
    for m in range((n - 1) // 2 + 1):
        im += math.comb(n, 2 * m + 1) * (-1.0) ** m * x ** (n - 2 * m - 1) * y ** (2 * m + 1)
    return re, im


def _phase_difference(p, ab: ABQuad) -> float:
    """4 c sqrt(L1) (M - N): the combined phase entering both trig forms.

    M and N are arccos phases of the B and A pairs; the quadrant lost by
    arccos is recovered from the second component of each pair.
    """
    sqrtL1 = ab.sqrt_L1
    M = math.atan2(ab.B_y, ab.B_x) / (4.0 * sqrtL1)
    N = math.atan2(ab.A_y, ab.A_x) / (4.0 * p.k.value * sqrtL1)
    return 4.0 * p.k.c * sqrtL1 * (M - N)


def _trig_form(p, state: PhasePoint, wave, shift: int) -> float:
    """|B|^c |A|^d wave(angle) / sqrt(L1)^((c + d + shift) % 2).

    (sin, 1) is the sine variant, (cos, 0) the cosine one; wave = None
    leaves the variant's conserved amplitude, which |L2| never exceeds.
    """
    ab = ab_quantities(p, state)
    c, d = p.k.c, p.k.d
    phase = 1.0 if wave is None else wave(_phase_difference(p, ab))
    return (math.hypot(ab.B_x, ab.B_y) ** c * math.hypot(ab.A_x, ab.A_y) ** d * phase
            / ab.sqrt_L1 ** ((c + d + shift) % 2))


def l2_trig(p, state: PhasePoint) -> float:
    """Sine-variant higher integral in its trigonometric form."""
    return _trig_form(p, state, math.sin, 1)


def l2_cos_trig(p, state: PhasePoint) -> float:
    """Cosine-variant higher integral in its trigonometric form."""
    return _trig_form(p, state, math.cos, 0)


def l2_poly(p, state: PhasePoint) -> float:
    """Sine-variant higher integral assembled from the binomial sums."""
    ab = ab_quantities(p, state)
    c, d = p.k.c, p.k.d
    re_B, im_B = _binomial_re_im(ab.B_x, ab.B_y, c)
    re_A, im_A = _binomial_re_im(ab.A_x, ab.A_y, d)
    return (im_B * re_A - im_A * re_B) / ab.sqrt_L1 ** ((c + d - 1) % 2)


def l2_cos(p, state: PhasePoint) -> float:
    """Cosine-variant higher integral assembled from the binomial sums."""
    ab = ab_quantities(p, state)
    c, d = p.k.c, p.k.d
    re_B, im_B = _binomial_re_im(ab.B_x, ab.B_y, c)
    re_A, im_A = _binomial_re_im(ab.A_x, ab.A_y, d)
    return (re_B * re_A + im_B * im_A) / ab.sqrt_L1 ** ((c + d) % 2)


def minimal_integral_degree(k) -> int:
    """Lowest momentum degree over the two variants: 2(c + d) - 1."""
    return 2 * (k.c + k.d) - 1


def lower_degree_variant(k) -> str:
    """Which variant attains the minimal degree ('sin' or 'cos')."""
    return "sin" if (k.c + k.d) % 2 == 0 else "cos"


def poisson_bracket_numeric(F, G, state: PhasePoint) -> BracketEstimate:
    """{F, G} from complex-step partials dF/dx = Im F(x + i h) / h.

    F and G take a PhasePoint and are evaluated once at each of the four
    points with one coordinate stepped by i h.  There is no subtractive
    cancellation, so the partials are exact to roundoff for any tiny h.

    Operands must be built from arithmetic and the package's kernels, which
    carry the imaginary part through.  One that calls a real-only function
    on the state, such as math.atan2 in l2_trig, raises TypeError; one that
    drops the imaginary part (abs, .real) reads a zero partial.
    """
    q1, q2, p1, p2, chart = state.q1, state.q2, state.p1, state.p2, state.chart
    points = (PhasePoint(complex(q1, _STEP), q2, p1, p2, chart),
              PhasePoint(q1, complex(q2, _STEP), p1, p2, chart),
              PhasePoint(q1, q2, complex(p1, _STEP), p2, chart),
              PhasePoint(q1, q2, p1, complex(p2, _STEP), chart))
    dF = [F(s).imag / _STEP for s in points]
    dG = [G(s).imag / _STEP for s in points]
    return BracketEstimate(value=float(dF[0] * dG[2] - dF[2] * dG[0]
                                       + dF[1] * dG[3] - dF[3] * dG[1]))


def dc_integral(p_dc: DCParams, state_dc: PhasePoint, variant: str = "sin") -> float:
    """Higher-order integral of the Coulomb family at a DC phase point.

    The polynomial form on the paper's explicit Coulomb-side pairs (see
    ab_quantities); variant picks the sine or the cosine form.
    """
    if variant not in ("sin", "cos"):
        raise DomainError(f"unknown variant {variant!r}")
    return l2_poly(p_dc, state_dc) if variant == "sin" else l2_cos(p_dc, state_dc)


def conservation_rows(traj):
    """Sample t, H, L1, L2sin, L2cos and their running relative drifts at 400 times.

    H and L1 drift relative to their start values, each L2 variant relative
    to its conserved amplitude, which a start where L2 is zero keeps; all
    scales are floored at 1e-12.
    """
    p = traj.params
    tt = np.linspace(traj.t[0], traj.t[-1], 400)
    rows = []
    first = None
    for t, y in zip(tt.tolist(), traj.dense(tt).T.tolist()):
        s = PhasePoint(*y, traj.chart)
        vals = (hamiltonian(s, p), angular_invariant(s, p), l2_poly(p, s), l2_cos(p, s))
        if first is None:
            first = vals
            scales = [max(v, 1e-12) for v in (abs(vals[0]), abs(vals[1]),
                                               _trig_form(p, s, None, 1),
                                               _trig_form(p, s, None, 0))]
        drifts = tuple(abs(v - v0) / w for v, v0, w in zip(vals, first, scales))
        rows.append((t,) + vals + drifts)
    return rows
