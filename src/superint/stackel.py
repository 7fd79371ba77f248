"""Coupling-constant exchange between oscillator-term and Coulomb-term systems.

The general theorem (coupling-constant metamorphosis): take any
H = p_rho^2 + p_theta^2/rho^2 + V(rho, theta) at a fixed energy E.  Under
r = rho^2/2, phi = 2 theta and the induced canonical momentum map,
H~ = p_r^2 + p_phi^2/r^2 + W(r, phi) with W = (V(sqrt(2r), phi/2) - E)/(2r)
obeys H~(image point) = rho^-2 (H - E) pointwise; V need not separate.  An
oscillator term omega^2 rho^2 of V becomes the constant omega^2 of W, and
the energy becomes a Coulomb term -E/(2r).  TTW to DC is one instance: the
image of the TTW potential is the DC potential at Q = E/2 plus omega^2, so
(H_DC - E~) = rho^-2 (H - E) with E~ = -omega^2.  Time changes by
d tau = rho^2 dt, in closed form along a TTW orbit (``_exchange_time``).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    TTWParams,
    hamiltonian,
)


Potential = Callable[[float, float], float]


def exchange_potential(V: Potential, E: float) -> Potential:
    """The theorem's image W(r, phi) = (V(sqrt(2r), phi/2) - E) / (2r) of any V(rho, theta)."""

    def W(r: float, phi: float) -> float:
        if r <= 0.0:
            raise DomainError("exchange potential needs r > 0")
        return (V(math.sqrt(2.0 * r), 0.5 * phi) - E) / (2.0 * r)

    return W


def _exchange_map(rho, theta, p_rho, p_theta):
    """Oscillator chart to Coulomb chart: r = rho^2/2, phi = 2 theta.

    The momentum map is the induced canonical one: p_r = p_rho / rho,
    p_phi = p_theta / 2.  Arithmetic only, so floats, complex steps and
    arrays all pass through it.
    """
    return 0.5 * rho * rho, 2.0 * theta, p_rho / rho, 0.5 * p_theta


def pushforward_phase(pt: PhasePoint) -> PhasePoint:
    """The exchange map at one TTW-chart point with rho > 0."""
    if pt.chart != TTW_CHART:
        raise DomainError("pushforward expects a TTW-chart point")
    if pt.q1.real <= 0.0:
        raise DomainError("pushforward needs rho > 0")
    return PhasePoint(*_exchange_map(pt.q1, pt.q2, pt.p1, pt.p2), DC_CHART)


def ttw_to_dc(ttw: TTWParams, E_source: float) -> tuple[DCParams, float]:
    """Image parameters of the oscillator system taken at energy E_source.

    Matching the -E/(2r) term of the image against -Q/r forces
    Q = E_source / 2; the image energy is E~ = -omega^2.  E_source <= 0
    yields Q <= 0, which systems.validate_bounded rejects downstream.
    """
    dc = DCParams(Q=0.5 * E_source, alpha=ttw.alpha, beta=ttw.beta, k=ttw.k)
    return dc, -ttw.omega2


def stackel_identity_residual(pt: PhasePoint, ttw: TTWParams, E: float) -> float:
    """(H_DC(image point) - E~) - rho^-2 (H(pt) - E); identically zero.

    The Coulomb side is the DC Hamiltonian itself, not the image potential,
    so this checks the mapped system against the direct one.
    """
    dc, E_tilde = ttw_to_dc(ttw, E)
    image = pushforward_phase(pt)
    H_dc = hamiltonian(image, dc)
    H_ttw = hamiltonian(pt, ttw)
    return (H_dc - E_tilde) - (H_ttw - E) / (pt.q1 * pt.q1)


def map_trajectory(traj) -> np.ndarray:
    """Pushforward of every accepted sample of a TTW trajectory.

    Returns an (N, 4) array of DC-chart rows (r, phi, p_r, p_phi); row i
    lies on the DC orbit at time _exchange_time(traj)[i], not traj.t[i].
    """
    if traj.chart != TTW_CHART:
        raise DomainError("map_trajectory expects a TTW trajectory")
    if np.any(traj.y[0] <= 0.0):
        raise DomainError("trajectory crosses rho = 0")
    return np.stack(_exchange_map(*traj.y), axis=1)


def map_wavefunction(psi: Callable) -> Callable:
    """Compose a function of (rho, theta) with the inverse variable map.

    The result is a function of (r, phi) with r > 0.
    """

    def mapped(r, phi):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise DomainError("mapped wavefunction needs r > 0")
        out = psi(np.sqrt(2.0 * r), 0.5 * np.asarray(phi, dtype=float))
        return out if np.ndim(out) else float(out)

    return mapped


def _exchange_time(ttw_traj) -> np.ndarray:
    """tau_i = int_0^t_i rho^2 ds at every accepted step end of a TTW trajectory.

    On the energy shell (H~ - E~) = rho^-2 (H - E) makes the image of the
    TTW flow at time t the DC flow at time tau(t).  Along the orbit
    d(rho p_rho)/dt = 2H - 4 omega^2 rho^2, so tau = (2H t - [rho p_rho]_0^t)
    / (4 omega^2) exactly, with H at the start: Kepler's equation, since
    rho p_rho = 2 r p_r.  It needs omega^2 > 0, as every bounded orbit does.
    """
    omega2 = ttw_traj.params.omega2
    if omega2 <= 0.0:
        raise DomainError("the exchange time needs omega^2 > 0")
    H = hamiltonian(ttw_traj.point(0), ttw_traj.params)
    virial = ttw_traj.y[0] * ttw_traj.y[2]
    return (2.0 * H * (ttw_traj.t - ttw_traj.t[0]) - (virial - virial[0])) / (4.0 * omega2)


def mapped_orbit_hausdorff(ttw_traj, dc_traj) -> float:
    """Largest scaled distance of a mapped TTW orbit from a DC orbit at matched times.

    The DC orbit must start at the pushforward of the TTW start, both at
    t = 0.  Each accepted TTW sample, mapped, is compared with the DC dense
    output at its exchange time tau_i, in all four phase coordinates: r,
    phi and p_phi each scaled by its largest magnitude along the mapped
    orbit, p_r by the largest speed sqrt(p_r^2 + p_phi^2 / r^2) there, as
    p_r vanishes along a circular orbit.  Samples with tau_i past the DC
    orbit's end are left out.  Every sample of either curve thus has a
    partner on the other no farther away than the result, which therefore
    bounds the scaled Hausdorff distance over the common span from above:
    a tolerance on it is stricter than the same tolerance on the Hausdorff
    distance, and it checks the momenta and the time law too.
    """
    if ttw_traj.chart != TTW_CHART or dc_traj.chart != DC_CHART:
        raise DomainError("need one TTW trajectory and one DC trajectory")
    tau = _exchange_time(ttw_traj)
    keep = tau <= dc_traj.t[-1]
    mapped = map_trajectory(ttw_traj)
    scales = np.max(np.abs(mapped), axis=0)
    scales[2] = np.max(np.hypot(mapped[:, 2], mapped[:, 3] / mapped[:, 0]))
    gap = (mapped[keep] - dc_traj.dense(tau[keep]).T) / scales
    return float(np.max(np.sqrt(np.sum(gap * gap, axis=1))))
