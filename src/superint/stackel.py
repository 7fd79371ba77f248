"""Coupling-constant exchange between oscillator-term and Coulomb-term systems.

The general theorem (coupling-constant metamorphosis): take any
H = p_rho^2 + p_theta^2/rho^2 + V(rho, theta) at a fixed energy E.  Under
r = rho^2/2, phi = 2 theta and the induced canonical momentum map,
H~ = p_r^2 + p_phi^2/r^2 + W(r, phi) with W = (V(sqrt(2r), phi/2) - E)/(2r)
obeys H~(image point) = rho^-2 (H - E) pointwise; V need not separate.  An
oscillator term omega^2 rho^2 of V becomes the constant omega^2 of W, and
the energy becomes a Coulomb term -E/(2r).  TTW to DC is one instance: the
image of the TTW potential is the DC potential at Q = E/2 plus omega^2, so
(H_DC - E~) = rho^-2 (H - E) with E~ = -omega^2.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import _refine_maxima
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
    yields Q <= 0, which the bounded-motion report flags downstream.
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

    Returns an (N, 4) array of DC-chart rows (r, phi, p_r, p_phi); the
    time law is dropped, only the geometric curve survives the map.
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


def _min_distance_to_dense(points: np.ndarray, dense, t_grid: np.ndarray,
                           scales: np.ndarray) -> float:
    """Largest over points of the distance to a densely sampled curve.

    Every local minimum of a point's sampled distance marks a candidate arc,
    and all (point, arc) pairs are refined together in the curve parameter
    by iterated parabolic interpolation.
    """
    curve = dense(t_grid)[:2].T / scales
    targets = points / scales
    best = np.empty(len(targets))
    candidates = []
    for i, target in enumerate(targets):
        d2 = np.sum((curve - target) ** 2, axis=1)
        interior = (d2[1:-1] <= d2[:-2]) & (d2[1:-1] <= d2[2:])
        candidates.append(np.nonzero(interior)[0] + 1 if interior.any() else [np.argmin(d2)])
        best[i] = np.min(d2)
    owner = np.repeat(np.arange(len(targets)), [len(c) for c in candidates])
    j = np.clip(np.concatenate(candidates), 1, t_grid.size - 2)

    def f(t, pairs):
        q = dense(t)[:2] / scales[:, None]
        return -np.sum((q - targets[owner[pairs]].T) ** 2, axis=0)

    t_star = _refine_maxima(f, t_grid[j - 1], t_grid[j], t_grid[j + 1])
    np.minimum.at(best, owner, -f(t_star, np.arange(owner.size)))
    return float(np.sqrt(np.max(best)))


def mapped_orbit_hausdorff(ttw_traj, dc_traj) -> float:
    """Scaled Hausdorff distance between a mapped TTW orbit and a DC orbit.

    Both curves are compared in the (r, phi) configuration plane; each of
    250 probe points on one curve is matched against a dense parametric
    sampling of the other (4000 samples), refined in the curve parameter, so
    the result measures geometric disagreement rather than sampling gaps.
    """
    if ttw_traj.chart != TTW_CHART or dc_traj.chart != DC_CHART:
        raise DomainError("need one TTW trajectory and one DC trajectory")

    def ttw_config(t):
        return np.array(_exchange_map(*ttw_traj.dense(t))[:2])

    mapped = map_trajectory(ttw_traj)[:, :2]
    scales = np.array([
        max(np.max(mapped[:, 0]), np.max(np.abs(dc_traj.y[0]))),
        max(np.max(np.abs(mapped[:, 1])), np.max(np.abs(dc_traj.y[1]))),
    ])

    probes_a = ttw_config(np.linspace(ttw_traj.t[0], ttw_traj.t[-1], 250)).T
    probes_b = dc_traj.dense(np.linspace(dc_traj.t[0], dc_traj.t[-1], 250))[:2].T

    grid_b = np.linspace(dc_traj.t[0], dc_traj.t[-1], 4000)
    d_ab = _min_distance_to_dense(probes_a, dc_traj.dense, grid_b, scales)

    grid_a = np.linspace(ttw_traj.t[0], ttw_traj.t[-1], 4000)
    d_ba = _min_distance_to_dense(probes_b, ttw_config, grid_a, scales)
    return max(d_ab, d_ba)
