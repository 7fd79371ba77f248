"""Coupling-constant exchange between oscillator-type and Coulomb-type systems.

A system with a -E~ rho^2 term at fixed energy E maps to a system with a
-E/(2r) Coulomb term at energy E~, through the variable change
r = rho^2/2, phi = 2 theta and the induced canonical momentum map.  The
exchange is exact pointwise: (H~ - E~) = rho^-2 (H - E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SeparableOscillatorSystem:
    """Polar-separable Hamiltonian with an isotropic oscillator term.

    H = p_rho^2 + p_theta^2/rho^2 - coupling * rho^2 + f1(rho) + f2(theta)/rho^2,
    where f1 and f2 take no coupling argument by construction.  With the two
    names below it states the paper's theorem that every oscillator-term
    Hamiltonian maps to a Coulomb-term one; only the tests call the three.
    """

    f1: Callable[[float], float]
    f2: Callable[[float], float]
    coupling: float  # E~; the rho^2 coefficient is -E~, so omega^2 = -E~

    def potential(self, rho: float, theta: float) -> float:
        return -self.coupling * rho * rho + self.f1(rho) + self.f2(theta) / (rho * rho)

    def hamiltonian(self, state: PhasePoint) -> float:
        return state.p1 ** 2 + (state.p2 / state.q1) ** 2 + self.potential(state.q1, state.q2)


@dataclass(frozen=True)
class TransformedSystem:
    """Image of a SeparableOscillatorSystem at source energy E (the theorem's; tests only)."""

    E: float
    f1: Callable[[float], float]
    f2: Callable[[float], float]

    def potential(self, r: float, phi: float) -> float:
        if r <= 0.0:
            raise DomainError("transformed potential needs r > 0")
        return (-self.E + self.f1(math.sqrt(2.0 * r))) / (2.0 * r) + self.f2(0.5 * phi) / (4.0 * r * r)

    def hamiltonian(self, state: PhasePoint) -> float:
        return state.p1 ** 2 + (state.p2 / state.q1) ** 2 + self.potential(state.q1, state.q2)


def transform_hamiltonian(sys: SeparableOscillatorSystem, E: float) -> TransformedSystem:
    """Exchange the oscillator coupling of sys with the fixed energy E (the theorem; tests only)."""
    return TransformedSystem(E=E, f1=sys.f1, f2=sys.f2)


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


def stackel_identity_residual(pt: PhasePoint, ttw: TTWParams, E: float,
                              dc: DCParams | None = None) -> float:
    """(H~(image point) - E~) - rho^-2 (H(pt) - E); identically zero.

    Passing an inconsistent dc turns this into a negative control that
    measures the violation.
    """
    dc_auto, E_tilde = ttw_to_dc(ttw, E)
    dc = dc if dc is not None else dc_auto
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
