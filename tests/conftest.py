import math
from dataclasses import replace

import numpy as np
import pytest

from superint.dynamics import integrate, orbit_constants_from_point, radial_period_closed_form
from superint.invariants import _trig_form, ab_quantities, l2_cos, l2_poly
from superint.quantum import wavefunction
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    _barrier,
    bounded_dc_state,
    hamilton_kernel,
    hamiltonian,
)

# Bounded-regime setups per deformation index: Q = 1, E = -0.2 throughout.
# For k = 3 the barrier couplings are scaled down (0.2, 0.3 leave no window
# between the radial and angular reality conditions at this energy).
DC_SETUPS = {
    "1": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1)), -0.2, 0.75),
    "2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2)), -0.2, 1.1),
    "3": (DCParams(Q=1.0, alpha=0.08, beta=0.12, k=RationalIndex(3)), -0.2, 1.1),
    "1/2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1, 2)), -0.2, 0.6),
    "3/2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2)), -0.2, 0.9),
    "2/3": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2, 3)), -0.2, 0.7),
}


def dc_setup(k_text, sign_r=1, sign_phi=1):
    """One setup's constants and a shell point, its momenta given the signs sign_r, sign_phi."""
    params, E, A = DC_SETUPS[k_text]
    pt = bounded_dc_state(params, E, A, r_frac=0.35, u_frac=0.6)
    return params, E, A, replace(pt, p1=sign_r * pt.p1, p2=sign_phi * pt.p2)


def energy_drift(traj):
    """max |H_i - H_0| / max(|H_0|, 1e-12) over the accepted steps, H evaluated at each."""
    H = np.array([hamiltonian(traj.point(i), traj.params) for i in range(traj.t.size)])
    return float(np.max(np.abs(H - H[0])) / max(abs(H[0]), 1e-12))


def angular_invariant(point, params):
    """Separation constant p2^2 + B of the angular motion (A for DC, L1 for TTW), the
    oracle of the L that systems.energy_and_invariant returns."""
    return point.p2 ** 2 + _barrier(params, point.q2)[0]


def l2_cos_trig(p, state):
    """Cosine-variant higher integral in its trigonometric form, the oracle of l2_cos."""
    return _trig_form(p, ab_quantities(p, state), math.cos, 0)


def potential(params, q1, q2):
    """V = V_r + B/q1^2, as H at zero momenta: (0 + B)/q1^2 + V_r is the same float."""
    chart = DC_CHART if isinstance(params, DCParams) else TTW_CHART
    return hamiltonian(PhasePoint(q1, q2, 0.0, 0.0, chart), params)


def hamiltonian_gradient(point, params):
    """(dH/dq1, dH/dq2, dH/dp1, dH/dp2) read off Hamilton's equations; NaN off the domain."""
    dq1, dq2, dp1, dp2 = hamilton_kernel(params)(point.q1, point.q2, point.p1, point.p2)
    return np.array([-dp1, -dp2, dq1, dq2])


def pullback_phase(pt):
    """Coulomb chart to oscillator chart, the inverse of stackel.pushforward_phase.

    rho = sqrt(2 r), theta = phi / 2, p_rho = rho p_r, p_theta = 2 p_phi.
    """
    rho = math.sqrt(2.0 * pt.q1)
    return PhasePoint(rho, 0.5 * pt.q2, rho * pt.p1, 2.0 * pt.p2, TTW_CHART)


def _golden_section_minima(f, a, b):
    """Batched golden-section search for a minimum of f(t, rows) on each bracket [a, b].

    Each round evaluates one new point per bracket and keeps the part holding
    the lower of its two inner points, until every bracket is a few float
    spacings wide (71-76 rounds on the criterion-6 orbits), at most 100
    rounds.  Returns the better inner point of each bracket.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    rows = np.arange(a.size)
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1, rows), f(x2, rows)
    for _ in range(100):
        if np.all(b - a <= 4.0 * np.spacing(np.abs(b))):
            break
        left = f1 <= f2  # a minimum lies in [a, x2]
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - g * (b - a), a + g * (b - a))
        fx = f(x, rows)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    return np.where(f1 <= f2, x1, x2)


def _min_distance_to_dense(points, dense, t_grid, scales):
    """Largest over points of the distance to a densely sampled curve.

    Every local minimum of a point's sampled distance marks a candidate arc,
    and all (point, arc) pairs are refined together in the curve parameter
    by golden-section search over the arc's two grid intervals.
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
        return np.sum((q - targets[owner[pairs]].T) ** 2, axis=0)

    t_star = _golden_section_minima(f, t_grid[j - 1], t_grid[j + 1])
    np.minimum.at(best, owner, f(t_star, np.arange(owner.size)))
    return float(np.sqrt(np.max(best)))


def hausdorff_search(ttw_traj, dc_traj):
    """Scaled Hausdorff distance between a mapped TTW orbit and a DC orbit, by search.

    The oracle for stackel.mapped_orbit_hausdorff, whose matched-time reading
    bounds it from above.  Both curves are compared in the (r, phi) plane;
    each of 250 probe points on one curve is matched against 4000 samples
    of the other, refined in the curve parameter.
    """
    def ttw_config(t):
        """r = rho^2 / 2, phi = 2 theta along the TTW dense output."""
        rho, theta = ttw_traj.dense(t)[:2]
        return np.array([0.5 * rho * rho, 2.0 * theta])

    rho, theta = ttw_traj.y[:2]
    mapped = np.array([0.5 * rho * rho, 2.0 * theta])
    scales = np.array([
        max(np.max(mapped[0]), np.max(np.abs(dc_traj.y[0]))),
        max(np.max(np.abs(mapped[1])), np.max(np.abs(dc_traj.y[1]))),
    ])
    probes_a = ttw_config(np.linspace(ttw_traj.t[0], ttw_traj.t[-1], 250)).T
    probes_b = dc_traj.dense(np.linspace(dc_traj.t[0], dc_traj.t[-1], 250))[:2].T
    d_ab = _min_distance_to_dense(probes_a, dc_traj.dense,
                                  np.linspace(dc_traj.t[0], dc_traj.t[-1], 4000), scales)
    d_ba = _min_distance_to_dense(probes_b, ttw_config,
                                  np.linspace(ttw_traj.t[0], ttw_traj.t[-1], 4000), scales)
    return max(d_ab, d_ba)


def dc_integral_by_pullback(params, state, variant="sin"):
    """The Coulomb-side integral through the exchange, the oracle for dc_integral.

    The oscillator integral at the pulled-back state, with the oscillator
    coupling set to minus the local energy, omega^2 = -H(state).
    """
    ttw = TTWParams(omega2=-hamiltonian(state, params), alpha=params.alpha,
                    beta=params.beta, k=params.k)
    mapped = pullback_phase(state)
    return l2_poly(ttw, mapped) if variant == "sin" else l2_cos(ttw, mapped)


def _radial_cutoff(spec1, spec2):
    """Radius beyond which the slower envelope of two states is twelve decades below its peak."""
    s = max(math.sqrt(spec1.A) + spec1.n, math.sqrt(spec2.A) + spec2.n)
    kappa = min(math.sqrt(-spec1.E), math.sqrt(-spec2.E))
    log_env = lambda r: s * math.log(r) - kappa * r
    r_peak = max(s / kappa, 1.0 / kappa)
    target = log_env(r_peak) + math.log(1e-12)
    hi = r_peak
    while log_env(hi) > target:
        hi *= 2.0
    lo = r_peak
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_env(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def legendre_nodes(n, lo, hi):
    """The n-point Gauss-Legendre (nodes, weights) on [lo, hi], straight from numpy."""
    t, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * t, half * w


def exchange_time_by_quadrature(ttw_traj):
    """tau_i = int_0^t_i rho^2 ds by an 8-point Gauss-Legendre rule on each accepted step,
    the oracle for stackel._exchange_time.

    The dense output's rho^2 is a polynomial of degree 14 in the step
    variable, so the rule is exact to roundoff.
    """
    x, w = legendre_nodes(8, 0.0, 1.0)
    h = np.diff(ttw_traj.t)
    rho = ttw_traj.dense((ttw_traj.t[:-1, None] + h[:, None] * x).ravel())[0]
    rho2 = (rho * rho).reshape(h.size, x.size)
    return np.concatenate(([0.0], np.cumsum(h * (rho2 @ w))))


def tensor_grid_overlap(spec1, spec2, n_radial=196, n_angular=168):
    """The normalized overlap of two Coulomb-side states summed over a full 2-D grid,
    the oracle for quantum.orthogonality_check.

    Gauss-Legendre on two panels per axis, with r cut where the envelope is
    twelve decades down and phi kept 1e-9 of the cell clear of the walls;
    the panels split each axis where the integrand's endpoint behaviour
    would slow a single rule.  It evaluates the whole states, whose gauge
    factors leave the float range on its grid at large m: at k = 3/2 it
    reads 0 or NaN from m = 26 on.
    """
    r_cut = _radial_cutoff(spec1, spec2)
    cell = math.pi / spec1.params.k.value
    eps_f = 1e-9 * cell
    r_mid = min(max(math.sqrt(spec1.A) / math.sqrt(-spec1.E), 0.2 * r_cut), 0.8 * r_cut)
    overlap = norm1 = norm2 = 0.0
    for r_pan in ((1e-12, r_mid), (r_mid, r_cut)):
        rv, rw = legendre_nodes(n_radial, *r_pan)
        for f_pan in ((eps_f, 0.5 * cell), (0.5 * cell, cell - eps_f)):
            fv, fw = legendre_nodes(n_angular, *f_pan)
            W = np.outer(rw * rv, fw)
            p1 = wavefunction(spec1, rv[:, None], fv[None, :])
            p2 = wavefunction(spec2, rv[:, None], fv[None, :])
            overlap += float(np.sum(W * p1 * p2))
            norm1 += float(np.sum(W * p1 * p1))
            norm2 += float(np.sum(W * p2 * p2))
    return overlap / math.sqrt(norm1 * norm2)


def ttw_params(k_text, omega2=1.0, alpha=0.3, beta=0.45):
    return TTWParams(omega2=omega2, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))


def ttw_radial_period(omega2):
    return math.pi / (2.0 * math.sqrt(omega2))


@pytest.fixture(scope="session")
def period_sweep():
    """Twenty bounded-orbit configurations with integrated trajectories (criterion 2's sweep).

    Each entry is (params, E, A, pt, T, traj, consts): k = 1, T the closed-form
    radial period and traj 6.2 T of the orbit from pt, integrated at tol 1e-12.
    """
    params_base = dict(alpha=0.2, beta=0.3, k=RationalIndex(1))
    alpha, beta = params_base["alpha"], params_base["beta"]
    A_floor = (alpha + beta) / 4.0 + math.sqrt(alpha * beta) / 2.0
    sweep = []
    for Q in (0.7, 1.0, 1.4, 2.0, 2.6):
        for E in (-0.15, -0.3):
            for frac in (0.35, 0.7):
                A_cap = Q * Q / (4.0 * abs(E))
                A = A_floor + frac * (A_cap - A_floor)
                params = DCParams(Q=Q, **params_base)
                pt = bounded_dc_state(params, E, A, r_frac=0.4, u_frac=0.55)
                T = radial_period_closed_form(Q, E)
                traj = integrate(params, pt, 6.2 * T, tol=1e-12)
                consts = orbit_constants_from_point(params, pt)
                sweep.append((params, E, A, pt, T, traj, consts))
    return sweep


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
