import math
from dataclasses import replace

import numpy as np
import pytest

from superint.invariants import l2_cos, l2_poly
from superint.systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
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


def dc_integral_by_pullback(params, state, variant="sin"):
    """The Coulomb-side integral through the exchange, the oracle for dc_integral.

    The oscillator integral at the pulled-back state, with the oscillator
    coupling set to minus the local energy, omega^2 = -H(state).
    """
    ttw = TTWParams(omega2=-hamiltonian(state, params), alpha=params.alpha,
                    beta=params.beta, k=params.k)
    mapped = pullback_phase(state)
    return l2_poly(ttw, mapped) if variant == "sin" else l2_cos(ttw, mapped)


def ttw_params(k_text, omega2=1.0, alpha=0.3, beta=0.45):
    return TTWParams(omega2=omega2, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))


def ttw_radial_period(omega2):
    return math.pi / (2.0 * math.sqrt(omega2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
