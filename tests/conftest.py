import math

import numpy as np
import pytest

from superint.systems import DCParams, RationalIndex, TTWParams, bounded_dc_state

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
    params, E, A = DC_SETUPS[k_text]
    return params, E, A, bounded_dc_state(params, E, A, r_frac=0.35, u_frac=0.6,
                                          sign_r=sign_r, sign_phi=sign_phi)


def ttw_params(k_text, omega2=1.0, alpha=0.3, beta=0.45):
    return TTWParams(omega2=omega2, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))


def ttw_radial_period(omega2):
    return math.pi / (2.0 * math.sqrt(omega2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
