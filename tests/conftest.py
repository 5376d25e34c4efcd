"""Shared fixtures and independent oracles for the test suite.

The branch-table oracles enumerate the interrogation evolution explicitly
(initial target state -> RF branches -> conditional sensor phase) and never
touch the closed forms or the simulator they are used to check.
"""

import numpy as np
import pytest

from zfepr import TargetSpec, corr_signal, u_st0, u_st1

TWO_PI = 2.0 * np.pi

# secular coupling phase coefficients of the target basis states, in units of
# C*tau/2 per unit Szz eigenvalue, and the action of the 2*pi decoupling RF
SZZ_COEFF = np.array([0.5, 0.0, 0.0, -0.5])
FLIP_2PI = {0: 3, 1: 1, 2: 2, 3: 0}
MODULATED = {0, 3}


@pytest.fixture
def spec():
    return TargetSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


def deer_table_signal(theta, tau_us, coupling_mhz, echo=1.0):
    """Enumerate the interrogation branch table and average the readout.

    Each thermal initial state splits under the mid-sequence RF into
    branches; a branch from state i to state f accumulates the conditional
    phase (s_i - s_f) * C*tau/2 because the decoupling pulse reverses the
    first-half contribution, and reads (1 + cos(2 phi))/2.  ``echo``
    multiplies the correlated term cos(2 phi) of every branch that ends the
    block in a coupling-modulated state.
    """
    u = u_st1(theta)
    ph = TWO_PI * coupling_mhz * tau_us
    total = 0.0
    for i in range(4):
        for f in range(4):
            prob = abs(u[f, i]) ** 2
            phi = (SZZ_COEFF[i] - SZZ_COEFF[f]) * ph / 2.0
            factor = echo if f in MODULATED else 1.0
            total += 0.25 * prob * 0.5 * (1.0 + factor * np.cos(2.0 * phi))
    return total


def _branch_phases(manip_u, tau_us, coupling_mhz):
    """Yield (prob, phi1, phi2, sector1, sector2) over the correlation table."""
    ph = TWO_PI * coupling_mhz * tau_us
    for i in range(4):
        phi1 = (SZZ_COEFF[i] - SZZ_COEFF[FLIP_2PI[i]]) * ph / 2.0
        mid = FLIP_2PI[i]
        for f in range(4):
            prob = 0.25 * abs(manip_u[f, mid]) ** 2
            phi2 = (SZZ_COEFF[f] - SZZ_COEFF[FLIP_2PI[f]]) * ph / 2.0
            yield prob, phi1, phi2, i, f


def rabi_manipulation(transition, theta):
    if transition == "st1":
        return u_st1(theta)
    return u_st1(np.pi) @ u_st0(theta) @ u_st1(np.pi)


def corr_table_signal(manip_u, tau_us, coupling_mhz, echo=1.0, lock=1.0):
    """Correlation signal from the branch table, optional decay factors.

    ``echo`` multiplies the correlated term once per interrogation block in
    which the branch occupies a coupling-modulated state; ``lock`` is the
    locked-contrast factor.
    """
    total = 0.0
    for prob, phi1, phi2, i, f in _branch_phases(manip_u, tau_us, coupling_mhz):
        f1 = echo if i in MODULATED else 1.0
        f2 = echo if f in MODULATED else 1.0
        total += prob * 0.5 * (1.0 + lock * f1 * f2 * np.cos(2 * phi1) * np.cos(2 * phi2))
    return total


def corr_table_term(manip_u, tau_us, coupling_mhz):
    """Bare <cos 2phi1 cos 2phi2> from the branch table."""
    return sum(
        prob * np.cos(2 * phi1) * np.cos(2 * phi2)
        for prob, phi1, phi2, _, _ in _branch_phases(manip_u, tau_us, coupling_mhz)
    )


def alternative_table_signal(manip_u, tau_us, coupling_mhz):
    """Alternative-protocol signal composed branch by branch."""
    return sum(
        prob * corr_signal(phi1, phi2, variant="alternative")
        for prob, phi1, phi2, _, _ in _branch_phases(manip_u, tau_us, coupling_mhz)
    )
