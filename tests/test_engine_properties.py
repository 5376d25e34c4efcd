"""Property tests of the grid engine: evolving a whole grid of sequences
(shared prefix once, each middle from it, shared tail folded into the readout
observable) must equal one forward simulation per sequence."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepr import protocols
from zfepr.constants import NV_ZFS_MHZ
from zfepr.hamiltonians import DEFAULT_OPS, NoiseDraw, TargetSpec
from zfepr.pulses import DecayModel

SPEC = TargetSpec()
DECAY = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)


def _grid(family, transition, k, theta, tau, points):
    """The sequences of one family on a grid of its swept variable."""
    if family == "rabi":
        return [protocols.correlation_rabi_sequence(transition, x, tau) for x in points]
    if family == "ramsey":
        return [protocols.correlation_ramsey_sequences(transition, 0.05 * x, tau)[k]
                for x in points]
    return [protocols.deer_sequence(theta, x, transition) for x in points]


@settings(deadline=None)
@given(
    family=st.sampled_from(["rabi", "ramsey", "deer"]),
    transition=st.sampled_from(["st1", "st0"]),
    k=st.integers(0, 1),
    points=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6),
    theta=st.floats(0.0, 2 * math.pi),
    tau=st.floats(0.1, 10.0),
    coupling=st.floats(0.05, 1.0),
    noise=st.tuples(*[st.floats(-0.6, 0.6)] * 3),
    decayed=st.booleans(),
)
def test_grid_engine_equals_per_sequence_simulation(family, transition, k, points, theta,
                                                    tau, coupling, noise, decayed):
    sequences = _grid(family, transition, k, theta, tau, points)
    draw = NoiseDraw(*noise)
    decay = DECAY if decayed else None
    eig = protocols._eigensystems(SPEC, coupling, draw.as_array()[None], NV_ZFS_MHZ,
                                  DEFAULT_OPS)
    grid = protocols._evolve(sequences, eig, decay)[:, 0]
    single = [protocols.simulate_sequence(seq, SPEC, coupling, noise=draw, decay=decay)
              for seq in sequences]
    assert np.abs(grid - single).max() < 1e-12
