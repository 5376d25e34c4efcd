"""Property tests of the density-matrix engine: every step keeps a stack of
density matrices physical, and evolving a whole grid of sequences (shared
prefix once, shared tail folded into the readout observable, each middle run
from the prefix state or, on a Ramsey grid, read out in the target
eigenbasis) must equal one forward simulation per sequence."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepr import protocols
from zfepr.hamiltonians import NoiseDraw, TargetSpec
from zfepr.pulses import DecayModel, dephase, free, mw_2pi, mw_pi, rf_st0, rf_st1, spinlock

SPEC = TargetSpec()
DECAY = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
ANGLES = st.floats(-2 * math.pi, 2 * math.pi)
DURATIONS = st.floats(0.0, 10.0)
#: One step of every kind the engine applies; an echo step is its float factor.
STEPS = st.one_of(
    st.floats(0.0, 1.0),
    st.just(dephase()),
    st.floats(0.0, 200.0).map(spinlock),
    st.just(mw_pi()),
    st.just(mw_2pi()),
    DURATIONS.map(free),
    DURATIONS.map(lambda t: free(t, frame="target")),
    ANGLES.map(rf_st1),
    ANGLES.map(rf_st0),
)


@settings(deadline=None)
@given(step=STEPS, adjoint=st.booleans(), decayed=st.booleans(), rank=st.integers(1, 12),
       coupling=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_every_step_keeps_a_stack_physical(step, adjoint, decayed, rank, coupling, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 12, rank)) + 1j * rng.normal(size=(3, 12, rank))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    eig = protocols._eigensystems(SPEC, coupling, rng.normal(0.0, 0.3, (3, 3)))
    out = protocols._apply(rho, step, eig, DECAY if decayed else None, adjoint=adjoint)
    assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() < 1e-12
    assert np.abs(out - out.conj().swapaxes(-1, -2)).max() < 1e-12
    # an echo step scales coherences by a mask that is not positive
    # semidefinite (smallest eigenvalue -0.81 at factor 0.37), so it need not
    # keep a state positive on its own; every other kind is a CPTP map
    if not isinstance(step, float):
        assert np.linalg.eigvalsh(out).min() > -1e-12


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
    eig = protocols._eigensystems(SPEC, coupling, draw.as_array()[None])
    grid = protocols._evolve(sequences, eig, decay)[:, 0]
    single = [protocols.simulate_sequence(seq, SPEC, coupling, noise=draw, decay=decay)
              for seq in sequences]
    assert np.abs(grid - single).max() < 1e-12
