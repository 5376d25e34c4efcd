"""Property tests of the density-matrix engine.

The engine groups a sequence's compiled steps into runs: each maximal run
of unitary steps (free evolution, MW and RF pulses) is multiplied into one
propagator, and each channel step (an echo factor, the spin lock,
dephasing) stands alone.  Any list of steps, applied as runs forward to a
state or backward to an observable, must equal an independent per-step
oracle, and must keep a stack of density matrices physical.  The start
state and the readout observable are carried as 4x12 factors up to their
first channel step, and a sequence's readout through them must equal the
oracle's.  Evolving a whole grid of sequences (shared prefix once, shared
tail folded into the readout observable, each middle run from the prefix
state or, on a Ramsey grid, read out in the target eigenbasis whose
rotation ends the prefix and opens the tail) must equal one forward
simulation per sequence.  No run writes into its input or into a
propagator, and the eigenbasis readout, taken in blocks of times, must
equal a pair-by-pair sum.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfepr import protocols
from zfepr.hamiltonians import (
    NoiseDraw,
    TargetSpec,
    joint_hamiltonian,
    noise_hamiltonian,
    target_hamiltonian,
)
from zfepr.pulses import (
    MW_2PI,
    MW_PI,
    DecayModel,
    dephase,
    free,
    mw_2pi,
    mw_pi,
    readout,
    rf_st0,
    rf_st1,
    spinlock,
    u_st0,
    u_st1,
)

SPEC = TargetSpec()
DECAY = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


def _steps(durations):
    """One step of every kind the engine applies; an echo step is its float
    factor."""
    return st.one_of(
        st.floats(0.0, 1.0),
        st.just(dephase()),
        st.floats(0.0, 200.0).map(spinlock),
        st.just(mw_pi()),
        st.just(mw_2pi()),
        durations.map(free),
        durations.map(lambda t: free(t, frame="target")),
        ANGLES.map(rf_st1),
        ANGLES.map(rf_st0),
    )


STEPS = _steps(st.floats(0.0, 10.0))


def _states(rng, n, rank):
    a = rng.normal(size=(n, 12, rank)) + 1j * rng.normal(size=(n, 12, rank))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _run_steps(x, steps, eig, decay, adjoint=False):
    """The engine's run applier on a list of compiled steps."""
    ws = protocols._Workspace(eig)
    return protocols._apply_runs(x, protocols._runs(steps, ws), ws, decay, adjoint)


@settings(deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=6), adjoint=st.booleans(),
       decayed=st.booleans(), rank=st.integers(1, 12), coupling=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_every_step_keeps_a_stack_physical(steps, adjoint, decayed, rank, coupling, seed):
    rng = np.random.default_rng(seed)
    rho = _states(rng, 3, rank)
    eig = protocols._eigensystems(SPEC, coupling, rng.normal(0.0, 0.3, (3, 3)))
    out = _run_steps(rho, steps, eig, DECAY if decayed else None, adjoint=adjoint)
    assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() < 1e-12
    assert np.abs(out - out.conj().swapaxes(-1, -2)).max() < 1e-12
    # an echo step scales coherences by a mask that is not positive
    # semidefinite (smallest eigenvalue -0.81 at factor 0.37), so it need not
    # keep a state positive; every other kind is a CPTP map
    if not any(isinstance(step, float) for step in steps):
        assert np.linalg.eigvalsh(out).min() > -1e-12


# ---------------------------------------------------------------------------
# per-step oracle: each step's map on one 12x12 matrix, built from the
# Hamiltonians and pulse matrices, never from the engine
# ---------------------------------------------------------------------------

_EYE3, _EYE4 = np.eye(3), np.eye(4)
_R2 = 1.0 / math.sqrt(2.0)
#: Rows are the locked dressed states |psi+>, |0>, |psi-> in the bare basis.
_DRESSED = np.kron(np.array([[_R2, 0.0, _R2], [0.0, 1.0, 0.0], [_R2, 0.0, -_R2]]), _EYE4)


def _sensor_block(i):
    return i // 4, i % 4  # (sensor m = +1, 0, -1 index, target index)


def _echo_mask(factor):
    """Scales the T+-1 rows and columns of the |+1><-1| and |-1><+1| blocks."""
    mask = np.ones((12, 12))
    for i in range(12):
        for j in range(12):
            (a, p), (b, q) = _sensor_block(i), _sensor_block(j)
            if {a, b} == {0, 2} and (p in (0, 3) or q in (0, 3)):
                mask[i, j] = factor
    return mask


def _lock(x, e):
    """The locking channel in the dressed basis: populations of |psi+>, |0>,
    |psi-> kept, every coherence between them erased, and the psi+/psi-
    imbalance relaxed by ``e``."""
    d = _DRESSED @ x @ _DRESSED.T
    plus, minus = d[0:4, 0:4], d[8:12, 8:12]
    out = np.zeros_like(d)
    out[0:4, 0:4] = 0.5 * (plus + minus) + 0.5 * e * (plus - minus)
    out[8:12, 8:12] = 0.5 * (plus + minus) - 0.5 * e * (plus - minus)
    out[4:8, 4:8] = d[4:8, 4:8]
    return _DRESSED.T @ out @ _DRESSED


def _step_map(step, coupling, draw, decay):
    """The map x -> Phi(x) of one step for one noise draw (MHz triple)."""
    if isinstance(step, float):
        mask = _echo_mask(step)
        return lambda x: mask * x
    if step.kind == "dephase":
        keep = np.kron(_EYE3, np.ones((4, 4)))
        return lambda x: keep * x
    if step.kind == "spinlock":
        e = 1.0 if decay is None else math.exp(-step.value / decay.t1rho_us)
        return lambda x: _lock(x, e)
    if step.kind == "free" and step.frame == "joint":
        h = joint_hamiltonian(SPEC, coupling) + np.kron(_EYE3, noise_hamiltonian(draw))
        u = scipy.linalg.expm(-1j * step.value * h)
    elif step.kind == "free":
        h = target_hamiltonian(SPEC) + noise_hamiltonian(draw)
        u = np.kron(_EYE3, scipy.linalg.expm(-1j * step.value * h))
    elif step.kind in ("mw_pi", "mw_2pi"):
        u = np.kron(MW_PI if step.kind == "mw_pi" else MW_2PI, _EYE4)
    else:
        u = np.kron(_EYE3, (u_st1 if step.kind == "rf_st1" else u_st0)(step.value))
    return lambda x: u @ x @ u.conj().T


def _superoperator(phi):
    """The 144x144 matrix of a linear map on 12x12 matrices (row-major
    vectorization); its conjugate transpose is the adjoint map."""
    basis = np.eye(144).reshape(144, 12, 12)
    return np.stack([phi(e).ravel() for e in basis], axis=1)


def _oracle(x, steps, coupling, draws, decay, adjoint):
    out = []
    for xn, draw in zip(x, draws):
        v = xn.ravel()
        sops = [_superoperator(_step_map(s, coupling, draw, decay)) for s in steps]
        for s in (reversed(sops) if adjoint else sops):
            v = (s.conj().T if adjoint else s) @ v
        out.append(v.reshape(12, 12))
    return np.array(out)


# Free durations up to 0.05 us: the phases carry the 2.87 GHz zero-field
# splitting, 1.8e4 rad/us, which double precision holds to a few 1e-12
# rad/us, so over microseconds engine and oracle differ by about 1e-11 and
# could not be held to 1e-12.  The physicality and grid tests run the
# durations of real sequences.  The example misses the bound (1.08e-12) if
# the engine diagonalizes the splitting within each sensor block.
@settings(deadline=None, max_examples=60)
@given(steps=st.lists(_steps(st.floats(0.0, 0.05)), min_size=1, max_size=6),
       adjoint=st.booleans(), decayed=st.booleans(), coupling=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(steps=[free(0.03125)] * 2, adjoint=True, decayed=False, coupling=0.5,
         seed=4294967295)
def test_run_applier_matches_a_per_step_oracle(steps, adjoint, decayed, coupling, seed):
    rng = np.random.default_rng(seed)
    draws = rng.normal(0.0, 0.3, (2, 3))
    x = _states(rng, 2, 12)
    if adjoint:  # an observable: any Hermitian matrix
        x = x + 0.3 * rng.normal(size=x.shape)
        x = x + x.conj().swapaxes(-1, -2)
    decay = DECAY if decayed else None
    eig = protocols._eigensystems(SPEC, coupling, draws)
    engine = _run_steps(x, steps, eig, decay, adjoint=adjoint)
    expected = _oracle(x, steps, coupling, draws, decay, adjoint)
    assert np.abs(engine - expected).max() < 1e-12


#: Sequences of a middle RF angle, with free durations up to 0.05 us as
#: above, and the number of unitary steps before their first channel step
#: without and with decay.  One opens with dephasing, so its lead is empty;
#: one's lead ends at the spin lock, or with decay at the echo factor
#: inserted just before it; one has no channel without decay, so alone its
#: state stays a factor up to the readout (with decay its one channel is the
#: echo before the last MW pi pulse).  Each tail holds a MW pi pulse with
#: joint free evolution after it, so the order of its steps shows.
FACTOR_FAMILIES = {
    "dephase_first": (lambda a: [dephase(), mw_pi(), free(0.03), rf_st1(a), free(0.02),
                                 mw_pi(), free(0.01), mw_2pi(), free(0.02), readout()], (0, 0)),
    "echo_lead": (lambda a: [mw_pi(), free(0.03), mw_2pi(), rf_st0(0.7), free(0.02),
                             spinlock(40.0), rf_st1(a), free(0.04, frame="target"), mw_pi(),
                             free(0.03), mw_2pi(), free(0.01), mw_pi(), readout()], (5, 5)),
    "no_channel": (lambda a: [mw_pi(), free(0.03), mw_2pi(), rf_st1(a), free(0.02), mw_pi(),
                              readout()], (6, 5)),
}


@pytest.mark.parametrize("family", FACTOR_FAMILIES)
@pytest.mark.parametrize("decayed", [False, True])
def test_factor_lead_and_tail_match_a_per_step_oracle(family, decayed):
    # the engine carries the start state and the readout observable as 4x12
    # factors through the unitary steps before the first channel step and
    # after the last one; each sequence's readout Re Tr(P0 rho) must equal the
    # per-step oracle's, alone (a forward lead up to its first channel) and
    # as a grid of two (the shared tail walked back from the readout)
    build, leads = FACTOR_FAMILIES[family]
    rng = np.random.default_rng(29)
    draws = rng.normal(0.0, 0.3, (2, 3))
    decay = DECAY if decayed else None
    sequences = [build(a) for a in (0.6, 2.3)]
    steps = [protocols._steps(seq, decay) for seq in sequences]
    unitary = [protocols._is_unitary(step) for step in steps[0]] + [False]
    assert unitary.index(False) == leads[decayed]
    if family == "echo_lead":
        assert isinstance(steps[0][5], float) == decayed
    rho0 = np.kron(np.diag([0.0, 1.0, 0.0]), np.eye(4)) / 4.0
    expected = np.array([np.trace(_oracle([rho0] * 2, s, 0.4, draws, decay, False)[:, 4:8, 4:8],
                                  axis1=-2, axis2=-1).real for s in steps])
    eig = protocols._eigensystems(SPEC, 0.4, draws)
    alone = np.concatenate([protocols._evolve([seq], eig, decay) for seq in sequences])
    assert np.abs(alone - expected).max() < 1e-12
    assert np.abs(protocols._evolve(sequences, eig, decay) - expected).max() < 1e-12


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


#: One run of every kind, as (steps, decayed): the steps a run is made of, so
#: that the oracle sees the same map.  A joint free step is a stack over the
#: draws, a MW and RF stretch one 12x12 matrix.
RUN_KINDS = {
    "stack": ([free(0.03)], False),
    "single": ([mw_pi(), rf_st1(0.7), mw_2pi()], False),
    "echo": ([0.37], False),
    "dephase": ([dephase()], False),
    "spinlock": ([spinlock(40.0)], False),
    "spinlock_decay": ([spinlock(40.0)], True),
}


@pytest.mark.parametrize("kind", RUN_KINDS)
@pytest.mark.parametrize("adjoint", [False, True])
def test_a_run_writes_into_neither_its_state_nor_itself(kind, adjoint):
    # a grid's middles all start from the one prefix state, and one call's
    # propagators are shared by all its sequences, so a run that wrote into
    # either would corrupt the next sequence
    steps, decayed = RUN_KINDS[kind]
    decay = DECAY if decayed else None
    rng = np.random.default_rng(30)
    draws = rng.normal(0.0, 0.3, (2, 3))
    x = _states(rng, 2, 12)
    if adjoint:  # an observable: any Hermitian matrix
        x = x + 0.3 * rng.normal(size=x.shape)
        x = x + x.conj().swapaxes(-1, -2)
    eig = protocols._eigensystems(SPEC, 0.4, draws)
    ws = protocols._Workspace(eig)
    (run,) = protocols._runs(steps, ws)
    assert np.ndim(run) == {"stack": 3, "single": 2}.get(kind, 0)
    x_before, run_before = x.copy(), np.copy(run)
    out = protocols._apply_run(x, run, ws, decay, adjoint)
    assert np.abs(out - _oracle(x, steps, 0.4, draws, decay, adjoint)).max() < 1e-12
    assert x.tobytes() == x_before.tobytes()
    assert np.asarray(run).tobytes() == run_before.tobytes()


def test_the_factor_walks_leave_the_built_propagators_unwritten():
    rng = np.random.default_rng(31)
    eig = protocols._eigensystems(SPEC, 0.4, rng.normal(0.0, 0.3, (3, 3)))
    # without decay the walks run from both ends up to the spin lock
    sequence = protocols.correlation_ramsey_sequences("st0", 0.4, 0.05)[0]
    steps = protocols._steps(sequence, None)
    ws = protocols._Workspace(eig)
    protocols._runs(steps, ws)
    before = {step: u.copy() for step, u in ws.built.items()}
    protocols._lead(steps, ws)
    protocols._lead(steps, ws, adjoint=True)
    assert ws.built.keys() == before.keys()
    assert all(ws.built[step].tobytes() == u.tobytes() for step, u in before.items())


def test_the_eigenbasis_readout_equals_the_direct_trace():
    # 100 times span three blocks of the readout's time axis, and the
    # phases reach 6,000 rad; both sides take the level phases exp(-i w t)
    rng = np.random.default_rng(32)
    n = 5
    rho = _states(rng, n, 12)
    b = rng.normal(size=(n, 12, 12)) + 1j * rng.normal(size=(n, 12, 12))
    obs = 0.3 * (b + b.conj().swapaxes(-1, -2))
    w = rng.normal(0.0, 50.0, (n, 4))
    times = np.linspace(0.0, 40.0, 100)
    assert len(times) > 2 * protocols._TIME_BLOCK
    # U(t) = I3 (x) exp(-i w t) of each draw, as (times, n, 12) diagonals
    u = np.tile(np.exp(-1j * np.multiply.outer(times, w)), 3)
    evolved = u[..., :, None] * rho * u[..., None, :].conj()
    expected = np.einsum("nij,tnji->tn", obs, evolved).real
    out = protocols._eigenbasis_readout(rho, obs, times, w)
    assert out.shape == (len(times), n)
    assert np.abs(out - expected).max() < 1e-14
