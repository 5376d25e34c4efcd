"""Measurement protocols: one closed-form signal each, on the simulator's
inputs (a coupling in MHz or a :class:`~zfepr.hamiltonians.DipolarGeometry`,
times that may be arrays), and a brute-force density matrix simulator that
must agree with them.

Phase convention: every ``cos(C tau)`` in the formulas means the angular
phase ``2*pi * C_MHz * tau_us``.  ``tau`` is the total free evolution of one
interrogation block (two halves of tau/2 around the decoupling pulse).

The simulator holds one 12x12 sensor+target density matrix per noise draw
in a single stack and applies each step to the whole stack at once; a lone
simulation is a stack of one.  The free Hamiltonians of all draws are
diagonalised by one real-symmetric batched ``eigh``, after a rotation about
z that puts each draw's transverse noise on x.  Each sequence is compiled in
one pass that checks it and yields its steps: the elements before the
readout, with the echo decay of each interrogation window inserted as a step
where the window closes.  The start state |0><0| (x) I/4 and the readout
observable P0 = |0><0| (x) I4 have rank 4: each is carried as a 4x12 factor
(the state's is transposed) through the unitary steps (free evolution, MW
and RF pulses) before its first channel step (an echo factor, the spin
lock, dephasing), the observable backward from the readout, and becomes a
12x12 matrix there.  From then on each maximal run of unitary steps is one
propagator, built once per noise chunk and applied to the Hermitian state
as U (U rho)^dagger; each channel step breaks a run.  A stack times a
draw-independent matrix is one product, and so is a factor times a
transposed stack.  A grid of sequences is evolved together: the prefix every
sequence shares is applied once, then the tail they share is folded
backwards into the observable (Heisenberg picture).  A channel that acts on
the sensor alone (the spin lock, dephasing) commutes with steps that act on
the target alone, so when only such steps follow the prefix's last channel
step, that channel ends the prefix and the state's factor walks on through
them.  On a Ramsey grid each sequence's own middle is one target-frame free
step, which is diagonal in each draw's target eigenbasis; the rotation into
that basis closes the prefix's steps (the spin lock, moved, comes after it)
and opens the tail, and every time is read out there at the cost of the
four level phases of each draw.  Any other grid runs each middle from the
prefix state, one sequence at a time, and reads it out against the
observable.  Every stack over the draws that a noise chunk computes is a
slot of one workspace, allocated as one block.  Free gaps that
fall inside a spin-locking window evolve the target factor alone: the locked
sensor averages the secular coupling away, which is exactly how the
closed-form treatment handles that interval.
"""

import itertools
import math
import numbers

import numpy as np

from .constants import TWO_PI
from .hamiltonians import (
    SX_T,
    SZ_T,
    NoiseDraw,
    TargetSpec,
    _SENSOR_ZFS_MHZ,
    _block_diag,
    _check_transition,
    _check_weights,
    _coupling_offsets_mhz,
    _line,
    resolve_coupling,
    target_levels_mhz,
)
from .noise import DRAWS_PER_BLOCK, NoiseModel, sample_noise, shift_characteristic
from .pulses import MW_2PI, MW_PI, Pulse, dephase, free, mw_2pi, mw_pi, readout, rf_st0, rf_st1
from .pulses import spinlock, spinlock_channel, u_st0, u_st1
from .spectra import TimeSeries

__all__ = [
    "SequenceError",
    "deer_signal",
    "corr_rabi",
    "corr_ramsey_diff",
    "corr_signal",
    "deer_sequence",
    "correlation_rabi_sequence",
    "correlation_ramsey_sequences",
    "simulate_sequence",
    "simulate_alternative_correlation",
    "monte_carlo_signal",
]

_EYE4 = np.eye(4, dtype=complex)
_MW_JOINT = {"mw_pi": np.kron(MW_PI, _EYE4), "mw_2pi": np.kron(MW_2PI, _EYE4)}
#: SX_T and SZ_T, both real in the singlet-triplet basis, as real matrices.
_SX_REAL, _SZ_REAL = SX_T.real, SZ_T.real
#: Keeps the sensor-diagonal 4x4 blocks of a joint matrix, zeroes the rest.
_SENSOR_DIAGONAL = np.kron(np.eye(3), np.ones((4, 4)))
#: Phi0 = <0| (x) I4, 4x12: the readout observable, the NV |0> population, is
#: P0 = Phi0^dagger Phi0, and every sequence starts from P0 / 4.
_PHI0 = np.kron([[0.0, 1.0, 0.0]], _EYE4).astype(complex)
#: The sectors an interrogation window's echo factor scales: the T+-1 rows or
#: columns (target indices 0 and 3) of the |+1><-1| and |-1><+1| sensor blocks.
_ECHO_SECTORS = np.kron([[0, 0, 1], [0, 0, 0], [1, 0, 0]],
                        1 - np.outer([0, 1, 1, 0], [0, 1, 1, 0])) > 0
#: Elements that close an interrogation window and so apply its echo decay.
_WINDOW_CLOSING = ("mw_pi", "spinlock")
#: Elements that act as a unitary: the engine multiplies each run of them into
#: one propagator, and the alternative protocol allows them during its wait.
_UNITARY_KINDS = ("free", "mw_pi", "mw_2pi", "rf_st1", "rf_st0")
#: Times per eigenbasis readout block: (n, 36, 4) level phases fill one
#: (n, 12, 12) stack.
_TIME_BLOCK = 36
#: Slots of a chunk's workspace: the most (n, 12, 12) stacks a grid holds at
#: once, on a decayed Ramsey grid a free propagator, a composed run, a
#: channel's output and both products of the sandwich that follows it, and on
#: a Rabi grid the free propagator, the state, the observable and a middle's
#: sandwich (see :func:`_evolve`).
_SLOTS = 5
#: What each engine entry point takes as its noise, named in their type errors.
_NOISE_ROLES = "monte_carlo_signal averages a NoiseModel; simulate_sequence takes one NoiseDraw"


class SequenceError(ValueError):
    """Malformed pulse sequence."""


def _phase(coupling_mhz, tau_us):
    return TWO_PI * coupling_mhz * tau_us


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def deer_signal(tau_us, couplings, decay=None, theta=TWO_PI):
    """Signal of :func:`deer_sequence` at RF flip angle ``theta`` and times
    ``tau_us``, which broadcast against each other.

    S = sum_l w_l (1/8) [5 + c^2 + s^2 h + 2 e ((1+c)^2/4 + s^2 h/2
    + (1-c)^2 k/4)], c = cos(theta/2), s^2 = sin^2(theta/2), h = cos(C_l tau/2),
    k = cos(C_l tau): the readout over the thermal target states and their RF
    branches, with e = ``decay.echo_factor(tau_us)`` (1 without decay) on each
    branch that ends in T+-1.  At theta = 2*pi, S = sum_l w_l [3/4 + e k/4].
    ``couplings`` is one coupling, a strength in MHz or a :class:`DipolarGeometry`,
    or (coupling, w_l) pairs, weights >= 0 summing to 1; several give the
    beating seen when the target axis hops between bonds.
    """
    if np.ndim(couplings) == 0:  # one strength or geometry
        couplings = ((couplings, 1.0),)
    pairs = [(resolve_coupling(c_l), float(w)) for c_l, w in couplings]
    _check_weights([w for _, w in pairs], "coupling")
    c = np.cos(theta / 2.0)
    s2 = 1.0 - c * c  # exactly 0 at theta = 2*pi
    e = 1.0 if decay is None else decay.echo_factor(tau_us)

    def one(c_mhz):
        ct = _phase(c_mhz, tau_us)
        h, k = np.cos(ct / 2.0), np.cos(ct)
        return (5.0 + c * c + (1.0 + e) * s2 * h
                + e * ((1.0 + c) ** 2 / 2.0 + (1.0 - c) ** 2 * k / 2.0)) / 8.0

    return sum(w * one(c_mhz) for c_mhz, w in pairs)


def corr_rabi(transition, theta, tau_us, coupling):
    """Correlated term <cos 2phi1 cos 2phi2> of a correlation Rabi sweep.

    (1/8)(1 - cos(Ct))^2 cos(theta) + 3/8 + (1/4) cos(Ct) + (3/8) cos^2(Ct);
    the S0<->T+-1 and S0<->T0 drive variants give the same expression.
    ``coupling`` is a strength in MHz or a :class:`DipolarGeometry`.
    """
    _check_transition(transition)
    cc = np.cos(_phase(resolve_coupling(coupling), tau_us))
    return (1.0 - cc) ** 2 * np.cos(theta) / 8.0 + 0.375 + cc / 4.0 + 0.375 * cc * cc


def corr_ramsey_diff(transition, t_us, tau_us, coupling, noise=None, spec=None):
    """Differential correlation Ramsey signal (sig minus ref correlated term).

    (1/4)(1-cos Ct)^2 Re[phi(t) sum_k w_k exp(2 pi i f_k t)] over the lines
    f_k = f0 + o_k, weights w_k, of the transition: its zero-field center f0
    plus the offsets o_k of :func:`~zfepr.hamiltonians._line` (the c13
    doublet on S0<->T+-1, the static offset doublet on S0<->T0, or the line
    alone; coincident components are one line), all under one noise
    average phi(t) = <exp(2 pi i dw t)> in closed form: the characteristic
    function of the transition's noise shift dw,
    :func:`~zfepr.noise.shift_characteristic`, which is 1 without noise and
    complex with it.  No noise is sampled, so the record is deterministic.
    ``coupling`` is a strength in MHz or a :class:`DipolarGeometry`.

    The measured photoluminescence difference is half this value.
    """
    spec = spec or TargetSpec()
    offsets, weights = _line(spec, transition)
    center = spec.f_st1_mhz if transition == "st1" else spec.f_st0_mhz
    t = np.asarray(t_us, dtype=float)
    amp = 0.25 * (1.0 - np.cos(_phase(resolve_coupling(coupling), tau_us))) ** 2
    env = 1.0 if noise is None else shift_characteristic(noise, spec, transition, t)
    out = (amp * env * sum(w * np.exp(1j * (TWO_PI * f * t))
                           for f, w in zip(center + offsets, weights))).real
    return float(out) if np.isscalar(t_us) else out


def corr_signal(phi1, phi2, variant="main"):
    """Correlation signal for one phase pair.

    main:        (1/2) [1 + cos(2 phi1) cos(2 phi2)]
    alternative: (1/8) [3 + cos(2 phi1) + cos(2 phi2) + 3 cos(2 phi1) cos(2 phi2)]

    The alternative protocol trades the locking drive for a plain wait, at
    the cost of a quarter of the correlated-term contrast.  Statistical
    averaging over phase realizations is the caller's business: the tests'
    oracle for :func:`simulate_alternative_correlation` averages this form
    over the target's thermal states and RF branches.
    """
    c1, c2 = np.cos(2.0 * phi1), np.cos(2.0 * phi2)
    if variant == "main":
        return 0.5 * (1.0 + c1 * c2)
    if variant == "alternative":
        return (3.0 + c1 + c2 + 3.0 * c1 * c2) / 8.0
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

def _rf(transition):
    """The RF pulse of ``transition``: rf_st1 for st1, rf_st0 for st0."""
    _check_transition(transition)
    return rf_st1 if transition == "st1" else rf_st0


#: The fixed-angle RF pulses of the correlation sequences, built once and
#: shared like :data:`zfepr.pulses._SHARED` (Pulse is frozen): the decoupling
#: rf_st1(2 pi), the shuttle rf_st1(pi), and each transition's +-pi/2 pulses.
_DECOUPLE, _SHUTTLE = rf_st1(2.0 * math.pi), rf_st1(math.pi)
_QUARTERS = {tr: (_rf(tr)(math.pi / 2.0), _rf(tr)(-math.pi / 2.0)) for tr in ("st1", "st0")}


def _interrogation_block(tau_us, drive):
    """tau/2 - (2pi MW + the RF ``drive``) - tau/2, without the MW pi pulses;
    both halves are one element."""
    half = free(tau_us / 2.0)
    return [half, mw_2pi(), drive, half]


def deer_sequence(theta, tau_us, transition="st1"):
    """One interrogation block: pi - tau/2 - (2pi MW + theta RF) - tau/2 - pi."""
    return [mw_pi()] + _interrogation_block(tau_us, _rf(transition)(theta)) + [mw_pi(), readout()]


def _correlation_sequences(transition, tau_us, lock_us, opening, closings):
    """One correlation sequence per element of ``closings``: an interrogation
    block, a locked window holding ``opening`` then the closing element, a
    second block, readout.  On S0<->T0 the window's drive is sandwiched
    between S0<->T+-1 pi pulses, which shuttle population through the
    auxiliary states.  Every element but the closing one is built once and
    shared by all the sequences, and the fixed-angle RF pulses by every call.
    """
    block = _interrogation_block(tau_us, _DECOUPLE)
    shuttle = [_SHUTTLE] if transition == "st0" else []
    head = [mw_pi()] + block + [spinlock(lock_us)] + shuttle + opening
    tail = shuttle + block + [mw_pi(), readout()]
    return [head + [closing] + tail for closing in closings]


def correlation_rabi_sequence(transition, theta, tau_us, lock_us=10.0):
    """Two interrogation blocks around a locked window holding one RF drive."""
    return _correlation_sequences(transition, tau_us, lock_us, [], [_rf(transition)(theta)])[0]


def correlation_ramsey_sequences(transition, t_us, tau_us, lock_us=10.0):
    """(signal, reference) sequences for the differential Ramsey measurement.

    Signal closes the target superposition with -pi/2, reference with +pi/2,
    and the two share every other element; their difference cancels every
    background term.  The opening pi/2 pulse and the reference's closing one
    are one element.
    """
    _check_transition(transition)
    quarter, minus_quarter = _QUARTERS[transition]
    return tuple(_correlation_sequences(transition, tau_us, lock_us,
                                        [quarter, free(t_us, frame="target")],
                                        [minus_quarter, quarter]))


# ---------------------------------------------------------------------------
# density-matrix simulator
# ---------------------------------------------------------------------------

def _eigensystems(spec, coupling, draws):
    """Eigendecompositions (rad/us) of the free Hamiltonians of each draw.

    ``draws`` is an (n, 3) array of noise triples in MHz.  Returns ``(w, v)``
    of shapes (n, 3, 4) and (n, 3, 4, 4) for the sensor blocks m = +1, 0, -1
    of :func:`~zfepr.hamiltonians.joint_hamiltonian` plus the draw's
    :func:`~zfepr.hamiltonians.noise_hamiltonian`.

    A rotation about z by the total target spin turns the transverse noise
    dx SX + dy SY into d_perp SX, d_perp = hypot(dx, dy), and leaves the
    axial hyperfine levels and C*m*szz alone.  So each block is
    D H' D^dagger with H' = levels + d_perp SX + dz SZ + C*m*szz real
    symmetric and D = diag(exp(-i phi), 1, 1, exp(i phi)) over (T+1, S0, T0,
    T-1), phi = atan2(dy, dx): one real batched ``eigh`` gives H' = V' w V'^T,
    and v = D V'.  The zero-field splitting, 1.8e4 rad/us times the
    identity in a block, is added to the eigenvalues after ``eigh``, which
    would lose digits to it.  The m = 0 block (index 1) of H' is the rotated
    target-alone Hamiltonian bit for bit (its C*m*szz is zero), so index 1
    is the target frame's eigensystem.
    """
    dx, dy, dz = draws.T[..., None, None]
    h_target = np.diag(target_levels_mhz(spec)) + (np.hypot(dx, dy) * _SX_REAL + dz * _SZ_REAL)
    h = h_target[:, None] + _coupling_offsets_mhz(coupling)
    h *= TWO_PI
    w, v = np.linalg.eigh(h)
    w += TWO_PI * _SENSOR_ZFS_MHZ[:, None]
    d = np.ones((len(draws), 1, 4, 1), dtype=complex)
    d[:, 0, 0, 0] = np.exp(-1j * np.arctan2(draws[:, 1], draws[:, 0]))
    d[:, 0, 3, 0] = d[:, 0, 0, 0].conj()
    return w, d * v


def _steps(sequence, decay):
    """Compile a sequence in one pass: check it, and return the elements
    before its readout with each interrogation window's echo factor, a float,
    inserted as a step just before the element that closes the window.

    Equal steps are equal maps, so sequences can share compiled steps by
    plain equality.
    """
    if not sequence:
        raise SequenceError("empty sequence")
    steps, seen_mw, in_window, t_coherent = [], False, False, 0.0
    for i, el in enumerate(sequence):
        if not isinstance(el, Pulse):
            raise SequenceError(f"not a pulse element: {el!r}")
        if el.kind == "readout":
            if i < len(sequence) - 1:
                raise SequenceError("readout must be the final element")
            return steps
        if el.kind in ("mw_pi", "mw_2pi"):
            seen_mw, in_window = True, False
        elif el.kind == "spinlock":
            if not seen_mw:
                raise SequenceError("spin locking before any MW pulse")
            in_window = True
        elif el.frame == "target" and not in_window:
            raise SequenceError("target-frame free evolution outside a locked window")
        if el.kind in _WINDOW_CLOSING:
            factor = 1.0 if decay is None else decay.echo_factor(t_coherent)
            if factor < 1.0:
                steps.append(factor)
            t_coherent = 0.0
        elif el.kind == "free" and el.frame == "joint":
            t_coherent += el.value
        steps.append(el)
    raise SequenceError("sequence must end with a readout")


class _Workspace:
    """What one chunk of draws is evolved with: its eigensystems ``eig``, the
    propagators ``built`` from them, one per distinct unitary step, and its
    (n, 12, 12) stacks, handed out as slots of one block.

    :meth:`stack` hands out a free slot.  :meth:`free` takes back those of
    the arrays it is given that are slots, unless :meth:`keep` named them (as
    :func:`_factors` names every propagator it builds): a caller frees a
    stack once it will not read it again, and anything else it frees (a
    single matrix, a factor, an array from outside) is ignored.
    :meth:`unbuild` frees and forgets propagators that no later step needs.
    Should a chunk hold more stacks at once than the block has slots, the
    extra ones are fresh arrays.  Slots are told apart by identity: each one
    is held here until the chunk ends, so no other array can share its ``id``.
    """

    def __init__(self, eig):
        self.eig, self.built = eig, {}
        # one block, not one array per stack: stacks freed one by one at the heap's top
        # are trimmed and faulted in again every chunk, while a freed block stays in the heap
        block = np.empty((_SLOTS, len(eig[0]), 12, 12), dtype=complex)
        self._slots = {id(slot): slot for slot in block}
        self._free, self._kept = dict(self._slots), set()  # popped last in, first out

    def stack(self):
        """A free (n, 12, 12) slot, its contents undefined."""
        if self._free:
            return self._free.popitem()[1]
        slot = np.empty((len(self.eig[0]), 12, 12), dtype=complex)
        self._slots[id(slot)] = slot
        return slot

    def out(self, *operands):
        """A free slot when one of ``operands`` is a stack over the draws, for
        a result that is one; None when the result is a single matrix."""
        for x in operands:
            if x.ndim == 3:
                return self.stack()
        return None

    def keep(self, x):
        """Never take ``x`` back: it is read until the chunk ends (or, for a
        propagator, until :meth:`unbuild`)."""
        self._kept.add(id(x))
        return x

    def free(self, *arrays):
        for x in arrays:
            if id(x) in self._slots and id(x) not in self._kept:
                self._free[id(x)] = x

    def unbuild(self, n_built):
        """Free and forget the propagator stacks built after the first
        ``n_built`` entries of ``built``; single matrices stay built."""
        for step in list(self.built)[n_built:]:
            if self.built[step].ndim == 3:
                u = self.built.pop(step)
                self._kept.discard(id(u))
                self.free(u)


def _unitary(step, ws):
    """The propagator of one unitary step: the (n, 12, 12) stack of a free
    evolution, one matrix per draw of the workspace's eigensystems, in a
    slot, or the 12x12 matrix of a MW or RF pulse, which no draw changes."""
    kind = step.kind
    if kind == "free":
        w, v = ws.eig
        wb, vb = (w, v) if step.frame == "joint" else (w[:, 1:2], v[:, 1:2])
        return _block_diag((vb * np.exp(-1j * wb[..., None, :] * step.value))
                           @ vb.conj().swapaxes(-1, -2), ws.stack())
    if kind in _MW_JOINT:
        return _MW_JOINT[kind]
    return _block_diag((u_st1 if kind == "rf_st1" else u_st0)(step.value)[None])


def _is_unitary(step):
    return isinstance(step, np.ndarray) or (isinstance(step, Pulse)
                                            and step.kind in _UNITARY_KINDS)


def _on_target(step):
    """Whether a prefix step acts on the target alone: an RF pulse, a
    target-frame free step, or a matrix, which in a prefix is the rotation
    V^dagger into the target eigenbasis that :func:`_evolve` appends."""
    return isinstance(step, np.ndarray) or (isinstance(step, Pulse) and (
        step.kind in ("rf_st1", "rf_st0") or step.frame == "target"))


def _channel_last(prefix):
    """``prefix`` with its last channel step moved to its end, when that step
    acts on the sensor alone (the spin lock, dephasing) and every step after
    it on the target alone: the two commute, so the state's factor walks on
    through those steps (:func:`_lead`) and the channel ends the prefix."""
    i = next((i for i in reversed(range(len(prefix))) if not _is_unitary(prefix[i])), None)
    if i is None or not isinstance(prefix[i], Pulse) or not all(map(_on_target, prefix[i + 1 :])):
        return prefix
    return prefix[:i] + prefix[i + 1 :] + [prefix[i]]


def _mul(a, b, out=None):
    """a @ b, written into ``out`` when given, which must not be an operand
    (numpy would first copy it).  With one operand a single matrix and the
    other a stack over the draws, it is one (n r, 12) product instead of n
    small ones: a stack (n, r, 12) times a 12x12, or, without ``out``, an
    r x 12 factor times U^T for a contiguous stack U (the forward factor
    walk's step), as (U_i a^T)^T with the rows of U read in place.  A matrix
    times U itself stays numpy's product of n small ones, which copies
    nothing: one product would first copy U."""
    if a.ndim == 3 and b.ndim == 2:
        flat = np.matmul(a.reshape(-1, 12), b, out=None if out is None else out.reshape(-1, 12))
        return flat.reshape(a.shape[:-1] + (12,)) if out is None else out
    if out is None and a.ndim == 2 and b.ndim == 3 and b.swapaxes(-1, -2).flags.c_contiguous:
        rows = b.swapaxes(-1, -2).reshape(-1, 12) @ a.T  # (n 12, r)
        return rows.reshape(len(b), 12, len(a)).swapaxes(-1, -2)
    return np.matmul(a, b, out=out)


def _compose(factors, ws):
    """U_k ... U_1 of propagators given in time order, multiplied by
    :func:`_mul`; each stack is freed once multiplied on."""
    u = factors[0]
    for m in factors[1:]:
        u, done = _mul(m, u, ws.out(m, u)), u
        ws.free(done, m)
    return u


def _factors(steps, ws):
    """The propagators of unitary ``steps`` (free, MW and RF pulses, or a
    matrix given as a step), in time order.  A step's propagator is taken
    from the workspace's ``built``, or built into it, so each distinct step
    is built once per chunk; each stretch of draw-independent pulses is
    multiplied first into one 12x12 matrix.
    """
    factors = []
    for step in steps:
        if isinstance(step, Pulse):
            if step not in ws.built:
                ws.built[step] = ws.keep(_unitary(step, ws))
            step = ws.built[step]
        factors.append(step)
    return [_compose(list(stretch), ws) for _, stretch in itertools.groupby(factors, key=np.ndim)]


def _runs(steps, ws):
    """The runs of compiled ``steps``, in time order: each maximal run of
    unitary steps multiplied into one propagator (:func:`_factors`), and each
    channel step (an echo factor, ``spinlock``, ``dephase``) as it is."""
    runs = []
    for unitary, group in itertools.groupby(steps, key=_is_unitary):
        runs += [_compose(_factors(group, ws), ws)] if unitary else group
    return runs


def _lead(steps, ws, adjoint=False):
    """The start state carried through the unitary steps of ``steps`` before
    the first channel step, or with ``adjoint`` the readout observable
    carried backwards through those after the last one, each as a 4x12
    factor (single or a stack over the draws) multiplied from the right by
    :func:`_mul`: psi^T <- psi^T U^T from psi^T = Phi0 / 2, or h <- h U from
    h = Phi0.  Returns the 12x12 matrix, psi psi^dagger = (psi^T)^T
    conj(psi^T) or h^dagger h, in a slot if it is a stack, and the steps left.
    """
    n = next((i for i, step in enumerate(reversed(steps) if adjoint else steps)
              if not _is_unitary(step)), len(steps))
    if adjoint:
        factors = _factors(steps[len(steps) - n :], ws)
        h = _PHI0
        for u in reversed(factors):
            h = _mul(h, u)
        ws.free(*factors)
        return np.matmul(h.conj().swapaxes(-1, -2), h, out=ws.out(h)), steps[: len(steps) - n]
    factors = _factors(steps[:n], ws)
    psi_t = _PHI0 / 2.0
    for u in factors:
        psi_t = _mul(psi_t, u.swapaxes(-1, -2))
    ws.free(*factors)
    return np.matmul(psi_t.swapaxes(-1, -2), psi_t.conj(), out=ws.out(psi_t)), steps[n:]


def _apply_run(x, run, ws, decay, adjoint=False):
    """One run of :func:`_runs` applied to ``x``, a Hermitian 12x12 matrix
    or a stack of them: rho -> Phi(rho), or with ``adjoint`` an observable
    O -> Phi^dagger(O).  Neither ``x`` nor ``run`` is written: a grid's
    middles share the prefix state, and one call's runs share propagators.
    A stack comes back in a slot of the workspace ``ws``.

    As x is Hermitian, a stack of propagators U acts as U x U^dagger =
    U (U x)^dagger forward and U^dagger x U = (x U)^dagger U backward: one
    product, conjugated in place, and one more.  A single propagator acts as
    (A x) A^dagger, with A = U forward and U^dagger backward, so that its
    second product is a stack times one matrix.  Echo masks, dephasing and
    the locking channel are their own adjoints.  A single 12x12 ``x`` stays
    one matrix until a run that depends on the draws broadcasts it to a stack.
    """
    if isinstance(run, np.ndarray) and run.ndim == 2:
        a = run.conj().T if adjoint else run
        y = _mul(a, x, ws.out(x))
        out = _mul(y, a.conj().T, ws.out(y))
        ws.free(y)
        return out
    if isinstance(run, np.ndarray):
        y = _mul(x, run, ws.stack()) if adjoint else _mul(run, x, ws.stack())
        y_h = np.conj(y, out=y).swapaxes(-1, -2)
        out = _mul(y_h, run, ws.stack()) if adjoint else _mul(run, y_h, ws.stack())
        ws.free(y)
        return out
    if isinstance(run, float):
        return np.multiply(x, np.where(_ECHO_SECTORS, run, 1.0), out=ws.out(x))
    if run.kind == "dephase":
        return np.multiply(x, _SENSOR_DIAGONAL, out=ws.out(x))
    return spinlock_channel(x, run.value, decay, out=ws.out(x))


def _apply_runs(x, runs, ws, decay, adjoint=False):
    """``runs`` applied to ``x`` in time order or, with ``adjoint``, their
    adjoints in reverse order (Heisenberg picture).  Each state a run has
    read, ``x`` among them, is then freed."""
    for run in reversed(runs) if adjoint else runs:
        x, done = _apply_run(x, run, ws, decay, adjoint), x
        ws.free(done)
    return x


def _split(bodies):
    """Lengths of the prefix and of the tail that all compiled ``bodies``
    share, step for step.  Steps are compared by what their maps depend on:
    a pulse's (kind, value, frame), or the echo factor itself."""
    keys = [[(s.kind, s.value, s.frame) if isinstance(s, Pulse) else s for s in body]
            for body in bodies]
    shared = min(map(len, keys))

    def agreeing(columns, limit):  # leading columns, of at most limit, with one key
        return next((i for i, col in enumerate(itertools.islice(columns, limit))
                     if col.count(col[0]) < len(col)), limit)

    n_prefix = agreeing(zip(*keys), shared)
    return n_prefix, agreeing(zip(*(k[::-1] for k in keys)), shared - n_prefix)


def _evolve(sequences, eig, decay):
    """Readouts, shape (len(sequences), n_draws), of sequences started from
    |0><0| (x) I/4.

    ``eig`` comes from :func:`_eigensystems`.  Each sequence is compiled once
    by :func:`_steps`, which also rejects a malformed one before any work.
    The prefix of steps every sequence shares evolves the state forward, and
    only then is the tail they share folded, walking backwards, into the
    readout observable P0 = |0><0| (x) I4 (Heisenberg picture).  Each is a
    4x12 factor up to its first channel step (:func:`_lead`), and its steps
    from there on are grouped into runs (:func:`_runs`); every distinct step
    is built once per call, and a matrix becomes a stack over the draws at
    the first step that depends on them.  A sensor-only channel (the spin
    lock, dephasing) commutes with target-only steps (RF pulses, target-frame
    free steps, V^dagger below), so when only such steps follow the prefix's
    last channel step, that channel ends the prefix (:func:`_channel_last`),
    one rule for every grid: without decay, a Ramsey grid's state factor
    walks through the opening pulses and V^dagger, and its prefix's only
    12x12 work is psi psi^dagger and the lock.  With decay the echo factor
    before the lock still ends the walk.

    Every stack over the draws the call computes (the free and rotation
    propagators, the composed runs, the state, each channel's output, both
    products of a sandwich and the observable) is a slot of one
    :class:`_Workspace`, allocated as one block when the call starts and
    dropped when it ends.  Each slot is freed as soon as it is last read,
    and the free propagators a middle builds are freed after it (a later
    middle that needs one builds it again), so that the :data:`_SLOTS` of the
    block cover a grid of any length.

    When every sequence's own middle is a single target-frame free step, as
    on a Ramsey grid, the rotation into each draw's target eigenbasis is one
    more step at the end of the prefix (V^dagger) and at the start of the
    tail (V), and all the sequences are read out at once in that basis
    (:func:`_eigenbasis_readout`).  Otherwise each sequence runs the runs of
    its middle from the prefix state and is read out at once as
    Re Tr(O rho), so one middle stack is alive at a time.
    """
    bodies = [_steps(seq, decay) for seq in sequences]
    n_prefix, n_tail = _split(bodies)
    first = bodies[0]
    prefix, tail = first[:n_prefix], first[len(first) - n_tail :]
    middles = [body[n_prefix : len(body) - n_tail] for body in bodies]
    eigenbasis = all(len(m) == 1 and isinstance(m[0], Pulse) and m[0].frame == "target"
                     for m in middles)
    ws = _Workspace(eig)
    # the rotations V^dagger, closing the prefix's steps, and V, opening the tail, are
    # built as their walk starts, and every list of runs is freed once
    # applied: so their stacks stay out of the peak of the call
    if eigenbasis:
        prefix = prefix + [_block_diag(eig[1][:, 1:2].conj().swapaxes(-1, -2), ws.stack())]
    rho, prefix = _lead(_channel_last(prefix), ws)
    runs = _runs(prefix, ws)
    rho = _apply_runs(rho, runs, ws, decay)
    ws.free(*runs)
    if eigenbasis:
        tail = [_block_diag(eig[1][:, 1:2], ws.stack())] + tail
    obs, tail = _lead(tail, ws, adjoint=True)
    runs = _runs(tail, ws)
    obs = _apply_runs(obs, runs, ws, decay, adjoint=True)
    ws.free(*runs)
    if eigenbasis:
        return _eigenbasis_readout(rho, obs, [m[0].value for m in middles], eig[0][:, 1])

    ws.keep(rho)  # every middle starts from it
    obs = np.conj(obs, out=obs)  # Tr(O rho) = sum(conj(O) * rho) for a Hermitian O
    out = np.empty((len(bodies), len(eig[0])))
    for k, middle in enumerate(middles):
        n_built = len(ws.built)
        runs = _runs(middle, ws)
        x = _apply_runs(rho, runs, ws, decay)
        out[k] = np.einsum("...ij,...ij->...", obs, x).real
        ws.free(x, *runs)
        ws.unbuild(n_built)  # so that a grid of any length stays in the block
    return out


def _eigenbasis_readout(rho, obs, times, w):
    """Re Tr(O U(t) rho U(t)^dagger), shape (len(times), n_draws), for the
    target-frame free evolution U(t) = I3 (x) exp(-i w t) of each draw, with
    ``w`` the (n, 4) target eigenvalues and the (n, 12, 12) stacks ``rho``
    and ``obs`` already rotated into each draw's target eigenbasis.

    There the evolution is diagonal, so the readout is
    Re sum_jk c_jk e_j conj(e_k), c_jk = sum_ab rho_(aj),(bk) O_(bk),(aj)
    over the sensor blocks a, b, with the four level phases e_j =
    exp(-i w_j t) of each draw and time: one complex ``exp`` and one batched
    product (e c) per block of at most :data:`_TIME_BLOCK` times, so that no
    temporary outgrows one (n, 12, 12) stack on a long record.
    """
    blocks = (len(w), 3, 4, 3, 4)
    c = np.einsum("najbk,nbkaj->njk", rho.reshape(blocks), obs.reshape(blocks))
    t = np.asarray(times, dtype=float)
    out = np.empty((len(t), len(w)))
    for i in range(0, len(t), _TIME_BLOCK):
        e = np.exp(-1j * (w[:, None, :] * t[i : i + _TIME_BLOCK, None]))  # (n, times, 4)
        # Re sum_k (e c)_k conj(e_k), as the sum of the products of the parts
        out[i : i + _TIME_BLOCK] = np.einsum("ntk,ntk->tn", (e @ c).view(float), e.view(float))
    return out


def simulate_sequence(sequence, spec, coupling, noise=None, decay=None):
    """Evolve |0><0| (x) I/4 through the sequence and read out.

    ``coupling`` is a strength in MHz or a :class:`DipolarGeometry`;
    ``noise`` an optional quasi-static :class:`NoiseDraw` held constant for
    the whole shot.  The sensor echo envelope is applied to the modulated
    coherence sectors whenever an interrogation window closes (at a MW pi
    pulse or at the locking channel), which reproduces the closed-form decay
    model exactly.
    """
    if not (noise is None or isinstance(noise, NoiseDraw)):
        raise TypeError(f"noise must be a NoiseDraw or None, not {type(noise).__name__}: "
                        f"{_NOISE_ROLES}")
    draws = np.zeros((1, 3)) if noise is None else noise.as_array()[None]
    return float(_evolve([sequence], _eigensystems(spec, coupling, draws), decay)[0, 0])


def simulate_alternative_correlation(manipulation, tau_us, spec, coupling, noise=None):
    """Correlation protocol without the locking drive.

    Both interrogation blocks are closed by pi pulses and the stored state
    simply waits: the sensor fully dephases in its energy basis, which costs
    a quarter of the correlated-term contrast (Eq. corr_signal
    ``variant="alternative"``).  ``manipulation`` is a list of target pulses
    applied during the wait: free evolution, MW and RF pulses.
    """
    manipulation = list(manipulation)
    for el in manipulation:
        if not (isinstance(el, Pulse) and el.kind in _UNITARY_KINDS):
            raise SequenceError(f"element {el!r} not allowed here")
    block = [mw_pi()] + _interrogation_block(tau_us, _DECOUPLE) + [mw_pi()]
    return simulate_sequence(block + [dephase()] + manipulation + block + [readout()],
                             spec, coupling, noise=noise)


# ---------------------------------------------------------------------------
# Monte Carlo averaging
# ---------------------------------------------------------------------------

def _mc_chunks(n_draws):
    """Monte Carlo chunks, one noise block each: draws are sampled and
    simulated a block at a time, and the chunk sums are added in index order,
    which bounds memory and fixes the arithmetic for a given draw count."""
    return [(i, min(i + DRAWS_PER_BLOCK, n_draws))
            for i in range(0, n_draws, DRAWS_PER_BLOCK)]


def monte_carlo_signal(sequence_family, t_grid, spec, coupling, noise, n_draws,
                       decay=None):
    """Noise-averaged signal of ``sequence_family(t)`` on a time grid.

    Draws ``0`` to ``n_draws - 1`` of the noise model's seeded stream are
    simulated one block of :data:`zfepr.noise.DRAWS_PER_BLOCK` at a time, so
    each chunk builds one generator and the average is reproducible bit for
    bit.  All times of a chunk share one batched eigendecomposition, one
    propagator per distinct step, one pass through the sequence prefix they
    have in common, and one readout observable into which their common tail
    is folded; the state and the observable are carried as 4x12 factors up
    to their first channel step.  A Ramsey family's times are then all read
    out at once in the target eigenbasis, whose rotation closes the prefix's
    steps and opens the tail; any other family runs the middle of each time's
    sequence on its own, one time after another (see :func:`_evolve`).  A noise that
    is not a :class:`~zfepr.noise.NoiseModel`, a draw count that is not a
    positive integer and a grid that the returned
    :class:`~zfepr.spectra.TimeSeries` cannot hold are rejected before any work.
    """
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel, not {type(noise).__name__}: "
                        f"{_NOISE_ROLES}")
    if isinstance(n_draws, bool) or not isinstance(n_draws, numbers.Integral):
        raise TypeError(f"n_draws must be an integer, not {n_draws!r}")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    t_grid = np.asarray(t_grid, dtype=float)
    TimeSeries(times=t_grid, values=np.zeros_like(t_grid))  # checks the grid
    sequences = [sequence_family(t) for t in t_grid]

    acc = np.zeros(len(t_grid))
    for i0, i1 in _mc_chunks(n_draws):
        eig = _eigensystems(spec, coupling, sample_noise(noise, i1 - i0, start=i0))
        acc = acc + _evolve(sequences, eig, decay).sum(axis=1)
    return TimeSeries(times=t_grid, values=acc / n_draws)
