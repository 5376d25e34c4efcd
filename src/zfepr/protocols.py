"""Measurement protocols: closed-form signals and a brute-force density
matrix simulator that must agree with them.

Phase convention: every ``cos(C tau)`` in the formulas means the angular
phase ``2*pi * C_MHz * tau_us``.  ``tau`` is the total free evolution of one
interrogation block (two halves of tau/2 around the decoupling pulse).

The simulator holds one 12x12 sensor+target density matrix per noise draw
in a single stack and applies each step to the whole stack at once; a lone
simulation is a stack of one.  Each sequence is compiled in one pass that
checks it and yields its steps: the elements before the readout, with the
echo decay of each interrogation window inserted as a step where the window
closes.  A grid of sequences, such as the times of a Ramsey record, is
evolved together: the prefix of steps every sequence shares is applied once,
the tail they share is folded backwards into the readout observable
(Heisenberg picture), and each sequence then runs only its own middle from
the prefix state, streamed one at a time and read out against that
observable.  Free gaps that fall inside a spin-locking window evolve the
target factor alone: the locked sensor averages the secular coupling away,
which is exactly how the closed-form treatment handles that interval.
"""

import math

import numpy as np

from .constants import TWO_PI
from .hamiltonians import (
    TargetSpec,
    _block_diag,
    _line,
    _noise_matrix_mhz,
    _sensor_offsets_mhz,
    st0_fluctuation,
    target_levels_mhz,
)
from .noise import DRAWS_PER_BLOCK, sample_noise
from .pulses import Pulse, dephase, free, mw_2pi, mw_pi, nv_pulse, readout, rf_st0, rf_st1
from .pulses import spinlock, spinlock_channel, u_st0, u_st1
from .spectra import TimeSeries

__all__ = [
    "SequenceError",
    "deer_signal_general",
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
    "synthesize_ramsey_series",
]

_EYE4 = np.eye(4, dtype=complex)
_MW_JOINT = {kind: np.kron(nv_pulse(kind), _EYE4) for kind in ("mw_pi", "mw_2pi")}
#: Keeps the sensor-diagonal 4x4 blocks of a joint matrix, zeroes the rest.
_SENSOR_DIAGONAL = np.kron(np.eye(3), np.ones((4, 4)))
#: Readout observable P0 = |0><0| (x) I4: the NV |0> population.
_READOUT = np.kron(np.diag([0.0, 1.0, 0.0]), _EYE4)
#: Elements that close an interrogation window and so apply its echo decay.
_WINDOW_CLOSING = ("mw_pi", "spinlock")
#: Manipulation elements the alternative protocol allows during its wait.
_ALTERNATIVE_KINDS = ("free", "mw_pi", "mw_2pi", "rf_st1", "rf_st0")


class SequenceError(ValueError):
    """Malformed pulse sequence."""


def _phase(coupling_mhz, tau_us):
    return TWO_PI * coupling_mhz * tau_us


def _check_transition(transition):
    if transition not in ("st1", "st0"):
        raise ValueError(f"unknown transition {transition!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def deer_signal_general(theta, tau_us, coupling_mhz):
    """Interrogation signal for arbitrary RF flip angle theta.

    S = (1/32) [25 + 3 cos(Ct) + 4 cos(Ct/2) + 4 (1 - cos(Ct)) cos(theta/2)
    + 2 (1 - cos(Ct/2))^2 cos(theta)], the weighted average of cos^2(phi)
    over the thermal target states and their RF branches.
    """
    ct = _phase(coupling_mhz, tau_us)
    return (
        25.0
        + 3.0 * np.cos(ct)
        + 4.0 * np.cos(ct / 2.0)
        + 4.0 * (1.0 - np.cos(ct)) * np.cos(theta / 2.0)
        + 2.0 * (1.0 - np.cos(ct / 2.0)) ** 2 * np.cos(theta)
    ) / 32.0


def deer_signal(tau_us, couplings, decay=None):
    """Decoupling-form signal (theta fixed at 2*pi) with the stretched
    exponential sensor envelope:  sum_i w_i [3/4 + 1/4 e^{-(tau/T2)^p} cos(C_i tau)].

    ``couplings`` is a single strength in MHz or an iterable of (C_i, w_i)
    pairs with weights summing to one; several strengths produce the beating
    envelope seen when the target axis hops between orientations.
    """
    pairs = _coupling_pairs(couplings)
    env = 1.0 if decay is None else decay.echo_factor(tau_us)
    total = 0.0
    for c, w in pairs:
        total += w * (0.75 + 0.25 * env * np.cos(_phase(c, tau_us)))
    return total


def _coupling_pairs(couplings):
    if np.isscalar(couplings):
        return ((float(couplings), 1.0),)
    pairs = tuple((float(c), float(w)) for c, w in couplings)
    if abs(sum(w for _, w in pairs) - 1.0) > 1e-9:
        raise ValueError("coupling weights must sum to 1")
    return pairs


def corr_rabi(transition, theta, tau_us, coupling_mhz):
    """Correlated term <cos 2phi1 cos 2phi2> of a correlation Rabi sweep.

    (1/8)(1 - cos(Ct))^2 cos(theta) + 3/8 + (1/4) cos(Ct) + (3/8) cos^2(Ct);
    the S0<->T+-1 and S0<->T0 drive variants give the same expression.
    """
    _check_transition(transition)
    cc = np.cos(_phase(coupling_mhz, tau_us))
    return (1.0 - cc) ** 2 * np.cos(theta) / 8.0 + 0.375 + cc / 4.0 + 0.375 * cc * cc


def corr_ramsey_diff(transition, t_us, tau_us, coupling_mhz, noise=None,
                     spec=None, n_draws=2000):
    """Differential correlation Ramsey signal (sig minus ref correlated term).

    st1:  (1/4)(1-cos Ct)^2 <cos(dw t)> cos(w_st1 t), with the noise average
    evaluated analytically from the Gaussian characteristic function
    (dw = delta_z/2 -> envelope exp(-(pi sigma_z t)^2 / 2)).

    st0:  (1/4)(1-cos Ct)^2 <cos((w_st0 + dw_st0) t)>, averaged by Monte
    Carlo because dw_st0 is a quadratic form of the noise.

    The measured photoluminescence difference is half this value.
    """
    _check_transition(transition)
    spec = spec or TargetSpec()
    center = spec.f_st1_mhz if transition == "st1" else spec.f_st0_mhz
    out = _ramsey_diff(transition, ((center, 1.0),), np.asarray(t_us, dtype=float),
                       tau_us, coupling_mhz, spec, noise, n_draws)
    return float(out) if np.isscalar(t_us) else out


def _ramsey_diff(transition, lines, t, tau_us, coupling_mhz, spec, noise, n_draws):
    """Differential Ramsey signal of a line given as (frequency, weight)
    components: the st1 noise envelope is analytic, the st0 average is one
    Monte Carlo pass shared by all components."""
    amp = 0.25 * (1.0 - np.cos(_phase(coupling_mhz, tau_us))) ** 2
    if transition == "st0" and noise is not None:
        averages = _averaged_cos([f for f, _ in lines], t, spec, noise, n_draws)
        return amp * sum(w * avg for (_, w), avg in zip(lines, averages))
    env = 1.0
    if transition == "st1" and noise is not None and noise.sigma_z_mhz > 0:
        env = np.exp(-0.5 * (math.pi * noise.sigma_z_mhz * t) ** 2)
    return amp * env * sum(w * np.cos(TWO_PI * f * t) for f, w in lines)


def _mc_chunks(n_draws):
    """Monte Carlo chunks, one noise block each: draws are sampled and
    simulated a block at a time, and the chunk sums are added in index order,
    which bounds memory and fixes the arithmetic for a given draw count."""
    return [(i, min(i + DRAWS_PER_BLOCK, n_draws))
            for i in range(0, n_draws, DRAWS_PER_BLOCK)]


def _averaged_cos(freqs_mhz, t, spec, noise, n_draws):
    """Monte Carlo <cos(2 pi (f + dw_st0) t)> for each frequency f, all from
    one pass over the draws, with fixed-order accumulation."""
    if n_draws < 1:
        raise ValueError("need at least one draw")
    totals = None
    for i0, i1 in _mc_chunks(n_draws):
        draws = sample_noise(noise, i1 - i0, start=i0)
        dw = st0_fluctuation(draws[:, 0], draws[:, 1], draws[:, 2], spec)
        parts = [np.cos(TWO_PI * np.multiply.outer(f + dw, t)).sum(axis=0)
                 for f in freqs_mhz]
        totals = parts if totals is None else [a + b for a, b in zip(totals, parts)]
    return [total / n_draws for total in totals]


def corr_signal(phi1, phi2, variant="main"):
    """Correlation signal for one phase pair.

    main:        (1/2) [1 + cos(2 phi1) cos(2 phi2)]
    alternative: (1/8) [3 + cos(2 phi1) + cos(2 phi2) + 3 cos(2 phi1) cos(2 phi2)]

    The alternative protocol trades the locking drive for a plain wait, at
    the cost of a quarter of the correlated-term contrast.  Statistical
    averaging over phase realizations is the caller's business.
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

def deer_sequence(theta, tau_us, transition="st1"):
    """One interrogation block: pi - tau/2 - (2pi MW + theta RF) - tau/2 - pi."""
    _check_transition(transition)
    rf = rf_st1 if transition == "st1" else rf_st0
    return [
        mw_pi(), free(tau_us / 2.0), mw_2pi(), rf(theta), free(tau_us / 2.0),
        mw_pi(), readout(),
    ]


def _interrogation_block(tau_us):
    return [free(tau_us / 2.0), mw_2pi(), rf_st1(2.0 * math.pi), free(tau_us / 2.0)]


def _correlation_sequence(manipulation, tau_us, lock_us):
    block = _interrogation_block(tau_us)
    return ([mw_pi()] + block + [spinlock(lock_us)] + list(manipulation)
            + block + [mw_pi(), readout()])


def correlation_rabi_sequence(transition, theta, tau_us, lock_us=10.0):
    """Two interrogation blocks around a locked window holding one RF drive.

    The S0<->T0 drive is sandwiched between pi pulses on the S0<->T+-1
    transition, which shuttle population through the auxiliary states.
    """
    _check_transition(transition)
    if transition == "st1":
        manip = [rf_st1(theta)]
    else:
        manip = [rf_st1(math.pi), rf_st0(theta), rf_st1(math.pi)]
    return _correlation_sequence(manip, tau_us, lock_us)


def correlation_ramsey_sequences(transition, t_us, tau_us, lock_us=10.0):
    """(signal, reference) sequences for the differential Ramsey measurement.

    Signal closes the target superposition with -pi/2, reference with +pi/2;
    their difference cancels every background term.
    """
    _check_transition(transition)

    def build(sign):
        if transition == "st1":
            manip = [rf_st1(math.pi / 2.0), free(t_us, frame="target"),
                     rf_st1(sign * math.pi / 2.0)]
        else:
            manip = [rf_st1(math.pi), rf_st0(math.pi / 2.0),
                     free(t_us, frame="target"), rf_st0(sign * math.pi / 2.0),
                     rf_st1(math.pi)]
        return _correlation_sequence(manip, tau_us, lock_us)

    return build(-1.0), build(+1.0)


# ---------------------------------------------------------------------------
# density-matrix simulator
# ---------------------------------------------------------------------------

def _eigensystems(spec, coupling, draws):
    """Eigendecompositions (rad/us) of the free Hamiltonians of each draw.

    ``draws`` is an (n, 3) array of noise triples in MHz.  Returns ``(w, v)``
    of shapes (n, 4, 4) and (n, 4, 4, 4), from one batched ``eigh``: index 0
    of the second axis is the target alone, 1..3 the sensor blocks
    m = +1, 0, -1 of :func:`~zfepr.hamiltonians.joint_hamiltonian`.
    """
    h_target = np.diag(target_levels_mhz(spec)) + _noise_matrix_mhz(draws)
    offsets = np.concatenate([np.zeros((1, 4, 4)), _sensor_offsets_mhz(coupling)])
    return np.linalg.eigh(TWO_PI * (h_target[:, None] + offsets))


def _echo_mask(factor):
    """12x12 mask scaling the target-modulated sectors of the |+1><-1|
    sensor coherence by ``factor``, ones elsewhere."""
    block = np.ones((4, 4))
    block[[0, 3], :] = factor
    block[:, [0, 3]] = factor
    mask = np.ones((12, 12))
    mask[0:4, 8:12] = block
    mask[8:12, 0:4] = block
    return mask


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
        elif el.kind == "free" and el.frame == "target" and not in_window:
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


def _apply(x, step, eig, decay, adjoint=False):
    """One step of :func:`_steps` applied to a stack ``x`` of 12x12 matrices:
    rho -> Phi(rho), or with ``adjoint`` an observable O -> Phi^dagger(O).

    Echo masks, dephasing and the locking channel are their own adjoints; a
    unitary u acts as u x u^dagger forward and u^dagger x u backward.
    """
    if isinstance(step, float):
        return x * _echo_mask(step)
    kind = step.kind
    if kind == "dephase":
        return x * _SENSOR_DIAGONAL
    if kind == "spinlock":
        return spinlock_channel(x, step.value, decay)
    if kind == "free":
        w, v = eig
        wb, vb = (w[:, 1:], v[:, 1:]) if step.frame == "joint" else (w[:, :1], v[:, :1])
        u = _block_diag((vb * np.exp(-1j * wb[..., None, :] * step.value))
                        @ vb.conj().swapaxes(-1, -2))
    elif kind in _MW_JOINT:
        u = _MW_JOINT[kind]
    else:
        u = _block_diag((u_st1 if kind == "rf_st1" else u_st0)(step.value)[None])
    if adjoint:
        u = u.conj().swapaxes(-1, -2)
    return u @ x @ u.conj().swapaxes(-1, -2)


def _split(bodies):
    """Lengths of the prefix and of the tail that all compiled ``bodies``
    share, step for step."""
    first = bodies[0]
    shared = min(map(len, bodies))
    n_prefix = next((i for i in range(shared) if any(b[i] != first[i] for b in bodies)),
                    shared)
    n_tail = next((j for j in range(shared - n_prefix)
                   if any(b[-1 - j] != first[-1 - j] for b in bodies)), shared - n_prefix)
    return n_prefix, n_tail


def _evolve(sequences, eig, decay):
    """Readouts, shape (len(sequences), n_draws), of sequences started from
    |0><0| (x) I/4.

    ``eig`` comes from :func:`_eigensystems`.  Each sequence is compiled once
    by :func:`_steps`, which also rejects a malformed one before any work.
    The prefix of steps every sequence shares is applied once to the
    (n, 12, 12) stack of density matrices; the tail they share is folded,
    walking backwards, into the readout observable P0 = |0><0| (x) I4
    (Heisenberg picture).  Each sequence then runs only its own middle from
    the prefix state and is read out at once as Re Tr(O rho), so one middle
    stack is alive at a time.
    """
    bodies = [_steps(seq, decay) for seq in sequences]
    n_prefix, n_tail = _split(bodies)
    first = bodies[0]

    rho = np.zeros((len(eig[0]), 12, 12), dtype=complex)
    rho[:, 4:8, 4:8] = _EYE4 / 4.0
    for step in first[:n_prefix]:
        rho = _apply(rho, step, eig, decay)

    obs = _READOUT
    for step in reversed(first[len(first) - n_tail :]):
        obs = _apply(obs, step, eig, decay, adjoint=True)
    obs = obs.conj()  # Tr(O rho) = sum(conj(O) * rho) for a Hermitian O

    out = np.empty((len(bodies), len(rho)))
    for k, body in enumerate(bodies):
        x = rho
        for step in body[n_prefix : len(body) - n_tail]:
            x = _apply(x, step, eig, decay)
        out[k] = np.einsum("...ij,...ij->...", obs, x).real
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
        if not (isinstance(el, Pulse) and el.kind in _ALTERNATIVE_KINDS):
            raise SequenceError(f"element {el!r} not allowed here")
    block = [mw_pi()] + _interrogation_block(tau_us) + [mw_pi()]
    return simulate_sequence(block + [dephase()] + manipulation + block + [readout()],
                             spec, coupling, noise=noise)


# ---------------------------------------------------------------------------
# Monte Carlo averaging and series synthesis
# ---------------------------------------------------------------------------

def monte_carlo_signal(sequence_family, t_grid, spec, coupling, noise, n_draws,
                       decay=None):
    """Noise-averaged signal of ``sequence_family(t)`` on a time grid.

    Draws ``0`` to ``n_draws - 1`` of the noise model's seeded stream are
    simulated one block of :data:`zfepr.noise.DRAWS_PER_BLOCK` at a time, so
    each chunk builds one generator and the average is reproducible bit for
    bit.  All times of a chunk share one batched eigendecomposition, one pass
    through the sequence prefix they have in common, and one readout
    observable into which their common tail is folded; only the middle of
    each time's sequence is run on its own, one time after another.
    """
    if n_draws < 1:
        raise ValueError("need at least one draw")
    t_grid = np.asarray(t_grid, dtype=float)
    sequences = [sequence_family(t) for t in t_grid]

    acc = np.zeros(len(t_grid))
    for i0, i1 in _mc_chunks(n_draws):
        eig = _eigensystems(spec, coupling, sample_noise(noise, i1 - i0, start=i0))
        acc = acc + _evolve(sequences, eig, decay).sum(axis=1)
    return TimeSeries(times=t_grid, values=acc / n_draws)


def synthesize_ramsey_series(transition, t_grid, spec, coupling_mhz, tau_us,
                             noise=None, n_draws=2000):
    """Differential Ramsey time series from the closed forms, line structure
    included.

    The c13 doublet (st1) and the static offset doublet (st0) enter as
    equal-weight cosine sums sharing one noise realization set, sampled once.
    """
    _check_transition(transition)
    t = np.asarray(t_grid, dtype=float)
    lines = _line(spec, transition, spec.f_st1_mhz if transition == "st1" else spec.f_st0_mhz)
    values = _ramsey_diff(transition, lines, t, tau_us, coupling_mhz, spec, noise, n_draws)
    return TimeSeries(times=t, values=values)
