import collections
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    alternative_table_signal,
    corr_table_signal,
    corr_table_term,
    deer_table_signal,
    rabi_manipulation,
)

import zfepr.hamiltonians
import zfepr.noise
import zfepr.protocols
from zfepr.hamiltonians import (
    DipolarGeometry,
    FieldVector,
    NoiseDraw,
    TargetSpec,
    dipolar_constant,
    joint_hamiltonian,
    noise_hamiltonian,
    transitions_vs_field,
)
from zfepr.noise import NoiseModel, sample_noise
from zfepr.protocols import (
    SequenceError,
    corr_rabi,
    corr_ramsey_diff,
    corr_signal,
    correlation_rabi_sequence,
    correlation_ramsey_sequences,
    deer_sequence,
    deer_signal,
    monte_carlo_signal,
    simulate_alternative_correlation,
    simulate_sequence,
)
from zfepr.pulses import (
    DecayModel,
    Pulse,
    dephase,
    free,
    mw_2pi,
    mw_pi,
    readout,
    rf_st0,
    rf_st1,
    spinlock,
    spinlock_channel,
    u_st0,
    u_st1,
)

TWO_PI = 2 * math.pi


def _phase_tau(phase, coupling=1.0):
    """Evolution time giving the requested C*tau phase (rad)."""
    return phase / (TWO_PI * coupling)


# ---------------------------------------------------------------------------
# closed-form spot values
# ---------------------------------------------------------------------------

def test_deer_general_values():
    assert deer_signal(0.0, 0.4, theta=1.23) == pytest.approx(1.0, abs=1e-15)
    assert deer_signal(_phase_tau(math.pi), 1.0, theta=2 * math.pi) == pytest.approx(0.5)
    assert deer_signal(_phase_tau(math.pi), 1.0, theta=math.pi) == pytest.approx(0.625)
    # flip angles and times broadcast against each other, as one call per point
    thetas, taus = np.linspace(0, 2 * math.pi, 5), np.linspace(0, 3, 7)
    decay, couplings = DecayModel(stretch_p=1.7), ((0.3, 0.4), (0.7, 0.6))
    grid = deer_signal(taus, couplings, decay, thetas[:, None])
    assert grid.shape == (5, 7)
    assert grid.tolist() == [[deer_signal(tau, couplings, decay, theta) for tau in taus]
                             for theta in thetas]


def test_deer_signal_values():
    assert deer_signal(0.0, 0.5) == pytest.approx(1.0)
    assert deer_signal(_phase_tau(math.pi), 1.0) == pytest.approx(0.5)
    # several couplings: plain weighted sum of single-coupling signals
    couplings = ((0.2, 0.25), (0.45, 0.75))
    tau = 3.3
    expected = sum(w * deer_signal(tau, c) for c, w in couplings)
    assert deer_signal(tau, couplings) == pytest.approx(expected, abs=1e-15)
    # the weights follow the rule of TargetSpec.orientations
    for pairs in (((0.2, 0.7), (0.3, 0.7)), ((0.1, 1.5), (0.2, -0.5))):
        with pytest.raises(ValueError, match="coupling weights must be >= 0 and sum to 1"):
            deer_signal(1.0, pairs)
        with pytest.raises(ValueError, match="orientation weights must be >= 0 and sum to 1"):
            TargetSpec(orientations=tuple((0.0, 0.0, w) for _, w in pairs))


def test_deer_signal_decay_envelope():
    decay = DecayModel(t2_nv_us=16.0, stretch_p=2.0)
    tau = _phase_tau(math.pi)
    expected = 0.75 + 0.25 * math.exp(-((tau / 16.0) ** 2)) * math.cos(math.pi)
    assert deer_signal(tau, 1.0, decay) == pytest.approx(expected, abs=1e-15)


def test_closed_forms_take_a_dipolar_geometry(spec):
    # every protocol resolves its coupling as the simulator does
    geometry = DipolarGeometry(r_nm=5.0, theta_r=0.7, phi_r=0.3, theta_e=1.1, phi_e=2.0)
    c = dipolar_constant(geometry)
    t = np.linspace(0.0, 2.0, 9)
    noise = NoiseModel.isotropic(0.2)
    assert corr_rabi("st1", 1.0, 5.0, geometry) == corr_rabi("st1", 1.0, 5.0, c)
    assert np.array_equal(corr_ramsey_diff("st0", t, 5.0, geometry, noise, spec),
                          corr_ramsey_diff("st0", t, 5.0, c, noise, spec))
    decay = DecayModel(stretch_p=1.7)
    assert np.array_equal(deer_signal(t, geometry, decay, 1.3), deer_signal(t, c, decay, 1.3))
    assert np.array_equal(deer_signal(t, ((geometry, 0.4), (0.2, 0.6))),
                          deer_signal(t, ((c, 0.4), (0.2, 0.6))))
    sim = simulate_sequence(correlation_rabi_sequence("st1", 1.0, 5.0), spec, geometry)
    assert sim == pytest.approx(0.5 * (1.0 + corr_rabi("st1", 1.0, 5.0, geometry)), abs=1e-9)


#: The callers that take one coupling, each as a function of it.
ONE_COUPLING = {
    "simulate_sequence": lambda c: simulate_sequence(deer_sequence(1.0, 2.0), TargetSpec(), c),
    "monte_carlo_signal": lambda c: monte_carlo_signal(
        lambda t: correlation_ramsey_sequences("st1", t, 5.0)[0], [0.0, 0.1], TargetSpec(), c,
        NoiseModel.isotropic(0.1), 1),
    "corr_rabi": lambda c: corr_rabi("st1", 1.0, 2.0, c),
    "corr_ramsey_diff": lambda c: corr_ramsey_diff("st0", 0.5, 2.0, c),
}


@pytest.mark.parametrize("caller", ONE_COUPLING)
def test_one_coupling_callers_name_their_errors(caller):
    # weighted pairs are deer_signal's alone, and a strength that is not
    # finite is rejected by name rather than read out as nan
    call = ONE_COUPLING[caller]
    with pytest.raises(TypeError, match="one coupling expected.*read by deer_signal alone"):
        call(((0.1, 0.5), (0.2, 0.5)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            call(bad)


def test_corr_rabi_values():
    assert corr_rabi("st1", 0.77, _phase_tau(0.0), 1.0) == pytest.approx(1.0)
    theta = 1.1
    assert corr_rabi("st1", theta, _phase_tau(math.pi), 1.0) == pytest.approx(
        (1 + math.cos(theta)) / 2)
    assert corr_rabi("st0", math.pi, _phase_tau(math.pi), 1.0) == pytest.approx(0.0, abs=1e-15)
    assert corr_rabi("st1", 0.0, _phase_tau(math.pi / 2), 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        corr_rabi("st2", 0.0, 1.0, 1.0)


def test_corr_rabi_same_for_both_transitions(rng):
    for _ in range(20):
        theta, tau, c = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 10), rng.uniform(0.05, 1)
        assert corr_rabi("st1", theta, tau, c) == corr_rabi("st0", theta, tau, c)


def test_corr_signal_values():
    assert corr_signal(0.0, 0.0, "main") == pytest.approx(1.0)
    assert corr_signal(0.0, 0.0, "alternative") == pytest.approx(1.0)
    assert corr_signal(math.pi / 2, math.pi / 2, "main") == pytest.approx(1.0)
    assert corr_signal(math.pi / 2, math.pi / 2, "alternative") == pytest.approx(0.5)
    assert corr_signal(0.0, math.pi / 2, "main") == pytest.approx(0.0, abs=1e-15)
    assert corr_signal(0.0, math.pi / 2, "alternative") == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        corr_signal(0.0, 0.0, "bogus")


def test_alternative_contrast_is_three_quarters():
    # extract the cos(2 phi1) cos(2 phi2) coefficient on the +-1 lattice
    def coeff(variant):
        f = lambda p1, p2: corr_signal(p1, p2, variant)
        return (f(0, 0) - f(0, math.pi / 2) - f(math.pi / 2, 0)
                + f(math.pi / 2, math.pi / 2)) / 4.0

    assert coeff("alternative") / coeff("main") == pytest.approx(0.75, abs=1e-15)


def test_corr_ramsey_diff_values(spec):
    assert corr_ramsey_diff("st1", 0.0, _phase_tau(math.pi), 1.0) == pytest.approx(1.0)
    # no noise: pure carrier at the transition frequency
    t = np.linspace(0, 0.5, 64)
    vals = corr_ramsey_diff("st1", t, 4.0, 0.25, spec=spec)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    assert np.abs(vals - amp * np.cos(TWO_PI * 137.0 * t)).max() < 1e-12
    vals0 = corr_ramsey_diff("st0", t, 4.0, 0.25, spec=spec)
    assert np.abs(vals0 - amp * np.cos(TWO_PI * 114.0 * t)).max() < 1e-12


def test_corr_ramsey_diff_scalar_time_with_noise(spec):
    # the noise average of a scalar time is a scalar, equal to the value of
    # the one-point grid
    noise = NoiseModel.isotropic(0.1, seed=6)
    for transition in ("st0", "st1"):
        scalar = corr_ramsey_diff(transition, 0.1, 5.0, 0.1, noise=noise, spec=spec)
        grid = corr_ramsey_diff(transition, [0.1], 5.0, 0.1, noise=noise, spec=spec)
        assert isinstance(scalar, float)
        assert scalar == grid[0]


def test_corr_ramsey_gaussian_envelope_vs_quadrature(spec):
    # characteristic-function oracle: the S0<->T+-1 shift is a sum of
    # independent per-axis terms, q x^2, q y^2 and z/2 + z^2/(4 a_perp) with
    # q = a_par/(2(a_par^2 - a_perp^2)) + 1/(2(a_par + a_perp)), so its noise
    # average is a product of three 1-D Gauss-Hermite quadratures
    sigma = 0.196
    noise = NoiseModel.isotropic(sigma, seed=3)
    t = np.array([0.5, 1.0, 2.0, 4.0])
    vals = corr_ramsey_diff("st1", t, _phase_tau(math.pi), 1.0, noise=noise, spec=spec)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    x = sigma * nodes
    q = 160.0 / (2 * 12604.0) + 1.0 / 548.0
    for ti, vi in zip(t, vals):
        def average(shift):
            return weights @ np.exp(2j * math.pi * shift * ti) / math.sqrt(2 * math.pi)

        phi = average(q * x**2) ** 2 * average(x / 2 + x**2 / 456.0)
        expected = 0.25 * 4.0 * (phi * np.exp(2j * math.pi * 137.0 * ti)).real
        assert vi == pytest.approx(expected, abs=1e-6)
        # the rule averages the first-order shift z/2 to its Gaussian
        assert average(x / 2) == pytest.approx(math.exp(-(sigma * math.pi * ti) ** 2 / 2),
                                               abs=1e-9)


# ---------------------------------------------------------------------------
# table oracles vs closed forms
# ---------------------------------------------------------------------------

def test_branch_table_reproduces_deer_closed_form(rng):
    # the flip angles 0, pi and 2*pi, random ones, and phases over two turns,
    # with and without an echo decay that reaches 0.2 there
    thetas = np.concatenate([[0.0, math.pi, 2 * math.pi], rng.uniform(0, 2 * math.pi, 17)])
    worst = 0.0
    for decay in (None, DecayModel(t2_nv_us=1.5, stretch_p=1.7)):
        for theta in thetas:
            for phase in np.linspace(0, 4 * math.pi, 20):
                tau = _phase_tau(phase)
                echo = 1.0 if decay is None else decay.echo_factor(tau)
                worst = max(worst, abs(deer_table_signal(theta, tau, 1.0, echo)
                                       - deer_signal(tau, 1.0, decay, theta)))
    assert worst < 1e-12


def test_branch_table_reproduces_corr_rabi(rng):
    for transition in ("st1", "st0"):
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(0.1, 10)
            c = rng.uniform(0.05, 1)
            table = corr_table_term(rabi_manipulation(transition, theta), tau, c)
            assert abs(table - corr_rabi(transition, theta, tau, c)) < 1e-12


def test_st0_composite_matches_printed_matrix(rng):
    # U(pi) U0(theta) U(pi) printed form
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        r2 = math.sqrt(2)
        printed = np.array(
            [
                [(1 - c) / 2, 0, s / r2, (1 + c) / 2],
                [0, -1, 0, 0],
                [s / r2, 0, c, -s / r2],
                [(1 + c) / 2, 0, -s / r2, (1 - c) / 2],
            ],
            dtype=complex,
        )
        composite = u_st1(math.pi) @ u_st0(theta) @ u_st1(math.pi)
        assert np.abs(composite - printed).max() < 1e-12


# ---------------------------------------------------------------------------
# simulator equivalence
# ---------------------------------------------------------------------------

def test_simulator_matches_deer_closed_form(spec, rng):
    worst = 0.0
    for decay in (None, DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)):
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(0.1, 10.0)
            c = rng.uniform(0.05, 1.0)
            sim = simulate_sequence(deer_sequence(theta, tau), spec, c, decay=decay)
            worst = max(worst, abs(sim - deer_signal(tau, c, decay, theta)))
    assert worst < 1e-9


def test_simulator_matches_corr_rabi(spec, rng):
    worst = 0.0
    for _ in range(25):
        for transition in ("st1", "st0"):
            theta = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(0.1, 10.0)
            c = rng.uniform(0.05, 1.0)
            seq = correlation_rabi_sequence(transition, theta, tau)
            sim = simulate_sequence(seq, spec, c)
            worst = max(worst, abs(sim - 0.5 * (1 + corr_rabi(transition, theta, tau, c))))
    assert worst < 1e-9


def test_simulator_matches_corr_ramsey_diff(spec, rng):
    worst = 0.0
    for _ in range(25):
        for transition in ("st1", "st0"):
            t = rng.uniform(0.0, 0.2)
            tau = rng.uniform(0.1, 10.0)
            c = rng.uniform(0.05, 1.0)
            sig, ref = correlation_ramsey_sequences(transition, t, tau)
            diff = (simulate_sequence(sig, spec, c) - simulate_sequence(ref, spec, c))
            worst = max(worst, abs(diff - 0.5 * corr_ramsey_diff(transition, t, tau, c,
                                                                 spec=spec)))
    assert worst < 1e-9


def test_simulator_matches_corr_signal_composition(spec, rng):
    # Eq. correlation composition: weighting corr_signal over the branch
    # table must equal the simulated sequence
    worst = 0.0
    for _ in range(25):
        theta = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.05, 1.0)
        composed = corr_table_signal(rabi_manipulation("st1", theta), tau, c)
        sim = simulate_sequence(correlation_rabi_sequence("st1", theta, tau), spec, c)
        worst = max(worst, abs(sim - composed))
    assert worst < 1e-9


def test_simulator_alternative_protocol(spec, rng):
    worst = 0.0
    for _ in range(15):
        theta = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.05, 1.0)
        sim = simulate_alternative_correlation([rf_st1(theta)], tau, spec, c)
        table = alternative_table_signal(rabi_manipulation("st1", theta), tau, c)
        worst = max(worst, abs(sim - table))
    assert worst < 1e-9


def test_simulator_takes_a_dipolar_geometry_as_its_coupling(spec):
    geometry = DipolarGeometry(r_nm=5.0, theta_r=0.7, phi_r=0.3, theta_e=1.1, phi_e=2.0)
    seq = deer_sequence(1.3, 3.0)
    by_geometry = simulate_sequence(seq, spec, geometry)
    assert by_geometry == simulate_sequence(seq, spec, dipolar_constant(geometry))
    assert abs(by_geometry - simulate_sequence(seq, spec, 0.0)) > 1e-3


def test_simulator_free_only_sequence(spec):
    assert simulate_sequence([free(3.0), readout()], spec, 0.5) == pytest.approx(1.0)


def test_simulator_with_noise_draw_shifts_carrier(spec):
    # a pure axial draw moves the st1 carrier by delta_z/2 exactly
    dz = 0.4
    draw = NoiseDraw(0, 0, dz)
    tau, c = 4.0, 0.25
    t = 0.05
    sig, ref = correlation_ramsey_sequences("st1", t, tau)
    diff = (simulate_sequence(sig, spec, c, noise=draw)
            - simulate_sequence(ref, spec, c, noise=draw))
    amp = 0.25 * (1 - math.cos(TWO_PI * c * tau)) ** 2
    # carrier splits into f +- dz/2 components with equal weight
    expected = 0.5 * amp * (math.cos(TWO_PI * (137.0 + dz / 2) * t)
                            + math.cos(TWO_PI * (137.0 - dz / 2) * t))
    assert diff == pytest.approx(0.5 * expected, abs=2e-4)


#: The interrogation block at tau = 4 us: tau/2, 2pi MW with the 2pi RF
#: decoupling pulse, tau/2.
_BLOCK = [("free", 2.0, "joint"), ("mw_2pi", 0.0, "joint"), ("rf_st1", TWO_PI, "joint"),
          ("free", 2.0, "joint")]
_OPEN, _CLOSE = [("mw_pi", 0.0, "joint")], [("mw_pi", 0.0, "joint"), ("readout", 0.0, "joint")]
_LOCK, _SHUTTLE = [("spinlock", 10.0, "joint")], [("rf_st1", math.pi, "joint")]


@pytest.mark.parametrize("family, transition, listing", [
    ("ramsey", "st1", _OPEN + _BLOCK + _LOCK + [
        ("rf_st1", math.pi / 2, "joint"), ("free", 0.7, "target"),
        ("rf_st1", -math.pi / 2, "joint")] + _BLOCK + _CLOSE),
    ("ramsey", "st0", _OPEN + _BLOCK + _LOCK + _SHUTTLE + [
        ("rf_st0", math.pi / 2, "joint"), ("free", 0.7, "target"),
        ("rf_st0", -math.pi / 2, "joint")] + _SHUTTLE + _BLOCK + _CLOSE),
    ("rabi", "st1", _OPEN + _BLOCK + _LOCK + [("rf_st1", 0.7, "joint")] + _BLOCK + _CLOSE),
    ("rabi", "st0", _OPEN + _BLOCK + _LOCK + _SHUTTLE + [("rf_st0", 0.7, "joint")]
     + _SHUTTLE + _BLOCK + _CLOSE),
    ("deer", "st1", _OPEN + [("free", 2.0, "joint"), ("mw_2pi", 0.0, "joint"),
                             ("rf_st1", 0.7, "joint"), ("free", 2.0, "joint")] + _CLOSE),
    ("deer", "st0", _OPEN + [("free", 2.0, "joint"), ("mw_2pi", 0.0, "joint"),
                             ("rf_st0", 0.7, "joint"), ("free", 2.0, "joint")] + _CLOSE),
])
def test_sequences_are_the_written_out_protocol(family, transition, listing):
    # x = 0.7 is the Ramsey time, the Rabi flip angle or the DEER flip angle
    seq = {"ramsey": lambda: correlation_ramsey_sequences(transition, 0.7, 4.0)[0],
           "rabi": lambda: correlation_rabi_sequence(transition, 0.7, 4.0),
           "deer": lambda: deer_sequence(0.7, 4.0, transition)}[family]()
    assert [(el.kind, el.value, el.frame) for el in seq] == listing


@pytest.mark.parametrize("transition", ["st1", "st0"])
def test_ramsey_pair_differs_only_in_the_closing_pulse(transition):
    sig, ref = correlation_ramsey_sequences(transition, 0.7, 4.0)
    assert len(sig) == len(ref)
    differ = [i for i, (a, b) in enumerate(zip(sig, ref)) if a != b]
    assert len(differ) == 1
    i = differ[0]
    assert sig[i - 1] == free(0.7, frame="target")
    assert (sig[i].kind, ref[i].kind) == (f"rf_{transition}",) * 2
    assert (sig[i].value, ref[i].value) == (-math.pi / 2, math.pi / 2)


@pytest.mark.parametrize("transition", ["st1", "st0"])
def test_sequence_builders_share_their_repeated_elements(transition):
    # each interrogation block's two halves are one free(tau/2), in both
    # blocks and both sequences of a pair, and the opening pi/2 pulse is the
    # reference's closing one; equality is that of freshly built elements
    sig, ref = correlation_ramsey_sequences(transition, 0.7, 4.0)
    halves = [el for seq in (sig, ref) for el in seq if el == free(2.0)]
    assert len(halves) == 8 and all(el is halves[0] for el in halves)
    quarter = [el for el in sig if el.value == math.pi / 2 and el.kind == f"rf_{transition}"]
    assert len(quarter) == 1
    i = next(i for i, (a, b) in enumerate(zip(sig, ref)) if a != b)
    assert ref[i] is quarter[0] and sig[i] is not quarter[0]
    for seq in (sig, ref):
        assert seq == [Pulse(el.kind, el.value, el.frame) for el in seq]
    assert (sig, ref) == correlation_ramsey_sequences(transition, 0.7, 4.0) and sig != ref
    deer = deer_sequence(0.7, 4.0, transition)
    assert deer[1] is deer[4] and deer[1] == free(2.0)


@pytest.mark.parametrize("transition", ["st1", "st0"])
def test_fixed_angle_pulses_are_shared_by_every_call(transition):
    # the decoupling rf_st1(2 pi), the shuttle rf_st1(pi) and the +-pi/2
    # pulses are built once: two calls at other times and taus hold the same
    # objects, and a Rabi sequence holds the same decoupling and shuttle
    first = correlation_ramsey_sequences(transition, 0.7, 4.0)
    second = correlation_ramsey_sequences(transition, 1.9, 5.0)
    rabi = correlation_rabi_sequence(transition, 0.7, 4.0)
    rf = lambda seq, angles: [el for el in seq if el.kind.startswith("rf_") and el.value in angles]
    fixed = (2 * math.pi, math.pi, math.pi / 2, -math.pi / 2)
    for seq_a, seq_b in zip(first, second):
        pulses = list(zip(rf(seq_a, fixed), rf(seq_b, fixed), strict=True))
        assert len(pulses) == (4 if transition == "st1" else 6)
        assert all(a is b for a, b in pulses)
        # each equals its freshly built element
        assert seq_a == [Pulse(el.kind, el.value, el.frame) for el in seq_a]
    pulses = list(zip(rf(rabi, fixed[:2]), rf(first[0], fixed[:2]), strict=True))
    assert len(pulses) == (2 if transition == "st1" else 4) and all(a is b for a, b in pulses)


def test_sequence_validation_errors(spec):
    with pytest.raises(SequenceError):
        simulate_sequence([mw_pi(), free(1.0)], spec, 0.1)  # no readout
    with pytest.raises(SequenceError):
        simulate_sequence([spinlock(1.0), mw_pi(), readout()], spec, 0.1)
    with pytest.raises(SequenceError):
        simulate_sequence([mw_pi(), free(1.0, frame="target"), readout()], spec, 0.1)
    with pytest.raises(SequenceError):
        simulate_sequence([mw_pi(), readout(), mw_pi(), readout()], spec, 0.1)
    with pytest.raises(SequenceError):
        simulate_sequence([], spec, 0.1)
    with pytest.raises(SequenceError):
        simulate_alternative_correlation([spinlock(1.0)], 2.0, spec, 0.1)


# ---------------------------------------------------------------------------
# decay plumbing
# ---------------------------------------------------------------------------

def test_simulator_deer_decay_matches_stretched_exponential(spec, rng):
    decay = DecayModel(t2_nv_us=16.0, stretch_p=2.0, t1rho_us=math.inf)
    worst = 0.0
    for _ in range(20):
        tau = rng.uniform(0.5, 30.0)
        c = rng.uniform(0.05, 1.0)
        sim = simulate_sequence(deer_sequence(2 * math.pi, tau), spec, c, decay=decay)
        worst = max(worst, abs(sim - deer_signal(tau, c, decay)))
    assert worst < 1e-9


def test_simulator_correlation_decay_matches_table(spec, rng):
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    lock_us = 12.0
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(0.5, 20.0)
        c = rng.uniform(0.05, 1.0)
        seq = correlation_rabi_sequence("st1", theta, tau, lock_us)
        sim = simulate_sequence(seq, spec, c, decay=decay)
        table = corr_table_signal(rabi_manipulation("st1", theta), tau, c,
                                  echo=decay.echo_factor(tau),
                                  lock=decay.lock_factor(lock_us))
        worst = max(worst, abs(sim - table))
    assert worst < 1e-9


def test_lock_relaxation_scales_contrast(spec):
    theta, tau, c = math.pi, _phase_tau(math.pi), 1.0
    base = simulate_sequence(correlation_rabi_sequence("st1", theta, tau, 0.0), spec, c)
    decay = DecayModel(t2_nv_us=math.inf, t1rho_us=150.0)
    locked = simulate_sequence(correlation_rabi_sequence("st1", theta, tau, 150.0),
                               spec, c, decay=decay)
    # correlated term scales by exp(-T/T1rho)
    assert (locked - 0.5) == pytest.approx((base - 0.5) * math.exp(-1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo machinery
# ---------------------------------------------------------------------------

def test_monte_carlo_single_draw_zero_width(spec):
    noise = NoiseModel(0.0, 0.0, 0.0, seed=9)
    family = lambda t: correlation_rabi_sequence("st1", 1.0, 4.0)
    t_grid = [0.0, 1.0]
    series = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 1)
    single = simulate_sequence(family(0.0), spec, 0.3, noise=NoiseDraw())
    assert np.abs(series.values - single).max() < 1e-12


def test_monte_carlo_matches_gaussian_envelope(spec):
    # quasi-static axial noise: the differential envelope is the Gaussian
    # characteristic function; with 2000 draws the z-scores stay small
    sigma = 0.196
    noise = NoiseModel(0.0, 0.0, sigma, seed=41)
    tau, c = _phase_tau(math.pi), 1.0
    t_grid = np.linspace(0.2, 4.6, 12)

    sig_series = monte_carlo_signal(
        lambda t: correlation_ramsey_sequences("st1", t, tau)[0],
        t_grid, spec, c, noise, 2000)
    ref_series = monte_carlo_signal(
        lambda t: correlation_ramsey_sequences("st1", t, tau)[1],
        t_grid, spec, c, noise, 2000)
    sims = sig_series.values - ref_series.values

    draws = sample_noise(noise, 2000)
    z_scores = []
    for t, sim in zip(t_grid, sims):
        env = math.exp(-((sigma * math.pi * t) ** 2) / 2)
        expected = 0.5 * 0.25 * 4.0 * env * math.cos(TWO_PI * 137.0 * t)
        per_draw = 0.5 * 0.25 * 4.0 * np.cos(TWO_PI * (draws[:, 2] / 2) * t) \
            * math.cos(TWO_PI * 137.0 * t)
        se = per_draw.std() / math.sqrt(len(per_draw))
        if se > 1e-9:
            z_scores.append(abs(sim - expected) / se)
    z_scores = np.array(z_scores)
    assert np.mean(z_scores < 3.0) >= 0.9
    assert z_scores.max() < 5.0


def test_monte_carlo_matches_the_exact_st0_average(spec):
    # S0<->T0 under isotropic noise: the simulator's Monte Carlo average
    # against the closed form's exact average phi(t), out to 240 us, where
    # the noise has moved the line's phase by 0.8 rad
    sigma, n, tau, c = 0.196, 2048, 5.0, 0.1
    noise = NoiseModel.isotropic(sigma, seed=21)
    t_grid = 0.17 + 60.3 * np.arange(5)
    families = [lambda t, k=k: correlation_ramsey_sequences("st0", t, tau)[k] for k in (0, 1)]
    sig, ref = (monte_carlo_signal(f, t_grid, spec, c, noise, n).values for f in families)
    closed = 0.5 * corr_ramsey_diff("st0", t_grid, tau, c, noise=noise, spec=spec)
    # the per-draw spread of the simulated difference, from the first block
    eig = zfepr.protocols._eigensystems(spec, c, sample_noise(noise, 512))
    per_draw = np.subtract(*(zfepr.protocols._evolve([f(t) for t in t_grid], eig, None)
                             for f in families))
    se = per_draw.std(axis=1) / math.sqrt(n)
    # the closed form applies the RF pulses to the noise-free states, but
    # transverse noise mixes T0 into T+-1 at an amplitude d_perp / g,
    # g = (a_par - a_perp)/2: each of the four RF pulses loses contrast of
    # order <d_perp^2> / g^2 (2.4 of it in all, measured over 16,384 draws)
    g = 0.5 * (spec.a_par_mhz - spec.a_perp_mhz)
    amplitude = 0.5 * 0.25 * (1 - math.cos(TWO_PI * c * tau)) ** 2
    model_error = amplitude * 4.0 * 2 * sigma**2 / g**2
    bound = 6 * se + model_error
    assert np.all(np.abs(sig - ref - closed) < bound)
    # without the noise average the comparison fails past the first time
    bare = 0.5 * corr_ramsey_diff("st0", t_grid, tau, c, spec=spec)
    assert np.all((np.abs(sig - ref - bare) > bound)[1:])


_ROLES = "monte_carlo_signal averages a NoiseModel; simulate_sequence takes one NoiseDraw"


@pytest.mark.parametrize("noise, n_draws, error, message", [
    (None, 10, TypeError, "noise must be a NoiseModel, not NoneType: " + _ROLES),
    (NoiseDraw(0.1, 0.0, 0.0), 10, TypeError, "noise must be a NoiseModel, not NoiseDraw: "
     + _ROLES),
    (NoiseModel.isotropic(0.2), 2.5, TypeError, "n_draws must be an integer, not 2.5"),
    (NoiseModel.isotropic(0.2), True, TypeError, "n_draws must be an integer, not True"),
    (NoiseModel.isotropic(0.2), np.float64(3.0), TypeError, "n_draws must be an integer"),
    (NoiseModel.isotropic(0.2), 0, ValueError, "need at least one draw"),
], ids=["none", "noise-draw", "fractional-draws", "bool-draws", "float-draws", "zero-draws"])
def test_monte_carlo_names_a_wrong_noise_or_draw_count_before_any_work(
        noise, n_draws, error, message, spec, monkeypatch):
    calls = []
    monkeypatch.setattr(zfepr.protocols, "_evolve", lambda *args: calls.append("evolve"))
    monkeypatch.setattr(zfepr.protocols, "sample_noise", lambda *args, **kw: calls.append("noise"))
    family = lambda t: calls.append("build") or correlation_ramsey_sequences("st1", t, 4.0)[0]
    with pytest.raises(error, match="^" + re.escape(message)):
        monte_carlo_signal(family, [0.1, 0.3], spec, 0.3, noise, n_draws)
    assert calls == []


def test_monte_carlo_takes_a_numpy_integer_draw_count(spec):
    noise = NoiseModel.isotropic(0.2, seed=4)
    family = lambda t: correlation_ramsey_sequences("st1", t, 4.0)[0]
    a, b = (monte_carlo_signal(family, [0.1, 0.3], spec, 0.3, noise, n).values
            for n in (np.int64(7), 7))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("caller", [
    lambda spec, noise: simulate_sequence(deer_sequence(1.0, 2.0), spec, 0.3, noise=noise),
    lambda spec, noise: simulate_alternative_correlation([], 2.0, spec, 0.3, noise=noise),
], ids=["simulate_sequence", "simulate_alternative_correlation"])
@pytest.mark.parametrize("noise", [NoiseModel.isotropic(0.2), np.array([0.1, 0.0, 0.0])],
                         ids=["noise-model", "array"])
def test_single_runs_name_a_noise_that_is_not_one_draw(caller, noise, spec, monkeypatch):
    calls = []
    monkeypatch.setattr(zfepr.protocols, "_eigensystems", lambda *args: calls.append("eig"))
    message = f"noise must be a NoiseDraw or None, not {type(noise).__name__}: {_ROLES}"
    with pytest.raises(TypeError, match="^" + re.escape(message)):
        caller(spec, noise)
    assert calls == []


def test_monte_carlo_standard_error_scaling(spec):
    # the standard error of the draw mean halves when the draw count doubles
    noise = NoiseModel(0.0, 0.0, 0.196, seed=5)
    t = 2.0
    counts = np.array([250, 500, 1000, 2000])
    ses = []
    for n in counts:
        draws = sample_noise(noise, int(n))
        vals = np.cos(TWO_PI * (draws[:, 2] / 2) * t)
        ses.append(vals.std(ddof=1) / math.sqrt(n))
    slope = np.polyfit(np.log(counts), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_monte_carlo_deterministic_and_chunk_independent(spec):
    noise = NoiseModel.isotropic(0.2, seed=77)
    family = lambda t: correlation_ramsey_sequences("st1", t, 4.0)[0]
    t_grid = [0.1, 0.3]
    a = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 40)
    b = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 40)
    assert np.array_equal(a.values, b.values)
    # 600 draws span two chunks; the chunked, batched average must equal the
    # mean of one simulation per draw
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    draws = [NoiseDraw(*d) for d in sample_noise(noise, 600)]
    for transition in ("st1", "st0"):
        family = lambda t: correlation_ramsey_sequences(transition, t, 4.0)[0]
        series = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 600, decay=decay)
        per_draw = [[simulate_sequence(family(t), spec, 0.3, noise=d, decay=decay)
                     for t in t_grid] for d in draws]
        assert np.abs(series.values - np.mean(per_draw, axis=0)).max() < 1e-12


@pytest.mark.parametrize("t_grid, message", [([0.0, 0.1, 0.5], "uniform"),
                                             ([0.3], "at least two samples")],
                         ids=["nonuniform", "one-time"])
def test_monte_carlo_rejects_a_grid_before_any_work(t_grid, message, spec, monkeypatch):
    # a grid the returned TimeSeries cannot hold fails before a sequence is
    # built, a draw sampled or a step run
    calls = []
    monkeypatch.setattr(zfepr.protocols, "_evolve", lambda *args: calls.append("evolve"))
    monkeypatch.setattr(zfepr.protocols, "sample_noise", lambda *args, **kw: calls.append("noise"))
    family = lambda t: calls.append("build") or correlation_ramsey_sequences("st1", t, 4.0)[0]
    with pytest.raises(ValueError, match=message):
        monte_carlo_signal(family, t_grid, spec, 0.3, NoiseModel.isotropic(0.2), 40)
    assert calls == []


def _per_draw_mean(family, t_grid, spec, coupling, draws, decay):
    return np.mean([[simulate_sequence(family(t), spec, coupling, noise=d, decay=decay)
                     for t in t_grid] for d in draws], axis=0)


def test_monte_carlo_joint_free_grid_matches_per_draw(spec):
    # DEER's differing elements are joint-frame free gaps, so the grid's
    # middles leave different echo times open: the shared tail must start
    # after the closing pi pulse.  600 draws span two chunks.
    noise = NoiseModel.isotropic(0.2, seed=12)
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    draws = [NoiseDraw(*d) for d in sample_noise(noise, 600)]
    family = lambda t: deer_sequence(1.3, t)
    t_grid = [0.5, 4.0, 7.5]
    series = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 600, decay=decay)
    expected = _per_draw_mean(family, t_grid, spec, 0.3, draws, decay)
    assert np.abs(series.values - expected).max() < 1e-12


def test_monte_carlo_grid_of_changing_length_matches_per_draw(spec):
    # the sequence shape changes with t (15 elements, then 17): the grid
    # still shares what its sequences share at their start and their end
    noise = NoiseModel.isotropic(0.2, seed=13)
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    draws = [NoiseDraw(*d) for d in sample_noise(noise, 600)]
    family = lambda t: correlation_ramsey_sequences("st1" if t < 0.2 else "st0", t, 4.0)[0]
    t_grid = [0.1, 0.3, 0.5]
    assert len({len(family(t)) for t in t_grid}) == 2
    series = monte_carlo_signal(family, t_grid, spec, 0.3, noise, 600, decay=decay)
    expected = _per_draw_mean(family, t_grid, spec, 0.3, draws, decay)
    assert np.abs(series.values - expected).max() < 1e-12


_EIG_DRAWS = np.array([
    [0.3, 0.2, 0.1], [-0.3, 0.2, -0.1], [-0.3, -0.2, 0.05], [0.3, -0.2, 0.0],  # quadrants
    [0.0, 0.0, 0.4], [-0.0, 0.0, 0.4], [-0.0, -0.0, -0.2], [0.0, -0.0, 0.0],  # d_perp = 0
    [0.0, 0.7, 0.0], [-0.7, 0.0, 0.0],  # on the axes
    [11.4, -11.4, 11.4], [-11.4, 3.0, -7.0],  # a_perp/10
])


@pytest.mark.parametrize("coupling", [0.1, 0.7, DipolarGeometry(r_nm=2.0, theta_r=0.4)],
                         ids=["0.1", "0.7", "geometry"])
def test_eigensystems_reproduce_each_draws_hamiltonian(coupling, spec, rng):
    # each block's v diag(w) v^dagger is the joint Hamiltonian plus the
    # draw's noise Hamiltonian, and v is unitary: the real eigh of the
    # rotated block and its rotation back, in every (dx, dy) quadrant, at
    # d_perp = 0 with either sign of zero, for pure dz and up to a_perp/10
    draws = np.concatenate([_EIG_DRAWS, rng.normal(0.0, spec.a_perp_mhz / 10.0, (20, 3))])
    w, v = zfepr.protocols._eigensystems(spec, coupling, draws)
    joint = joint_hamiltonian(spec, coupling)
    for d, w_d, v_d in zip(draws, w, v):
        h = joint + np.kron(np.eye(3), noise_hamiltonian(d))
        for m in range(3):
            block = h[4 * m : 4 * m + 4, 4 * m : 4 * m + 4]
            rebuilt = (v_d[m] * w_d[m]) @ v_d[m].conj().T
            assert np.abs(rebuilt - block).max() <= 1e-12 * np.abs(block).max(), (d, m)
            assert np.abs(v_d[m].conj().T @ v_d[m] - np.eye(4)).max() <= 1e-13, (d, m)


def _split_reference(bodies):
    """Shared prefix and tail lengths, one step at a time by plain equality."""
    shared = min(map(len, bodies))
    differ = lambda i: any(b[i] != bodies[0][i] for b in bodies)
    n_prefix = next((i for i in range(shared) if differ(i)), shared)
    return n_prefix, next((j for j in range(shared - n_prefix) if differ(-1 - j)),
                          shared - n_prefix)


@pytest.mark.parametrize("family, times", [
    (lambda t: correlation_ramsey_sequences("st0", t, 5.0)[0], 0.17 * np.arange(12)),
    (lambda t: correlation_ramsey_sequences("st1" if t < 0.2 else "st0", t, 4.0)[0],
     [0.1, 0.3, 0.5]),
    (lambda t: deer_sequence(1.3, t), [0.5, 4.0, 7.5]),
    (lambda t: correlation_rabi_sequence("st1", t, 5.0), [0.3, 0.3]),
    (lambda t: correlation_rabi_sequence("st0", t, 5.0), [0.3]),
], ids=["ramsey", "changing-length", "deer", "equal", "one"])
def test_split_finds_the_shared_prefix_and_tail(family, times):
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    for d in (None, decay):  # with decay, echo factors (floats) are steps too
        bodies = [zfepr.protocols._steps(family(t), d) for t in times]
        assert zfepr.protocols._split(bodies) == _split_reference(bodies)


@pytest.mark.parametrize("transpose", [False, True], ids=["stack", "transposed-stack"])
def test_factor_times_a_stack_is_the_batched_product(transpose, rng):
    # an r x 12 factor times a stack (n, 12, 12), or its transpose, as one
    # product, and a stack (n, r, 12) times one 12x12
    u = rng.normal(size=(7, 12, 12)) + 1j * rng.normal(size=(7, 12, 12))
    b = u.swapaxes(-1, -2) if transpose else u
    a = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
    out = zfepr.protocols._mul(a, b)
    assert out.shape == (7, 4, 12)
    assert np.abs(out - a @ b).max() <= 1e-13
    assert np.abs(zfepr.protocols._mul(out, u[0]) - out @ u[0]).max() <= 1e-12


def test_engine_steps_adjoint_identity(spec, rng):
    # the engine folds a sequence's shared tail into the readout observable:
    # Tr(O Phi(rho)) must equal Tr(Phi^dagger(O) rho) for every step kind,
    # for runs of several unitary steps, and for runs broken by channels
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    n = 5
    a = rng.normal(size=(n, 12, 12)) + 1j * rng.normal(size=(n, 12, 12))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    b = rng.normal(size=(n, 12, 12)) + 1j * rng.normal(size=(n, 12, 12))
    obs = b + b.conj().swapaxes(-1, -2)
    eig = zfepr.protocols._eigensystems(spec, 0.3, rng.normal(0, 0.2, (n, 3)))
    step_lists = [[step] for step in (0.37, dephase(), spinlock(40.0), mw_pi(), free(0.8),
                                      free(0.8, frame="target"), rf_st1(1.1))]
    step_lists += [[mw_pi(), free(0.8), mw_2pi(), rf_st1(1.1), free(0.8)],
                   [rf_st0(0.4), free(0.3, frame="target"), 0.37, mw_pi(), spinlock(40.0),
                    free(0.8), rf_st1(2.0), dephase(), mw_2pi()]]
    for steps in step_lists:
        ws = zfepr.protocols._Workspace(eig)
        runs = zfepr.protocols._runs(steps, ws)
        forward = zfepr.protocols._apply_runs(rho, runs, ws, decay)
        backward = zfepr.protocols._apply_runs(obs, runs, ws, decay, adjoint=True)
        lhs = np.einsum("nij,nji->n", obs, forward)
        rhs = np.einsum("nij,nji->n", backward, rho)
        assert np.abs(lhs - rhs).max() < 1e-12, steps
    # the locking channel on its own, as the public function
    lhs = np.einsum("nij,nji->n", obs, spinlock_channel(rho, 40.0, decay))
    rhs = np.einsum("nij,nji->n", spinlock_channel(obs, 40.0, decay), rho)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_ramsey_grid_runs_shared_prefix_once(spec, monkeypatch):
    # the spin lock sits in the prefix every time of the grid shares
    calls = []

    def counting(rho, t_us, decay=None, out=None):
        calls.append(t_us)
        return spinlock_channel(rho, t_us, decay, out)

    monkeypatch.setattr(zfepr.protocols, "spinlock_channel", counting)
    noise = NoiseModel.isotropic(0.196, seed=8)
    family = lambda t: correlation_ramsey_sequences("st0", t, 5.0)[0]
    monte_carlo_signal(family, 0.17 * np.arange(12), spec, 0.1, noise, 50)
    assert len(calls) == 1


def test_ramsey_grid_reads_out_in_the_target_eigenbasis_at_long_times(spec):
    # the eigenbasis readout against one forward simulation per draw and
    # time, out to 1,500 us, where the phases reach 1e6 rad
    noise = NoiseModel.isotropic(0.5, seed=23)
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    draws = sample_noise(noise, 3)
    eig = zfepr.protocols._eigensystems(spec, 0.3, draws)
    t_grid = np.array([0.0, 0.37, 12.9, 240.0, 777.7, 1500.0])
    for transition in ("st1", "st0"):
        for k in (0, 1):
            sequences = [correlation_ramsey_sequences(transition, t, 4.0)[k] for t in t_grid]
            grid = zfepr.protocols._evolve(sequences, eig, decay)
            single = [[simulate_sequence(seq, spec, 0.3, noise=NoiseDraw(*d), decay=decay)
                       for d in draws] for seq in sequences]
            assert np.abs(grid - single).max() < 1e-9


@pytest.mark.parametrize("transition", ["st1", "st0"])
def test_ramsey_grid_applies_only_its_shared_steps(transition, spec, monkeypatch):
    # a Ramsey grid's middles are read out in the target eigenbasis, so it
    # applies runs of its shared prefix only, at any length.  The spin lock
    # acts on the sensor alone and commutes with the target-only steps after
    # it (the opening pulses and V^dagger), so it ends the prefix: every
    # other prefix step and the whole tail (no channel without decay) are
    # carried as 4x12 factors, the only run left is the lock, and the tail
    # forms no 12x12 run.  A Rabi grid runs each middle (one RF pulse) as one
    # more run, so its count grows by one per point.
    calls, runs = [], []
    apply_run, make_runs = zfepr.protocols._apply_run, zfepr.protocols._runs
    monkeypatch.setattr(zfepr.protocols, "_apply_run",
                        lambda *args, **kwargs: calls.append(1) or apply_run(*args, **kwargs))
    monkeypatch.setattr(zfepr.protocols, "_runs",
                        lambda *args: runs.append(make_runs(*args)) or runs[-1])
    noise = NoiseModel.isotropic(0.196, seed=8)

    def count(family, points):
        calls.clear()
        runs.clear()
        monte_carlo_signal(family, points, spec, 0.1, noise, 50)
        return len(calls)

    ramsey = lambda t: correlation_ramsey_sequences(transition, t, 5.0)[0]
    assert [count(ramsey, 0.17 * np.arange(n)) for n in (12, 48)] == [1, 1]
    prefix, tail = runs  # the prefix's runs, then the tail's
    assert prefix == [spinlock(10.0)]
    assert tail == []
    rabi = lambda theta: correlation_rabi_sequence(transition, theta, 5.0)
    twelve, forty_eight = (count(rabi, np.linspace(0.0, math.pi, n)) for n in (12, 48))
    assert forty_eight - twelve == 36


_DECAY = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)


def _grid_against_per_draw(family, points, spec, decay, monkeypatch):
    """The grid's prefix, after its channel step is moved, and the grid's
    worst distance from one run per draw and point.  Those runs are single
    sequences, whose last channel step is followed by a joint free step or a
    MW pulse, so they move none: they are the unmoved oracle."""
    moves, channel_last = [], zfepr.protocols._channel_last
    monkeypatch.setattr(zfepr.protocols, "_channel_last",
                        lambda steps: moves.append((steps, channel_last(steps))) or moves[-1][1])
    noise = NoiseModel.isotropic(0.196, seed=31)
    series = monte_carlo_signal(family, points, spec, 0.3, noise, 20, decay=decay)
    (grid_moved,) = moves
    moves.clear()
    draws = [NoiseDraw(*d) for d in sample_noise(noise, 20)]
    expected = _per_draw_mean(family, points, spec, 0.3, draws, decay)
    assert moves and all(moved is prefix for prefix, moved in moves)
    return grid_moved[1], np.abs(series.values - expected).max()


def test_only_a_sensor_channel_before_target_steps_moves():
    # the spin lock and dephasing act on the sensor alone and move past RF
    # pulses, target-frame free steps and matrices; an echo factor scales
    # target sectors, and joint steps and MW pulses act on the sensor
    channel_last = zfepr.protocols._channel_last
    v_dagger = np.zeros((3, 12, 12), dtype=complex)
    target = [rf_st1(math.pi), rf_st0(0.5), free(0.4, frame="target"), v_dagger]
    for channel in (spinlock(10.0), dephase()):
        moved = channel_last([mw_pi(), 0.8, channel] + target)
        assert moved[:5] == [mw_pi(), 0.8] + target[:3] and moved[5] is v_dagger
        assert moved[6:] == [channel]
    for prefix in ([mw_pi(), spinlock(10.0), rf_st1(1.0), free(0.4)],
                   [mw_pi(), dephase(), rf_st1(1.0), mw_2pi()],
                   [mw_pi(), spinlock(10.0), 0.8, rf_st1(1.0)],
                   [mw_pi(), free(0.4), rf_st1(1.0)]):
        assert channel_last(prefix) is prefix
    assert channel_last([]) == []


@pytest.mark.parametrize("decayed", [False, True], ids=["no-decay", "decay"])
@pytest.mark.parametrize("k", [0, 1], ids=["signal", "reference"])
@pytest.mark.parametrize("transition", ["st1", "st0"])
def test_ramsey_grid_with_the_lock_at_its_prefix_end_matches_per_draw(
        transition, k, decayed, spec, monkeypatch):
    # the spin lock acts on the sensor alone and the steps after it in the
    # prefix (the opening pulses, V^dagger) on the target alone, so the lock
    # moves to the prefix's end, with decay too
    family = lambda t: correlation_ramsey_sequences(transition, t, 4.0)[k]
    decay = _DECAY if decayed else None
    prefix, worst = _grid_against_per_draw(family, np.linspace(0.0, 2.0, 7), spec, decay,
                                           monkeypatch)
    assert prefix[-1] == spinlock(10.0) and isinstance(prefix[-2], np.ndarray)
    assert worst < 1e-12


@pytest.mark.parametrize("decayed", [False, True], ids=["no-decay", "decay"])
def test_st0_rabi_grid_with_the_lock_after_the_shuttle_matches_per_draw(
        decayed, spec, monkeypatch):
    # the S0<->T0 Rabi grid's prefix ends [lock, shuttle]: the lock moves past
    # the shuttle, and each middle (one RF pulse) runs from the state after it
    family = lambda theta: correlation_rabi_sequence("st0", theta, 4.0)
    decay = _DECAY if decayed else None
    prefix, worst = _grid_against_per_draw(family, np.linspace(0.0, math.pi, 5), spec, decay,
                                           monkeypatch)
    assert prefix[-2:] == [rf_st1(math.pi), spinlock(10.0)]
    assert worst < 1e-12


def test_a_joint_step_after_the_lock_keeps_it_in_place(spec, monkeypatch):
    # a hand-built Ramsey grid with a joint-frame free step between the lock
    # and the middle: the lock does not commute with it and stays where it is
    def family(t):
        seq = correlation_ramsey_sequences("st0", t, 4.0)[0]
        i = seq.index(spinlock(10.0))
        return seq[: i + 1] + [free(0.3)] + seq[i + 1 :]

    prefix, worst = _grid_against_per_draw(family, np.linspace(0.0, 2.0, 7), spec, None,
                                           monkeypatch)
    assert prefix[prefix.index(spinlock(10.0)) + 1] == free(0.3)
    assert not isinstance(prefix[-1], Pulse)  # V^dagger still ends the prefix
    assert worst < 1e-12


@pytest.mark.parametrize("transition", ["st1", "st0"])
@pytest.mark.parametrize("n_draws, chunks", [(50, 1), (1100, 3)])
def test_nothing_is_rebuilt_within_a_chunk(transition, n_draws, chunks, monkeypatch):
    # one monte_carlo_signal call on a Ramsey grid (the benchmark's inputs at
    # 50 draws) builds each distinct unitary step once per chunk, the shared
    # free gap tau/2 among them, and runs one batched eigh per chunk
    built, eighs = [], []
    unitary, eigh = zfepr.protocols._unitary, np.linalg.eigh
    monkeypatch.setattr(zfepr.protocols, "_unitary",
                        lambda step, eig: built.append(step) or unitary(step, eig))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    family = lambda t: correlation_ramsey_sequences(transition, t, 5.0)[0]
    monte_carlo_signal(family, 0.17 * np.arange(12), TargetSpec(a_perp_mhz=114.0,
                       a_par_mhz=160.0), 0.1, NoiseModel.isotropic(0.196, seed=8), n_draws)
    assert [shape[1:] for shape in eighs] == [(3, 4, 4)] * chunks
    assert sum(shape[0] for shape in eighs) == n_draws
    # every step but the spin lock and the middle (the target-frame free step)
    steps = {step for step in zfepr.protocols._steps(family(1.0), None)
             if step.kind != "spinlock" and step.frame == "joint"}
    assert free(2.5) in steps
    assert collections.Counter(built) == {step: chunks for step in steps}


# ---------------------------------------------------------------------------
# the closed-form Ramsey record of a transition's lines
# ---------------------------------------------------------------------------

def test_ramsey_record_is_a_pure_cosine_without_noise(spec):
    t = np.linspace(0, 2, 101)
    values = corr_ramsey_diff("st1", t, 4.0, 0.25, spec=spec)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    assert np.abs(values - amp * np.cos(TWO_PI * 137.0 * t)).max() < 1e-12


def test_ramsey_record_beats_at_the_c13_splitting(spec):
    spec2 = TargetSpec(c13_splitting_mhz=0.37)
    t = np.linspace(0, 20, 512)
    values = corr_ramsey_diff("st1", t, 4.0, 0.25, spec=spec2)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    expected = amp * 0.5 * (np.cos(TWO_PI * (137.0 - 0.185) * t)
                            + np.cos(TWO_PI * (137.0 + 0.185) * t))
    assert np.abs(values - expected).max() < 1e-12


def test_ramsey_record_uses_the_zero_field_lines_of_the_sweep():
    # the record and the field sweep share one line model
    spec2 = TargetSpec(orientations=((0.0, 0.0, 1.0),), c13_splitting_mhz=0.37,
                       st0_offset_doublet_mhz=(-0.0125, 0.0125))
    lines = transitions_vs_field(FieldVector().as_array(), spec2)
    t = np.linspace(0, 20, 512)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    for transition, (freqs, weights) in lines.items():
        values = corr_ramsey_diff(transition, t, 4.0, 0.25, spec=spec2)
        expected = amp * sum(w * np.cos(TWO_PI * f * t) for f, w in zip(freqs[0], weights[0]))
        assert np.abs(values - expected).max() < 1e-12


def test_ramsey_doublet_samples_no_draw_and_is_the_line_times_its_beat(spec, monkeypatch):
    # the doublet's components share one noise average, taken in closed form:
    # no draw is sampled for either component, and the doublet is the single
    # line times cos(2 pi 0.03 t)
    requested = []

    def counting(model, n, start=0):
        requested.append(n)
        return sample_noise(model, n, start)

    monkeypatch.setattr(zfepr.protocols, "sample_noise", counting)
    spec2 = TargetSpec(st0_offset_doublet_mhz=(-0.03, 0.03))
    t = np.linspace(0, 2, 16)
    noise = NoiseModel.isotropic(0.196, seed=4)
    doublet = corr_ramsey_diff("st0", t, 4.0, 0.25, noise=noise, spec=spec2)
    assert sum(requested) == 0
    single = corr_ramsey_diff("st0", t, 4.0, 0.25, noise=noise, spec=spec)
    assert np.abs(doublet - single * np.cos(TWO_PI * 0.03 * t)).max() < 1e-12


def test_unknown_transition_has_no_line(spec):
    with pytest.raises(ValueError, match="unknown transition 'st2'"):
        zfepr.hamiltonians._line(spec, "st2")
    with pytest.raises(ValueError, match="unknown transition 'st2'"):
        corr_ramsey_diff("st2", np.linspace(0, 2, 16), 4.0, 0.25, spec=spec)


def test_ramsey_record_builds_no_generator_and_ignores_the_seed(spec, monkeypatch):
    # the closed form samples no block of draws, so it builds no generator,
    # and the seed changes nothing
    default_rng = zfepr.noise.np.random.default_rng
    built = []

    def counting(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(zfepr.noise.np.random, "default_rng", counting)
    t = np.linspace(0, 2, 16)
    records = [corr_ramsey_diff("st0", t, 4.0, 0.25, spec=spec,
                                noise=NoiseModel.isotropic(0.196, seed=seed))
               for seed in (4, 5)]
    assert len(built) == 0
    assert np.array_equal(records[0], records[1])


def test_st0_coherence_outlives_st1(spec):
    # 1/e times of the coherence envelopes differ by far more than 20x
    sigma = 0.196
    noise = NoiseModel.isotropic(sigma, seed=11)
    t1e_st1 = math.sqrt(2.0) / (math.pi * sigma)

    from zfepr.hamiltonians import level_shifts_perturbative

    levels = level_shifts_perturbative(sample_noise(noise, 2000), spec)
    dw = levels[:, 2] - levels[:, 1]  # the S0<->T0 shift, T0 minus S0
    t_grid = np.linspace(0, 400.0, 200)
    envelope = np.abs(np.exp(1j * TWO_PI * np.outer(t_grid, dw)).mean(axis=1))
    below = np.nonzero(envelope < 1.0 / math.e)[0]
    t1e_st0 = t_grid[below[0]] if len(below) else t_grid[-1]
    assert t1e_st0 / t1e_st1 > 20.0


def test_ramsey_grid_peak_memory_stays_under_its_bound(spec):
    # the engine's (n, 12, 12) stacks are the slots of one workspace per
    # chunk, and their peak is held: a Ramsey grid of 12 times at 50 draws
    # peaks at about 6.6 stacks of traced memory above its start, the five
    # slots of the workspace and the eigensystems among them
    noise = NoiseModel.isotropic(0.196, seed=8)
    family = lambda t: correlation_ramsey_sequences("st0", t, 5.0)[0]
    t_grid = 0.17 * np.arange(12)
    monte_carlo_signal(family, t_grid, spec, 0.1, noise, 50)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        monte_carlo_signal(family, t_grid, spec, 0.1, noise, 50)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 50 * 12 * 12 * 16


WORKSPACE_GRIDS = {
    "ramsey-st1": (lambda t: correlation_ramsey_sequences("st1", t, 5.0)[0], 0.17 * np.arange(12)),
    "ramsey-st0": (lambda t: correlation_ramsey_sequences("st0", t, 5.0)[0], 0.17 * np.arange(12)),
    "deer": (lambda tau: deer_sequence(math.pi, tau), np.linspace(0.5, 3.0, 24)),
    "rabi-st0": (lambda theta: correlation_rabi_sequence("st0", theta, 5.0),
                 np.linspace(0.0, math.pi, 24)),
}


@pytest.mark.parametrize("decayed", [False, True])
@pytest.mark.parametrize("grid", WORKSPACE_GRIDS)
def test_a_grid_stays_inside_its_workspace_block(grid, decayed, spec, monkeypatch):
    # every stack of a grid is a slot of the one block allocated per chunk,
    # however many times the grid has: a slot handed out past the block
    # would be a fresh array again
    slots = []
    stack = zfepr.protocols._Workspace.stack

    def recording(ws):
        out = stack(ws)
        slots.append(len(ws._slots))
        return out

    monkeypatch.setattr(zfepr.protocols._Workspace, "stack", recording)
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0) if decayed else None
    family, points = WORKSPACE_GRIDS[grid]
    monte_carlo_signal(family, points, spec, 0.1, NoiseModel.isotropic(0.196, seed=8), 50,
                       decay=decay)
    assert slots and max(slots) == zfepr.protocols._SLOTS
