import math

import numpy as np
import pytest
from conftest import (
    alternative_table_signal,
    corr_table_signal,
    corr_table_term,
    deer_table_signal,
    rabi_manipulation,
)

import zfepr.noise
import zfepr.protocols
from zfepr.hamiltonians import FieldVector, NoiseDraw, TargetSpec, transitions_vs_field
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
    deer_signal_general,
    monte_carlo_signal,
    simulate_alternative_correlation,
    simulate_sequence,
    synthesize_ramsey_series,
)
from zfepr.pulses import (
    DecayModel,
    dephase,
    free,
    mw_pi,
    readout,
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
    assert deer_signal_general(1.23, 0.0, 0.4) == pytest.approx(1.0, abs=1e-15)
    assert deer_signal_general(2 * math.pi, _phase_tau(math.pi), 1.0) == pytest.approx(0.5)
    assert deer_signal_general(math.pi, _phase_tau(math.pi), 1.0) == pytest.approx(0.625)


def test_deer_signal_values():
    assert deer_signal(0.0, 0.5) == pytest.approx(1.0)
    assert deer_signal(_phase_tau(math.pi), 1.0) == pytest.approx(0.5)
    # several couplings: plain weighted sum of single-coupling signals
    couplings = ((0.2, 0.25), (0.45, 0.75))
    tau = 3.3
    expected = sum(w * deer_signal(tau, c) for c, w in couplings)
    assert deer_signal(tau, couplings) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        deer_signal(1.0, ((0.2, 0.7), (0.3, 0.7)))


def test_deer_signal_decay_envelope():
    decay = DecayModel(t2_nv_us=16.0, stretch_p=2.0)
    tau = _phase_tau(math.pi)
    expected = 0.75 + 0.25 * math.exp(-((tau / 16.0) ** 2)) * math.cos(math.pi)
    assert deer_signal(tau, 1.0, decay) == pytest.approx(expected, abs=1e-15)


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
    # characteristic-function oracle: <cos(pi sigma_z t)> by direct quadrature
    sigma = 0.196
    noise = NoiseModel.isotropic(sigma, seed=3)
    t = np.array([0.5, 1.0, 2.0, 4.0])
    vals = corr_ramsey_diff("st1", t, _phase_tau(math.pi), 1.0, noise=noise, spec=spec)
    x = np.linspace(-8 * sigma, 8 * sigma, 20001)
    pdf = np.exp(-x**2 / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    for ti, vi in zip(t, vals):
        envelope = np.trapezoid(pdf * np.cos(TWO_PI * (x / 2) * ti), x)
        expected = 0.25 * 4.0 * envelope * math.cos(TWO_PI * 137.0 * ti)
        assert vi == pytest.approx(expected, abs=1e-6)
        assert envelope == pytest.approx(math.exp(-(sigma * math.pi * ti) ** 2 / 2), abs=1e-9)


# ---------------------------------------------------------------------------
# table oracles vs closed forms
# ---------------------------------------------------------------------------

def test_branch_table_reproduces_deer_closed_form():
    thetas = np.linspace(0, 2 * math.pi, 20)
    phases = np.linspace(0, 2 * math.pi, 20)
    worst = 0.0
    for theta in thetas:
        for phase in phases:
            tau = _phase_tau(phase)
            worst = max(worst, abs(deer_table_signal(theta, tau, 1.0)
                                   - deer_signal_general(theta, tau, 1.0)))
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
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.05, 1.0)
        sim = simulate_sequence(deer_sequence(theta, tau), spec, c)
        worst = max(worst, abs(sim - deer_signal_general(theta, tau, c)))
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


def test_engine_steps_adjoint_identity(spec, rng):
    # the engine folds a sequence's shared tail into the readout observable:
    # Tr(O Phi(rho)) must equal Tr(Phi^dagger(O) rho) for every step kind
    decay = DecayModel(t2_nv_us=16.0, stretch_p=1.7, t1rho_us=150.0)
    n = 5
    a = rng.normal(size=(n, 12, 12)) + 1j * rng.normal(size=(n, 12, 12))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    b = rng.normal(size=(n, 12, 12)) + 1j * rng.normal(size=(n, 12, 12))
    obs = b + b.conj().swapaxes(-1, -2)
    eig = zfepr.protocols._eigensystems(spec, 0.3, rng.normal(0, 0.2, (n, 3)))
    steps = [0.37, dephase(), spinlock(40.0), mw_pi(),
             free(0.8), free(0.8, frame="target"), rf_st1(1.1)]
    for step in steps:
        forward = zfepr.protocols._apply(rho, step, eig, decay)
        backward = zfepr.protocols._apply(obs, step, eig, decay, adjoint=True)
        lhs = np.einsum("nij,nji->n", obs, forward)
        rhs = np.einsum("nij,nji->n", backward, rho)
        assert np.abs(lhs - rhs).max() < 1e-12, step
    # the locking channel on its own, as the public function
    lhs = np.einsum("nij,nji->n", obs, spinlock_channel(rho, 40.0, decay))
    rhs = np.einsum("nij,nji->n", spinlock_channel(obs, 40.0, decay), rho)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_ramsey_grid_runs_shared_prefix_once(spec, monkeypatch):
    # the spin lock sits in the prefix every time of the grid shares
    calls = []

    def counting(rho, t_us, decay=None):
        calls.append(t_us)
        return spinlock_channel(rho, t_us, decay)

    monkeypatch.setattr(zfepr.protocols, "spinlock_channel", counting)
    noise = NoiseModel.isotropic(0.196, seed=8)
    family = lambda t: correlation_ramsey_sequences("st0", t, 5.0)[0]
    monte_carlo_signal(family, 0.17 * np.arange(12), spec, 0.1, noise, 50)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# series synthesis
# ---------------------------------------------------------------------------

def test_synthesize_pure_cosine_without_noise(spec):
    t = np.linspace(0, 2, 101)
    series = synthesize_ramsey_series("st1", t, spec, 0.25, 4.0)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    assert np.abs(series.values - amp * np.cos(TWO_PI * 137.0 * t)).max() < 1e-12


def test_synthesize_c13_beat(spec):
    spec2 = TargetSpec(c13_splitting_mhz=0.37)
    t = np.linspace(0, 20, 512)
    series = synthesize_ramsey_series("st1", t, spec2, 0.25, 4.0)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    expected = amp * 0.5 * (np.cos(TWO_PI * (137.0 - 0.185) * t)
                            + np.cos(TWO_PI * (137.0 + 0.185) * t))
    assert np.abs(series.values - expected).max() < 1e-12


def test_synthesize_uses_the_zero_field_lines_of_the_sweep():
    # the series and the field sweep share one line model
    spec2 = TargetSpec(orientations=((0.0, 0.0, 1.0),), c13_splitting_mhz=0.37,
                       st0_offset_doublet_mhz=(-0.0125, 0.0125))
    lines = transitions_vs_field(FieldVector(), spec2)[0]
    t = np.linspace(0, 20, 512)
    amp = 0.25 * (1 - math.cos(TWO_PI * 0.25 * 4.0)) ** 2
    for transition, pairs in (("st1", lines.st1), ("st0", lines.st0)):
        series = synthesize_ramsey_series(transition, t, spec2, 0.25, 4.0)
        expected = amp * sum(w * np.cos(TWO_PI * f * t) for f, w in pairs)
        assert np.abs(series.values - expected).max() < 1e-12


def test_synthesize_doublet_samples_each_draw_once(spec, monkeypatch):
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
    series = synthesize_ramsey_series("st0", t, spec2, 0.25, 4.0, noise=noise)
    assert sum(requested) == 0
    single = corr_ramsey_diff("st0", t, 4.0, 0.25, noise=noise, spec=spec2)
    assert np.abs(series.values - single * np.cos(TWO_PI * 0.03 * t)).max() < 1e-12


def test_synthesize_builds_one_generator_per_block(spec, monkeypatch):
    # the closed form samples no block of draws, so it builds no generator,
    # and the seed changes nothing
    default_rng = zfepr.noise.np.random.default_rng
    built = []

    def counting(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(zfepr.noise.np.random, "default_rng", counting)
    t = np.linspace(0, 2, 16)
    series = [synthesize_ramsey_series("st0", t, spec, 0.25, 4.0,
                                       noise=NoiseModel.isotropic(0.196, seed=seed))
              for seed in (4, 5)]
    assert len(built) == 0
    assert np.array_equal(series[0].values, series[1].values)


def test_synthesize_st0_outlives_st1(spec):
    # 1/e times of the coherence envelopes differ by far more than 20x
    sigma = 0.196
    noise = NoiseModel.isotropic(sigma, seed=11)
    t1e_st1 = math.sqrt(2.0) / (math.pi * sigma)

    from zfepr.hamiltonians import st0_fluctuation

    draws = sample_noise(noise, 2000)
    dw = st0_fluctuation(draws[:, 0], draws[:, 1], draws[:, 2], spec)
    t_grid = np.linspace(0, 400.0, 200)
    envelope = np.abs(np.exp(1j * TWO_PI * np.outer(t_grid, dw)).mean(axis=1))
    below = np.nonzero(envelope < 1.0 / math.e)[0]
    t1e_st0 = t_grid[below[0]] if len(below) else t_grid[-1]
    assert t1e_st0 / t1e_st1 > 20.0
