"""Each benchmark check accepts a right output and rejects a wrong one."""

import math

import numpy as np

import checks

AP, AL = 114.0, 160.0
PHYSICS = dict(a_perp=AP, a_par=AL, coupling_mhz=0.1, tau_us=5.0)
T_US = 0.17 * np.arange(12)


def test_zero_field_levels():
    levels = checks.hyperfine_levels(np.zeros((1, 3)), AP, AL)[0]
    assert np.allclose(levels, [-AL / 4 - AP / 2, -AL / 4 + AP / 2, AL / 4, AL / 4])


def test_st0_mean_shift_matches_diagonalization():
    sigma = 0.196
    delta = sigma * np.random.default_rng(1).standard_normal((100_000, 3))
    levels = checks.hyperfine_levels(delta, AP, AL)
    shift = levels[:, 1] - levels[:, 0] - AP
    se = shift.std() / math.sqrt(len(shift))
    assert abs(shift.mean() - checks.st0_mean_shift(sigma, AP, AL)) < 5 * se


def _ramsey_case(transition):
    rng = np.random.default_rng(2)
    mean, std = checks.ramsey_reference(transition, T_US, 0.196, 20_000, rng, **PHYSICS)
    sample = checks.ramsey_per_draw(transition, T_US, 0.196 * rng.standard_normal((50, 3)),
                                    **PHYSICS).mean(axis=0)
    scatter = checks.ramsey_model_scatter(0.196, **PHYSICS)
    return sample, (mean, std, 50, 20_000, scatter)


def test_ramsey_check_accepts_an_independent_average():
    for transition in ("st0", "st1"):
        sample, args = _ramsey_case(transition)
        assert checks.check_ramsey(sample, *args) == []


def test_ramsey_check_rejects_sign_and_transition_errors():
    sample, args = _ramsey_case("st0")
    assert checks.check_ramsey(-sample, *args)
    other, _ = _ramsey_case("st1")
    assert checks.check_ramsey(other, *args)
    assert checks.check_ramsey(sample[:-1], *args)


def _doublet_peaks(offset=0.0):
    return [dict(center_mhz=136.8 + offset, fwhm_mhz=0.2305, amplitude=0.02),
            dict(center_mhz=137.2, fwhm_mhz=0.2302, amplitude=0.02)]


def test_line_check_accepts_the_expected_doublet():
    fwhm = checks.FWHM_PER_SIGMA * 0.098
    assert checks.check_lines(_doublet_peaks(), (136.8, 137.2), 0.2, fwhm_mhz=fwhm) == []


def test_line_check_rejects_a_line_one_fold_off():
    assert checks.check_lines(_doublet_peaks(offset=1 / 0.2), (136.8, 137.2), 0.2)


def test_line_check_rejects_wrong_width_amplitude_and_count():
    fwhm = checks.FWHM_PER_SIGMA * 0.098
    peaks = _doublet_peaks()
    assert checks.check_lines(peaks, (136.8, 137.2), 0.2, fwhm_mhz=1.3 * fwhm)
    peaks[0]["amplitude"] = -0.01
    assert checks.check_lines(peaks, (136.8, 137.2), 0.2)
    assert checks.check_lines(_doublet_peaks(), (137.0,), 0.2)


def test_compensation_check_bounds():
    fit_errors = {"X": 1e-3, "Y": 1e-3, "Z": 7e-4}
    sigma = checks.compensation_sigmas(fit_errors, 0.004, 2.8)
    assert checks.check_compensation(0.5 * sigma, fit_errors, 0.004, 2.8) == []
    residual = np.array([0.0, 0.0, 10 * 6 * sigma[2]])
    assert checks.check_compensation(residual, fit_errors, 0.004, 2.8)


def test_zero_field_sweep_lines():
    lines = checks.sweep_lines([0.0], (0, 0, 1), AP, AL)[0]
    assert np.allclose(lines, [(AL + AP) / 2] * 2 + [AP] * 2)


def test_exact_sweep_check_rejects_a_small_error():
    b = np.linspace(0, 3, 13)
    exact = checks.sweep_lines(b, (0.3, -0.5, 0.81), AP, AL)
    assert checks.check_sweep(exact, exact, 1e-7) == []
    wrong = exact.copy()
    wrong[5, 2] += 1e-6
    assert checks.check_sweep(wrong, exact, 1e-7)


def _second_order(b_g):
    """Second-order S0<->T+-1 and S0<->T0 lines along [001], where every bond
    axis sees a third of the field squared as axial."""
    d2 = (checks.GAMMA_E_MHZ_PER_G * b_g) ** 2
    dz2, dp2 = d2 / 3, 2 * d2 / 3
    dz = math.sqrt(dz2)
    s0 = -dp2 / (2 * (AL + AP)) - dz2 / (4 * AP)
    pair = dp2 * AL / (2 * (AL * AL - AP * AP))
    f_st1 = (AL + AP) / 2 + pair - s0
    f_st0 = AP - AP * dp2 / (AL * AL - AP * AP) + dz2 / (2 * AP)
    return [f_st1 - dz / 2, f_st1 + dz / 2, f_st0, f_st0]


def test_perturbative_bound_holds_and_rejects_ten_times_it():
    b = np.linspace(0, 3, 13)
    exact = checks.sweep_lines(b, (0, 0, 1), AP, AL)
    second = np.array([_second_order(x) for x in b])
    tol = checks.perturbative_bound(b, AP, AL) + 1e-9
    assert checks.check_sweep(second, exact, tol) == []
    assert checks.check_sweep(exact + 10 * tol[:, None], exact, tol)
