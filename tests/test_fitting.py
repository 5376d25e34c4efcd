import json
import math

import numpy as np
import pytest

import zfepr.fitting
from zfepr.cli import EXIT_OK, format_fit_report, main
from zfepr.fitting import (FWHM_PER_SIGMA, fit_gaussians, levenberg_marquardt,
                           levenberg_marquardt_stack)
from zfepr.hamiltonians import TargetSpec
from zfepr.noise import NoiseModel
from zfepr.protocols import synthesize_ramsey_series
from zfepr.spectra import Spectrum, dft_spectrum


def _gaussian(freqs, amp, center, fwhm):
    w = fwhm / FWHM_PER_SIGMA
    return amp * np.exp(-((freqs - center) ** 2) / (2 * w * w))


def test_recovers_narrow_single_line():
    # 8.6 kHz wide line, the narrowest scale the analysis must handle
    freqs = np.linspace(113.95, 114.05, 400)
    amps = _gaussian(freqs, 1.0, 114.003, 0.0086) + 0.02
    fit = fit_gaussians(Spectrum(freqs, amps), 1)
    assert fit.converged
    peak = fit.peaks[0]
    assert peak.fwhm_mhz == pytest.approx(0.0086, rel=0.02)
    assert peak.center_mhz == pytest.approx(114.003, abs=1e-4)
    assert fit.baseline == pytest.approx(0.02, abs=1e-6)


def test_recovers_doublet_separation():
    freqs = np.linspace(136.0, 138.0, 600)
    amps = (_gaussian(freqs, 1.0, 137.0 - 0.185, 0.230)
            + _gaussian(freqs, 0.9, 137.0 + 0.185, 0.230))
    fit = fit_gaussians(Spectrum(freqs, amps), 2)
    centers = sorted(p.center_mhz for p in fit.peaks)
    assert centers[1] - centers[0] == pytest.approx(0.37, abs=0.01)
    for p in fit.peaks:
        assert p.fwhm_mhz == pytest.approx(0.230, rel=0.05)


def test_single_gaussian_underfits_doublet():
    freqs = np.linspace(136.0, 138.0, 600)
    amps = (_gaussian(freqs, 1.0, 136.815, 0.230)
            + _gaussian(freqs, 1.0, 137.185, 0.230))
    fit1 = fit_gaussians(Spectrum(freqs, amps), 1)
    fit2 = fit_gaussians(Spectrum(freqs, amps), 2)
    assert fit1.residual_norm > fit2.residual_norm


def test_auto_mode_model_selection(rng):
    freqs = np.linspace(-1.0, 1.0, 300)
    noise = 0.01 * rng.standard_normal(freqs.size)
    single = _gaussian(freqs, 1.0, 0.1, 0.3) + 0.05 + noise
    fit = fit_gaussians(Spectrum(freqs, np.abs(single)), (1, 2))
    assert fit.m == 1
    doublet = (_gaussian(freqs, 1.0, -0.3, 0.25) + _gaussian(freqs, 0.8, 0.35, 0.25)
               + 0.05 + noise)
    fit = fit_gaussians(Spectrum(freqs, np.abs(doublet)), (1, 2))
    assert fit.m == 2


def test_fit_errors_reported():
    freqs = np.linspace(-1.0, 1.0, 200)
    rng = np.random.default_rng(12)
    amps = np.abs(_gaussian(freqs, 1.0, 0.0, 0.4) + 0.02 * rng.standard_normal(200))
    fit = fit_gaussians(Spectrum(freqs, amps), 1)
    peak = fit.peaks[0]
    assert 0 < peak.center_se_mhz < 0.02
    assert 0 < peak.fwhm_se_mhz < 0.05
    report = format_fit_report(fit)
    assert "center_MHz" in report and "+-" in report


def test_fit_validation():
    freqs = np.linspace(0, 1, 100)
    with pytest.raises(ValueError):
        fit_gaussians(Spectrum(freqs, np.ones(100)), 1)  # flat
    with pytest.raises(ValueError):
        fit_gaussians(Spectrum(freqs[:10], _gaussian(freqs[:10], 1, 0.5, 0.2)), 1)
    with pytest.raises(ValueError):
        fit_gaussians(Spectrum(freqs, _gaussian(freqs, 1, 0.5, 0.2)), 7)
    for counts in ((2, 1), (1, 1, 2), (1, 5), ()):
        with pytest.raises(ValueError, match="ascending"):
            fit_gaussians(Spectrum(freqs, _gaussian(freqs, 1, 0.5, 0.2)), counts)


def test_second_component_falls_back_to_a_masked_candidate():
    # a flat top filling the window: the half-max footprint of the first pick
    # masks every bin, so the second component starts on a masked top bin
    freqs = np.linspace(0, 1, 50)
    amps = np.ones(50)
    amps[[0, -1]] = 0.2
    params = zfepr.fitting._initial_guess(freqs, amps, 2)
    assert len(params) == 1 + 3 * 2
    centers = params[2::3]
    assert centers[0] != centers[1] and np.all((freqs[1] <= centers) & (centers <= freqs[-2]))
    assert np.allclose(params[1::3], 0.8)


def test_lm_against_scipy_oracle():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    freqs = np.linspace(-2, 2, 400)
    rng = np.random.default_rng(3)
    truth = (0.1, 1.0, -0.4, 0.3, 0.7, 0.5, 0.2)
    amps = (truth[0] + _gaussian(freqs, truth[1], truth[2], truth[3] * FWHM_PER_SIGMA)
            + _gaussian(freqs, truth[4], truth[5], truth[6] * FWHM_PER_SIGMA)
            + 0.01 * rng.standard_normal(400))

    def model(f, b, a1, c1, w1, a2, c2, w2):
        return (b + a1 * np.exp(-((f - c1) ** 2) / (2 * w1**2))
                + a2 * np.exp(-((f - c2) ** 2) / (2 * w2**2)))

    p0 = (0.0, 0.9, -0.5, 0.25, 0.6, 0.6, 0.25)
    popt, _ = scipy_optimize.curve_fit(model, freqs, amps, p0=p0, maxfev=20000)

    def fun(params):
        b, a1, c1, w1, a2, c2, w2 = params
        resid = model(freqs, *params) - amps
        z1, z2 = (freqs - c1) / w1, (freqs - c2) / w2
        g1, g2 = np.exp(-0.5 * z1 * z1), np.exp(-0.5 * z2 * z2)
        jac = np.column_stack([
            np.ones_like(freqs),
            g1, a1 * g1 * z1 / w1, a1 * g1 * z1 * z1 / w1,
            g2, a2 * g2 * z2 / w2, a2 * g2 * z2 * z2 / w2,
        ])
        return resid, jac

    res = levenberg_marquardt(fun, np.array(p0))
    assert res.converged
    assert np.abs(np.abs(res.params) - np.abs(popt)).max() < 1e-6


def test_lm_reports_non_convergence():
    def fun(params):
        resid = np.array([math.exp(params[0]) - 2.0, params[0] ** 2])
        jac = np.array([[math.exp(params[0])], [2 * params[0]]])
        return resid, jac

    res = levenberg_marquardt(fun, np.array([5.0]), max_iter=1)
    assert not res.converged
    assert res.iterations == 1


# stacked problems: y = a exp(-b x) + c on one grid, each with its own data
X_DECAY = np.linspace(0.0, 4.0, 40)


def _decay_data(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)
    y = a * np.exp(-b * X_DECAY) + c + 0.02 * rng.standard_normal(len(X_DECAY))
    return y, np.array([a, b, c]) * rng.uniform(0.3, 3.0, 3)


def _decay(params, y):
    a, b, c = params[..., 0, None], params[..., 1, None], params[..., 2, None]
    e = np.exp(-b * X_DECAY)
    jac = np.stack([e, -a * X_DECAY * e, np.ones_like(e)], axis=-1)
    return a * e + c - y, jac


def _decay_stack(ys, seen=None):
    def fun(params, rows):
        if seen is not None:
            seen.append(rows.copy())
        return _decay(params, ys[rows])
    return fun


@pytest.mark.parametrize("max_iter", [3, 8, 200])
def test_lm_stack_matches_the_scalar_loop_problem_by_problem(max_iter):
    data = [_decay_data(seed) for seed in range(12)]
    ys, p0 = np.array([y for y, _ in data]), np.array([p for _, p in data])
    stacked = levenberg_marquardt_stack(_decay_stack(ys), p0, max_iter=max_iter)
    flags = set()
    for i, (y, start) in enumerate(data):
        alone = levenberg_marquardt(lambda p, y=y: _decay(p, y), start, max_iter=max_iter)
        assert np.abs(stacked.params[i] - alone.params).max() <= 1e-9 * np.abs(alone.params).max()
        assert bool(stacked.converged[i]) == alone.converged
        assert abs(int(stacked.iterations[i]) - alone.iterations) <= 1
        assert stacked.rss[i] == pytest.approx(alone.rss, rel=1e-9)
        assert np.allclose(stacked.covariance[i], alone.covariance, rtol=1e-9, atol=0.0)
        flags.add(alone.converged)
    if max_iter == 200:
        assert flags == {True}
    if max_iter == 3:
        assert False in flags


def test_lm_stack_freezes_a_converged_problem():
    # problem 0 starts at its own exact optimum and converges at once; the
    # other keeps iterating without moving it or evaluating it again
    y_slow, p_slow = _decay_data(3)
    p_fast = np.array([1.5, 0.7, 0.2])
    y_fast = _decay(p_fast, 0.0)[0]
    seen = []
    res = levenberg_marquardt_stack(_decay_stack(np.array([y_fast, y_slow]), seen),
                                    np.array([p_fast, p_slow]))
    alone = levenberg_marquardt_stack(_decay_stack(y_fast[None]), p_fast[None])
    assert res.converged.all()
    assert res.iterations[0] < res.iterations[1]
    assert np.array_equal(res.params[0], alone.params[0])
    assert res.iterations[0] == alone.iterations[0]
    # the first call evaluates the starts; each iteration after evaluates
    # the trial steps of the problems still running
    assert [0 in rows for rows in seen[1:]] == [True] * int(res.iterations[0]) + [False] * (
        len(seen) - 1 - int(res.iterations[0]))


def test_lm_stack_without_iterations_converges_nothing():
    data = [_decay_data(seed) for seed in range(3)]
    ys, p0 = np.array([y for y, _ in data]), np.array([p for _, p in data])
    res = levenberg_marquardt_stack(_decay_stack(ys), p0, max_iter=0)
    assert not res.converged.any()
    assert not res.iterations.any()
    assert np.array_equal(res.params, p0)


def test_lm_stack_singular_system_raises_only_its_own_damping(monkeypatch):
    # problem 1's Jacobian is scaled up so that its damped systems can be
    # told apart, and every one of them is reported singular, as LAPACK
    # reports an exactly singular matrix
    data = [_decay_data(seed) for seed in range(4)]
    ys, p0 = np.array([y for y, _ in data]), np.array([p for _, p in data])

    def scaled(params, y, poisoned):
        r, jac = _decay(params, y)
        return r, jac * np.where(poisoned, 1e6, 1.0)[..., None, None]

    solve = np.linalg.solve

    def singular_solve(a, b):
        if np.any(np.asarray(a)[..., 0, 0] > 1e9):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    res = levenberg_marquardt_stack(lambda p, rows: scaled(p, ys[rows], rows == 1), p0,
                                    max_iter=50)
    rest = [0, 2, 3]
    without = levenberg_marquardt_stack(_decay_stack(ys[rest]), p0[rest], max_iter=50)
    alone = levenberg_marquardt(lambda p: scaled(p, ys[1], np.array(True)), p0[1], max_iter=50)
    # the singular problem damps on without a step, as the scalar loop does
    assert not alone.converged and alone.iterations == 50
    assert np.array_equal(alone.params, p0[1])
    assert not res.converged[1] and res.iterations[1] == 50
    assert np.array_equal(res.params[1], alone.params)
    # and the rest of the stack runs as if it were not there
    assert res.converged[rest].all()
    assert np.array_equal(res.params[rest], without.params)
    assert np.array_equal(res.iterations[rest], without.iterations)


def test_auto_mode_rejects_negative_components():
    # the S0<->T0 offset doublet under noise: a negative Gaussian carving a
    # dip beside the lines lowers the information criterion, but is no line
    spec = TargetSpec(st0_offset_doublet_mhz=(-0.03, 0.03))
    t = 0.15 * np.arange(256)
    series = synthesize_ramsey_series("st0", t, spec, 0.1, 5.0,
                                      noise=NoiseModel.isotropic(0.196, seed=7))
    fit = fit_gaussians(dft_spectrum(series, band_hint=(112.5, 115.5)), (1, 2))
    assert fit.m == 2
    assert all(p.amplitude > 0 for p in fit.peaks)


def test_auto_mode_stops_at_the_first_count_that_does_not_improve(monkeypatch, tmp_path):
    # the S0<->T+-1 line with a 0.4 MHz 13C doublet: "auto" chooses between
    # the one and two lines the target names, so no third candidate, which
    # would run to the iteration cap and be rejected, is ever tried
    calls = []

    def counting(fun, p0, lm=levenberg_marquardt):
        res = lm(fun, p0)
        calls.append(res.converged)
        return res

    monkeypatch.setattr(zfepr.fitting, "levenberg_marquardt", counting)
    argv = ["spectrum", "--out-dir", str(tmp_path), "--set", "noise.sigma_mhz=0.196",
            "--set", "target.c13_splitting_mhz=0.4",
            "--set", "protocol.band_lo_mhz=135.5", "--set", "protocol.band_hi_mhz=138.5"]
    assert main(argv) == EXIT_OK
    assert calls == [True, True]
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["m"] == 2
    assert [p["center_mhz"] for p in summary["peaks"]] == pytest.approx([136.8, 137.2],
                                                                        abs=1e-3)
