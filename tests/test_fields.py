import math

import numpy as np
import pytest

import zfepr.fields
from zfepr.cli import format_compensation_report
from zfepr.constants import GAMMA_E_MHZ_PER_G
from zfepr.fields import (
    NV_AXES,
    CenterFitError,
    CoilConfig,
    OdmrScan,
    ScanPlan,
    bsweep,
    compensate_3axis,
    find_symmetric_center,
    odmr_linewidth_model,
    simulate_odmr_scan,
)
from zfepr.hamiltonians import (DegenerateCrossingError, FieldVector, TargetSpec,
                                transitions_vs_field)

COIL = CoilConfig()
SYMMETRIC_DIRECTION = np.array([0.0, 0.0, 1.0])


def test_nv_axes_geometry():
    for name, axis in NV_AXES.items():
        assert np.linalg.norm(axis) == pytest.approx(1.0)
    assert NV_AXES["A"][0] == 0.0 and NV_AXES["B"][0] == 0.0  # blind to Bx
    assert NV_AXES["C"][1] == 0.0                             # blind to By
    assert NV_AXES["A"][2] == NV_AXES["B"][2]
    assert NV_AXES["A"][1] == -NV_AXES["B"][1]


def test_linewidth_model_shape():
    base = 10.0
    proj = 1.0 / math.sqrt(3.0)
    assert odmr_linewidth_model(0.4, 0.4, COIL, base, proj) == base
    for x in (0.1, 0.5, 1.3):
        left = odmr_linewidth_model(0.4 - x, 0.4, COIL, base, proj)
        right = odmr_linewidth_model(0.4 + x, 0.4, COIL, base, proj)
        assert left == pytest.approx(right, rel=1e-14)
    # asymptotic slope: 2 gamma_e proj coeff
    slope = (odmr_linewidth_model(100.0, 0.0, COIL, base, proj)
             - odmr_linewidth_model(99.0, 0.0, COIL, base, proj))
    assert slope == pytest.approx(2 * GAMMA_E_MHZ_PER_G * proj * 2.8, rel=1e-3)
    with pytest.raises(ValueError):
        odmr_linewidth_model(0.0, 0.0, COIL, -1.0, proj)


def _noiseless_scan(i0, n=25, span=2.0):
    currents = np.linspace(i0 - span, i0 + span, n)
    widths = odmr_linewidth_model(currents, i0, COIL, 10.0, 1.0 / math.sqrt(3.0))
    return OdmrScan(currents, widths, NV_AXES["A"])


def test_find_center_noiseless():
    i0, se = find_symmetric_center(_noiseless_scan(0.123))
    assert abs(i0 - 0.123) < 1e-6
    assert se < 1e-3


def test_find_center_baseline_shift_invariant():
    scan = _noiseless_scan(0.2)
    shifted = OdmrScan(scan.currents_a, scan.linewidths_mhz + 5.0, scan.nv_orientation)
    i0a, _ = find_symmetric_center(scan)
    i0b, _ = find_symmetric_center(shifted)
    assert abs(i0a - i0b) < 1e-9


def test_find_center_with_jitter():
    rng = np.random.default_rng(17)
    field = np.array([0.0, 0.0, -0.123 * 2.8])  # nulled at I = +0.123 A
    truth = 0.123
    scan = simulate_odmr_scan(NV_AXES["A"], "Z", field, COIL, ScanPlan(), rng,
                              center_a=truth)
    i0, se = find_symmetric_center(scan)
    assert abs(i0 - truth) < 1e-3
    assert se <= 1e-3


def test_zero_field_compensation_fits_converge_quickly(monkeypatch):
    # with no field to cancel every null current is 0 A; a center at zero
    # must pass the convergence test as quickly as any other
    fits = []
    lm = zfepr.fields.levenberg_marquardt_stack

    def recording(*args, **kwargs):
        fits.append(lm(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack", recording)
    compensate_3axis(FieldVector(0, 0, 0), CoilConfig(), ScanPlan(jitter_frac=0))
    assert fits
    assert all(fit.converged.all() and fit.iterations.max() <= 10 for fit in fits)


def test_find_center_unbiased():
    rng = np.random.default_rng(5)
    plan = ScanPlan()
    field = np.array([0.0, 0.0, 0.35])
    truth = -0.35 / 2.8
    centers = []
    for _ in range(500):
        scan = simulate_odmr_scan(NV_AXES["A"], "Z", field, COIL, plan, rng,
                                  center_a=truth)
        centers.append(find_symmetric_center(scan)[0])
    assert abs(np.mean(centers) - truth) < 1e-4


def test_find_center_validation():
    scan = _noiseless_scan(0.0)
    with pytest.raises(ValueError):
        find_symmetric_center(OdmrScan(scan.currents_a[:5], scan.linewidths_mhz[:5],
                                       scan.nv_orientation))
    # minimum at the edge of the scan window
    currents = np.linspace(1.0, 3.0, 21)
    widths = odmr_linewidth_model(currents, 0.9, COIL, 10.0, 0.6)
    with pytest.raises(ValueError):
        find_symmetric_center(OdmrScan(currents, widths, NV_AXES["A"]))
    with pytest.raises(ValueError):
        OdmrScan(currents[::-1], widths, NV_AXES["A"])


def test_find_center_lowest_sample_on_window_edge():
    # sensor B's null under the default compensation field sits 70 mA inside
    # the window edge; one low (jittered) edge sample must not read as an
    # unbracketed minimum
    truth = -0.4305
    currents = np.linspace(-0.5, 0.5, 201)
    widths = odmr_linewidth_model(currents, truth, COIL, 2.0, NV_AXES["B"][2])
    widths[0] -= 0.1
    assert np.argmin(widths) == 0
    i0, _ = find_symmetric_center(OdmrScan(currents, widths, NV_AXES["B"]))
    assert abs(i0 - truth) < 1e-3


def test_find_center_unconverged_fit_raises(monkeypatch):
    lm = zfepr.fields.levenberg_marquardt_stack
    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack",
                        lambda fun, p0: lm(fun, p0, max_iter=0))
    with pytest.raises(CenterFitError, match="did not converge"):
        find_symmetric_center(_noiseless_scan(0.123))
    assert issubclass(CenterFitError, ValueError)


def test_compensation_perfect_hardware():
    coil = CoilConfig(current_stability_a=0.0)
    plan = ScanPlan(jitter_frac=0.0)
    [result] = compensate_3axis(FieldVector(0.35, -0.52, 0.47), coil, plan, seeds=[1])
    assert np.abs(result.residual_g).max() < 1e-6


def test_compensation_residual_set_by_current_stability():
    plan = ScanPlan()
    residuals = []
    for result in compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan,
                                   seeds=range(30)):
        residuals.append(result.residual_g)
        assert max(result.fit_errors_a.values()) <= 1e-3
    rms = np.sqrt((np.array(residuals) ** 2).mean(axis=0))
    # 4 mA at 2.8 G/A puts each axis near 0.011 G
    assert np.all(rms > 0.005) and np.all(rms < 0.020)


def test_compensation_scales_with_stability():
    plan = ScanPlan(jitter_frac=0.0)
    rms = {}
    for stability in (0.004, 0.002):
        coil = CoilConfig(current_stability_a=stability)
        res = [r.residual_g for r in compensate_3axis(FieldVector(0.3, -0.4, 0.5), coil, plan,
                                                      seeds=range(100))]
        rms[stability] = float(np.sqrt((np.array(res) ** 2).mean()))
    assert rms[0.004] / rms[0.002] == pytest.approx(2.0, rel=0.25)


def test_compensation_z_step_averaging_cancels_by():
    # sensors A and B are blind to Bx; with By present their individual
    # centers disagree, but the average still nulls Bz
    coil = CoilConfig(current_stability_a=0.0)
    plan = ScanPlan(jitter_frac=0.0)
    [with_bx] = compensate_3axis(FieldVector(0.8, 0.0, 0.5), coil, plan, seeds=[3])
    assert abs(with_bx.currents_a["Z"] - (-0.5 / 2.8)) < 1e-6
    [with_by] = compensate_3axis(FieldVector(0.0, 0.6, 0.5), coil, plan, seeds=[3])
    assert abs(with_by.currents_a["Z"] - (-0.5 / 2.8)) < 1e-6


PLANS = [ScanPlan(), ScanPlan(i_min_a=-0.6, i_max_a=0.5, n_points=61, jitter_frac=0.05)]


@pytest.mark.parametrize("plan", PLANS, ids=["default", "shifted"])
def test_compensation_trial_does_not_depend_on_the_batch(plan):
    seeds = [np.random.SeedSequence(11, spawn_key=(t,)) for t in range(4)]
    together = compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan, seeds)
    for seed, result in zip(seeds, together):
        [alone] = compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan, [seed])
        assert result.currents_a == alone.currents_a
        assert result.fit_errors_a == alone.fit_errors_a
        assert np.array_equal(result.residual_g, alone.residual_g)


def _one_trial_in_sequence(field, coil, plan, seed):
    """The procedure for one trial, scan by scan from the public functions:
    per axis step and sensor a coarse, then a fine scan, then the supply
    error, all drawn from the trial's own generator."""
    rng = np.random.default_rng(seed)
    b = field.as_array()
    currents, errors = {}, {}
    for axis, sensors in (("Z", "AB"), ("Y", "A"), ("X", "C")):
        fits = []
        for name in sensors:
            coarse, _ = find_symmetric_center(
                simulate_odmr_scan(NV_AXES[name], axis, b, coil, plan, rng))
            fits.append(find_symmetric_center(
                simulate_odmr_scan(NV_AXES[name], axis, b, coil, plan, rng, center_a=coarse)))
        centers, errs = zip(*fits)
        errors[axis] = math.hypot(*errs) / len(sensors)
        currents[axis] = (sum(centers) / len(sensors)
                          + coil.current_stability_a * rng.standard_normal())
        axis_vec = np.eye(3)["XYZ".index(axis)]
        b = b + coil.coefficient_g_per_a * currents[axis] * axis_vec
    return currents, errors, b


@pytest.mark.parametrize("plan", PLANS, ids=["default", "shifted"])
def test_compensation_draws_each_trial_in_scan_order(plan):
    field = FieldVector(0.2, 0.3, -0.4)
    for result, seed in zip(compensate_3axis(field, COIL, plan, seeds=range(3)), range(3)):
        currents, errors, residual = _one_trial_in_sequence(field, COIL, plan, seed)
        assert result.currents_a == currents
        assert result.fit_errors_a == errors
        assert np.array_equal(result.residual_g, residual)


def test_compensation_report_format():
    [result] = compensate_3axis(FieldVector(0.1, 0.2, 0.3), COIL, ScanPlan(), seeds=[9])
    report = format_compensation_report(result)
    assert "axis Z" in report and "residual_G" in report


# bsweep's table columns: B, f_ST1_low, f_ST1_high, f_ST0_low, f_ST0_high
def test_bsweep_zero_field(spec):
    _, st1_low, st1_high, st0_low, _ = bsweep(spec, [0.0], SYMMETRIC_DIRECTION)[0]
    assert st1_low == pytest.approx(137.0, abs=1e-12)
    assert st1_high == pytest.approx(137.0, abs=1e-12)
    assert st0_low == pytest.approx(114.0, abs=1e-12)


def test_bsweep_symmetric_direction_splitting(spec):
    _, st1_low, st1_high, _, _ = bsweep(spec, [1.0], SYMMETRIC_DIRECTION)[0]
    half_split = 0.5 * (st1_high - st1_low)
    assert half_split == pytest.approx(GAMMA_E_MHZ_PER_G / (2 * math.sqrt(3.0)), rel=1e-9)
    assert half_split == pytest.approx(0.809, abs=1e-3)


def test_bsweep_st1_linear_st0_quadratic(spec):
    b_values = np.linspace(0.0, 3.0, 13)
    table = bsweep(spec, b_values, SYMMETRIC_DIRECTION)
    assert table.shape == (13, 5) and np.array_equal(table[:, 0], b_values)
    _, st1_low, st1_high, st0_low, st0_high = table.T
    splits = st1_high - st1_low
    slope = np.polyfit(b_values, splits, 1)[0]
    assert slope == pytest.approx(GAMMA_E_MHZ_PER_G / math.sqrt(3.0), rel=5e-3)

    shifts = 0.5 * (st0_low + st0_high) - 114.0
    assert abs(shifts[4] - 4 * shifts[2]) < 0.01 * abs(shifts[4])  # f(2G) = 4 f(1G)
    quad = np.polyfit(b_values, shifts, 2)
    resid = shifts - np.polyval(quad, b_values)
    assert np.abs(resid).max() < 0.01 * np.abs(shifts).max()


def test_bsweep_direction_validation(spec):
    with pytest.raises(ValueError):
        bsweep(spec, [0.0], np.array([0.0, 0.0, 2.0]))



@pytest.mark.parametrize("mode", ["perturbative", "exact"])
@pytest.mark.parametrize("doublets", [False, True], ids=["lines", "doublets"])
def test_bsweep_matches_the_per_field_lines(mode, doublets):
    spec = TargetSpec(c13_splitting_mhz=0.4 if doublets else 0.0,
                      st0_offset_doublet_mhz=(-0.03, 0.05) if doublets else None)
    direction = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    b_values = np.linspace(0.0, 3.0, 13)
    table = bsweep(spec, b_values, direction, mode=mode)
    for row, b in zip(table, b_values):
        lines = transitions_vs_field(FieldVector(*(b * direction)), spec, mode=mode)
        f1 = [f for orientation in lines for f, _ in orientation.st1]
        f0 = [f for orientation in lines for f, _ in orientation.st0]
        assert row[0] == b
        assert np.abs(row[1:] - [min(f1), max(f1), min(f0), max(f0)]).max() <= 1e-12


def test_bsweep_keeps_the_validity_errors(spec):
    with pytest.warns(UserWarning, match="a_perp/10"):
        bsweep(spec, [0.0, 1.0, 500.0], SYMMETRIC_DIRECTION)
    # at 100 G the Zeeman energy (280 MHz) exceeds the hyperfine constants
    # and carries a level across S0 or T0, which exact mode cannot label
    with pytest.raises(DegenerateCrossingError):
        bsweep(spec, [0.0, 1.0, 100.0], SYMMETRIC_DIRECTION, mode="exact")
