import dataclasses
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
    ScanPlan,
    ScanWindowError,
    bsweep,
    compensate_3axis,
    find_symmetric_centers,
    odmr_linewidth_model,
)
from zfepr.hamiltonians import (P1_BOND_ORIENTATIONS, DegenerateCrossingError, FieldVector,
                                TargetSpec, transitions_vs_field)

COIL = CoilConfig()
SYMMETRIC_DIRECTION = np.array([0.0, 0.0, 1.0])


def test_nv_axes_geometry():
    for name, axis in NV_AXES.items():
        assert np.linalg.norm(axis) == pytest.approx(1.0)
    assert NV_AXES["A"][0] == 0.0 and NV_AXES["B"][0] == 0.0  # blind to Bx
    assert NV_AXES["C"][1] == 0.0                             # blind to By
    assert NV_AXES["A"][2] == NV_AXES["B"][2]
    assert NV_AXES["A"][1] == -NV_AXES["B"][1]


def test_nv_axes_turned_45_degrees_about_z_are_p1_bond_lines():
    # NV_AXES has x along [110], P1_BOND_ORIENTATIONS x along [100]; both z
    # along [001].  Distinct <111> lines meet at cos = 1/3.
    bonds = np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                      for t, p, _ in P1_BOND_ORIENTATIONS])
    r = math.sqrt(0.5)
    turn = np.array([[r, -r, 0.0], [r, r, 0.0], [0.0, 0.0, 1.0]])  # +45 deg about z
    matched = []
    for axis in NV_AXES.values():
        overlaps = np.abs(bonds @ (turn @ axis))
        matched.append(int(np.argmax(overlaps)))
        assert overlaps[matched[-1]] == pytest.approx(1.0, abs=1e-15)
        assert np.delete(overlaps, matched[-1]) == pytest.approx([1 / 3] * 3, abs=1e-15)
        # unturned, the axis lies along no bond
        assert np.abs(bonds @ axis).max() < 0.9
    assert len(set(matched)) == len(NV_AXES)


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
    """One noiseless scan as a stack of one: currents and widths, each (1, n)."""
    currents = np.linspace(i0 - span, i0 + span, n)
    widths = odmr_linewidth_model(currents, i0, COIL, 10.0, 1.0 / math.sqrt(3.0))
    return currents[None], widths[None]


def _jittered_scans(field, plan, jitter, center_a=0.0):
    """Sensor A's Z-coil scans, one per row of standard normal ``jitter``,
    as stacks of currents and widths."""
    currents = plan.currents(center_a)
    widths = zfepr.fields._scan_widths(NV_AXES["A"], "Z", field, COIL, plan, currents, jitter)
    return np.broadcast_to(currents, widths.shape), widths


def test_find_center_noiseless():
    [i0], [se] = find_symmetric_centers(*_noiseless_scan(0.123))
    assert abs(i0 - 0.123) < 1e-6
    assert se < 1e-3


def test_find_center_baseline_shift_invariant():
    currents, widths = _noiseless_scan(0.2)
    [i0a], _ = find_symmetric_centers(currents, widths)
    [i0b], _ = find_symmetric_centers(currents, widths + 5.0)
    assert abs(i0a - i0b) < 1e-9


def test_find_center_with_jitter():
    rng = np.random.default_rng(17)
    field = np.array([0.0, 0.0, -0.123 * 2.8])  # nulled at I = +0.123 A
    truth = 0.123
    plan = ScanPlan()
    [i0], [se] = find_symmetric_centers(
        *_jittered_scans(field, plan, rng.standard_normal((1, plan.n_points)), center_a=truth))
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
    centers, _ = find_symmetric_centers(
        *_jittered_scans(field, plan, rng.standard_normal((500, plan.n_points)),
                         center_a=truth))
    assert abs(np.mean(centers) - truth) < 1e-4


@pytest.mark.parametrize("make, field, value, message", [
    (CoilConfig, "coefficient_g_per_a", math.inf, "must be finite"),
    (CoilConfig, "current_stability_a", math.nan, "must be finite"),
    (CoilConfig, "current_stability_a", -0.004, "must be >= 0"),
    (ScanPlan, "i_min_a", -math.inf, "must be finite"),
    (ScanPlan, "i_max_a", math.inf, "must be finite"),
    (ScanPlan, "base_width_mhz", math.inf, "must be finite"),
    (ScanPlan, "jitter_frac", math.nan, "must be finite"),
    (ScanPlan, "jitter_frac", -0.1, "must be >= 0"),
])
def test_coil_and_scan_reject_what_the_physics_does_not_cover(make, field, value, message):
    with pytest.raises(ValueError, match=f"{field} {message}"):
        make(**{field: value})


def test_a_stable_supply_and_a_noiseless_scan_are_valid():
    assert CoilConfig(current_stability_a=0.0).current_stability_a == 0.0
    assert ScanPlan(jitter_frac=0.0).jitter_frac == 0.0


def test_find_center_validation():
    currents, widths = _noiseless_scan(0.0)
    with pytest.raises(ValueError, match="need at least 7 scan points"):
        find_symmetric_centers(currents[:, :5], widths[:, :5])
    for bad in (currents[0], currents[None], currents[:, :-1], np.vstack([currents] * 2)):
        with pytest.raises(ValueError, match=r"must be \(scans, points\) arrays of one shape"):
            find_symmetric_centers(bad, widths if bad.ndim == 2 else bad)
    for bad in (currents[:, ::-1], np.where(np.arange(25) == 3, currents[0, 2], currents),
                np.where(np.arange(25) == 3, np.nan, currents)):
        with pytest.raises(ValueError, match="currents must be strictly increasing"):
            find_symmetric_centers(bad, widths)
    # minimum at the edge of the scan window
    currents = np.linspace(1.0, 3.0, 21)
    widths = odmr_linewidth_model(currents, 0.9, COIL, 10.0, 0.6)
    with pytest.raises(ScanWindowError, match="not bracketed"):
        find_symmetric_centers(currents[None], widths[None])


def test_an_unbracketed_minimum_names_the_window_and_the_vertex():
    currents = np.linspace(-0.5, 0.5, 21)
    # a stack names its first scan that does not bracket its minimum
    brackets = currents - 1.25
    stack = (np.vstack([brackets, currents, currents + 0.25]),
             odmr_linewidth_model(np.vstack([brackets, currents, currents + 0.25]),
                                  -1.25, COIL, 2.0, 0.6))
    with pytest.raises(ScanWindowError, match=r"window \[-0\.5, 0\.5\] A; the parabola "
                       r"through its squared widths puts the minimum at -1\.25 A$"):
        find_symmetric_centers(*stack)
    # squared widths that curve downward have no vertex to name
    with pytest.raises(ScanWindowError, match=r"window \[-0\.5, 0\.5\] A$"):
        find_symmetric_centers(currents[None], 3.0 - currents[None] ** 2)
    assert issubclass(ScanWindowError, ValueError)


# the Y step never fails alone in a window centred on 0 A: sensor A's Y null
# is 1/sqrt(2) of half the gap between the Z step's two nulls, both inside it
@pytest.mark.parametrize("field, step", [(FieldVector(0.35, -0.52, 5.0), "Z"),
                                         (FieldVector(-2.0, 0.0, 0.0), "X")])
def test_compensation_names_the_step_whose_null_is_outside_the_window(
        field, step, monkeypatch):
    # the step's coarse scan raises, before its fine scans are fitted: one
    # fit per earlier step
    fits = []
    lm = zfepr.fields.levenberg_marquardt_stack
    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack",
                        lambda fun, p0: fits.append(len(p0)) or lm(fun, p0))
    with pytest.raises(ScanWindowError, match=f"^{step} step: linewidth minimum not "
                       r"bracketed by the scan window \[-0\.5, 0\.5\] A"):
        compensate_3axis(field, COIL, ScanPlan(), seeds=[0])
    assert len(fits) == "ZYX".index(step)


def test_find_center_lowest_sample_on_window_edge():
    # sensor B's null under the default compensation field sits 70 mA inside
    # the window edge; one low (jittered) edge sample must not read as an
    # unbracketed minimum
    truth = -0.4305
    currents = np.linspace(-0.5, 0.5, 201)
    widths = odmr_linewidth_model(currents, truth, COIL, 2.0, NV_AXES["B"][2])
    widths[0] -= 0.1
    assert np.argmin(widths) == 0
    [i0], _ = find_symmetric_centers(currents[None], widths[None])
    assert abs(i0 - truth) < 1e-3


def test_find_center_unconverged_fit_raises(monkeypatch):
    lm = zfepr.fields.levenberg_marquardt_stack
    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack",
                        lambda fun, p0: lm(fun, p0, max_iter=0))
    # the fit stops at its start, the vertex, and names it and the window
    with pytest.raises(CenterFitError, match=r"^linewidth fit did not converge in 0 "
                       r"iterations; its center stopped at 0\.123 A, scan window "
                       r"\[-1\.877, 2\.123\] A$"):
        find_symmetric_centers(*_noiseless_scan(0.123))
    assert issubclass(CenterFitError, ValueError)


def test_find_center_outside_the_window_names_the_center_and_the_window(monkeypatch):
    lm = zfepr.fields.levenberg_marquardt_stack

    def shifted(fun, p0):
        res = lm(fun, p0)
        return dataclasses.replace(res, params=res.params + [0.0, 0.0, 2.5])

    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack", shifted)
    with pytest.raises(CenterFitError, match=r"^fitted center 2\.623 A outside the scan "
                       r"window \[-1\.877, 2\.123\] A$"):
        find_symmetric_centers(*_noiseless_scan(0.123))


@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize("jitter_frac", [0.0, 0.03])
def test_compensation_fits_each_axis_step_once(trials, jitter_frac, monkeypatch):
    # the coarse scans are placed by their vertex, not fitted: one stacked
    # fit per axis step, of every trial's fine scans
    stacks = []
    lm = zfepr.fields.levenberg_marquardt_stack

    def recording(fun, p0):
        stacks.append(len(p0))
        return lm(fun, p0)

    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack", recording)
    compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, ScanPlan(jitter_frac=jitter_frac),
                     seeds=range(trials))
    assert stacks == [2 * trials, trials, trials]


def test_the_vertex_is_the_fits_start(monkeypatch):
    rng = np.random.default_rng(23)
    plan = ScanPlan()
    scans = _jittered_scans(np.array([0.1, -0.2, 0.3]), plan,
                            rng.standard_normal((5, plan.n_points)), center_a=-0.1)
    starts = []
    lm = zfepr.fields.levenberg_marquardt_stack

    def recording(fun, p0):
        starts.append(p0)
        return lm(fun, p0)

    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack", recording)
    find_symmetric_centers(*scans)
    [p0] = starts
    assert np.array_equal(zfepr.fields._parabola_seeds(*scans)[:, 2], p0[:, 2])


@pytest.mark.parametrize("truth", [0.0, 0.123, -0.4305])
def test_the_vertex_of_a_noiseless_scan_is_the_null(truth):
    currents = np.linspace(-0.5, 0.5, 201)
    widths = odmr_linewidth_model(currents, truth, COIL, 2.0, NV_AXES["B"][2])
    [[_, _, vertex]] = zfepr.fields._parabola_seeds(currents[None], widths[None])
    assert abs(vertex - truth) < 1e-12


def test_compensation_perfect_hardware():
    coil = CoilConfig(current_stability_a=0.0)
    plan = ScanPlan(jitter_frac=0.0)
    result = compensate_3axis(FieldVector(0.35, -0.52, 0.47), coil, plan, seeds=[1])
    assert result.residual_g.shape == (1, 3)
    assert np.abs(result.residual_g).max() < 1e-6


def test_compensation_residual_set_by_current_stability():
    plan = ScanPlan()
    result = compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan, seeds=range(30))
    assert max(e.max() for e in result.fit_errors_a.values()) <= 1e-3
    rms = np.sqrt((result.residual_g ** 2).mean(axis=0))
    # 4 mA at 2.8 G/A puts each axis near 0.011 G
    assert np.all(rms > 0.005) and np.all(rms < 0.020)


def test_compensation_scales_with_stability():
    plan = ScanPlan(jitter_frac=0.0)
    rms = {}
    for stability in (0.004, 0.002):
        coil = CoilConfig(current_stability_a=stability)
        res = compensate_3axis(FieldVector(0.3, -0.4, 0.5), coil, plan, seeds=range(100))
        rms[stability] = float(np.sqrt((res.residual_g ** 2).mean()))
    assert rms[0.004] / rms[0.002] == pytest.approx(2.0, rel=0.25)


def test_compensation_z_step_averaging_cancels_by():
    # sensors A and B are blind to Bx; with By present their individual
    # centers disagree, but the average still nulls Bz
    coil = CoilConfig(current_stability_a=0.0)
    plan = ScanPlan(jitter_frac=0.0)
    [with_bx] = compensate_3axis(FieldVector(0.8, 0.0, 0.5), coil, plan, seeds=[3]).currents_a["Z"]
    assert abs(with_bx - (-0.5 / 2.8)) < 1e-6
    [with_by] = compensate_3axis(FieldVector(0.0, 0.6, 0.5), coil, plan, seeds=[3]).currents_a["Z"]
    assert abs(with_by - (-0.5 / 2.8)) < 1e-6


PLANS = [ScanPlan(), ScanPlan(i_min_a=-0.6, i_max_a=0.5, n_points=61, jitter_frac=0.05)]


def _trial(result, t):
    """Trial ``t`` of a stacked result: its currents and fit errors by axis,
    and its residual field."""
    return ({axis: i[t] for axis, i in result.currents_a.items()},
            {axis: e[t] for axis, e in result.fit_errors_a.items()}, result.residual_g[t])


@pytest.mark.parametrize("plan", PLANS, ids=["default", "shifted"])
def test_compensation_trial_does_not_depend_on_the_batch(plan):
    seeds = [np.random.SeedSequence(11, spawn_key=(t,)) for t in range(4)]
    together = compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan, seeds)
    assert together.residual_g.shape == (4, 3)
    assert all(a.shape == (4,) for a in (*together.currents_a.values(),
                                         *together.fit_errors_a.values()))
    for t, seed in enumerate(seeds):
        alone = compensate_3axis(FieldVector(0.35, -0.52, 0.47), COIL, plan, [seed])
        currents, errors, residual = _trial(together, t)
        assert currents == _trial(alone, 0)[0]
        assert errors == _trial(alone, 0)[1]
        assert np.array_equal(residual, alone.residual_g[0])


def _one_trial_in_sequence(field, coil, plan, seed):
    """The procedure for one trial, scan by scan: per axis step and sensor a
    coarse scan, placed alone by its parabola vertex, then a fine scan
    centered there and fitted alone, then the supply error, all drawn from
    the trial's own generator."""
    rng = np.random.default_rng(seed)
    b = field.as_array()
    currents, errors = {}, {}

    def scan(name, axis, center_a=0.0):
        scan_currents = plan.currents(center_a)
        widths = zfepr.fields._scan_widths(NV_AXES[name], axis, b, coil, plan, scan_currents,
                                           rng.standard_normal(plan.n_points))
        return scan_currents[None], widths[None]

    for axis, sensors in (("Z", "AB"), ("Y", "A"), ("X", "C")):
        fits = []
        for name in sensors:
            [[_, _, coarse]] = zfepr.fields._parabola_seeds(*scan(name, axis))
            [i0], [se] = find_symmetric_centers(*scan(name, axis, center_a=coarse))
            fits.append((float(i0), float(se)))
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
    result = compensate_3axis(field, COIL, plan, seeds=range(3))
    for seed in range(3):
        currents, errors, residual = _one_trial_in_sequence(field, COIL, plan, seed)
        assert _trial(result, seed)[0] == currents
        assert _trial(result, seed)[1] == errors
        assert np.array_equal(result.residual_g[seed], residual)


def test_compensation_report_format():
    result = compensate_3axis(FieldVector(0.1, 0.2, 0.3), COIL, ScanPlan(), seeds=[9])
    report = format_compensation_report(result)
    assert "axis Z" in report and "residual_G" in report
    # a stack reports its first trial
    stack = compensate_3axis(FieldVector(0.1, 0.2, 0.3), COIL, ScanPlan(), seeds=[9, 4])
    assert format_compensation_report(stack) == report


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
        lines = transitions_vs_field(FieldVector(*(b * direction)).as_array(), spec, mode=mode)
        f1, f0 = lines["st1"][0], lines["st0"][0]
        assert row[0] == b
        assert np.abs(row[1:] - [f1.min(), f1.max(), f0.min(), f0.max()]).max() <= 1e-12


def test_bsweep_keeps_the_validity_errors(spec):
    with pytest.warns(UserWarning, match="a_perp/10"):
        bsweep(spec, [0.0, 1.0, 500.0], SYMMETRIC_DIRECTION)
    # at 100 G the Zeeman energy (280 MHz) exceeds the hyperfine constants
    # and carries a level across S0 or T0, which exact mode cannot label
    with pytest.raises(DegenerateCrossingError):
        bsweep(spec, [0.0, 1.0, 100.0], SYMMETRIC_DIRECTION, mode="exact")
