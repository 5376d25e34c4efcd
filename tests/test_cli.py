import argparse
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import zfepr
import zfepr.cli as cli
import zfepr.fields
from zfepr.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main

# subcommand -> (files written on the default config, keys of its summary JSON)
DEFAULT_RUNS = {
    "deer": (["deer.csv", "deer_summary.json"],
             ["couplings_mhz", "decay_enabled", "points", "signal_max", "signal_min"]),
    "rabi": (["rabi.csv", "rabi_summary.json"],
             ["contrast", "coupling_mhz", "tau_us", "transition"]),
    "ramsey": (["ramsey.csv", "ramsey_summary.json"],
               ["dt_us", "noise", "points", "seed", "transition"]),
    "spectrum": (["ramsey.csv", "spectrum.csv", "spectrum_fit.txt", "spectrum_summary.json"],
                 ["band_origin_mhz", "m", "peaks", "residual_norm", "seed", "transition"]),
    "bsweep": (["bsweep.csv", "bsweep_summary.json"],
               ["b_range_g", "direction", "mode", "st0_shift_mhz_at_max_b",
                "st1_split_mhz_at_max_b"]),
    "compensate": (["compensate.csv", "compensate_report.txt", "compensate_summary.json"],
                   ["max_fit_error_a", "rms_residual_g", "seed", "trials"]),
    "linewidth": (["linewidth_summary.json"],
                  ["chi", "fwhm_st1_mhz", "sigma_mhz", "sigma_st0_mhz", "sigma_st1_mhz"]),
    "selftest": ([], None),
}


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_default_config_runs(command, tmp_path):
    files, keys = DEFAULT_RUNS[command]
    assert main([command, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    # the --help epilog lists every CSV's columns
    epilog = build_parser().epilog.splitlines()
    for name in (f for f in files if f.endswith(".csv")):
        header = (tmp_path / name).read_text().splitlines()[0]
        listed = [line for line in epilog if line.split()[:1] == [name]]
        assert len(listed) == 1 and ", ".join(header.split(",")) in listed[0]
    if keys is not None:
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        assert sorted(summary) == keys


def test_exact_bsweep_perpendicular_to_bond_axes(tmp_path):
    # [110] leaves two bond axes without axial field, where the T+-1 pair
    # mixes 50/50
    argv = ["bsweep", "--out-dir", str(tmp_path),
            "--set", "field.mode=exact", "--set", "field.direction=1,1,0"]
    assert main(argv) == EXIT_OK
    summary = json.loads((tmp_path / "bsweep_summary.json").read_text())
    assert summary["st1_split_mhz_at_max_b"] > 0


def test_degenerate_hyperfine_constants_are_config_errors(tmp_path, capsys):
    argv = ["linewidth", "--out-dir", str(tmp_path),
            "--set", "target.a_par_mhz=114", "--set", "noise.sigma_mhz=0.1"]
    assert main(argv) == EXIT_CONFIG
    assert "degenerate" in capsys.readouterr().err


def test_python_m_zfepr_from_checkout():
    src = str(pathlib.Path(zfepr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "zfepr", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"zfepr {zfepr.__version__}"


def test_rabi_closed_form_that_disagrees_with_the_simulator_is_numerical(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "corr_rabi", lambda *args: zfepr.corr_rabi(*args) + 1e-6)
    assert main(["rabi", "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "closed form disagrees with simulator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compensate_default_config(tmp_path):
    assert main(["compensate", "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "compensate_summary.json").read_text())
    assert summary["max_fit_error_a"] <= 1e-3
    assert max(abs(r) for r in summary["rms_residual_g"]) < 0.05


def test_compensate_failed_center_fit_is_numerical(tmp_path, monkeypatch, capsys):
    lm = zfepr.fields.levenberg_marquardt_stack
    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt_stack",
                        lambda fun, p0: lm(fun, p0, max_iter=0))
    assert main(["compensate", "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL
    # the message names the axis step, where the fit stopped and its window
    assert re.fullmatch(r"numerical failure: Z step: linewidth fit did not converge in 0 "
                        r"iterations; its center stopped at -?[0-9.e-]+ A, scan window "
                        r"\[-?[0-9.e-]+, -?[0-9.e-]+\] A\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, step", [("compensation.true_bz_g=5", "Z"),
                                           ("compensation.true_bx_g=-2", "X")])
def test_compensate_null_outside_the_window_names_the_step_and_the_keys(
        setting, step, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compensate", "--out-dir", str(out), "--set", setting]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"config error: {step} step: linewidth minimum not bracketed by the scan "
            "window [-0.5, 0.5] A; the parabola through its squared widths puts the "
            "minimum at ") in err
    assert "compensation.scan_i_min_a and compensation.scan_i_max_a" in err
    assert not out.exists()


# stem -> (CSV header, .dat header, data rows) on the default config
RAMSEY_TABLE = ("t_us,signal", "# t_us signal", 256)


@pytest.mark.parametrize("command, tables", [
    ("ramsey", {"ramsey": RAMSEY_TABLE}),
    ("spectrum", {"ramsey": RAMSEY_TABLE,
                  "spectrum": ("freq_MHz,amplitude", "# freq_MHz amplitude", 513)}),
    ("bsweep", {"bsweep": ("B_Gauss,f_ST1_low,f_ST1_high,f_ST0_low,f_ST0_high",
                           "# B_Gauss f_ST1_low f_ST1_high f_ST0_low f_ST0_high", 13)}),
], ids=["ramsey", "spectrum", "bsweep"])
def test_ramsey_plot_data_adds_dat_and_keeps_csv(command, tables, tmp_path):
    plain, plot = tmp_path / "plain", tmp_path / "plot"
    assert main([command, "--out-dir", str(plain)]) == EXIT_OK
    assert main([command, "--out-dir", str(plot), "--plot-data"]) == EXIT_OK
    for stem, (csv_header, dat_header, rows) in tables.items():
        csv = (plain / f"{stem}.csv").read_text().splitlines()
        assert csv[0] == csv_header and len(csv) == rows + 1
        assert (plot / f"{stem}.csv").read_bytes() == (plain / f"{stem}.csv").read_bytes()
        dat = (plot / f"{stem}.dat").read_text().splitlines()
        assert dat[0] == dat_header
        assert len(dat) == len(csv)


@pytest.mark.parametrize("argv", [
    ["ramsey", "protocol.t_points=0"],
    ["compensate", "compensation.trials=0"],
    ["bsweep", "field.b_points=0"],
    ["rabi", "protocol.theta_points=0"],
    ["deer", "protocol.tau_points=0"],
], ids=lambda argv: argv[0])
def test_zero_count_is_a_config_error(argv, tmp_path, capsys):
    command, *overrides = argv
    args = [command, "--out-dir", str(tmp_path)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == EXIT_CONFIG
    assert f"bad value for {overrides[0].split('=')[0]}" in capsys.readouterr().err


def test_spectrum_failed_gaussian_fit_is_numerical(tmp_path, capsys):
    # at dt = 0.25 us the 114 MHz line folds onto the Nyquist edge, where the
    # fit of its one line does not converge; a failed run writes no file
    argv = ["spectrum", "--out-dir", str(tmp_path / "out"),
            "--set", "protocol.transition=st0", "--set", "noise.sigma_mhz=0.196",
            "--set", "protocol.dt_us=0.25",
            "--set", "protocol.band_lo_mhz=112.5", "--set", "protocol.band_hi_mhz=115.5"]
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fixed_peak_count_passes_the_validity_tests(tmp_path, capsys):
    # three Gaussians on the default one-line spectrum leave a component of
    # negative amplitude beside the line: a fixed count is checked like a
    # chosen one, so the run fails and writes no file
    argv = ["spectrum", "--out-dir", str(tmp_path / "out"), "--set", "protocol.m_gaussians=3"]
    assert main(argv) == EXIT_NUMERICAL
    assert "no acceptable fit found: 3 Gaussian(s)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the one line the target names still fits as a fixed count
    argv = ["spectrum", "--out-dir", str(tmp_path / "one"), "--set", "protocol.m_gaussians=1"]
    assert main(argv) == EXIT_OK
    summary = json.loads((tmp_path / "one" / "spectrum_summary.json").read_text())
    assert summary["m"] == 1


def test_adjacent_compensation_seeds_share_no_trial(tmp_path):
    rows = []
    for seed in (5, 6):
        out = tmp_path / str(seed)
        argv = ["compensate", "--out-dir", str(out), "--seed", str(seed),
                "--set", "compensation.trials=3"]
        assert main(argv) == EXIT_OK
        lines = (out / "compensate.csv").read_text().splitlines()[1:]
        rows.append({line.split(",", 1)[1] for line in lines})  # drop the trial index
    assert len(rows[0]) == 3 and not rows[0] & rows[1]


def test_compensation_trials_do_not_depend_on_the_trial_count(tmp_path):
    # the trials run in lockstep, yet each keeps its own generator
    rows = {}
    for trials in (3, 4):
        out = tmp_path / str(trials)
        argv = ["compensate", "--out-dir", str(out), "--seed", "8",
                "--set", f"compensation.trials={trials}"]
        assert main(argv) == EXIT_OK
        rows[trials] = (out / "compensate.csv").read_text().splitlines()
        assert (out / "compensate_report.txt").read_text() == (
            tmp_path / "3" / "compensate_report.txt").read_text()
    assert len(rows[4]) == 5 and rows[3] == rows[4][:4]


def test_compensation_summary_reports_the_largest_fit_error_of_every_trial(
        tmp_path, monkeypatch):
    # the summary covers every trial, as its rms residual does; for these
    # seeds the largest error lies in a trial other than the first
    results = []
    compensate = cli.compensate_3axis
    monkeypatch.setattr(cli, "compensate_3axis",
                        lambda *args: results.append(compensate(*args)) or results[-1])
    trials_of_the_largest = []
    for seed in (8, 11):
        out = tmp_path / str(seed)
        argv = ["compensate", "--out-dir", str(out), "--seed", str(seed),
                "--set", "compensation.trials=4"]
        assert main(argv) == EXIT_OK
        errors = np.stack(list(results[-1].fit_errors_a.values()))  # (axes, trials)
        assert errors.shape == (3, 4)
        summary = json.loads((out / "compensate_summary.json").read_text())
        assert summary["max_fit_error_a"] == errors.max()
        trials_of_the_largest.append(np.unravel_index(errors.argmax(), errors.shape)[1])
    assert any(trial != 0 for trial in trials_of_the_largest)


@pytest.mark.parametrize("given, missing", [("band_lo_mhz", "band_hi_mhz"),
                                            ("band_hi_mhz", "band_lo_mhz")])
def test_spectrum_band_needs_both_edges(given, missing, tmp_path, capsys):
    argv = ["spectrum", "--out-dir", str(tmp_path), "--set", f"protocol.{given}=136"]
    assert main(argv) == EXIT_CONFIG
    assert f"protocol.{missing} is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ramsey", "linewidth"])
@pytest.mark.parametrize("width", ["nan", "inf"])
def test_noise_width_that_is_not_finite_is_a_config_error(command, width, tmp_path, capsys):
    # linewidth reads no [protocol], so only ramsey is given the transition
    argv = [command, "--out-dir", str(tmp_path), "--set", f"noise.sigma_mhz={width}"]
    if command == "ramsey":
        argv += ["--set", "protocol.transition=st0"]
    assert main(argv) == EXIT_CONFIG
    assert "must be finite and >= 0" in capsys.readouterr().err


# a_perp/10 is 11.4 MHz for the default target and 5 MHz for a_perp = 50 MHz
PAST_THE_LIMIT = [
    ("linewidth", ["noise.sigma_mhz=30"], "30", "11.4", "linewidth_stats"),
    ("ramsey", ["protocol.transition=st0", "noise.sigma_mhz=30"], "30", "11.4",
     "corr_ramsey_diff"),
    ("spectrum", ["noise.sigma_mhz=0.1,0.1,12"], "12", "11.4", "corr_ramsey_diff"),
    ("ramsey", ["target.a_perp_mhz=50", "noise.sigma_mhz=5.5,0.1,0.1"], "5.5", "5",
     "corr_ramsey_diff"),
]


@pytest.mark.parametrize("command, settings, widest, limit, work", PAST_THE_LIMIT,
                         ids=["linewidth", "ramsey", "spectrum-z", "ramsey-small-a_perp"])
def test_noise_past_the_perturbative_limit_is_a_config_error(command, settings, widest, limit,
                                                              work, tmp_path, capsys,
                                                              monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} called")

    # refused before any work
    monkeypatch.setattr(cli, work, refuse)
    out = tmp_path / "out"
    argv = [a for item in settings for a in ("--set", item)]
    assert main([command, "--out-dir", str(out), *argv]) == EXIT_CONFIG
    assert (f"config error: noise.sigma_mhz: the largest width, {widest} MHz, is past the "
            f"perturbative limit a_perp/10 = {limit} MHz") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, settings", [
    ("linewidth", ["noise.sigma_mhz=11.4"]),
    ("ramsey", ["protocol.transition=st0", "noise.sigma_mhz=11.4"]),
    ("ramsey", ["target.a_perp_mhz=50", "noise.sigma_mhz=5,0.1,0.1"]),
], ids=["linewidth", "ramsey", "ramsey-small-a_perp"])
def test_noise_at_the_perturbative_limit_runs(command, settings, tmp_path):
    argv = [a for item in settings for a in ("--set", item)]
    assert main([command, "--out-dir", str(tmp_path), *argv]) == EXIT_OK


# every float key the parser checks, with a value that is not finite
NON_FINITE = [
    "target.a_perp_mhz=inf", "target.a_par_mhz=nan", "target.c13_splitting_mhz=nan",
    "target.st0_offset_doublet_mhz=-0.03,nan", "target.orientations=0,nan,1",
    "decay.stretch_p=nan",
    "protocol.couplings=nan", "protocol.couplings=0.1:0.5,inf:0.5", "protocol.tau_us=nan",
    "protocol.tau_start_us=-inf", "protocol.tau_stop_us=inf", "protocol.theta_start_rad=nan",
    "protocol.theta_stop_rad=inf", "protocol.dt_us=nan",
    "protocol.band_lo_mhz=nan", "protocol.band_hi_mhz=inf",
    "field.b_start_g=nan", "field.b_stop_g=inf", "field.direction=0,0,nan",
    "compensation.true_bx_g=nan", "compensation.true_by_g=inf", "compensation.true_bz_g=-inf",
    "compensation.coefficient_g_per_a=inf", "compensation.current_stability_a=nan",
    "compensation.scan_i_min_a=-inf", "compensation.scan_i_max_a=inf",
    "compensation.base_width_mhz=nan", "compensation.jitter_frac=nan",
]


@pytest.mark.parametrize("setting", NON_FINITE)
def test_float_that_is_not_finite_is_a_config_error(setting, tmp_path, capsys):
    argv = ["ramsey", "--out-dir", str(tmp_path), "--set", setting]
    assert main(argv) == EXIT_CONFIG
    assert f"bad value for {setting.split('=')[0]}: must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# the id names the NoiseModel field that is not finite
@pytest.mark.parametrize("widths", ["nan,0.1,0.1", "0.1,nan,0.1", "0.1,0.1,nan"],
                         ids=["sigma_x_mhz", "sigma_y_mhz", "sigma_z_mhz"])
def test_axis_noise_width_that_is_not_finite_is_a_config_error(widths, tmp_path, capsys):
    argv = ["ramsey", "--out-dir", str(tmp_path), "--set", f"noise.sigma_mhz={widths}"]
    assert main(argv) == EXIT_CONFIG
    assert "must be finite and >= 0" in capsys.readouterr().err


# setting -> (the --set route's error, the file route's error)
NOISE_SYNTAX = {
    "noise.sigma_x_mhz=5": ("unknown override target 'noise.sigma_x_mhz'",
                            "unknown key 'sigma_x_mhz' in section [noise]"),
    "noise.sigma_z_mhz=5": ("unknown override target 'noise.sigma_z_mhz'",
                            "unknown key 'sigma_z_mhz' in section [noise]"),
    "noise.sigma_mhz=0.1,0.2": ("bad value for noise.sigma_mhz: expected 1 or 3 widths",) * 2,
}


@pytest.mark.parametrize("setting", NOISE_SYNTAX,
                         ids=["sigma_x_mhz", "sigma_z_mhz", "two-widths"])
def test_noise_width_is_one_key_of_one_or_three_widths(setting, tmp_path, capsys):
    by_set, by_file = NOISE_SYNTAX[setting]
    assert main(["ramsey", "--out-dir", str(tmp_path / "out"), "--set", setting]) \
        == EXIT_CONFIG
    assert by_set in capsys.readouterr().err
    config = _config_file(tmp_path / "run.cfg", [setting])
    assert main(["ramsey", config, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert by_file in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_noise_width_is_the_same_on_every_axis(tmp_path):
    written = []
    for widths in ("0.196", "0.196,0.196,0.196"):
        out = tmp_path / widths
        argv = ["ramsey", "--out-dir", str(out), "--set", f"noise.sigma_mhz={widths}"]
        assert main(argv) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


def test_three_noise_widths_are_the_x_y_z_widths(tmp_path):
    argv = ["ramsey", "--out-dir", str(tmp_path), "--seed", "9",
            "--set", "noise.sigma_mhz=0.1,0.2,0.3", "--set", "protocol.t_points=32"]
    assert main(argv) == EXIT_OK
    times = 0.2 * np.arange(32)
    values = zfepr.corr_ramsey_diff("st1", times, 5.0, 0.1, spec=zfepr.TargetSpec(),
                                    noise=zfepr.NoiseModel(0.1, 0.2, 0.3, seed=9))
    assert (tmp_path / "ramsey.csv").read_text() == "t_us,signal\n" + "".join(
        f"{t:.12g},{v:.12g}\n" for t, v in zip(times, values))
    summary = json.loads((tmp_path / "ramsey_summary.json").read_text())
    assert summary["noise"] == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("command", ["deer", "rabi", "bsweep", "compensate", "selftest"])
def test_noise_setting_without_a_noise_model_is_a_config_error(command, tmp_path, capsys):
    settings = ["noise.sigma_mhz=0.196"]
    message = f"{command} has no noise model, so it cannot use noise.sigma_mhz"
    assert main([command, "--out-dir", str(tmp_path / "out"), "--set", settings[0]]) \
        == EXIT_CONFIG
    assert message in capsys.readouterr().err
    config = _config_file(tmp_path / "run.cfg", settings)
    assert main([command, config, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# subcommand -> a setting of a section it never reads
UNREAD_SECTION = [
    ("compensate", "field.b_points=3"),
    ("bsweep", "protocol.tau_us=3"),
    ("deer", "target.a_perp_mhz=100"),
    # the correlation Rabi signal does not depend on the hyperfine constants
    ("rabi", "target.a_perp_mhz=100"),
    ("linewidth", "protocol.dt_us=0.1"),
]


@pytest.mark.parametrize("command, setting", UNREAD_SECTION,
                         ids=[command for command, _ in UNREAD_SECTION])
def test_setting_of_a_section_the_command_never_reads_is_a_config_error(
        command, setting, tmp_path, capsys):
    section = setting.split(".")[0]
    message = f"{command} has no {section} model, so it cannot use {setting.split('=')[0]}"
    assert main([command, "--out-dir", str(tmp_path / "out"), "--set", setting]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and f"[{section}] settings are for" in err
    config = _config_file(tmp_path / "run.cfg", [setting])
    assert main([command, config, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


# a subcommand and settings it never reads -> the words of the error
UNREAD_KEY = [
    (["deer", "protocol.transition=st0"],
     "deer does not read protocol.transition (read by rabi, ramsey, spectrum)"),
    (["deer", "decay.t2_nv_us=3"],
     "decay is off, so deer cannot use decay.t2_nv_us; set decay.enabled = true"),
    (["rabi", "protocol.dt_us=0.1"],
     "rabi does not read protocol.dt_us (read by ramsey, spectrum)"),
    (["ramsey", "protocol.band_lo_mhz=1", "protocol.band_hi_mhz=2"],
     "ramsey does not read protocol.band_lo_mhz (read by spectrum), "
     "protocol.band_hi_mhz (read by spectrum)"),
    (["ramsey", "protocol.m_gaussians=3"],
     "ramsey does not read protocol.m_gaussians (read by spectrum)"),
    (["spectrum", "target.orientations=single"],
     "spectrum does not read target.orientations (read by bsweep)"),
    (["selftest", "target.c13_splitting_mhz=0.4"],
     "selftest does not read target.c13_splitting_mhz (read by ramsey, spectrum, bsweep)"),
]


@pytest.mark.parametrize("argv, message", UNREAD_KEY,
                         ids=["deer-transition", "deer-decay-off", "rabi-dt", "ramsey-band",
                              "ramsey-peaks", "spectrum-orientations", "selftest-c13"])
def test_setting_of_a_key_the_command_never_reads_is_a_config_error(
        argv, message, tmp_path, capsys):
    command, *settings = argv
    out = tmp_path / "out"
    assert main([command, "--out-dir", str(out)]
                + [arg for setting in settings for arg in ("--set", setting)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    config = _config_file(tmp_path / "run.cfg", settings)
    assert main([command, config, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == err
    assert not out.exists()


# subcommand -> how many of the schema's keys it reads
KEYS_READ = {"deer": 9, "rabi": 8, "ramsey": 12, "spectrum": 15, "bsweep": 12,
             "compensate": 13, "linewidth": 5, "selftest": 4}
# a value the key's parser accepts, where the default's text is not one
SAMPLE_VALUES = {"target.orientations": "single", "protocol.band_lo_mhz": "1",
                 "protocol.band_hi_mhz": "2", "target.st0_offset_doublet_mhz": "-0.03,0.03"}


def test_each_command_accepts_exactly_the_keys_it_reads():
    accepted = {}
    for command, (_, _, sections) in cli._COMMANDS.items():
        for section, keys in cli._SCHEMA.items():
            for key, (_, default, *readers) in keys.items():
                name = f"{section}.{key}"
                value = SAMPLE_VALUES.get(name) or (
                    ",".join(map(str, default)) if isinstance(default, tuple) else str(default))
                settings = [f"{name}={value}"]
                if section == "decay" and key != "enabled":  # read while decay is on
                    settings.append("decay.enabled=true")
                reads = ((section == "run" or section in sections)
                         and (not readers or command in readers[0]))
                try:
                    cli.load_config(command, None, settings)
                    accepted[command, name] = True
                except cli.ConfigError as exc:
                    accepted[command, name] = False
                    assert f"cannot use {name}" in str(exc) or f"{name} (read by" in str(exc)
                assert accepted[command, name] == reads, (command, name)
    assert Counter(command for (command, _), ok in accepted.items() if ok) == KEYS_READ
    assert sum(KEYS_READ.values()) == 78 and len(accepted) == 8 * 41
    # a key's readers read its section, and every key has a reader
    for section, keys in cli._SCHEMA.items():
        section_readers = {c for c, (*_, sections) in cli._COMMANDS.items()
                           if section in sections}
        for key, (_, _, *readers) in keys.items():
            if readers:
                assert set(readers[0]) <= section_readers, (section, key)
            if section != "run":
                assert any(accepted[c, f"{section}.{key}"] for c in cli._COMMANDS)


def test_infinite_decay_times_switch_channels_off(tmp_path, capsys):
    base = ["deer", "--set", "decay.enabled=true"]
    assert main(base + ["--out-dir", str(tmp_path / "off"), "--set", "decay.t2_nv_us=inf"]) \
        == EXIT_OK
    assert main(["deer", "--out-dir", str(tmp_path / "none")]) == EXIT_OK
    assert ((tmp_path / "off" / "deer.csv").read_bytes()
            == (tmp_path / "none" / "deer.csv").read_bytes())
    assert main(base + ["--out-dir", str(tmp_path / "nan"), "--set", "decay.t2_nv_us=nan"]) \
        == EXIT_CONFIG
    assert "t2_nv_us must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rabi", "ramsey", "spectrum", "bsweep", "compensate",
                                     "linewidth", "selftest"])
def test_decay_on_a_closed_form_without_decay_is_a_config_error(command, tmp_path, capsys):
    argv = [command, "--out-dir", str(tmp_path), "--set", "decay.enabled=true",
            "--set", "decay.t2_nv_us=1"]
    assert main(argv) == EXIT_CONFIG
    assert f"{command} has no decay model" in capsys.readouterr().err


def test_spinlock_duration_is_not_a_setting(tmp_path, capsys):
    assert main(["rabi", "--out-dir", str(tmp_path), "--set", "protocol.lock_us=50"]) \
        == EXIT_CONFIG
    assert "unknown override target 'protocol.lock_us'" in capsys.readouterr().err


def test_lock_relaxation_time_is_not_a_setting(tmp_path, capsys):
    # deer, the one reader of [decay], has no spin lock
    argv = ["deer", "--set", "decay.enabled=true", "--set", "decay.t1rho_us=5"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown override target 'decay.t1rho_us'" in capsys.readouterr().err
    config = _config_file(tmp_path / "run.cfg", ["decay.enabled=true", "decay.t1rho_us=5"])
    assert main(["deer", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown key 't1rho_us' in section [decay]" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["ramsey", "spectrum"])
def test_draw_count_is_not_a_setting(command, tmp_path, capsys):
    # the closed form averages the noise exactly, so no draw count exists
    assert main([command, "--out-dir", str(tmp_path), "--set", "run.monte_carlo_n=300"]) \
        == EXIT_CONFIG
    assert "unknown override target 'run.monte_carlo_n'" in capsys.readouterr().err
    config = _config_file(tmp_path / "run.cfg", ["run.monte_carlo_n=300"])
    assert main([command, config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown key 'monte_carlo_n' in section [run]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ramsey", "spectrum"])
def test_record_start_is_not_a_setting(command, tmp_path, capsys):
    # the spectrum is built from the record's even extension about t = 0
    assert main([command, "--out-dir", str(tmp_path), "--set", "protocol.t_start_us=5"]) \
        == EXIT_CONFIG
    assert "unknown override target 'protocol.t_start_us'" in capsys.readouterr().err
    config = _config_file(tmp_path / "run.cfg", ["protocol.t_start_us=5"])
    assert main([command, config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown key 't_start_us' in section [protocol]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


# settings whose C tau is a whole number, which leaves no correlation contrast
ZERO_CONTRAST = {
    "C-tau-1": ["protocol.couplings=0.2"],
    "no-coupling": ["protocol.couplings=0"],
    "no-time": ["protocol.tau_us=0"],
    "C-tau-1-at-10us": ["protocol.couplings=0.1", "protocol.tau_us=10"],
}


@pytest.mark.parametrize("settings", ZERO_CONTRAST.values(), ids=ZERO_CONTRAST)
def test_zero_contrast_record_is_a_config_error(settings, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a for item in settings for a in ("--set", item)]
    assert main(["spectrum", "--out-dir", str(out), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the ramsey record is constant")
    assert "protocol.couplings" in err and "protocol.tau_us" in err
    assert not out.exists()
    # ramsey still writes the all-zero record
    assert main(["ramsey", "--out-dir", str(out), *argv]) == EXIT_OK
    assert set(np.loadtxt(out / "ramsey.csv", delimiter=",", skiprows=1)[:, 1]) == {0.0}


# subcommands that draw no random number, with settings that give a noisy record
SEED_FREE = {
    "deer": [], "rabi": [], "bsweep": [], "linewidth": ["noise.sigma_mhz=0.196"],
    "ramsey": ["protocol.transition=st0", "noise.sigma_mhz=0.196"],
    "spectrum": ["protocol.transition=st0", "noise.sigma_mhz=0.196", "protocol.dt_us=0.15",
                 "protocol.band_lo_mhz=112.5", "protocol.band_hi_mhz=115.5"],
}


@pytest.mark.parametrize("command", sorted(SEED_FREE))
def test_seed_changes_only_the_summary_seed_where_nothing_is_drawn(command, tmp_path):
    written = []
    for seed in (3, 4):
        out = tmp_path / str(seed)
        argv = [command, "--seed", str(seed), "--out-dir", str(out)]
        assert main(argv + [a for item in SEED_FREE[command] for a in ("--set", item)]) \
            == EXIT_OK
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        for name in [n for n in files if n.endswith("_summary.json")]:
            summary = json.loads(files.pop(name))
            assert summary.pop("seed", seed) == seed
            files[name] = summary
        written.append(files)
    assert written[0] == written[1]


@pytest.mark.parametrize("route", [["--seed", "-1"], ["--set", "run.seed=-1"]],
                         ids=["--seed", "--set"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_negative_seed_is_a_config_error(command, route, tmp_path, capsys):
    # one seed parser for both routes, so every subcommand refuses a negative
    # seed by name, including those that draw nothing
    out = tmp_path / "out"
    assert main([command, *route, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "bad value for run.seed: seed must be a non-negative integer, got -1" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ramsey", "spectrum"])
def test_noisy_st0_closed_form_does_not_depend_on_the_seed(command, tmp_path):
    written = []
    for seed in (5, 6):
        out = tmp_path / str(seed)
        argv = [command, "--seed", str(seed), "--out-dir", str(out),
                "--set", "protocol.transition=st0", "--set", "noise.sigma_mhz=0.196",
                "--set", "protocol.dt_us=0.15"]
        if command == "spectrum":
            argv += ["--set", "protocol.band_lo_mhz=112.5", "--set", "protocol.band_hi_mhz=115.5"]
        assert main(argv) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"})
    assert written[0] == written[1]


def test_config_file_comments(tmp_path):
    # whole lines starting with "#" or ";" are comments, and so is the rest
    # of a line after a spaced "#"
    path = tmp_path / "run.cfg"
    path.write_text("; sweep settings\n[field]\n# five points\nb_points = 5 # inline\n")
    assert main(["bsweep", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    assert len((tmp_path / "out" / "bsweep.csv").read_text().splitlines()) == 6


def test_seed_comes_from_the_command_line_or_config_only(tmp_path, monkeypatch):
    monkeypatch.setenv("ZFEPR_SEED", "5")
    assert main(["ramsey", "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "ramsey_summary.json").read_text())
    assert summary["seed"] == zfepr.NoiseModel.seed == 12345


def _config_file(path, settings):
    sections = {}
    for item in settings:
        key, value = item.split("=", 1)
        section, name = key.split(".", 1)
        sections.setdefault(section, []).append(f"{name} = {value}")
    path.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                            for section, lines in sections.items()))
    return str(path)


@pytest.mark.parametrize("command, settings, code", [
    ("ramsey", ["protocol.transition=st0", "noise.sigma_mhz=0.196", "protocol.t_points=16",
                "target.st0_offset_doublet_mhz=-0.03,0.03", "run.seed=7"], EXIT_OK),
    ("deer", ["protocol.couplings=0.1:0.25,0.3:0.75", "decay.enabled=yes",
              "decay.t2_nv_us=12", "protocol.tau_points=11"], EXIT_OK),
    ("bsweep", ["target.orientations=0.5,0.2,0.5;1.0,2.0,0.5", "field.b_points=5",
                "field.mode=exact", "field.direction=1,0,1"], EXIT_OK),
    ("bsweep", ["target.orientations=single", "field.b_points=5"], EXIT_OK),
    # a value is stripped and a key is case-insensitive on either route
    ("bsweep", ["field.mode= exact ", "target.A_PERP_MHZ=114", "field.b_points=5"], EXIT_OK),
    # a spaced ";" separates triples in a file too (weights sum to 1.5)
    ("bsweep", ["target.orientations=0.5,0.2,1 ; 1.0,2.0,0.5", "field.b_points=5"],
     EXIT_CONFIG),
], ids=["ramsey", "deer", "bsweep-triples", "bsweep-single", "bsweep-spaces-and-case",
        "bsweep-spaced-semicolon"])
def test_config_file_matches_overrides(command, settings, code, tmp_path, capsys):
    by_file, by_set = tmp_path / "file", tmp_path / "set"
    config = _config_file(tmp_path / "run.cfg", settings)
    assert main([command, config, "--out-dir", str(by_file), "--plot-data"]) == code
    file_err = capsys.readouterr().err
    argv = [command, "--out-dir", str(by_set), "--plot-data"]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == code
    assert capsys.readouterr().err == file_err
    if code != EXIT_OK:
        assert "orientation weights must be >= 0 and sum to 1" in file_err
        return
    names = sorted(p.name for p in by_file.iterdir())
    assert names == sorted(p.name for p in by_set.iterdir())
    for name in names:
        assert (by_file / name).read_bytes() == (by_set / name).read_bytes()
    if command == "ramsey":
        assert json.loads((by_file / "ramsey_summary.json").read_text())["seed"] == 7
    if command == "deer":
        summary = json.loads((by_file / "deer_summary.json").read_text())
        assert summary["couplings_mhz"] == [[0.1, 0.25], [0.3, 0.75]]
        assert summary["decay_enabled"] is True


@pytest.mark.parametrize("text, message", [
    ("[bogus]\nx = 1\n", "unknown config section [bogus]"),
    ("[target]\nbogus = 1\n", "unknown key 'bogus' in section [target]"),
    ("a_perp_mhz = 114\n", "malformed config"),
    ("[target]\nst0_offset_doublet_mhz = 0.1\n", "expected 2 numbers separated by ','"),
    ("[field]\ndirection = 0, 1\n", "expected 3 numbers separated by ','"),
    ("[protocol]\ncouplings = 0.1:0.5:1\n", "expected 2 numbers separated by ':'"),
], ids=["section", "key", "malformed", "pair", "triple", "coupling"])
def test_bad_config_file_is_a_config_error(text, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["bsweep", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_percent_in_a_config_file_is_literal(tmp_path):
    out = tmp_path / "res_50%"
    path = tmp_path / "run.cfg"
    path.write_text(f"[run]\nout_dir = {out}\n[field]\nb_points = 5\n")
    assert main(["bsweep", str(path)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["bsweep.csv", "bsweep_summary.json"]


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["bsweep", str(missing), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert f"config file not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bsweep", "field.direction=0,0,0"], "field direction must be nonzero"),
    (["bsweep", "field.mode=bogus"], "unknown field mode 'bogus'"),
    *[([command, "protocol.transition=bogus"],
       "bad value for protocol.transition: unknown transition 'bogus'")
      for command in ("rabi", "ramsey", "spectrum")],
    (["rabi", "protocol.couplings=0.1:0.5,0.2:0.5"], "rabi expects a single coupling strength"),
    (["ramsey", "protocol.couplings=0.1:0.5,0.2:0.5"],
     "ramsey expects a single coupling strength"),
    (["spectrum", "protocol.couplings=0.1:0.5,0.2:0.5"],
     "spectrum expects a single coupling strength"),
    *[(["spectrum", f"protocol.m_gaussians={value}"], "bad value for protocol.m_gaussians")
      for value in ("abc", "0", "5", "2.0")],
    (["bsweep", "field.b_points"], "override must look like section.key=value: 'field.b_points'"),
    (["bsweep", "b_points=5"], "override must look like section.key=value: 'b_points=5'"),
    (["linewidth", "noise.sigma_mhz=0.1,0.1,0.2"],
     "linewidth theory needs isotropic noise; set noise.sigma_mhz"),
    (["deer", "protocol.couplings=0.1:1.5,0.2:-0.5"],
     "coupling weights must be >= 0 and sum to 1"),
    *[([command, setting], f"bad value for {setting.split('=')[0]}: must be >= 0")
      for command, setting in [("rabi", "protocol.tau_us=-5"), ("ramsey", "protocol.tau_us=-5"),
                               ("spectrum", "protocol.tau_us=-5"),
                               ("deer", "protocol.tau_start_us=-3"),
                               ("deer", "protocol.tau_stop_us=-1"),
                               ("compensate", "compensation.current_stability_a=-0.004"),
                               ("compensate", "compensation.jitter_frac=-0.1")]],
    *[([command, f"protocol.dt_us={step}"], f"bad value for protocol.dt_us: must be > 0, "
       f"got '{step}'") for command, step in [("ramsey", "0"), ("spectrum", "-0.2")]],
], ids=["zero-direction", "mode", "rabi-transition", "ramsey-transition",
        "spectrum-transition", "rabi-couplings", "ramsey-couplings",
        "spectrum-couplings", "peaks-abc", "peaks-0", "peaks-5", "peaks-2.0",
        "override-without-equals", "override-without-dot", "linewidth-anisotropic",
        "deer-negative-weight", "rabi-negative-tau", "ramsey-negative-tau",
        "spectrum-negative-tau", "deer-negative-tau-start", "deer-negative-tau-stop",
        "compensate-negative-stability", "compensate-negative-jitter",
        "ramsey-zero-step", "spectrum-negative-step"])
def test_bad_setting_is_a_config_error(argv, message, tmp_path, capsys):
    command, *settings = argv
    out = tmp_path / "out"
    assert main([command, "--out-dir", str(out)]
                + [arg for setting in settings for arg in ("--set", setting)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, minimum", [("ramsey", 2), ("spectrum", 8)])
def test_a_record_too_short_names_t_points_before_any_work(command, minimum, tmp_path,
                                                           capsys, monkeypatch):
    monkeypatch.setattr(cli, "corr_ramsey_diff",
                        lambda *args: pytest.fail("the record was computed"))
    out = tmp_path / "out"
    assert main([command, "--out-dir", str(out),
                 "--set", f"protocol.t_points={minimum - 1}"]) == EXIT_CONFIG
    assert (f"bad value for protocol.t_points: {command} needs at least {minimum}, "
            f"got {minimum - 1}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m, minimum", [(2, 15), (3, 22), (4, 30)])
def test_a_fixed_peak_count_names_the_record_it_needs_before_any_work(
        m, minimum, tmp_path, capsys, monkeypatch):
    # the 4x-padded DFT has 2 t_points + 1 bins, and each Gaussian needs 15
    record = cli.corr_ramsey_diff
    monkeypatch.setattr(cli, "corr_ramsey_diff",
                        lambda *args: pytest.fail("the record was computed"))
    out = tmp_path / "out"
    argv = ["spectrum", "--out-dir", str(out), "--set", f"protocol.m_gaussians={m}"]
    assert main(argv + ["--set", f"protocol.t_points={minimum - 1}"]) == EXIT_CONFIG
    assert (f"protocol.m_gaussians = {m} needs protocol.t_points >= {minimum}, "
            f"got {minimum - 1}") in capsys.readouterr().err
    assert not out.exists()
    # at the minimum the spectrum holds enough bins for the fit, which may
    # still reject that many Gaussians on a single line (exit 3)
    monkeypatch.setattr(cli, "corr_ramsey_diff", record)
    assert main(argv + ["--set", f"protocol.t_points={minimum}"]) != EXIT_CONFIG
    assert "too few spectrum points" not in capsys.readouterr().err


def test_selftest_prints_each_worst_error_to_one_digit(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    printed = [line for line in out.splitlines() if "(" in line]
    assert len(printed) == 5
    for line in printed:
        assert re.search(r"\(\de[+-]\d\d( MHz)?\): ok$", line), line


def test_selftest_checks_the_transition_frequencies(monkeypatch, capsys):
    # the zero-field gaps come from diagonalizing the product-basis
    # hyperfine Hamiltonian, so a wrong frequency property is caught
    monkeypatch.setattr(zfepr.TargetSpec, "f_st0_mhz",
                        property(lambda self: self.a_perp_mhz + 1e-6))
    assert main(["selftest"]) == 4
    assert "selftest transition frequencies: FAIL" in capsys.readouterr().out


ST0_BAND = ["protocol.transition=st0", "protocol.dt_us=0.15",
            "protocol.band_lo_mhz=112.5", "protocol.band_hi_mhz=115.5"]


@pytest.mark.parametrize("settings, centers", [
    ([], [2.0]),
    (ST0_BAND + ["noise.sigma_mhz=0.196"], [114.0]),
    (ST0_BAND + ["noise.sigma_mhz=0.196", "target.st0_offset_doublet_mhz=-0.03,0.03"],
     [113.970, 114.029]),
    (["target.c13_splitting_mhz=0.4", "protocol.band_lo_mhz=135.5",
      "protocol.band_hi_mhz=138.5"], [136.8, 137.2]),
    # coincident components are one line, so no phantom second peak is fitted
    (ST0_BAND + ["noise.sigma_mhz=0.196", "target.st0_offset_doublet_mhz=0.03,0.03"],
     [114.0295]),
], ids=["default", "st0-noise", "st0-doublet-noise", "c13-doublet", "st0-coincident-doublet"])
def test_auto_peak_count_is_the_line_count_the_target_names(settings, centers, tmp_path):
    argv = ["spectrum", "--out-dir", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["m"] == len(centers)
    assert all(p["amplitude"] > 0 for p in summary["peaks"])
    assert [p["center_mhz"] for p in summary["peaks"]] == pytest.approx(centers, abs=1e-3)


@pytest.mark.parametrize("argv, seed, sigma", [
    (["linewidth", "CONFIG", "--seed", "1"], 1, 0.3),
    (["linewidth", "--seed", "1", "CONFIG"], 1, 0.3),
    (["linewidth", "--set", "noise.sigma_mhz=0.2", "CONFIG"], 7, 0.2),
    (["--seed", "1", "linewidth", "CONFIG"], 1, 0.3),
], ids=["seed-last", "seed-first", "set-first", "seed-before-command"])
def test_arguments_in_any_order(argv, seed, sigma, tmp_path, monkeypatch):
    config = _config_file(tmp_path / "c.ini", ["run.seed=7", "noise.sigma_mhz=0.3"])
    handler, help_text, reads = cli._COMMANDS["linewidth"]
    seeds = []
    monkeypatch.setitem(cli._COMMANDS, "linewidth",
                        (lambda c: seeds.append(c["run"]["seed"]) or handler(c), help_text,
                         reads))
    out = tmp_path / "out"
    argv = [config if arg == "CONFIG" else arg for arg in argv] + ["--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    assert seeds == [seed]
    assert json.loads((out / "linewidth_summary.json").read_text())["sigma_mhz"] == sigma


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    (["linewidth", "a.ini", "b.ini"], "unrecognized arguments: b.ini"),
], ids=["no-command", "unknown-command", "extra-positional"])
def test_bad_command_line_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    # the indented block under "commands:" that build_parser writes into the
    # description; the epilog's prose may start a line with a command name
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("commands:") == 1
    block = list(itertools.takewhile(lambda line: line.startswith("  "),
                                     lines[lines.index("commands:") + 1 :]))
    assert [line.split() for line in block] == [
        [name, *help_text.split()] for name, (_, help_text, _) in cli._COMMANDS.items()]
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out == f"zfepr {zfepr.__version__}\n"


def test_the_shared_parser_carries_no_options_to_the_next_run(tmp_path):
    # every call parses with the one parser of the process
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["compensate", "--set", "compensation.trials=3", "--seed", "7",
                 "--out-dir", str(first)]) == EXIT_OK
    assert main(["compensate", "--out-dir", str(second)]) == EXIT_OK
    summaries = [json.loads((out / "compensate_summary.json").read_text())
                 for out in (first, second)]
    assert [(s["seed"], s["trials"]) for s in summaries] == [
        (7, 3), (cli._SCHEMA["run"]["seed"][1], cli._SCHEMA["compensation"]["trials"][1])]
    assert len((second / "compensate.csv").read_text().splitlines()) == 2


def test_a_parse_after_the_first_formats_no_usage(tmp_path, monkeypatch):
    argv = ["bsweep", "--set", "field.b_points=2", "--out-dir"]
    assert main(argv + [str(tmp_path / "first")]) == EXIT_OK

    def format_usage(self):
        raise AssertionError("usage line formatted again")

    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", format_usage)
    assert main(argv + [str(tmp_path / "second")]) == EXIT_OK


def test_the_shared_parser_has_the_help_of_a_fresh_one():
    # its usage line is formatted once, when it is built
    assert cli._parser().format_help() == build_parser().format_help()
    assert cli._parser().format_usage() == build_parser().format_usage()


@pytest.mark.parametrize("value, code, enabled", [
    ("ture", EXIT_CONFIG, None),
    ("on", EXIT_OK, True),
    ("OFF", EXIT_OK, False),
])
def test_decay_switch_takes_the_config_file_booleans(value, code, enabled, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["deer", "--set", f"decay.enabled={value}", "--out-dir", str(out)]) == code
    if enabled is None:
        assert "bad value for decay.enabled" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads((out / "deer_summary.json").read_text())["decay_enabled"] is enabled


def test_tables_are_written_with_format_12g(tmp_path):
    edges = np.array([-0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, 1 / 3, 1e16, 2.5])
    columns = (edges, list(edges[::-1].tolist()), tuple(range(len(edges))))
    cli._write(str(tmp_path), {"t.csv": (("a", "b", "n"), columns)}, plot_data=True)
    rows = [[f"{x:.12g}" for x in row] for row in zip(*columns)]
    csv = (tmp_path / "t.csv").read_text().splitlines()
    assert csv == ["a,b,n"] + [",".join(row) for row in rows]
    assert csv[1:3] == ["-0,2.5,0", "1e-300,1e+16,1"]
    dat = (tmp_path / "t.dat").read_text().splitlines()
    assert dat == ["# a b n"] + [" ".join(row) for row in rows]
