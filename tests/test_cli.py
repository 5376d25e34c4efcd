import json
import os
import pathlib
import subprocess
import sys

import pytest

import zfepr
import zfepr.fields
from zfepr.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

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


def test_compensate_default_config(tmp_path):
    assert main(["compensate", "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "compensate_summary.json").read_text())
    assert summary["max_fit_error_a"] <= 1e-3
    assert max(abs(r) for r in summary["rms_residual_g"]) < 0.05


def test_compensate_failed_center_fit_is_numerical(tmp_path, monkeypatch, capsys):
    lm = zfepr.fields.levenberg_marquardt
    monkeypatch.setattr(zfepr.fields, "levenberg_marquardt",
                        lambda fun, p0: lm(fun, p0, max_iter=0))
    assert main(["compensate", "--out-dir", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, headers", [
    ("ramsey", {"ramsey": "# t_us signal"}),
    ("spectrum", {"ramsey": "# t_us signal", "spectrum": "# freq_MHz amplitude"}),
    ("bsweep", {"bsweep": "# B_Gauss f_ST1_low f_ST1_high f_ST0_low f_ST0_high"}),
], ids=["ramsey", "spectrum", "bsweep"])
def test_ramsey_plot_data_adds_dat_and_keeps_csv(command, headers, tmp_path):
    plain, plot = tmp_path / "plain", tmp_path / "plot"
    assert main([command, "--out-dir", str(plain)]) == EXIT_OK
    assert main([command, "--out-dir", str(plot), "--plot-data"]) == EXIT_OK
    for stem, header in headers.items():
        assert (plot / f"{stem}.csv").read_bytes() == (plain / f"{stem}.csv").read_bytes()
        dat = (plot / f"{stem}.dat").read_text().splitlines()
        assert dat[0] == header
        assert len(dat) == len((plain / f"{stem}.csv").read_text().splitlines())


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
    # at dt = 0.25 us the 114 MHz line folds onto the Nyquist edge, where no
    # peak count gives an acceptable fit
    argv = ["spectrum", "--out-dir", str(tmp_path),
            "--set", "protocol.transition=st0", "--set", "noise.sigma_mhz=0.196",
            "--set", "protocol.dt_us=0.25",
            "--set", "protocol.band_lo_mhz=112.5", "--set", "protocol.band_hi_mhz=115.5"]
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


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


@pytest.mark.parametrize("given, missing", [("band_lo_mhz", "band_hi_mhz"),
                                            ("band_hi_mhz", "band_lo_mhz")])
def test_spectrum_band_needs_both_edges(given, missing, tmp_path, capsys):
    argv = ["spectrum", "--out-dir", str(tmp_path), "--set", f"protocol.{given}=136"]
    assert main(argv) == EXIT_CONFIG
    assert f"protocol.{missing} is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ramsey", "linewidth"])
@pytest.mark.parametrize("width", ["nan", "inf"])
def test_noise_width_that_is_not_finite_is_a_config_error(command, width, tmp_path, capsys):
    argv = [command, "--out-dir", str(tmp_path), "--set", "protocol.transition=st0",
            "--set", f"noise.sigma_mhz={width}"]
    assert main(argv) == EXIT_CONFIG
    assert "must be finite and >= 0" in capsys.readouterr().err


# every float key the parser checks, with a value that is not finite
NON_FINITE = [
    "target.a_perp_mhz=inf", "target.a_par_mhz=nan", "target.c13_splitting_mhz=nan",
    "target.st0_offset_doublet_mhz=-0.03,nan", "target.orientations=0,nan,1",
    "decay.stretch_p=nan",
    "protocol.couplings=nan", "protocol.couplings=0.1:0.5,inf:0.5", "protocol.tau_us=nan",
    "protocol.tau_start_us=-inf", "protocol.tau_stop_us=inf", "protocol.theta_start_rad=nan",
    "protocol.theta_stop_rad=inf", "protocol.t_start_us=inf", "protocol.dt_us=nan",
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


@pytest.mark.parametrize("width", ["sigma_x_mhz", "sigma_y_mhz", "sigma_z_mhz"])
def test_axis_noise_width_that_is_not_finite_is_a_config_error(width, tmp_path, capsys):
    argv = ["ramsey", "--out-dir", str(tmp_path), "--set", f"noise.{width}=nan"]
    assert main(argv) == EXIT_CONFIG
    assert "must be finite and >= 0" in capsys.readouterr().err


def test_infinite_decay_times_switch_channels_off(tmp_path, capsys):
    base = ["deer", "--set", "decay.enabled=true"]
    assert main(base + ["--out-dir", str(tmp_path / "off"), "--set", "decay.t2_nv_us=inf",
                        "--set", "decay.t1rho_us=inf"]) == EXIT_OK
    assert main(["deer", "--out-dir", str(tmp_path / "none")]) == EXIT_OK
    assert ((tmp_path / "off" / "deer.csv").read_bytes()
            == (tmp_path / "none" / "deer.csv").read_bytes())
    assert main(base + ["--out-dir", str(tmp_path / "nan"), "--set", "decay.t2_nv_us=nan"]) \
        == EXIT_CONFIG
    assert "t2_nv_us must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rabi", "ramsey", "spectrum"])
def test_decay_on_a_closed_form_without_decay_is_a_config_error(command, tmp_path, capsys):
    argv = [command, "--out-dir", str(tmp_path), "--set", "decay.enabled=true",
            "--set", "decay.t2_nv_us=1"]
    assert main(argv) == EXIT_CONFIG
    assert f"{command} has no decay model" in capsys.readouterr().err


def test_spinlock_duration_is_not_a_setting(tmp_path, capsys):
    assert main(["rabi", "--out-dir", str(tmp_path), "--set", "protocol.lock_us=50"]) \
        == EXIT_CONFIG
    assert "unknown override target 'protocol.lock_us'" in capsys.readouterr().err


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
def test_noisy_st0_closed_form_does_not_depend_on_the_seed(command, tmp_path):
    written = []
    for seed in (5, 6):
        out = tmp_path / str(seed)
        argv = [command, "--seed", str(seed), "--out-dir", str(out),
                "--set", "protocol.transition=st0", "--set", "noise.sigma_mhz=0.196",
                "--set", "protocol.dt_us=0.15",
                "--set", "protocol.band_lo_mhz=112.5", "--set", "protocol.band_hi_mhz=115.5"]
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
    # a spaced ";" separates triples in a file too (weights sum to 1.5)
    ("bsweep", ["target.orientations=0.5,0.2,1 ; 1.0,2.0,0.5", "field.b_points=5"],
     EXIT_CONFIG),
], ids=["ramsey", "deer", "bsweep-triples", "bsweep-single", "bsweep-spaced-semicolon"])
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


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["bsweep", str(missing), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert f"config file not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bsweep", "field.direction=0,0,0"], "field direction must be nonzero"),
    (["bsweep", "field.mode=bogus"], "unknown field mode 'bogus'"),
    (["rabi", "protocol.couplings=0.1:0.5,0.2:0.5"], "rabi expects a single coupling strength"),
    (["ramsey", "protocol.couplings=0.1:0.5,0.2:0.5"],
     "ramsey expects a single coupling strength"),
], ids=["zero-direction", "mode", "rabi-couplings", "ramsey-couplings"])
def test_bad_setting_is_a_config_error(argv, message, tmp_path, capsys):
    command, setting = argv
    assert main([command, "--out-dir", str(tmp_path), "--set", setting]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_selftest_checks_the_transition_frequencies(monkeypatch, capsys):
    # the zero-field gaps come from diagonalizing the product-basis
    # hyperfine Hamiltonian, so a wrong frequency property is caught
    monkeypatch.setattr(zfepr.TargetSpec, "f_st0_mhz",
                        property(lambda self: self.a_perp_mhz + 1e-6))
    assert main(["selftest"]) == 4
    assert "selftest transition frequencies: FAIL" in capsys.readouterr().out
