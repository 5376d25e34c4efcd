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
    ["ramsey", "run.monte_carlo_n=0", "protocol.transition=st0", "noise.sigma_mhz=0.1"],
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
