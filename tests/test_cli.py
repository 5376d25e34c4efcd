import json

import zfepr.fields
from zfepr.cli import EXIT_NUMERICAL, EXIT_OK, main


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


def test_ramsey_plot_data_adds_dat_and_keeps_csv(tmp_path):
    plain, plot = tmp_path / "plain", tmp_path / "plot"
    assert main(["ramsey", "--out-dir", str(plain)]) == EXIT_OK
    assert main(["ramsey", "--out-dir", str(plot), "--plot-data"]) == EXIT_OK
    assert (plot / "ramsey.csv").read_bytes() == (plain / "ramsey.csv").read_bytes()
    dat = (plot / "ramsey.dat").read_text().splitlines()
    assert dat[0] == "# t_us signal"
    assert len(dat) == len((plain / "ramsey.csv").read_text().splitlines())


def test_spectrum_failed_gaussian_fit_is_numerical(tmp_path, capsys):
    # at dt = 0.25 us the 114 MHz line folds onto the Nyquist edge, where no
    # peak count gives an acceptable fit
    argv = ["spectrum", "--out-dir", str(tmp_path),
            "--set", "protocol.transition=st0", "--set", "noise.sigma_mhz=0.196",
            "--set", "protocol.dt_us=0.25",
            "--set", "protocol.band_lo_mhz=112.5", "--set", "protocol.band_hi_mhz=115.5"]
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
