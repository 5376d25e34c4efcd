"""Config-driven experiment runner.

Every protocol and analysis is a subcommand; parameters come from a flat,
sectioned key = value file plus ``--set section.key=value`` overrides.  Each
run writes CSV data files and a JSON summary into the output directory.

Units everywhere: frequencies MHz, times us, fields Gauss, angles rad,
currents A.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 selftest failure.
"""

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .constants import FWHM_PER_SIGMA
from .fields import (
    CoilConfig,
    ScanPlan,
    bsweep,
    compensate_3axis,
    format_compensation_report,
    write_bsweep_csv,
)
from .fitting import FitError, fit_gaussians, format_fit_report
from .hamiltonians import (
    DegenerateCrossingError,
    FieldVector,
    NoiseDraw,
    P1_BOND_ORIENTATIONS,
    ST_TRANSFORM,
    SX_HALF,
    SY_HALF,
    SZ_HALF,
    TargetSpec,
    level_shifts_exact,
    level_shifts_perturbative,
)
from .noise import NoiseModel, linewidth_stats
from .protocols import (
    corr_rabi,
    corr_ramsey_diff,
    correlation_rabi_sequence,
    correlation_ramsey_sequences,
    deer_sequence,
    deer_signal,
    deer_signal_general,
    simulate_sequence,
    synthesize_ramsey_series,
)
from .pulses import DecayModel
from .spectra import (
    FoldAmbiguityError,
    dft_spectrum,
    write_csv,
    write_spectrum_csv,
    write_timeseries_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SELFTEST = 4

DEFAULT_SEED = NoiseModel.seed


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _floats(text, n, sep=","):
    """Exactly ``n`` finite numbers separated by ``sep``, as a tuple."""
    parts = text.split(sep)
    if len(parts) != n:
        raise ConfigError(f"expected {n} numbers separated by {sep!r}, got {text!r}")
    return tuple(_finite(p) for p in parts)


def _parse_couplings(text):
    """"0.1" or "0.1:0.5, 0.2:0.5" (coupling_MHz:weight)."""
    if ":" not in text:
        return _finite(text)
    return tuple(_floats(item, 2, ":") for item in text.split(","))


def _parse_count(text):
    n = int(text)
    if n < 1:
        raise ValueError(f"need at least 1, got {n}")
    return n


def _parse_orientations(text):
    """"p1_bonds", "single", or semicolon-separated theta,phi,weight triples."""
    if text == "p1_bonds":
        return P1_BOND_ORIENTATIONS
    if text == "single":
        return ((0.0, 0.0, 1.0),)
    return tuple(_floats(item, 3) for item in text.split(";"))


# section -> key -> (parser, default).  Unknown sections or keys are errors.
# Floats must be finite, but for the decay times (inf switches a channel off)
# and the noise widths (NoiseModel and linewidth_stats check them by name).
_SCHEMA = {
    "target": {
        "a_perp_mhz": (_finite, TargetSpec.a_perp_mhz),
        "a_par_mhz": (_finite, TargetSpec.a_par_mhz),
        "c13_splitting_mhz": (_finite, TargetSpec.c13_splitting_mhz),
        "st0_offset_doublet_mhz": (lambda s: _floats(s, 2), TargetSpec.st0_offset_doublet_mhz),
        "orientations": (_parse_orientations, TargetSpec.orientations),
    },
    "noise": {
        "sigma_mhz": (float, None),
        "sigma_x_mhz": (float, 0.0),
        "sigma_y_mhz": (float, 0.0),
        "sigma_z_mhz": (float, 0.0),
    },
    "decay": {
        "enabled": (lambda s: s.lower() in ("1", "true", "yes"), False),
        "t2_nv_us": (float, DecayModel.t2_nv_us),
        "stretch_p": (_finite, DecayModel.stretch_p),
        "t1rho_us": (float, DecayModel.t1rho_us),
    },
    "protocol": {
        "transition": (str, "st1"),
        "couplings": (_parse_couplings, 0.1),
        "tau_us": (_finite, 5.0),
        "tau_start_us": (_finite, 0.0),
        "tau_stop_us": (_finite, 20.0),
        "tau_points": (_parse_count, 201),
        "theta_start_rad": (_finite, 0.0),
        "theta_stop_rad": (_finite, 4.0 * math.pi),
        "theta_points": (_parse_count, 201),
        "t_start_us": (_finite, 0.0),
        "dt_us": (_finite, 0.2),
        "t_points": (_parse_count, 256),
        "band_lo_mhz": (_finite, None),
        "band_hi_mhz": (_finite, None),
        "m_gaussians": (str, "auto"),
    },
    "field": {
        "b_start_g": (_finite, 0.0),
        "b_stop_g": (_finite, 3.0),
        "b_points": (_parse_count, 13),
        "direction": (lambda s: _floats(s, 3), (0.0, 0.0, 1.0)),
        "mode": (str, "perturbative"),
    },
    "compensation": {
        "true_bx_g": (_finite, 0.35),
        "true_by_g": (_finite, -0.52),
        "true_bz_g": (_finite, 0.47),
        "coefficient_g_per_a": (_finite, CoilConfig.coefficient_g_per_a),
        "current_stability_a": (_finite, CoilConfig.current_stability_a),
        "scan_i_min_a": (_finite, ScanPlan.i_min_a),
        "scan_i_max_a": (_finite, ScanPlan.i_max_a),
        "scan_points": (_parse_count, ScanPlan.n_points),
        "base_width_mhz": (_finite, ScanPlan.base_width_mhz),
        "jitter_frac": (_finite, ScanPlan.jitter_frac),
        "trials": (_parse_count, 1),
    },
    "run": {
        "seed": (int, None),
        "out_dir": (str, "out"),
    },
}


def load_config(path, overrides=()):
    """Parse the sectioned key = value file, apply overrides, reject unknowns."""
    raw = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                raw.setdefault(section, {})[key] = value

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        raw.setdefault(section, {})[key] = value

    config = {}
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (parse, default) in keys.items():
            if section in raw and key in raw[section]:
                try:
                    config[section][key] = parse(raw[section][key])
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            else:
                config[section][key] = default
    return config


def _target_spec(config):
    return TargetSpec(**config["target"])


def _noise_model(config, seed):
    n = config["noise"]
    if n["sigma_mhz"] is not None:
        model = NoiseModel.isotropic(n["sigma_mhz"], seed=seed)
    else:
        model = NoiseModel(n["sigma_x_mhz"], n["sigma_y_mhz"], n["sigma_z_mhz"], seed=seed)
    if max(model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz) == 0:
        return None
    return model


def _decay_model(config):
    d = config["decay"]
    if not d["enabled"]:
        return None
    return DecayModel(**{key: value for key, value in d.items() if key != "enabled"})


def _resolve_seed(args, config):
    if args.seed is not None:
        return args.seed
    if config["run"]["seed"] is not None:
        return config["run"]["seed"]
    return DEFAULT_SEED


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out(args, config, name):
    out_dir = args.out_dir or config["run"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_deer(args, config, seed):
    p = config["protocol"]
    decay = _decay_model(config)
    taus = np.linspace(p["tau_start_us"], p["tau_stop_us"], p["tau_points"])
    signal = np.array([deer_signal(tau, p["couplings"], decay) for tau in taus])
    write_csv(_out(args, config, "deer.csv"), ("tau_us", "signal"),
              (taus, signal), args.plot_data)
    _write_json(_out(args, config, "deer_summary.json"), {
        "couplings_mhz": p["couplings"],
        "decay_enabled": decay is not None,
        "signal_min": float(signal.min()),
        "signal_max": float(signal.max()),
        "points": len(taus),
    })
    return EXIT_OK


def _cmd_rabi(args, config, seed):
    p = config["protocol"]
    spec = _target_spec(config)
    if isinstance(p["couplings"], tuple):
        raise ConfigError("rabi expects a single coupling strength")
    thetas = np.linspace(p["theta_start_rad"], p["theta_stop_rad"], p["theta_points"])
    corr = corr_rabi(p["transition"], thetas, p["tau_us"], p["couplings"])
    signal = 0.5 * (1.0 + corr)
    # spot-check the closed form against the density-matrix simulator
    check = simulate_sequence(
        correlation_rabi_sequence(p["transition"], float(thetas[len(thetas) // 2]),
                                  p["tau_us"]),
        spec, p["couplings"])
    if abs(check - signal[len(thetas) // 2]) > 1e-8:
        raise NumericalError("closed form disagrees with simulator")
    write_csv(_out(args, config, "rabi.csv"), ("theta_rad", "signal"),
              (thetas, signal), args.plot_data)
    _write_json(_out(args, config, "rabi_summary.json"), {
        "transition": p["transition"],
        "coupling_mhz": p["couplings"],
        "tau_us": p["tau_us"],
        "contrast": float(signal.max() - signal.min()),
    })
    return EXIT_OK


def _ramsey_series(args, config, seed):
    p = config["protocol"]
    spec = _target_spec(config)
    noise = _noise_model(config, seed)
    if isinstance(p["couplings"], tuple):
        raise ConfigError("ramsey expects a single coupling strength")
    # the grid includes t = 0: the spectrum is built from the even extension
    # of the record, which needs the zero-time sample
    t_grid = p["t_start_us"] + p["dt_us"] * np.arange(p["t_points"])
    series = synthesize_ramsey_series(p["transition"], t_grid, spec, p["couplings"],
                                      p["tau_us"], noise=noise)
    return series, spec, noise


def _cmd_ramsey(args, config, seed):
    series, spec, noise = _ramsey_series(args, config, seed)
    write_timeseries_csv(series, _out(args, config, "ramsey.csv"), args.plot_data)
    _write_json(_out(args, config, "ramsey_summary.json"), {
        "transition": config["protocol"]["transition"],
        "points": len(series),
        "dt_us": series.dt,
        "noise": None if noise is None else
            [noise.sigma_x_mhz, noise.sigma_y_mhz, noise.sigma_z_mhz],
        "seed": seed,
    })
    return EXIT_OK


def _cmd_spectrum(args, config, seed):
    p = config["protocol"]
    lo, hi = p["band_lo_mhz"], p["band_hi_mhz"]
    if (lo is None) != (hi is None):
        missing, given = ("hi", "lo") if hi is None else ("lo", "hi")
        raise ConfigError(f"protocol.band_{missing}_mhz is required when "
                          f"protocol.band_{given}_mhz is set")
    band = None if lo is None else (lo, hi)
    series, spec, noise = _ramsey_series(args, config, seed)
    spectrum = dft_spectrum(series, band_hint=band)
    m = p["m_gaussians"]
    fit = fit_gaussians(spectrum, m if m == "auto" else int(m))
    if not fit.converged:
        raise NumericalError("gaussian fit did not converge")

    write_timeseries_csv(series, _out(args, config, "ramsey.csv"), args.plot_data)
    write_spectrum_csv(spectrum, _out(args, config, "spectrum.csv"), args.plot_data)
    with open(_out(args, config, "spectrum_fit.txt"), "w", newline="\n") as fh:
        fh.write(format_fit_report(fit, label=p["transition"]))
    _write_json(_out(args, config, "spectrum_summary.json"), {
        "transition": p["transition"],
        "band_origin_mhz": spectrum.band_origin,
        "m": fit.m,
        "residual_norm": fit.residual_norm,
        "peaks": [
            {
                "center_mhz": pk.center_mhz,
                "center_se_mhz": pk.center_se_mhz,
                "fwhm_mhz": pk.fwhm_mhz,
                "fwhm_se_mhz": pk.fwhm_se_mhz,
                "amplitude": pk.amplitude,
                "amplitude_se": pk.amplitude_se,
            }
            for pk in fit.peaks
        ],
        "seed": seed,
    })
    return EXIT_OK


def _cmd_bsweep(args, config, seed):
    f = config["field"]
    spec = _target_spec(config)
    direction = np.asarray(f["direction"], dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ConfigError("field direction must be nonzero")
    direction = direction / norm
    b_values = np.linspace(f["b_start_g"], f["b_stop_g"], f["b_points"])
    if f["mode"] not in ("perturbative", "exact"):
        raise ConfigError(f"unknown field mode {f['mode']!r}")
    points = bsweep(spec, b_values, direction, mode=f["mode"])
    write_bsweep_csv(points, _out(args, config, "bsweep.csv"), args.plot_data)
    _write_json(_out(args, config, "bsweep_summary.json"), {
        "mode": f["mode"],
        "direction": list(direction),
        "b_range_g": [float(b_values[0]), float(b_values[-1])],
        "st1_split_mhz_at_max_b": points[-1].f_st1_high - points[-1].f_st1_low,
        "st0_shift_mhz_at_max_b": 0.5 * (points[-1].f_st0_low + points[-1].f_st0_high)
            - 0.5 * (points[0].f_st0_low + points[0].f_st0_high),
    })
    return EXIT_OK


def _cmd_compensate(args, config, seed):
    c = config["compensation"]
    coil = CoilConfig(coefficient_g_per_a=c["coefficient_g_per_a"],
                      current_stability_a=c["current_stability_a"])
    plan = ScanPlan(i_min_a=c["scan_i_min_a"], i_max_a=c["scan_i_max_a"],
                    n_points=c["scan_points"], base_width_mhz=c["base_width_mhz"],
                    jitter_frac=c["jitter_frac"])
    true_field = FieldVector(c["true_bx_g"], c["true_by_g"], c["true_bz_g"])

    rows = []
    first = None
    for trial in range(c["trials"]):
        trial_seed = np.random.SeedSequence(seed, spawn_key=(trial,))
        result = compensate_3axis(true_field, coil, plan, seed=trial_seed)
        if first is None:
            first = result
        rows.append((trial, result.currents_a["X"], result.currents_a["Y"],
                     result.currents_a["Z"], *result.residual_g))
    cols = list(zip(*rows))
    write_csv(_out(args, config, "compensate.csv"),
              ("trial", "I_X_A", "I_Y_A", "I_Z_A",
               "residual_x_G", "residual_y_G", "residual_z_G"),
              cols, args.plot_data)
    with open(_out(args, config, "compensate_report.txt"), "w", newline="\n") as fh:
        fh.write(format_compensation_report(first))
    residuals = np.array([row[4:] for row in rows])
    _write_json(_out(args, config, "compensate_summary.json"), {
        "trials": c["trials"],
        "rms_residual_g": [float(x) for x in np.sqrt((residuals**2).mean(axis=0))],
        "max_fit_error_a": max(first.fit_errors_a.values()),
        "seed": seed,
    })
    return EXIT_OK


def _cmd_linewidth(args, config, seed):
    spec = _target_spec(config)
    n = config["noise"]
    sigma = n["sigma_mhz"]
    if sigma is None:
        if not (n["sigma_x_mhz"] == n["sigma_y_mhz"] == n["sigma_z_mhz"]):
            raise ConfigError("linewidth theory needs isotropic noise; set noise.sigma_mhz")
        sigma = n["sigma_x_mhz"]
    stats = linewidth_stats(sigma, spec)
    payload = {
        "sigma_mhz": sigma,
        "sigma_st1_mhz": stats.sigma_st1_mhz,
        "sigma_st0_mhz": stats.sigma_st0_mhz,
        "chi": stats.chi if math.isfinite(stats.chi) else "inf",
        "fwhm_st1_mhz": stats.sigma_st1_mhz * FWHM_PER_SIGMA,
    }
    _write_json(_out(args, config, "linewidth_summary.json"), payload)
    for key, value in payload.items():
        print(f"{key} = {value}")
    return EXIT_OK


def _cmd_selftest(args, config, seed):
    spec = _target_spec(config)
    rng = np.random.default_rng(seed)
    failures = []

    def check(name, ok):
        print(f"selftest {name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    # diagonalize A_perp (SxIx + SyIy) + A_par SzIz in the product basis and
    # label each singlet-triplet state by the eigenvector it overlaps most
    h_bare = (spec.a_perp_mhz * (np.kron(SX_HALF, SX_HALF) + np.kron(SY_HALF, SY_HALF))
              + spec.a_par_mhz * np.kron(SZ_HALF, SZ_HALF))
    vals, vecs = np.linalg.eigh(h_bare)
    t_plus, s0, t0, t_minus = vals[np.argmax(np.abs(ST_TRANSFORM @ vecs) ** 2, axis=1)]
    check("transition frequencies",
          max(abs(t0 - s0 - spec.f_st0_mhz), abs(t_plus - s0 - spec.f_st1_mhz),
              abs(t_minus - s0 - spec.f_st1_mhz)) < 1e-9)

    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(0.5, 10.0)
        c = rng.uniform(0.05, 1.0)
        sim = simulate_sequence(deer_sequence(theta, tau), spec, c)
        worst = max(worst, abs(sim - deer_signal_general(theta, tau, c)))
    check(f"deer closed form vs simulator ({worst:.2e})", worst < 1e-9)

    worst = 0.0
    for transition in ("st1", "st0"):
        for _ in range(5):
            theta = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(0.5, 10.0)
            c = rng.uniform(0.05, 1.0)
            sim = simulate_sequence(
                correlation_rabi_sequence(transition, theta, tau), spec, c)
            worst = max(worst, abs(sim - 0.5 * (1 + corr_rabi(transition, theta, tau, c))))
    check(f"correlation rabi vs simulator ({worst:.2e})", worst < 1e-9)

    worst = 0.0
    for transition in ("st1", "st0"):
        for _ in range(3):
            t = rng.uniform(0.0, 0.1)
            tau = rng.uniform(0.5, 10.0)
            c = rng.uniform(0.05, 1.0)
            sig, ref = correlation_ramsey_sequences(transition, t, tau)
            diff = (simulate_sequence(sig, spec, c) - simulate_sequence(ref, spec, c))
            closed = 0.5 * corr_ramsey_diff(transition, t, tau, c, spec=spec)
            worst = max(worst, abs(diff - closed))
    check(f"correlation ramsey vs simulator ({worst:.2e})", worst < 1e-9)

    worst = 0.0
    for _ in range(10):
        delta = rng.standard_normal(3)
        delta *= rng.uniform(0.1, 1.0) / np.linalg.norm(delta)
        draw = NoiseDraw(*delta)
        worst = max(worst, float(np.abs(
            level_shifts_exact(draw, spec) - level_shifts_perturbative(draw, spec)).max()))
    check(f"perturbative vs exact shifts ({worst:.2e} MHz)", worst < 1e-3)

    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return EXIT_SELFTEST
    print("selftest: all checks passed")
    return EXIT_OK


_COMMANDS = {
    "deer": (_cmd_deer, "interrogation signal versus evolution time"),
    "rabi": (_cmd_rabi, "correlation signal versus RF flip angle"),
    "ramsey": (_cmd_ramsey, "differential correlation time series"),
    "spectrum": (_cmd_spectrum, "ramsey series -> DFT -> gaussian fit"),
    "bsweep": (_cmd_bsweep, "transition frequencies versus field"),
    "compensate": (_cmd_compensate, "three-axis residual-field compensation"),
    "linewidth": (_cmd_linewidth, "noise linewidth theory report"),
    "selftest": (_cmd_selftest, "closed form vs simulator battery"),
}

_EPILOG = """\
CSV columns and units:
  deer.csv        tau_us, signal                  (dimensionless PL signal)
  rabi.csv        theta_rad, signal
  ramsey.csv      t_us, signal                    (differential)
  spectrum.csv    freq_MHz, amplitude
  bsweep.csv      B_Gauss, f_ST1_low, f_ST1_high, f_ST0_low, f_ST0_high  (MHz)
  compensate.csv  trial, I_X_A, I_Y_A, I_Z_A, residual_{x,y,z}_G

The config file is sectioned key = value text: [section] headers over
key = value lines, with the sections and keys of --set.  Lines starting
with # or ; are comments, as is the rest of a line from a spaced " #".
Seed resolution order: --seed, [run] seed, builtin default.
Different seeds give independent random streams.
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zfepr",
        description=__doc__,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zfepr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="sectioned key = value config file (defaults apply if omitted)")
        cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="SECTION.KEY=VALUE", help="override one config value")
        cmd.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        cmd.add_argument("--out-dir", default=None, help="output directory")
        cmd.add_argument("--plot-data", action="store_true",
                         help="also write whitespace-delimited .dat files")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        if config["decay"]["enabled"] and args.command in ("rabi", "ramsey", "spectrum"):
            raise ConfigError(f"{args.command} has no decay model; decay.enabled is for deer")
        seed = _resolve_seed(args, config)
        handler, _ = _COMMANDS[args.command]
        return handler(args, config, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FitError, FoldAmbiguityError,
            DegenerateCrossingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
