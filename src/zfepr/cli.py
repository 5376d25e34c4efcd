"""Config-driven experiment runner.

Every protocol and analysis is a subcommand, and every subcommand takes the
same arguments, in any order: an optional config file, ``--set``,
``--seed``, ``--out-dir`` and ``--plot-data``.  Parameters come from a flat,
sectioned key = value file plus ``--set section.key=value`` overrides.  A
subcommand computes its results and returns them by file name: CSV tables, a
JSON summary and text reports.  ``main`` writes every file a subcommand
returns into the output directory; a failed run writes none.

Units everywhere: frequencies MHz, times us, fields Gauss, angles rad,
currents A.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 selftest failure.
"""

import argparse
import configparser
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .constants import FWHM_PER_SIGMA
from .fields import CoilConfig, ScanPlan, ScanWindowError, bsweep, compensate_3axis
from .fitting import _BINS_PER_PEAK, _MAX_PEAKS, FitError, fit_gaussians
from .hamiltonians import (
    DegenerateCrossingError,
    FieldVector,
    NoiseDraw,
    P1_BOND_ORIENTATIONS,
    ST_TRANSFORM,
    SX_HALF,
    SY_HALF,
    SZ_HALF,
    TRANSITIONS,
    TargetSpec,
    _line,
    _noise_limit_mhz,
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
    monte_carlo_signal,
    simulate_sequence,
)
from .pulses import DecayModel
from .spectra import FoldAmbiguityError, TimeSeries, dft_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SELFTEST = 4


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


class SelftestFailure(Exception):
    pass


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _non_negative(text):
    value = _finite(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {text.strip()!r}")
    return value


def _positive(text):
    value = _finite(text)
    if not value > 0:
        raise ValueError(f"must be > 0, got {text.strip()!r}")
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


def _parse_seed(text):
    """The random seed of ``--seed`` and ``run.seed``: a whole number >= 0."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _parse_peak_count(text):
    """"auto" (the line count the target names) or a fixed count of Gaussians."""
    if text == "auto":
        return text
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= _MAX_PEAKS:
        raise ValueError(f"must be auto or a whole number 1..{_MAX_PEAKS}, got {text!r}")
    return n


def _choice(what, *choices):
    """A parser that takes one of ``choices`` and names anything else as an
    unknown ``what``."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"unknown {what} {text!r}, must be one of {', '.join(choices)}")
        return text
    return parse


def _parse_bool(text):
    """The booleans of a config file: 1/yes/true/on or 0/no/false/off."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"must be one of {', '.join(states)}, got {text!r}")
    return states[text.lower()]


def _parse_widths(text):
    """One noise width (MHz) for every axis, or three: x, y, z."""
    widths = tuple(float(w) for w in text.split(","))
    if len(widths) not in (1, 3):
        raise ValueError(f"expected 1 or 3 widths separated by ',', got {text!r}")
    return widths * (3 // len(widths))


def _parse_orientations(text):
    """"p1_bonds", "single", or semicolon-separated theta,phi,weight triples."""
    if text == "p1_bonds":
        return P1_BOND_ORIENTATIONS
    if text == "single":
        return ((0.0, 0.0, 1.0),)
    return tuple(_floats(item, 3) for item in text.split(";"))


# section -> key -> (parser, default[, the subcommands that read the key]).
# A key without a reader list is read by every subcommand that reads its
# section (see _COMMANDS).  Unknown sections or keys are errors.  Floats must
# be finite (interrogation times also >= 0, the record's time step > 0), but
# for the echo time (inf switches the echo decay off) and the noise widths
# (NoiseModel checks them).
_SCHEMA = {
    "target": {
        "a_perp_mhz": (_finite, TargetSpec.a_perp_mhz),
        "a_par_mhz": (_finite, TargetSpec.a_par_mhz),
        "c13_splitting_mhz": (_finite, TargetSpec.c13_splitting_mhz,
                              ("ramsey", "spectrum", "bsweep")),
        "st0_offset_doublet_mhz": (lambda s: _floats(s, 2), TargetSpec.st0_offset_doublet_mhz,
                                   ("ramsey", "spectrum", "bsweep")),
        "orientations": (_parse_orientations, TargetSpec.orientations, ("bsweep",)),
    },
    "noise": {
        "sigma_mhz": (_parse_widths, (0.0, 0.0, 0.0)),
    },
    "decay": {
        "enabled": (_parse_bool, False),
        "t2_nv_us": (float, DecayModel.t2_nv_us),
        "stretch_p": (_finite, DecayModel.stretch_p),
    },
    "protocol": {
        "transition": (_choice("transition", *TRANSITIONS), "st1",
                       ("rabi", "ramsey", "spectrum")),
        "couplings": (_parse_couplings, 0.1),
        "tau_us": (_non_negative, 5.0, ("rabi", "ramsey", "spectrum")),
        "tau_start_us": (_non_negative, 0.0, ("deer",)),
        "tau_stop_us": (_non_negative, 20.0, ("deer",)),
        "tau_points": (_parse_count, 201, ("deer",)),
        "theta_start_rad": (_finite, 0.0, ("rabi",)),
        "theta_stop_rad": (_finite, 4.0 * math.pi, ("rabi",)),
        "theta_points": (_parse_count, 201, ("rabi",)),
        "dt_us": (_positive, 0.2, ("ramsey", "spectrum")),
        "t_points": (_parse_count, 256, ("ramsey", "spectrum")),
        "band_lo_mhz": (_finite, None, ("spectrum",)),
        "band_hi_mhz": (_finite, None, ("spectrum",)),
        "m_gaussians": (_parse_peak_count, "auto", ("spectrum",)),
    },
    "field": {
        "b_start_g": (_finite, 0.0),
        "b_stop_g": (_finite, 3.0),
        "b_points": (_parse_count, 13),
        "direction": (lambda s: _floats(s, 3), (0.0, 0.0, 1.0)),
        "mode": (_choice("field mode", "perturbative", "exact"), "perturbative"),
    },
    "compensation": {
        "true_bx_g": (_finite, 0.35),
        "true_by_g": (_finite, -0.52),
        "true_bz_g": (_finite, 0.47),
        "coefficient_g_per_a": (_finite, CoilConfig.coefficient_g_per_a),
        "current_stability_a": (_non_negative, CoilConfig.current_stability_a),
        "scan_i_min_a": (_finite, ScanPlan.i_min_a),
        "scan_i_max_a": (_finite, ScanPlan.i_max_a),
        "scan_points": (_parse_count, ScanPlan.n_points),
        "base_width_mhz": (_finite, ScanPlan.base_width_mhz),
        "jitter_frac": (_non_negative, ScanPlan.jitter_frac),
        "trials": (_parse_count, 1),
    },
    "run": {
        "seed": (_parse_seed, NoiseModel.seed),
        "out_dir": (str, "out"),
    },
}


def load_config(command, path, overrides=()):
    """Parse the sectioned key = value file, apply overrides, reject unknowns,
    and reject every setting that the subcommand ``command`` never reads (of
    a section it has no model for, of a key only other subcommands read, or
    of a decay parameter while decay is off), rather than ignore it."""
    raw = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
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
        # key and value read as a file's are: stripped, the key lower-cased
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip().lower()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        raw.setdefault(section, {})[key] = value.strip()

    config, unread = {}, []
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (parse, default, *readers) in keys.items():
            if section in raw and key in raw[section]:
                try:
                    config[section][key] = parse(raw[section][key])
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
                if readers and command not in readers[0]:
                    unread.append(f"{section}.{key} (read by {', '.join(readers[0])})")
            else:
                config[section][key] = default

    # values are parsed first, so a bad value is reported as such anywhere
    for section, keys in raw.items():
        if section != "run" and section not in _COMMANDS[command][2]:
            readers = [name for name, (*_, reads) in _COMMANDS.items() if section in reads]
            raise ConfigError(
                f"{command} has no {section} model, so it cannot use "
                f"{', '.join(f'{section}.{key}' for key in keys)}; "
                f"[{section}] settings are for {', '.join(readers)}")
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")
    params = [f"decay.{key}" for key in raw.get("decay", {}) if key != "enabled"]
    if params and not config["decay"]["enabled"]:
        raise ConfigError(f"decay is off, so {command} cannot use {', '.join(params)}; "
                          "set decay.enabled = true")
    # deer alone sums over several couplings
    if command != "deer" and isinstance(config["protocol"]["couplings"], tuple):
        raise ConfigError(f"{command} expects a single coupling strength")
    return config


def _target_spec(config):
    return TargetSpec(**config["target"])


def _noise_model(config, spec):
    """The configured noise, None if every width is 0.  A width past the
    perturbative limit of the target ``spec`` is a config error: the noise
    averages and the linewidth theory rest on second-order noise shifts."""
    widths = config["noise"]["sigma_mhz"]
    model = NoiseModel(*widths, seed=config["run"]["seed"])
    limit = _noise_limit_mhz(spec)
    if max(widths) > limit:
        raise ConfigError(f"noise.sigma_mhz: the largest width, {max(widths):g} MHz, is past "
                          f"the perturbative limit a_perp/10 = {limit:g} MHz of the target")
    return model if any(widths) else None


def _decay_model(config):
    d = config["decay"]
    if not d["enabled"]:
        return None
    return DecayModel(**{key: value for key, value in d.items() if key != "enabled"})


def _write(out_dir, files, plot_data):
    """Write ``{name: content}`` into ``out_dir``, made if there is a file.

    A (header, columns) table becomes CSV: each column is converted once to
    Python floats, and each row is formatted by one ``%.12g`` template, the
    text of ``format(x, ".12g")``.  With ``plot_data`` it gets a
    space-delimited ``.dat`` twin whose header line is commented with
    ``# ``.  A dict becomes sorted JSON, a string plain text.  Each file is
    written in one piece.
    """
    def table(header, rows, sep):
        line = sep.join(["%.12g"] * len(header)) + "\n"
        return sep.join(header) + "\n" + "".join([line % row for row in rows])

    if files:
        os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, dict):
            content = json.dumps(content, indent=2, sort_keys=True) + "\n"
        if isinstance(content, str):
            texts = {path: content}
        else:
            header, columns = content
            rows = list(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
            texts = {path: table(header, rows, ",")}
            if plot_data:
                texts[os.path.splitext(path)[0] + ".dat"] = "# " + table(header, rows, " ")
        for target, text in texts.items():
            with open(target, "w", newline="\n") as fh:
                fh.write(text)


def format_fit_report(result, label="spectrum"):
    """Structured-text fit report: one line per peak with standard errors."""
    lines = [
        f"# gaussian fit: {label}",
        f"peaks = {result.m}",
        f"baseline = {result.baseline:.6g}",
        f"residual_norm = {result.residual_norm:.6g}",
        f"converged = {str(result.converged).lower()}",
    ]
    for i, p in enumerate(result.peaks, start=1):
        lines.append(
            f"peak{i}: center_MHz = {p.center_mhz:.6f} +- {p.center_se_mhz:.6f}"
            f" ; fwhm_MHz = {p.fwhm_mhz:.6f} +- {p.fwhm_se_mhz:.6f}"
            f" ; amplitude = {p.amplitude:.6g} +- {p.amplitude_se:.3g}"
        )
    return "\n".join(lines) + "\n"


def format_compensation_report(result):
    """Trial 0 of a :class:`~zfepr.fields.CompensationResult`: per axis the
    applied current and its fit error, then the residual field."""
    lines = ["# three-axis compensation"]
    for axis in ("Z", "Y", "X"):
        lines.append(
            f"axis {axis}: current_A = {result.currents_a[axis][0]:+.6f}"
            f" ; fit_error_A = {result.fit_errors_a[axis][0]:.6f}"
        )
    rx, ry, rz = result.residual_g[0]
    lines.append(f"residual_G = ({rx:+.6f}, {ry:+.6f}, {rz:+.6f})")
    lines.append(f"residual_abs_G = {np.abs(result.residual_g[0]).max():.6f} (max axis)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_deer(config):
    p = config["protocol"]
    decay = _decay_model(config)
    taus = np.linspace(p["tau_start_us"], p["tau_stop_us"], p["tau_points"])
    signal = deer_signal(taus, p["couplings"], decay)
    return {
        "deer.csv": (("tau_us", "signal"), (taus, signal)),
        "deer_summary.json": {
            "couplings_mhz": p["couplings"],
            "decay_enabled": decay is not None,
            "signal_min": float(signal.min()),
            "signal_max": float(signal.max()),
            "points": len(taus),
        },
    }


def _cmd_rabi(config):
    p = config["protocol"]
    thetas = np.linspace(p["theta_start_rad"], p["theta_stop_rad"], p["theta_points"])
    corr = corr_rabi(p["transition"], thetas, p["tau_us"], p["couplings"])
    signal = 0.5 * (1.0 + corr)
    # spot-check the closed form against the density-matrix simulator; the
    # correlation Rabi signal does not depend on the hyperfine constants
    check = simulate_sequence(
        correlation_rabi_sequence(p["transition"], float(thetas[len(thetas) // 2]),
                                  p["tau_us"]),
        TargetSpec(), p["couplings"])
    if abs(check - signal[len(thetas) // 2]) > 1e-8:
        raise NumericalError("closed form disagrees with simulator")
    return {
        "rabi.csv": (("theta_rad", "signal"), (thetas, signal)),
        "rabi_summary.json": {
            "transition": p["transition"],
            "coupling_mhz": p["couplings"],
            "tau_us": p["tau_us"],
            "contrast": float(signal.max() - signal.min()),
        },
    }


#: Fewest samples per record: a TimeSeries takes 2, dft_spectrum 8.
_MIN_T_POINTS = {"ramsey": 2, "spectrum": 8}


def _ramsey_series(config, command):
    p = config["protocol"]
    if p["t_points"] < _MIN_T_POINTS[command]:
        raise ConfigError(f"bad value for protocol.t_points: {command} needs at least "
                          f"{_MIN_T_POINTS[command]}, got {p['t_points']}")
    m = p["m_gaussians"]
    # the 4x zero-padded DFT of a record has 2 t_points + 1 bins
    if m != "auto" and 2 * p["t_points"] + 1 < _BINS_PER_PEAK * m:
        raise ConfigError(f"protocol.m_gaussians = {m} needs protocol.t_points >= "
                          f"{math.ceil((_BINS_PER_PEAK * m - 1) / 2)}, got {p['t_points']}")
    spec = _target_spec(config)
    noise = _noise_model(config, spec)
    # the grid starts at t = 0: the spectrum is built from the even extension
    # of the record, which needs the zero-time sample
    t_grid = p["dt_us"] * np.arange(p["t_points"])
    values = corr_ramsey_diff(p["transition"], t_grid, p["tau_us"], p["couplings"], noise, spec)
    return TimeSeries(t_grid, values), noise


def _ramsey_table(series):
    return ("t_us", "signal"), (series.times, series.values)


def _cmd_ramsey(config):
    series, noise = _ramsey_series(config, "ramsey")
    return {
        "ramsey.csv": _ramsey_table(series),
        "ramsey_summary.json": {
            "transition": config["protocol"]["transition"],
            "points": len(series),
            "dt_us": series.dt,
            "noise": None if noise is None else noise.widths.tolist(),
            "seed": config["run"]["seed"],
        },
    }


def _cmd_spectrum(config):
    p = config["protocol"]
    lo, hi = p["band_lo_mhz"], p["band_hi_mhz"]
    if (lo is None) != (hi is None):
        missing, given = ("hi", "lo") if hi is None else ("lo", "hi")
        raise ConfigError(f"protocol.band_{missing}_mhz is required when "
                          f"protocol.band_{given}_mhz is set")
    band = None if lo is None else (lo, hi)
    series, _ = _ramsey_series(config, "spectrum")
    if np.all(series.values == series.values[0]):
        raise ConfigError("the ramsey record is constant: protocol.couplings and "
                          "protocol.tau_us leave the correlation no contrast, so there is "
                          "no line to fit")
    spectrum = dft_spectrum(series, band_hint=band)
    m = p["m_gaussians"]
    if m == "auto":
        # choose among the counts up to the lines the target puts there
        m = tuple(range(1, len(_line(_target_spec(config), p["transition"])[0]) + 1))
    fit = fit_gaussians(spectrum, m)

    return {
        "ramsey.csv": _ramsey_table(series),
        "spectrum.csv": (("freq_MHz", "amplitude"), (spectrum.freqs, spectrum.amps)),
        "spectrum_fit.txt": format_fit_report(fit, label=p["transition"]),
        "spectrum_summary.json": {
            "transition": p["transition"],
            "band_origin_mhz": spectrum.band_origin,
            "m": fit.m,
            "residual_norm": fit.residual_norm,
            "peaks": [dataclasses.asdict(pk) for pk in fit.peaks],
            "seed": config["run"]["seed"],
        },
    }


def _cmd_bsweep(config):
    f = config["field"]
    spec = _target_spec(config)
    direction = np.asarray(f["direction"], dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ConfigError("field direction must be nonzero")
    direction = direction / norm
    b_values = np.linspace(f["b_start_g"], f["b_stop_g"], f["b_points"])
    table = bsweep(spec, b_values, direction, mode=f["mode"])
    _, st1_low, st1_high, st0_low, st0_high = table.T
    return {
        "bsweep.csv": (("B_Gauss", "f_ST1_low", "f_ST1_high", "f_ST0_low", "f_ST0_high"),
                       table.T),
        "bsweep_summary.json": {
            "mode": f["mode"],
            "direction": list(direction),
            "b_range_g": [float(b_values[0]), float(b_values[-1])],
            "st1_split_mhz_at_max_b": st1_high[-1] - st1_low[-1],
            "st0_shift_mhz_at_max_b": 0.5 * (st0_low[-1] + st0_high[-1])
                - 0.5 * (st0_low[0] + st0_high[0]),
        },
    }


def _cmd_compensate(config):
    c = config["compensation"]
    coil = CoilConfig(coefficient_g_per_a=c["coefficient_g_per_a"],
                      current_stability_a=c["current_stability_a"])
    plan = ScanPlan(i_min_a=c["scan_i_min_a"], i_max_a=c["scan_i_max_a"],
                    n_points=c["scan_points"], base_width_mhz=c["base_width_mhz"],
                    jitter_frac=c["jitter_frac"])
    true_field = FieldVector(c["true_bx_g"], c["true_by_g"], c["true_bz_g"])

    seeds = [np.random.SeedSequence(config["run"]["seed"], spawn_key=(trial,))
             for trial in range(c["trials"])]
    try:
        result = compensate_3axis(true_field, coil, plan, seeds)
    except ScanWindowError as exc:
        raise ConfigError(f"{exc}; move or widen the window with compensation.scan_i_min_a "
                          "and compensation.scan_i_max_a") from exc
    i, residuals = result.currents_a, result.residual_g
    return {
        "compensate.csv": (("trial", "I_X_A", "I_Y_A", "I_Z_A",
                            "residual_x_G", "residual_y_G", "residual_z_G"),
                           (range(c["trials"]), i["X"], i["Y"], i["Z"], *residuals.T)),
        "compensate_report.txt": format_compensation_report(result),
        "compensate_summary.json": {
            "trials": c["trials"],
            "rms_residual_g": [float(x) for x in np.sqrt((residuals**2).mean(axis=0))],
            "max_fit_error_a": max(float(e.max()) for e in result.fit_errors_a.values()),
            "seed": config["run"]["seed"],
        },
    }


def _cmd_linewidth(config):
    sigma, sigma_y, sigma_z = config["noise"]["sigma_mhz"]
    spec = _target_spec(config)
    # a width that is not finite, or past the limit, is named as such before
    # the axes are compared
    _noise_model(config, spec)
    if not sigma == sigma_y == sigma_z:
        raise ConfigError("linewidth theory needs isotropic noise; "
                          "set noise.sigma_mhz to one width")
    stats = linewidth_stats(sigma, spec)
    payload = {
        "sigma_mhz": sigma,
        "sigma_st1_mhz": stats.sigma_st1_mhz,
        "sigma_st0_mhz": stats.sigma_st0_mhz,
        "chi": stats.chi if math.isfinite(stats.chi) else "inf",
        "fwhm_st1_mhz": stats.sigma_st1_mhz * FWHM_PER_SIGMA,
    }
    for key, value in payload.items():
        print(f"{key} = {value}")
    return {"linewidth_summary.json": payload}


def _cmd_selftest(config):
    spec = _target_spec(config)
    rng = np.random.default_rng(config["run"]["seed"])
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

    def draws(n, hi):  # n draws of (x < hi, tau in [0.5, 10) us, C in [0.05, 1) MHz)
        return [(rng.uniform(0, hi), rng.uniform(0.5, 10.0), rng.uniform(0.05, 1.0))
                for _ in range(n)]

    worst = 0.0
    for theta, tau, c in draws(10, 2 * math.pi):
        for decay in (None, DecayModel(stretch_p=1.7)):
            sim = simulate_sequence(deer_sequence(theta, tau), spec, c, decay=decay)
            worst = max(worst, abs(sim - deer_signal(tau, c, decay, theta)))
    check(f"deer closed form vs simulator ({worst:.0e})", worst < 1e-9)

    worst = 0.0
    for transition in TRANSITIONS:
        for theta, tau, c in draws(5, 2 * math.pi):
            sim = simulate_sequence(correlation_rabi_sequence(transition, theta, tau), spec, c)
            worst = max(worst, abs(sim - 0.5 * (1 + corr_rabi(transition, theta, tau, c))))
    check(f"correlation rabi vs simulator ({worst:.0e})", worst < 1e-9)

    worst = 0.0
    for transition in TRANSITIONS:
        for t, tau, c in draws(3, 0.1):
            sig, ref = correlation_ramsey_sequences(transition, t, tau)
            diff = simulate_sequence(sig, spec, c) - simulate_sequence(ref, spec, c)
            closed = 0.5 * corr_ramsey_diff(transition, t, tau, c, spec=spec)
            worst = max(worst, abs(diff - closed))
    check(f"correlation ramsey vs simulator ({worst:.0e})", worst < 1e-9)

    # whole Ramsey records, which the simulator reads out in the target
    # eigenbasis: one draw of zero-width noise, at full contrast (C tau = 1/2).
    # Their difference is checked against the closed form, and each record,
    # whose background cancels in the difference, at every 8th time against
    # a simulation of that time's sequence alone.
    t_grid = np.linspace(0.0, 50.0, 64)
    tau, c = 5.0, 0.1
    noise = NoiseModel(0.0, 0.0, 0.0)
    worst = 0.0
    for transition in TRANSITIONS:
        families = [lambda t, k=k, tr=transition: correlation_ramsey_sequences(tr, t, tau)[k]
                    for k in (0, 1)]
        records = [monte_carlo_signal(family, t_grid, spec, c, noise, 1).values
                   for family in families]
        closed = 0.5 * corr_ramsey_diff(transition, t_grid, tau, c, spec=spec)
        worst = max(worst, float(np.abs(records[0] - records[1] - closed).max()))
        for family, record in zip(families, records):
            single = [simulate_sequence(family(t), spec, c) for t in t_grid[::8]]
            worst = max(worst, float(np.abs(record[::8] - single).max()))
    check(f"ramsey grid vs closed form and single runs ({worst:.0e})", worst < 1e-9)

    worst = 0.0
    for _ in range(10):
        delta = rng.standard_normal(3)
        delta *= rng.uniform(0.1, 1.0) / np.linalg.norm(delta)
        draw = NoiseDraw(*delta)
        worst = max(worst, float(np.abs(
            level_shifts_exact(draw, spec) - level_shifts_perturbative(draw, spec)).max()))
    check(f"perturbative vs exact shifts ({worst:.0e} MHz)", worst < 1e-3)

    if failures:
        raise SelftestFailure(f"{len(failures)} failure(s)")
    print("selftest: all checks passed")
    return {}


# subcommand -> (handler, help, the config sections it reads besides [run])
_COMMANDS = {
    "deer": (_cmd_deer, "interrogation signal versus evolution time",
             ("protocol", "decay")),
    "rabi": (_cmd_rabi, "correlation signal versus RF flip angle", ("protocol",)),
    "ramsey": (_cmd_ramsey, "differential correlation time series",
               ("target", "noise", "protocol")),
    "spectrum": (_cmd_spectrum, "ramsey series -> DFT -> gaussian fit",
                 ("target", "noise", "protocol")),
    "bsweep": (_cmd_bsweep, "transition frequencies versus field", ("target", "field")),
    "compensate": (_cmd_compensate, "three-axis residual-field compensation",
                   ("compensation",)),
    "linewidth": (_cmd_linewidth, "noise linewidth theory report", ("target", "noise")),
    "selftest": (_cmd_selftest, "closed form vs simulator battery", ("target",)),
}

_EPILOG = """\
CSV columns and units:
  deer.csv        tau_us, signal                  (dimensionless PL signal)
  rabi.csv        theta_rad, signal
  ramsey.csv      t_us, signal                    (differential)
  spectrum.csv    freq_MHz, amplitude
  bsweep.csv      B_Gauss, f_ST1_low, f_ST1_high, f_ST0_low, f_ST0_high  (MHz)
  compensate.csv  trial, I_X_A, I_Y_A, I_Z_A, residual_x_G, residual_y_G, residual_z_G

The config file is sectioned key = value text: [section] headers over
key = value lines, with the sections and keys of --set.  Lines starting
with # or ; are comments, as is the rest of a line from a spaced " #",
and % is a literal character.  A --set key and value are read as a file's
are: stripped of spaces, and the key is case-insensitive; section names
are case-sensitive.
Every subcommand reads [run]; a setting of a section or key it does not
read (say [field] for compensate, protocol.dt_us for rabi) is a config
error, and so is a decay parameter while decay.enabled is off.
[decay] is read by deer alone: decay.t2_nv_us (inf switches the echo decay
off) and decay.stretch_p set its echo envelope exp(-(tau/T2)^p).
noise.sigma_mhz: one width in MHz, the same on every axis, or three
comma-separated widths for x, y and z (linewidth needs them equal).  No width
may exceed a_perp/10 of the target (11.4 MHz at the default
target.a_perp_mhz): the results of ramsey, spectrum and linewidth rest on
second-order noise shifts, which degrade past it, so a larger width is a
config error.
protocol.m_gaussians: auto (default) fits the lines the target names:
one Gaussian for a single line, and for a doublet (target.c13_splitting_mhz
on st1, target.st0_offset_doublet_mhz on st0) one or two, whichever the
information criterion prefers; a doublet whose two components coincide is
one line.  A whole number 1..4 fixes the count; a fixed count m needs
protocol.t_points >= 15 m / 2 (rounded down), and must pass the same
validity tests (converged, inside the spectrum, no sub-bin or negative
line), or the run fails with exit 3.
Ramsey records (ramsey, spectrum) start at t = 0 and step by protocol.dt_us
(> 0).  A protocol.couplings and protocol.tau_us that leave the correlation
no contrast (a zero coupling or time, or one that turns the correlation
phase through whole cycles) make the record constant: ramsey writes it, and
spectrum, with no line to fit, stops with a config error.
ramsey.csv's signal is the closed-form difference of the correlated terms of
the signal and reference sequences (corr_ramsey_diff), which is twice the
photoluminescence difference a simulation of the two reads out (selftest
compares that simulation with half of it).
Seed resolution order: --seed, [run] seed, builtin default.  A seed is
a whole number >= 0.
Different seeds give independent random streams.  Only compensate
and selftest draw random numbers, so the seed changes no other output;
the summaries of ramsey and spectrum only record it.
"""


def build_parser():
    commands = "".join(f"  {name:<12}{help_text}\n"
                       for name, (_, help_text, _) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="zfepr",
        description=f"{__doc__ or ''}\ncommands:\n{commands}",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zfepr {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed above")
    parser.add_argument("config", nargs="?", default=None,
                        help="sectioned key = value config file (defaults apply if omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override one config value")
    parser.add_argument("--seed", default=None,
                        help="override the RNG seed (run.seed), a whole number >= 0")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--plot-data", action="store_true",
                        help="also write whitespace-delimited .dat files")
    return parser


@functools.cache
def _parser():
    """The process's one argument parser, built on first use.  Its usage line
    is formatted here, once: ``parse_intermixed_args`` formats it on every
    call while it is unset, and prints the same text."""
    parser = build_parser()
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def main(argv=None):
    """Run one subcommand from ``argv`` and return its exit code.

    Every call parses with the one parser of the process, built on the first
    call, so repeated in-process runs skip rebuilding it; a parse leaves no
    state in it.
    """
    args = _parser().parse_intermixed_args(argv)
    try:
        # --seed is the last override, so it wins over [run] seed and --set
        seed = [] if args.seed is None else [f"run.seed={args.seed}"]
        config = load_config(args.command, args.config, args.overrides + seed)
        files = _COMMANDS[args.command][0](config)
    except SelftestFailure as exc:
        print(f"selftest: {exc}")
        return EXIT_SELFTEST
    except (NumericalError, FitError, FoldAmbiguityError,
            DegenerateCrossingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write(args.out_dir or config["run"]["out_dir"], files, args.plot_data)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
