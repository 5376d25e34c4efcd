"""The three workloads: their inputs, one operation each, and its checks.

An operation always makes the same calls, so every timed sample measures
the same mix.  It is a list of calls into the program, which the runner
times one by one, with calibration loops between them.  Inputs are drawn
from the benchmark's own generator; each noise seed is an independent
62-bit draw, so no two operations share noise draws even where the program
seeds draw ``i`` with ``seed + i``.  Engine knobs (``threads``) are left at
their defaults.
"""

import functools
import json
import os
import re
import shutil

import numpy as np

import checks
import zfepr
from zfepr import cli, protocols

A_PERP, A_PAR = 114.0, 160.0
#: The paper's quasi-static noise: sigma_ST1 = sigma / 2 = 98 kHz.
SIGMA_MHZ = 0.196


def _seed(rng):
    return int(rng.integers(2**32, 2**62))


class OpFailed(RuntimeError):
    """The program reported a failure (nonzero exit code) for an operation."""


class Workload:
    """Interface of a workload; the calls of ``calls`` are the timed
    operation."""

    def prepare(self, rng):
        """Untimed: reference values for the checks."""

    def draw_inputs(self, rng):
        raise NotImplementedError

    def before(self, inputs):
        """Untimed: make ready for an operation."""

    def calls(self, inputs):
        """The operation: zero-argument calls into the program, in order."""
        raise NotImplementedError

    def check(self, inputs, outputs):
        """Messages for every output that fails its check; ``outputs`` are
        the results of the calls, in order."""
        raise NotImplementedError

    def bytes_written(self):
        return 0


class CliWorkload(Workload):
    """Operations made of in-process ``zfepr`` CLI runs, one output
    directory per run, emptied before each operation."""

    runs = ()  # (label, subcommand, overrides)

    def __init__(self, out_dir):
        self.dirs = {label: os.path.join(out_dir, label) for label, *_ in self.runs}

    def draw_inputs(self, rng):
        return {label: _seed(rng) for label, *_ in self.runs}

    def before(self, inputs):
        for path in self.dirs.values():
            shutil.rmtree(path, ignore_errors=True)

    def overrides(self, label, inputs):
        """Overrides that depend on the operation's inputs."""
        return ()

    def calls(self, inputs):
        calls = []
        for label, command, overrides in self.runs:
            argv = [command, "--seed", str(inputs[label]), "--out-dir", self.dirs[label]]
            for item in overrides + self.overrides(label, inputs):
                argv += ["--set", item]
            calls.append(functools.partial(self._main, argv))
        return calls

    @staticmethod
    def _main(argv):
        code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"zfepr {' '.join(argv)} exited {code}")

    def bytes_written(self):
        """Bytes of the files the last operation wrote."""
        return sum(entry.stat().st_size for path in self.dirs.values()
                   for entry in os.scandir(path) if entry.is_file())

    def _json(self, label, name):
        with open(os.path.join(self.dirs[label], name)) as fh:
            return json.load(fh)

    def _csv(self, label, name):
        return np.loadtxt(os.path.join(self.dirs[label], name), delimiter=",",
                          skiprows=1, ndmin=2)


class McRamsey(Workload):
    """Noise-averaged density-matrix correlation Ramsey, S0<->T0 and S0<->T+-1.

    Per transition: the signal and the reference sequence families through
    ``monte_carlo_signal`` with the same noise model, 50 draws on 12 times.
    """

    name = "mc_ramsey"
    coupling_mhz, tau_us, n_draws = 0.1, 5.0, 50
    # 0.17 us puts the 114 and 137 MHz carriers at generic phases (0.38 and
    # 0.29 of a turn per step), and the S0<->T+-1 envelope at 0.5 by the end
    t_us = 0.17 * np.arange(12)
    n_ref = 100_000

    def __init__(self, out_dir):
        self.spec = zfepr.TargetSpec(a_perp_mhz=A_PERP, a_par_mhz=A_PAR)
        self.families = {
            tr: tuple((lambda t, tr=tr, k=k:
                       protocols.correlation_ramsey_sequences(tr, t, self.tau_us)[k])
                      for k in (0, 1))
            for tr in ("st0", "st1")
        }

    def prepare(self, rng):
        physics = dict(a_perp=A_PERP, a_par=A_PAR, coupling_mhz=self.coupling_mhz,
                       tau_us=self.tau_us)
        self.reference = {tr: checks.ramsey_reference(tr, self.t_us, SIGMA_MHZ, self.n_ref,
                                                      rng, **physics)
                          for tr in self.families}
        self.scatter = checks.ramsey_model_scatter(SIGMA_MHZ, **physics)

    def draw_inputs(self, rng):
        return {tr: _seed(rng) for tr in self.families}

    def calls(self, inputs):
        """Signal, then reference sequence, for each transition; the two of
        a transition share one noise model and so the same draws."""
        calls = []
        for tr, families in self.families.items():
            noise = zfepr.NoiseModel.isotropic(SIGMA_MHZ, seed=inputs[tr])
            calls += [functools.partial(self._signal, fam, noise) for fam in families]
        return calls

    def _signal(self, family, noise):
        # looked up at call time, so that the tracer's wrapper is called
        return protocols.monte_carlo_signal(family, self.t_us, self.spec, self.coupling_mhz,
                                            noise, self.n_draws)

    def check(self, inputs, outputs):
        errors = []
        for k, tr in enumerate(self.families):
            signal, reference = outputs[2 * k:2 * k + 2]
            values = np.asarray(signal.values) - np.asarray(reference.values)
            mean, std = self.reference[tr]
            errors += [f"{tr}: {e}" for e in checks.check_ramsey(
                values, mean, std, self.n_draws, self.n_ref, self.scatter)]
        return errors


class Spectrum(CliWorkload):
    """Three ``zfepr spectrum`` runs (series -> alias-unfolded DFT -> fit),
    each averaging the default 2000 noise draws."""

    name = "spectrum"
    common = (f"target.a_perp_mhz={A_PERP}", f"target.a_par_mhz={A_PAR}",
              f"noise.sigma_mhz={SIGMA_MHZ}")
    # S0<->T0 at 0.15 us folds directly (114 MHz sits 0.1 fs above a fold);
    # the default 0.2 us step mirror-folds it, which unfolding mislabels.
    # The S0<->T0 records fix the peak count: with "auto" the information
    # criterion adds components of negative amplitude to their sinc-like
    # lines.
    runs = (
        ("st1_c13", "spectrum", common + (
            "protocol.transition=st1", "target.c13_splitting_mhz=0.4",
            "protocol.band_lo_mhz=135.5", "protocol.band_hi_mhz=138.5")),
        ("st0", "spectrum", common + (
            "protocol.transition=st0", "protocol.dt_us=0.15", "protocol.m_gaussians=1",
            "protocol.band_lo_mhz=112.5", "protocol.band_hi_mhz=115.5")),
        ("st0_doublet", "spectrum", common + (
            "protocol.transition=st0", "protocol.dt_us=0.15", "protocol.m_gaussians=2",
            "target.st0_offset_doublet_mhz=-0.03,0.03",
            "protocol.band_lo_mhz=112.5", "protocol.band_hi_mhz=115.5")),
    )

    def prepare(self, rng):
        f_st1 = 0.5 * (A_PAR + A_PERP)
        f_st0 = A_PERP + checks.st0_mean_shift(SIGMA_MHZ, A_PERP, A_PAR)
        self.expected = {
            "st1_c13": dict(expected_mhz=(f_st1 - 0.2, f_st1 + 0.2), dt_us=0.2,
                            fwhm_mhz=checks.FWHM_PER_SIGMA * SIGMA_MHZ / 2),
            "st0": dict(expected_mhz=(f_st0,), dt_us=0.15),
            "st0_doublet": dict(expected_mhz=(f_st0 - 0.03, f_st0 + 0.03), dt_us=0.15),
        }

    def check(self, inputs, outputs):
        errors = []
        for label, want in self.expected.items():
            peaks = self._json(label, "spectrum_summary.json")["peaks"]
            errors += [f"{label}: {e}" for e in checks.check_lines(peaks, **want)]
        return errors


class Fields(CliWorkload):
    """Two ``zfepr compensate`` and two ``zfepr bsweep`` runs."""

    name = "fields"
    stability_a, coeff_g_per_a, trials, b_points = 0.004, 2.8, 4, 13
    coil = (f"compensation.current_stability_a={stability_a}",
            f"compensation.coefficient_g_per_a={coeff_g_per_a}", f"compensation.trials={trials}")
    sweep = (f"target.a_perp_mhz={A_PERP}", f"target.a_par_mhz={A_PAR}",
             "target.orientations=p1_bonds", "field.b_start_g=0", "field.b_stop_g=3",
             f"field.b_points={b_points}")
    runs = (
        ("compensate", "compensate", coil),
        # re-nulling a field that is already zero, from noiseless scans: the
        # fitted centers sit at 0, where LM's relative step test is weakest
        ("compensate_zero", "compensate", coil + (
            "compensation.true_bx_g=0", "compensation.true_by_g=0",
            "compensation.true_bz_g=0", "compensation.jitter_frac=0")),
        ("bsweep_exact", "bsweep", sweep + ("field.mode=exact",)),
        # along [001] every bond axis keeps a third of the field axial, which
        # keeps the second-order lines within a third-order bound of exact
        ("bsweep_perturbative", "bsweep", sweep + ("field.mode=perturbative",
                                                   "field.direction=0,0,1")),
    )

    def prepare(self, rng):
        self.b_values = np.linspace(0.0, 3.0, self.b_points)
        self.pert_tol = checks.perturbative_bound(self.b_values, A_PERP, A_PAR) + 1e-9

    def draw_inputs(self, rng):
        inputs = super().draw_inputs(rng)
        # a field almost perpendicular to a bond axis leaves that bond's T+-1
        # pair mixed 50/50, where exact mode cannot match levels and exits 3;
        # keep a fifth of the field axial on every bond
        while True:
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            if np.abs(checks.BOND_AXES @ direction).min() >= 0.2:
                inputs["direction"] = direction
                return inputs

    def overrides(self, label, inputs):
        if label != "bsweep_exact":
            return ()
        return ("field.direction=" + ",".join(f"{x:.17g}" for x in inputs["direction"]),)

    def _fit_errors(self, label):
        with open(os.path.join(self.dirs[label], "compensate_report.txt")) as fh:
            found = re.findall(r"axis ([XYZ]):.*fit_error_A = ([-+0-9.eE]+)", fh.read())
        return {axis: float(v) for axis, v in found}

    def check(self, inputs, outputs):
        errors = []
        for label in ("compensate", "compensate_zero"):
            table = self._csv(label, "compensate.csv")
            fit_errors = self._fit_errors(label)
            if sorted(fit_errors) != ["X", "Y", "Z"] or len(table) != self.trials:
                errors.append(f"{label}: report or table incomplete")
                continue
            # the report gives the first trial's fit errors; the supply error
            # dominates the bound, so they stand for every trial
            errors += [f"{label}: {e}" for e in checks.check_compensation(
                table[:, 4:7], fit_errors, self.stability_a, self.coeff_g_per_a)]
        for label, direction, tol in (
                ("bsweep_exact", inputs["direction"], 1e-7),
                ("bsweep_perturbative", (0.0, 0.0, 1.0), self.pert_tol)):
            table = self._csv(label, "bsweep.csv")
            if len(table) != self.b_points or np.abs(table[:, 0] - self.b_values).max() > 1e-9:
                errors.append(f"{label}: field column differs from the requested sweep")
                continue
            expected = checks.sweep_lines(self.b_values, direction, A_PERP, A_PAR)
            errors += [f"{label}: {e}" for e in checks.check_sweep(table[:, 1:], expected, tol)]
        return errors


WORKLOADS = {w.name: w for w in (McRamsey, Spectrum, Fields)}
