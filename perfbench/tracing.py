"""Spans around calls into the program's public functions.

The tracer replaces a function at every name bound to it inside the
``zfepr`` package (the defining module, re-exports, and each
``from .x import f`` in a caller), so calls between modules are seen too.
A function that does not exist is skipped and reports zero calls.  Spans are
kept in memory: name, start, end, parent index, and the few facts the
counters need (draws sampled, sequence runs, LM iterations).
"""

import functools
import inspect
import sys
import time

#: (module, function) pairs traced; each becomes the prefix of its metrics.
TRACED = (
    ("noise", "sample_noise"),
    ("protocols", "monte_carlo_signal"),
    ("protocols", "synthesize_ramsey_series"),
    ("pulses", "spinlock_channel"),
    ("spectra", "dft_spectrum"),
    ("fitting", "fit_gaussians"),
    ("fitting", "levenberg_marquardt"),
    ("hamiltonians", "level_shifts_exact"),
    ("hamiltonians", "transitions_vs_field"),
    ("operators", "eigh_jacobi"),
    ("fields", "compensate_3axis"),
    ("fields", "find_symmetric_center"),
    ("fields", "simulate_odmr_scan"),
    ("fields", "bsweep"),
    ("cli", "main"),
)

#: Small facts kept from a call's arguments and result, for the counters.
_INFO = {
    "noise.sample_noise": lambda args, result: len(result),
    "protocols.monte_carlo_signal": lambda args, result: args["n_draws"] * len(result),
    "fitting.levenberg_marquardt": lambda args, result: (result.iterations, result.converged),
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding.
    Calls are assumed to nest on one thread (the engine's thread count is
    left at its default of 1)."""

    def __init__(self, package="zfepr"):
        self.package = package
        self.spans = []  # [name, start, end, parent, info]
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    for suffix, name in (("self_s", "s"), ("us_per_sequence_run", "us"), ("overhead_pct", "%"),
                         ("bytes_written", "B"), ("converged_per_call", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def self_times(spans):
    """Per-span duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, n_ops, bytes_written):
    """Per-operation layer metrics from the spans of ``n_ops`` operations."""
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for (name, *_), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st

    def info_sum(name):
        return sum(s[4] for s in spans if s[0] == name)

    lm = [(i, s[4]) for i, s in enumerate(spans) if s[0] == "fitting.levenberg_marquardt"]
    mc_total = sum(s[2] - s[1] for s in spans if s[0] == "protocols.monte_carlo_signal")
    runs = info_sum("protocols.monte_carlo_signal")
    fits = calls.get("fitting.fit_gaussians", 0)
    per_op = {
        "noise.sample_noise.calls": calls.get("noise.sample_noise", 0),
        "noise.sample_noise.draws": info_sum("noise.sample_noise"),
        "protocols.sequence_runs": runs,
        "pulses.spinlock_channel.calls": calls.get("pulses.spinlock_channel", 0),
        "fitting.levenberg_marquardt.calls": len(lm),
        "fitting.levenberg_marquardt.iterations": sum(it for _, (it, _) in lm),
        "hamiltonians.level_shifts_exact.calls": calls.get("hamiltonians.level_shifts_exact", 0),
        "operators.eigh_jacobi.calls": calls.get("operators.eigh_jacobi", 0),
        "fields.find_symmetric_center.calls": calls.get("fields.find_symmetric_center", 0),
        "cli.bytes_written": bytes_written,
    }
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        per_op[f"{name}.self_s"] = self_s.get(name, 0.0)
    out = {k: v / n_ops for k, v in per_op.items()}
    out["protocols.us_per_sequence_run"] = 1e6 * mc_total / runs if runs else 0.0
    out["fitting.fit_gaussians.lm_calls"] = (
        sum(has_ancestor(spans, i, "fitting.fit_gaussians") for i, _ in lm) / fits if fits else 0.0)
    out["fitting.levenberg_marquardt.converged_per_call"] = (
        sum(bool(ok) for _, (_, ok) in lm) / len(lm) if lm else 0.0)
    return out
