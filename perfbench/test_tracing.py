"""The tracer sees calls at every binding, nests spans and restores names."""

import sys
import types
from collections import namedtuple

import pytest

import tracing

LMResult = namedtuple("LMResult", "iterations converged")


@pytest.fixture
def fake_package():
    """A two-module package: ``cli.main`` calls ``levenberg_marquardt``
    through its own ``from .fitting import`` binding; nothing else exists."""
    fitting = types.ModuleType("fakepkg.fitting")
    fitting.levenberg_marquardt = lambda p0: LMResult(iterations=7, converged=True)
    cli = types.ModuleType("fakepkg.cli")
    cli.levenberg_marquardt = fitting.levenberg_marquardt
    cli.main = lambda: [cli.levenberg_marquardt(0.0) for _ in range(3)]
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.fitting": fitting,
               "fakepkg.cli": cli}
    sys.modules.update(modules)
    yield fitting, cli
    for name in modules:
        del sys.modules[name]


def test_tracer_counts_nested_calls_and_restores_bindings(fake_package):
    fitting, cli = fake_package
    original = fitting.levenberg_marquardt
    tracer = tracing.Tracer("fakepkg")
    tracer.install()
    cli.main()
    tracer.uninstall()
    assert cli.levenberg_marquardt is original and fitting.levenberg_marquardt is original

    names = [span[0] for span in tracer.spans]
    assert names == ["cli.main"] + ["fitting.levenberg_marquardt"] * 3
    assert all(span[3] == 0 for span in tracer.spans[1:])
    metrics = tracing.layer_metrics(tracer.spans, n_ops=1, bytes_written=10)
    assert metrics["fitting.levenberg_marquardt.calls"] == 3
    assert metrics["fitting.levenberg_marquardt.iterations"] == 21
    assert metrics["fitting.levenberg_marquardt.converged_per_call"] == 1.0
    selfs = tracing.self_times(tracer.spans)
    assert selfs[0] >= 0 and abs(sum(selfs) - (tracer.spans[0][2] - tracer.spans[0][1])) < 1e-9


def test_absent_functions_report_zero(fake_package):
    tracer = tracing.Tracer("fakepkg")
    tracer.install()
    fake_package[1].main()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, n_ops=1, bytes_written=0)
    assert metrics["operators.eigh_jacobi.calls"] == 0
    assert metrics["operators.eigh_jacobi.self_s"] == 0
    assert metrics["noise.sample_noise.draws"] == 0
    assert metrics["protocols.us_per_sequence_run"] == 0
