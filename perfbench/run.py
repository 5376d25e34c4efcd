"""Benchmark of the zfepr simulator: one workload per process.

    python3 perfbench/run.py --workload mc_ramsey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the program is imported from its ``src``.
The process pins the BLAS/OpenMP thread counts to 1, sets up (imports
``zfepr`` and builds the inputs), makes one untimed warm-up operation, then
runs whole operations back to back (a closed loop with one caller) for
``--seconds``.  Every operation's outputs are checked after its timer stops.

Operation times are reported at the speed of a reference machine: the time
of each call into the program is divided by the slowdown that a fixed
calibration loop, run just before and just after the call, shows against
its reference time.  The shared host's speed drifts by tens of percent
over tens of seconds, and this scaling removes most of that drift from the
comparison of two runs; the median wall time is printed beside it.
Set-up time is the median over fresh probe processes spread through the
run, each scaled by calibration loops run around it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other operation and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object.  The exit code is 1
if any check failed, 2 if the program or the arguments are unusable.
"""

import argparse
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

#: Median time of ``calibration_loop`` on the reference machine (2-vCPU
#: Xeon at 2.1 GHz, Python 3.11, numpy 2.4); times are reported at that speed.
CALIBRATION_REF_S = 1.5e-3

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("mc_ramsey", "spectrum", "fields")
SETUP_PROBES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def calibration_loop():
    """Fixed work of about 1.5 ms: a 4x4 density matrix propagated through
    12 steps of small numpy calls (kron, eigh, matrix products), the kind of
    call the program's engine and fits make.  The host's slowdowns of the
    program follow those of small numpy calls much more closely than those
    of a pure-Python loop (see the README).  numpy is imported here, not at
    the top, so that the set-up time includes importing it."""
    import numpy as np

    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sz = np.diag([0.5, -0.5]).astype(complex)
    h0 = 114.0 * np.kron(sx, sx) + 160.0 * np.kron(sz, sz)
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    acc = 0.0
    for i in range(12):
        w, v = np.linalg.eigh(h0 + 0.1 * i * np.kron(sz, np.eye(2)))
        u = (v * np.exp(-0.0123j * w)) @ v.conj().T
        rho = u @ rho @ u.conj().T
        acc += np.trace(np.kron(np.eye(2), sz) @ rho).real
    return acc


def slowdown(n):
    """How much slower than the reference machine this process runs now:
    the median of ``n`` calibration loops over the reference time.  The
    machine is shared, and its speed drifts by tens of percent over tens
    of seconds; the program's times are divided by this factor."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REF_S


def fail(message):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def set_up(name, out_dir):
    """Import the program from the checkout and build the workload's inputs."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "zfepr", "__init__.py")):
        fail(f"no zfepr sources under {src}")
    sys.path.insert(0, src)
    import zfepr

    if os.path.dirname(os.path.dirname(os.path.abspath(zfepr.__file__))) != src:
        fail(f"zfepr imported from {zfepr.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[name](out_dir)
    return workload, time.perf_counter() - start


def probe_setup(args):
    """Set-up time of a fresh process, wall and at reference speed (scaled
    by calibration loops run here just before and after the probe)."""
    before = slowdown(10)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    wall = float(done.stdout.split()[-1])
    return wall, wall / (0.5 * (before + slowdown(10)))


def tail(times):
    """Highest percentile with at least ten samples beyond it (None below 40)."""
    n = len(times)
    if n < 40:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def run_workload(args):
    out_dir = os.path.join(OUT, f"tmp-{os.getpid()}")
    workload, setup_s = set_up(args.workload, out_dir)
    if args.setup_probe:
        print(f"{setup_s:.9f}")
        return 0

    import numpy as np

    import tracing

    rng = np.random.default_rng(args.seed)
    # the reference draws do not depend on --seed: checks are the same in every run
    workload.prepare(np.random.default_rng(20200530))
    tracer = tracing.Tracer() if args.trace else None

    def operation(traced, last_elapsed):
        """Wall time, time at reference speed, check errors (None if the
        operation failed).  Calibration loops run before, between and after
        the operation's calls, for about 10 % of its time; each call's time
        is divided by the slowdown the loops on either side of it show."""
        inputs = workload.draw_inputs(rng)
        workload.before(inputs)
        calls = workload.calls(inputs)
        n_calibrations = max(3, round(0.05 * last_elapsed / len(calls) / CALIBRATION_REF_S))
        outputs, elapsed, scaled = [], 0.0, 0.0
        before = slowdown(n_calibrations)
        if traced:
            tracer.install()
        try:
            for call in calls:
                start = time.perf_counter()
                try:
                    outputs.append(call())
                finally:
                    wall = time.perf_counter() - start
                    after = slowdown(n_calibrations)
                    elapsed += wall
                    scaled += wall / (0.5 * (before + after))
                    before = after
            ran = True
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            ran = False
        finally:
            if traced:
                tracer.uninstall()
        if not ran:
            return elapsed, scaled, None
        try:
            errors = workload.check(inputs, outputs)
        except Exception as exc:  # a missing or changed output fails the check
            errors = [f"the check raised {exc!r}"]
        return elapsed, scaled, errors

    try:
        elapsed, _, errors = operation(False, 0.0)  # warm-up
        if errors is None:
            fail("the warm-up operation failed")
        setups = []
        wall, times, traced_times, untraced_times = [], [], [], []
        attempted = failed = passed = 0
        bytes_written = 0
        phase = time.perf_counter()
        # a traced run needs one traced and one untraced operation
        while attempted < 1 + args.trace or time.perf_counter() - phase < args.seconds:
            # set-up probes are spread over the run, between operations, so
            # that they sample the machine's drifting speed as the ops do
            if not args.trace and len(setups) < SETUP_PROBES * (
                    time.perf_counter() - phase) / args.seconds:
                setups.append(probe_setup(args))
            traced = bool(args.trace) and attempted % 2 == 1
            elapsed, scaled, op_errors = operation(traced, elapsed)
            attempted += 1
            wall.append(elapsed)
            times.append(scaled)
            (traced_times if traced else untraced_times).append(scaled)
            if op_errors is None:
                failed += 1
                continue
            errors += op_errors
            passed += not op_errors
            if traced:
                bytes_written += workload.bytes_written()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for message in errors[:20]:
        print(f"CHECK FAILED {args.workload}: {message}")
    print(f"workload {args.workload}: {attempted} operations attempted, {failed} failed, "
          f"checks {'passed' if not errors else 'FAILED'}")
    if args.trace:
        n_traced = len(traced_times)
        metrics = tracing.layer_metrics(tracer.spans, n_traced, bytes_written)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_times) / statistics.median(untraced_times) - 1.0)
        units = {key: tracing.unit(key) for key in metrics}
        save(args, "spans", [s[:4] for s in tracer.spans])
    else:
        while len(setups) < SETUP_PROBES:
            setups.append(probe_setup(args))
        metrics = {
            # failed and check-failed operations cost time and count nothing
            "ok_per_s": passed / sum(times),
            "op_s_p50": statistics.median(times),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"ok_per_s": "1/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        pct = tail(times)
        print(f"op_s_p{pct[0]} = {pct[1]:.6f} s over {len(times)} operations (not gated)"
              if pct else f"{len(times)} operations: too few for a tail percentile")
        print(f"in wall time, not scaled to reference speed: op_s_p50 = "
              f"{statistics.median(wall):.6f} s, setup_s = "
              f"{statistics.median(w for w, _ in setups):.6f} s (not gated)")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    save(args, f"trace{args.trace}", dict(result, op_times_s=times, op_wall_s=wall))
    print(json.dumps(result))
    return 0 if not errors else 1


def save(args, kind, payload):
    """Keep a run's result (or its spans) under .perfbench_out/results."""
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-{kind}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)


def run_all(args):
    """Each workload in its own process: their reports, then one JSON object."""
    results, code = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if isinstance(result, dict):
            lines.pop()
        else:  # the run ended without a result: keep its output, go on
            result = None
            code = max(code, 2)
        print("\n".join(lines))
        code = max(code, done.returncode)
        results[name] = result
    print(json.dumps({"correct": all(r and r["correct"] for r in results.values()),
                      "workloads": results}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
