"""solvstate benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0 (in-process operation times at the reference speed
of hostspeed.py), the per-layer metrics with --trace 1. Lines before it
record the environment and each metric with its sample count. A result file
(and, traced, the spans of one pass) goes to perfbench/results/.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from hostspeed import REF_MS, Sampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("verify_all", "label_sweep", "cli_oneshot")
SETUP_REPEATS = 5   # fresh processes timed for setup_s
PROBE_REPEATS = 3   # fresh processes per cli.interpreter_ms / cli.import_ms
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# tail percentile per workload: label_sweep's slowest tenth is the nested-sum
# items (about 1 in 10), so its p90 would sit on the edge between two item
# kinds; p99 lies inside them. The other workloads have too few samples.
TAIL_PCT = {"verify_all": 90, "label_sweep": 99, "cli_oneshot": 90}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import solvstate from ./src of this checkout, or refuse to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "solvstate", "__init__.py")):
        fail(f"no solvstate source under {src}")
    if "SOLVSTATE_MAX_N" in os.environ:
        fail("SOLVSTATE_MAX_N is set; it changes the oracle's truncation cap, "
             "so the run would measure another program")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import solvstate
    if not os.path.abspath(solvstate.__file__).startswith(src + os.sep):
        fail(f"solvstate imported from {solvstate.__file__}, not {src}")
    import workloads
    return workloads


def make_workload(wl, name, seed):
    if name == "verify_all":
        return wl.VerifyAll(seed)
    if name == "label_sweep":
        return wl.LabelSweep(seed)
    return wl.CliOneshot(seed, ROOT)


def environment(seed):
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------

def timed_child(argv, ready=None):
    """Wall seconds of one child process; with `ready`, until it prints that
    line (the child finishes and exits afterwards, outside the timing)."""
    from workloads import child_env
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env(ROOT))
    try:
        if ready is None:
            out, err = proc.communicate(timeout=120)
            dt = time.perf_counter() - t0
        else:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            out, err = proc.communicate(timeout=120)
            out = line + out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (ready is not None and not out.startswith(ready)):
        fail(f"child {argv[1:]} failed ({proc.returncode}): "
             f"{err.decode(errors='replace')[-500:]}")
    return dt


def attempt(run, op, failures):
    """Run one operation; returns (start, end, whether every check held)."""
    t0 = time.perf_counter()
    try:
        run(op)
    except Exception as exc:  # OpFailed from a check, or the operation raised
        where = traceback.extract_tb(exc.__traceback__)[-1]
        failures.append(f"{type(exc).__name__} at {os.path.basename(where.filename)}:"
                        f"{where.lineno}: {exc}")
        return t0, time.perf_counter(), False
    return t0, time.perf_counter(), True


def closed_loop(op_iter, run, seconds):
    """Run operations back to back until the next one would end past the
    deadline (at least one). Returns ((start, end) of each checked
    operation, attempted, failure messages)."""
    ok, failures = [], []
    start = time.perf_counter()
    for attempted, op in enumerate(op_iter, 1):
        t0, t1, good = attempt(run, op, failures)
        if good:
            ok.append((t0, t1))
        now = time.perf_counter()
        if now + (now - start) / attempted > start + seconds:
            break
    return ok, attempted, failures


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, work):
    """Operation times of an in-process workload are at the reference speed
    (hostspeed.py); child processes, a CLI call or a set-up, are timed by the
    wall clock. The wall times are printed and recorded beside the result."""
    in_process = args.workload != "cli_oneshot"
    sampler = Sampler(dense=args.workload == "verify_all")
    if in_process:
        sampler.start()
    try:
        ok, attempted, failures = closed_loop(work.ops(), work.run, args.seconds)
    finally:
        if in_process:
            sampler.stop()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [timed_child(_self_argv(args) + ["--setup-only"], ready=b"ready")
              for _ in range(SETUP_REPEATS)]
    wall_ms = [1e3 * (t1 - t0) for t0, t1 in ok]
    ms = [sampler.scaled(t0, t1) for t0, t1 in ok] if in_process else wall_ms
    tail = TAIL_PCT[args.workload]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_p50_ms": (statistics.median(ms) if ms else None, "ms", len(ms)),
        "op_tail_ms": (float(np.percentile(ms, tail)) if ms else None, "ms", len(ms)),
        "ops_per_s": (1e3 * len(ms) / sum(ms) if ms else None, "1/s", attempted),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    lines = [f"op_tail_ms is p{tail}"]
    extra = {"setup_runs_s": setups, "sound": True}
    if in_process and ms:
        kernel_ms = sampler.median_kernel_ms()
        wall = {"op_p50_ms": statistics.median(wall_ms),
                "op_tail_ms": float(np.percentile(wall_ms, tail)),
                "ops_per_s": 1e3 * len(ms) / sum(wall_ms)}
        lines += [f"op times at the reference speed (kernel {REF_MS} ms); the kernel took "
                  f"{kernel_ms:.4g} ms (median of {len(sampler.starts)} samples)",
                  "wall " + " ".join(f"{k} {v:.6g}" for k, v in wall.items())]
        extra.update(wall=wall, kernel_ms=kernel_ms, kernel_samples=len(sampler.starts))
    lines.append(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    lines += [f"failure: {f}" for f in failures[:10]]
    return metrics, attempted, len(failures), lines, extra


def traced(args, work):
    """Alternate untraced and traced passes over a fixed, seeded op list.

    Counts come from the first traced pass (every pass does the same work),
    times are medians over traced passes, and the overhead compares the
    traced passes with the untraced ones.
    """
    from tracer import COUNTED, LAYER_STATS, Tracer
    tracer = Tracer()
    ops = work.pass_ops()
    untraced, traced_s, per_pass, failures = [], [], [], []
    start = time.perf_counter()
    while not traced_s or (time.perf_counter() - start) * (1 + 1 / len(traced_s)) <= args.seconds:
        busy = one_pass(ops, work.pass_op, failures)
        untraced.append(busy)
        tracer.reset()
        tracer.install()
        try:
            busy = one_pass(ops, work.pass_op, failures)
        finally:
            tracer.uninstall()
        traced_s.append(busy)
        per_pass.append(_layer_values(tracer, LAYER_STATS, COUNTED))
        if len(per_pass) == 1:
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            tracer.dump(os.path.join(HERE, "results",
                                     f"spans-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed})

    metrics = {}
    for key, (value, unit) in per_pass[0].items():
        if unit == "ms":
            value = statistics.median(p[key][0] for p in per_pass)
        metrics[key] = (value, unit, len(per_pass))
    py = sys.executable
    metrics["cli.interpreter_ms"] = (1e3 * statistics.median(
        timed_child([py, "-c", "pass"]) for _ in range(PROBE_REPEATS)), "ms", PROBE_REPEATS)
    metrics["cli.import_ms"] = (1e3 * statistics.median(
        timed_child([py, "-c", "import solvstate.cli"]) for _ in range(PROBE_REPEATS)),
        "ms", PROBE_REPEATS)
    u, t = statistics.median(untraced), statistics.median(traced_s)
    metrics["trace.untraced_pass_ms"] = (1e3 * u, "ms", len(untraced))
    metrics["trace.traced_pass_ms"] = (1e3 * t, "ms", len(traced_s))
    metrics["trace.overhead_pct"] = (100.0 * (t - u) / u, "%", len(traced_s))

    unstable = [k for k, (v, unit) in per_pass[0].items()
                if unit != "ms" and any(p[k][0] != v for p in per_pass[1:])]
    attempted = 2 * len(ops) * len(traced_s)
    lines = [f"passes: {len(traced_s)} traced, {len(untraced)} untraced, {len(ops)} ops each",
             "wait: none measured; one process, one client, no queues",
             f"tracing overhead {metrics['trace.overhead_pct'][0]:+.1f}% "
             f"({1e3 * (t - u):+.1f} ms per pass)",
             f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})"]
    # a traced function the package no longer has, or a counter that did not
    # repeat between identical passes, makes the per-layer figures unsound
    if tracer.missing:
        lines.append(f"INVALID: not in the package, reported as 0: {tracer.missing}")
    if unstable:
        lines.append(f"INVALID: counts differ between identical passes: {unstable}")
    lines += [f"failure: {f}" for f in failures[:10]]
    return metrics, attempted, len(failures), lines, {
        "counts_repeat": not unstable, "missing": tracer.missing,
        "sound": not unstable and not tracer.missing}


def one_pass(ops, run, failures):
    """Every op once; returns the seconds the pass took."""
    start = time.perf_counter()
    for op in ops:
        attempt(run, op, failures)
    return time.perf_counter() - start



def _layer_values(tracer, layer_stats, counted):
    """{metric name: (value, unit)} for one traced pass."""
    calls, busy, self_ns = tracer.aggregate()
    out = {}
    for name, stats in layer_stats.items():
        for stat in stats:
            key = f"{name}.{stat}"
            if stat == "calls":
                out[key] = (tracer.counts[key] if name in counted else calls[name], "count")
            elif stat == "busy_ms":
                out[key] = (busy[name] / 1e6, "ms")
            elif stat == "self_ms":
                out[key] = (self_ns[name] / 1e6, "ms")
            else:
                out[key] = (tracer.counts[key], "count")
    for key in ("verify.checks", "verify.checks_failed"):
        out[key] = (tracer.counts[key], "count")
    return out


# ---------------------------------------------------------------------------

def _self_argv(args):
    return [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args()

    wl = load_package()
    work = make_workload(wl, args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return
    env = environment(args.seed)

    run = traced if args.trace else end_to_end
    metrics, attempted, failed, lines, extra = run(args, work)
    correct = (failed == 0 and extra["sound"]
               and all(v is not None for v, _, _ in metrics.values()))

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, **extra,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for k, (v, u, n) in metrics.items():
        print(f"{k} {v} {u} (n={n})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))


if __name__ == "__main__":
    main()
