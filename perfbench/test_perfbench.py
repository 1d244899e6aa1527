"""Checks of the benchmark itself; each runs perfbench/run.py in a child.

    python3 -m pytest perfbench/test_perfbench.py -q     # about two minutes

The repository's own test suite does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
# cli_oneshot is not in BENCHMARK.json (see README.md) but still runs by hand
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["cli_oneshot"]


def bench(workload, trace, seconds=1, seed=7, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_passes_every_check(workload):
    res = result(bench(workload, trace=0))
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0  # failed_frac = 0
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert sum(first["metrics"][k]["value"] for k in counts) > 0


def test_refuses_a_truncation_cap_override():
    proc = bench("label_sweep", trace=0, env=dict(os.environ, SOLVSTATE_MAX_N="512"))
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("label_sweep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_scaling_to_the_reference_speed():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from hostspeed import REF_MS, Sampler
    s = Sampler()
    # kernel samples of 2 ms every 50 ms: the host runs at half the reference
    # speed when REF_MS is 1 ms
    s.starts = [0.05 * i for i in range(1, 41)]
    s.ends = [t + 2e-3 * REF_MS for t in s.starts]
    assert s.inside(0.0, 0.051) == pytest.approx(1e-3)        # half a sample
    assert s.kernel_s(0.5, 0.6) == pytest.approx(2e-3 * REF_MS)
    # 100 ms of wall time, 2 samples (4 ms) of it the kernel's: 96 ms of work
    # at half speed is 48 ms at the reference speed
    assert s.scaled(0.5, 0.6) == pytest.approx(48.0)
