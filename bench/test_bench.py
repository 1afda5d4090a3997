"""Smoke test of the benchmark at its tiny size.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the gates pass, that the traced call counts match the solver loop's
per-iteration counts, and that the benchmark refuses to run without the
package.  Run with ``python -m pytest -q bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SIZES = run.SIZES
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py knows, the ungated audit-dense included
WORKLOADS = sorted(run.WORKLOADS)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def check_result(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    meta, result = bench(workload, trace=0)
    values = check_result(result, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())
    for key in ("cpu_count", "python", "numpy", "workers", "L_source", "commit", "seed"):
        assert key in meta
    assert {"setup_s", "wall_s", "wall_us_per_unit", "peak_rss_mb", "cert_L"} <= set(meta["report"])
    solve_keys = {"iters", "iter_us_p50", "iter_us_p99", "psi_best"}
    assert solve_keys <= set(meta["report"]) or "pairs_per_s" in meta["report"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts(workload):
    _, result = bench(workload, trace=1)
    values = check_result(result, SPEC["per_layer"])
    assert values["trace_overhead"] > 0
    iters = values["solver.iterations"]
    if workload == "audit-dense":
        assert iters == 0
        # check_descent_lemma: g at both sample sets, grad g at one
        assert values["qip.qip_value.calls"] == 2
        assert values["qip.qip_gradient.calls"] == 1
        assert values["smad.check_descent_lemma_s"] > 0
        return
    starts = SIZES["tiny"][workload]["starts"]
    # per iteration: 3 oracle calls and 4 kernel gradients; per start, 2
    # oracle calls before the first iteration
    assert values["qip.oracle_calls_per_iter"] * iters == pytest.approx(3 * iters + 2 * starts)
    assert values["kernels.gradient_calls_per_iter"] == 4
    assert values["qip.cubic_root.calls"] == iters
    assert values["solver.run_bpg.self_s"] > 0
    if workload == "phase-l0-cli":
        assert values["cli.workers"] >= 1
        assert values["cli.artifact_bytes"] > 0


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
