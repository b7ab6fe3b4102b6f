"""Quick mode: every workload on small inputs, end to end through run.py."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--seed", "3", "--seconds", "0", "--quick", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["census", "orbit", "antichains", "cli"])
def test_quick_workload_is_correct(workload):
    proc = run_bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    names = {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert lines[0].startswith("python ") and "seed 3" in lines[1]
    if workload == "cli":
        # Only the cache command under a regular file may fail, once a round.
        assert result["failed"] <= 1
        assert all("broken_cache" in line for line in lines if "failed 1" in line)
    else:
        assert result["failed"] == 0


def test_quick_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "antichains", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in benchmark_spec()["per_layer"]}
    with open(os.path.join(BENCH, "out", "antichains-seed3-trace1-spans.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    layers = {s["name"].split(".", 1)[0] for s in spans}
    assert layers == {"bench", "bmatrix", "posetcore", "pascal", "enumeration", "domination",
                      "ideals", "cache", "cli", "refdata"}
    assert all(s["end"] >= s["start"] and s["run"] for s in spans)


def test_refuses_a_directory_without_the_program():
    # The benchmark's own files and BENCHMARK.json, but no src/: it must fail.
    bare = os.path.join(BENCH, "out", f"bare-{os.getpid()}")
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
