"""Smoke test of the benchmark itself at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced.  Every metric listed in
``BENCHMARK.json`` must be reported with its unit, the checks must pass, and
both runs must produce the same result hash.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parsed(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    plain_detail, plain = parsed(run_bench(ROOT, workload, 0))
    traced_detail, traced = parsed(run_bench(ROOT, workload, 1))

    for result, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert plain_detail["machine"]["nproc"] >= 1
    assert plain_detail["result_sha256"] == traced_detail["result_sha256"]
    if workload == "loso":
        assert traced["metrics"]["tensor.conv2d_per_step"]["value"] == 123


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
