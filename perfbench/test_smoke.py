"""Smoke test for the benchmark: the tiny variant of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

Each run must print every metric named in BENCHMARK.json with its unit, pass
its checks, and (traced) print a non-empty per-layer table. Without the
program's sources the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        start = lines.index("## per-layer self time per item (ms), traced") + 1
        table = lines[start:lines.index("## top span names by self time per item")]
        assert table and all(float(row.split()[1]) >= 0 for row in table)
        assert result["metrics"]["tensor.ops_recorded"]["value"] > 0
        if workload == "deploy640":
            assert any(line.startswith("## fused pass: rollup") for line in lines)
            assert any(line.startswith("## branch pass: rollup") for line in lines)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "train_toy", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
