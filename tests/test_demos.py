import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_blocks_and_neck_demo_runs():
    # the one demo that calls backbone_lineage and layer_inventory
    out = _run_demo("02_blocks_and_neck.py")
    assert "N3 sees ['P2', 'P3', 'P4', 'P5']" in out
    assert "plain 5x5     -> spatial convs: [('rephdw', 5), ('dwconv', 5)]" in out


def test_fusion_equivalence_demo_runs():
    out = _run_demo("01_fusion_equivalence.py")
    assert "branch kernels: [7, 5, 3]" in out
    assert "convolutions issued by the fused path: 1" in out


def test_cost_breakdown_demo_runs():
    out = _run_demo("03_cost_breakdown.py")
    assert "kernel schedule: {'backbone': [3, 5, 7, 9], 'neck': [5, 7, 9]}" in out
    assert ": True" in out.split("parameter delta")[1].splitlines()[0]
