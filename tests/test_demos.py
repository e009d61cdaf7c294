import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_blocks_and_neck_demo_runs():
    # the one demo that calls backbone_lineage and layer_inventory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "02_blocks_and_neck.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert "N3 sees ['P2', 'P3', 'P4', 'P5']" in r.stdout
