"""Each demo script runs to completion against the package sources."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
