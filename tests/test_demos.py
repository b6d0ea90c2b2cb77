"""Every demo script under ``demos/`` runs to completion as its own process.

Each demo finds the package through ``src`` on ``PYTHONPATH``, and its
temporary directories go under the test's ``tmp_path`` through ``TMPDIR``:
demos 04, 05 and 07 make theirs with ``mkdtemp`` and leave them behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    pythonpath = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
