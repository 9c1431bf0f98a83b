"""Each demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
