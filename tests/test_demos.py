"""Every demo runs end to end, with numpy's RuntimeWarnings raised as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptasr

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(cptasr.__file__).resolve().parent.parent


# pyproject's filterwarnings reaches only this process, so the demo's interpreter gets its own -W
@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_quick_demo_runs(name):
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / name)],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                            timeout=120)
    assert result.returncode == 0, result.stderr
