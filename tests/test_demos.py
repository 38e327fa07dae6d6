"""The demos still run: the quick ones end to end, the long ones down to their imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptasr

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(cptasr.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_ctc_basics.py", "02_synthetic_corpus.py"])
def test_quick_demo_runs(name):
    result = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ["03_train_small_model.py", "04_full_pipeline.py"])
def test_long_demo_imports_exist(name):
    tree = ast.parse((DEMOS / name).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "cptasr"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name} is gone"
