"""The package root exports nothing, and each module imports on its own.

Every caller imports a name from the module that defines it. Each case
runs in a fresh interpreter, so no module imported earlier in the test
session can hide a missing import.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etglucose

PACKAGE = Path(etglucose.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_fresh(f"import etglucose.{module}")
    assert done.returncode == 0, done.stderr


def test_root_exports_no_name():
    done = run_fresh("import etglucose; "
                     "print(sorted(n for n in vars(etglucose) if n[0] != '_'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
