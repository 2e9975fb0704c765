"""Every demo runs cleanly and every exported name resolves."""

import subprocess
import sys
from pathlib import Path

import pytest

import citetrace

TESTS = Path(__file__).parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))

# CI runs these modules on an install without the test extra.
STDLIB_ONLY_MODULES = ["test_cli", "test_reference", "test_smoke"]
TEST_ONLY_PACKAGES = ["click", "hypothesis", "mpmath", "numpy", "scipy"]

# Arguments: the tests directory, then the modules to import and the packages
# to block, each comma-separated.  Exits naming every blocked import the
# modules asked for, even one they catch.
BLOCKED_IMPORT_PROBE = """
import importlib, sys

tests, modules, blocked = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(",")
tried = []

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in blocked:
            tried.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Blocker())
sys.path.insert(0, tests)
for module in modules:
    importlib.import_module(module)
sys.exit(f"tried to import {tried}" if tried else None)
"""


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_exported_name_resolves():
    assert [name for name in citetrace.__all__ if not hasattr(citetrace, name)] == []


def test_stdlib_only_modules_import_no_test_dependency():
    proc = subprocess.run([sys.executable, "-c", BLOCKED_IMPORT_PROBE, str(TESTS),
                           ",".join(STDLIB_ONLY_MODULES), ",".join(TEST_ONLY_PACKAGES)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
