"""Every demo runs cleanly, every exported name resolves, and each output
format has one writer."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import citetrace

TESTS = Path(__file__).parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))
PACKAGE = TESTS.parent / "src" / "citetrace"

# Writers that would be a second CSV or JSON writer beside datasets._write_csv
# and datasets._write_json.
SECOND_WRITERS = {"csv.writer", "json.dump", "json.dumps"}

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


def _calls(source: str):
    """The dotted name and line of each call in source whose function is a
    name or an attribute of a name, with imported names resolved."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                             for alias in node.names})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            yield f"{imported.get(func.value.id, func.value.id)}.{func.attr}", node.lineno
        elif isinstance(func, ast.Name):
            yield imported.get(func.id, func.id), node.lineno


def test_calls_resolve_imported_names():
    source = ("import json as j\nfrom csv import writer as w\nfrom json import dump\n"
              "j.dumps(1)\nw(f)\ndump(1, f)\njson.loads('1')\n")
    assert list(_calls(source)) == [("json.dumps", 4), ("csv.writer", 5), ("json.dump", 6),
                                    ("json.loads", 7)]


def test_each_format_has_one_writer():
    """The package writes CSV and JSON only through datasets._write_csv and
    datasets._write_json: it calls no csv.writer, json.dump or json.dumps."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    assert [f"{path.name}:{line}: {name}" for path in paths
            for name, line in _calls(path.read_text(encoding="utf-8"))
            if name in SECOND_WRITERS] == []
