"""Every demo runs cleanly and every exported name resolves."""

import subprocess
import sys
from pathlib import Path

import pytest

import citetrace

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


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
