"""Every demo script runs to completion with warnings as errors; demo 03's
narrative is pinned."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def run_demo(path: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-W", "error", str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT)


def test_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path, package_env):
    proc = run_demo(path, package_env)
    assert proc.returncode == 0, proc.stderr


def test_demo_03_stdout_golden(package_env):
    proc = run_demo(ROOT / "demos" / "03_communication_costs.py", package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo_03.txt").read_text()
