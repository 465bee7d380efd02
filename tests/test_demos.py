"""Every demo script runs to completion with warnings as errors; demo 03's
narrative is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitsim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(Path(splitsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-W", "error", str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT)


def test_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_demo_03_stdout_golden():
    proc = run_demo(ROOT / "demos" / "03_communication_costs.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo_03.txt").read_text()
