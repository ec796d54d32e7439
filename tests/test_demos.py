"""Every demo script, and the README's library quick start, runs to
completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _quick_start() -> str:
    """The Python block of the README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    done = _run_python([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    done = _run_python(["-c", _quick_start()], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "E_inf =" in done.stdout
    assert "reduced states: (10, 101)" in done.stdout
