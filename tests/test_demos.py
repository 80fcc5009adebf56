"""Each script in `demos/` runs to exit 0, with every warning an error.

The demos call the library as a reader would, so a changed signature or a
new warning shows here. They write SVGs to `out/` beside themselves, so each
runs from a copy of `demos/` in `tmp_path`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-W", "error", str(tmp_path / "demos" / name)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
