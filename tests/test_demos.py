from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rssikit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
SRC = Path(rssikit.__file__).resolve().parents[1]


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # A copy, so the demo writes its out/ directory under tmp_path.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
