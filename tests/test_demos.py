"""Every demo, and README's quick start, runs to completion against the
package in `src/`, so a public name that is removed or renamed cannot
silently break one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "contacts[0]" in code
    _run(["-c", code], tmp_path)
