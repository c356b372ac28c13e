"""Every script in scripts/ still imports and parses its arguments, and the
null experiment writes its histogram.

The scripts import the library by name, so a renamed or removed function
breaks them without failing any library test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


def run_script(script, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_runs(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_wachter_null_writes_the_histogram(tmp_path):
    out = tmp_path / "hist.csv"
    script = ROOT / "scripts" / "run_wachter_null.py"
    proc = run_script(script, "--k", "20", "--m", "30", "--s", "100", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_center,empirical_density,wachter_density"
    assert len(lines) == 1 + 40
