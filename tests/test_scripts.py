"""Every script in scripts/ still imports and parses its arguments, and
each experiment runs end to end at small sizes.

The scripts import the library by name, so a renamed or removed function,
or a changed signature, breaks them without failing any library test.
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


def run_script(script, *args, cwd=None):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
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


def test_spike_experiment_runs(tmp_path):
    script = ROOT / "scripts" / "run_spike_experiment.py"
    proc = run_script(script, "--k", "20", "--m", "30", "--s", "200", "--reps", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "outlier location" in proc.stdout


def test_coint_experiment_writes_both_histograms(tmp_path):
    script = ROOT / "scripts" / "run_coint_experiment.py"
    proc = run_script(script, "--k", "20", "--t", "200", "--nsamples", "200", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("coint_null_hist.csv", "coint_rank1_hist.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "bin_center,empirical_density,wachter_density"
        assert len(lines) == 1 + 40
