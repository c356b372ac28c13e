"""The seed-5 CLI session: every byte the CLI writes, pinned.

36 in-process ``cli.main`` calls, as a user would run them: 8 simulations (2x3x500 and 50x60x300
panels, K = 2, T = 1000 and K = 20, T = 400 VAR(1) series, each null and with a signal), ``cca`` on
the four panel pairs, and ``independence`` and ``coint`` in both regimes on each input at levels
0.9, 0.95 and 0.99, all reading one table store at ``--nsamples 2000 --seed 5``.  The manifest
``tests/data/golden_session.json`` holds each call's exit code and the sha256 of every file the
session leaves, the stored tables included.  ``scripts/write_golden_session.py`` rewrites it; a
change that moves an entry on purpose says which entries moved and why.  The hashes assume this
host's numpy and OpenBLAS build, as the ``float.hex`` pins of ``test_cca_core.py`` do.
"""

import hashlib
import json
import os
from pathlib import Path

from hdcca.cli import main

MANIFEST = Path(__file__).parent / "data" / "golden_session.json"
PANELS = {"small": ("2", "3", "500"), "large": ("50", "60", "300")}  # K, M, S
SERIES = {"small": ("2", "1000"), "large": ("20", "400")}  # K, T
SIGNAL = {"small": "0.5", "large": "0.8"}  # a planted squared correlation; a series' signal is a rank-1 Pi
STORE = ["--nsamples", "2000", "--seed", "5", "--table-cache-dir", "tables"]


def session_calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of each call in order, with paths relative to the session's directory."""
    calls = []
    for size, (k, m, s) in PANELS.items():
        for case, rho2 in (("null", []), ("signal", ["--rho2", SIGNAL[size]])):
            calls.append((f"simulate-panels-{size}-{case}", [
                "simulate", "panels", "--k", k, "--m", m, "--s", s, *rho2, "--seed", "5",
                "--output-u", f"u-{size}-{case}.csv", "--output-v", f"v-{size}-{case}.csv",
            ]))
    for size, (k, t) in SERIES.items():
        for case, rank in (("null", "0"), ("signal", "1")):
            calls.append((f"simulate-var1-{size}-{case}", [
                "simulate", "var1", "--k", k, "--t", t, "--pi-rank", rank, "--seed", "5",
                "--output", f"ts-{size}-{case}.csv",
            ]))
    inputs = [(size, case) for size in ("small", "large") for case in ("null", "signal")]
    for size, case in inputs:
        calls.append((f"cca-{size}-{case}", [
            "cca", "--u", f"u-{size}-{case}.csv", "--v", f"v-{size}-{case}.csv",
            "--output", f"cca-{size}-{case}.json",
        ]))
    for alpha in ("0.9", "0.95", "0.99"):
        for size, case in inputs:
            for command, data in (
                ("independence", ["--u", f"u-{size}-{case}.csv", "--v", f"v-{size}-{case}.csv"]),
                ("coint", ["--input", f"ts-{size}-{case}.csv"]),
            ):
                name = f"{command}-{size}-{case}-{alpha}"
                calls.append((name, [
                    command, *data, "--regime", size, "--alpha", alpha, *STORE,
                    "--output", f"{name}.json",
                ]))
    return calls


def run_session(directory) -> dict:
    """Run the session in `directory`; return its manifest: {"exit": {call: code}, "sha256": {file: digest}}."""
    directory = Path(directory)
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        codes = {name: main(argv) for name, argv in session_calls()}
    finally:
        os.chdir(cwd)
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    digests = {p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return {"exit": codes, "sha256": digests}


def test_session_writes_the_pinned_bytes(tmp_path):
    assert run_session(tmp_path) == json.loads(MANIFEST.read_text())
