#!/usr/bin/env python3
"""Rewrite the manifest of the seed-5 CLI session that tests/test_golden_session.py checks.

Runs the session (its calls are defined in that test module) in a temporary directory and writes
each call's exit code and the sha256 of every file it leaves.  Run it from the repository root,
with the hdcca under test importable (e.g. PYTHONPATH=src):

    PYTHONPATH=src python scripts/write_golden_session.py
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--output", default=str(TESTS / "data" / "golden_session.json"), help="manifest path")
    args = ap.parse_args()
    sys.path.insert(0, str(TESTS))
    from test_golden_session import run_session

    with tempfile.TemporaryDirectory() as work:
        manifest = run_session(work)
    Path(args.output).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(manifest['exit'])} calls, {len(manifest['sha256'])} files -> {args.output}")


if __name__ == "__main__":
    main()
