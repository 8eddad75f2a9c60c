#!/usr/bin/env python3
"""Replay the golden CLI outputs in one process, with the standard library only.

Each case of tests/cli_golden.json records the exit code, stdout and stderr
of ``addca <verb> <dir>/<name>.json --format <fmt>`` for a spec in ``specs/``
or ``tests/specs/``, run from the repository root.  This script runs every case through ``addca.cli.main`` in this one
process, so all of them parse with one shared argument parser, and compares
the three outputs byte for byte.  It needs no pytest, so it runs on any
supported Python as installed.  Prints each mismatching case and a summary,
and exits 1 if any case differs.

    python3 scripts/replay_goldens.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import addca from this checkout's src/ (no install or PYTHONPATH needed).
sys.path.insert(0, str(ROOT / "src"))

from addca.cli import build_parser, main

GOLDEN = ROOT / "tests" / "cli_golden.json"


def replay(argv: list[str]) -> dict:
    """The recorded fields of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run() -> int:
    os.chdir(ROOT)
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    start = time.perf_counter()
    mismatches = [case["argv"] for case in cases if replay(case["argv"]) != case]
    elapsed = time.perf_counter() - start
    for argv in mismatches:
        print(f"MISMATCH: addca {' '.join(argv)}")
    print(f"{len(cases) - len(mismatches)} of {len(cases)} golden cases match, "
          f"{build_parser.cache_info().misses} parser built ({elapsed:.2f}s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run())
