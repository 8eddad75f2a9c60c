"""Golden CLI outputs: every spec in specs/ and tests/specs/, every verb and format.

``tests/cli_golden.json`` holds the exit code, stdout and stderr of
``addca <verb> <dir>/<name>.json --format <fmt>`` for the four verbs and
both formats, run from the repository root.  ``specs/`` holds the example
rules, which the benchmark also reads.  In ``tests/specs/`` the
``sparse_*`` rules have an A(X) too sparse to pack, so their goldens pin the
Laurent-entry paths (Berkowitz on Laurent entries, the Laurent-row orbit
walk of an integral matrix and the entrywise degree ladder of a
non-integral one); ``wide_sparse`` (radius 1000, nonzero offsets -1000, 0
and 1000) pins the step of a far-reaching rule; and ``dense_widening``
(dense, radius 1, n = 6 over Z/8) pins a packed power walk that widens its
blocks once.  The test
replays each case in-process and compares all three byte for byte, so a
refactoring that changes any output fails here.  To re-record after an
intended change::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

from addca.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
VERBS = ("analyze", "charpoly", "orbit", "simulate")
FORMATS = ("text", "json")


SPEC_DIRS = ("specs", "tests/specs")


def cases() -> list[tuple[str, str, str]]:
    specs = [f"{folder}/{path.name}" for folder in SPEC_DIRS
             for path in sorted((ROOT / folder).glob("*.json"))]
    return [(verb, spec, fmt) for spec in specs for verb in VERBS for fmt in FORMATS]


def run_case(verb: str, spec: str, fmt: str) -> dict:
    """Exit code, stdout and stderr of one CLI call, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([verb, spec, "--format", fmt])
    return {"argv": [verb, spec, "--format", fmt], "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@lru_cache(maxsize=None)
def recorded() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_spec_verb_and_format():
    """One recorded case per spec file, verb and format: a spec that goes
    missing leaves its recorded cases without a file."""
    expected = {(verb, spec, "--format", fmt) for verb, spec, fmt in cases()}
    assert set(recorded()) == expected


@pytest.mark.parametrize("verb, spec, fmt", cases())
def test_cli_output_matches_golden(verb, spec, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(verb, spec, fmt) == recorded()[(verb, spec, "--format", fmt)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps([run_case(*case) for case in cases()], indent=1) + "\n")
