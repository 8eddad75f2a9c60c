#!/usr/bin/env python3
"""Check that the tests catch a fixed set of mutants of the slot bounds.

Each mutant is one textual edit of a file under ``src/addca`` that makes a
packed-integer slot one bit or one factor too narrow, paired with the test
file that must fail on it.  The script copies ``src`` and ``tests`` to a
temporary directory, checks that each named test file passes there, then
applies one mutant at a time and runs pytest on its test file only; the
checkout itself is never modified.  A mutant whose test file still passes
has survived.  An edit whose ``old`` text is not found exactly once is
reported as stale, since the bound it guards has moved.  Prints one line per
mutant and exits 1 if a test file fails unmutated or a mutant survives or is
stale.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new, test file)
MUTANTS = (
    # The reducer's shift one bit short: floor(v M / 2^s) is no longer v // m
    # for every v below 2^bits (13 reduces to -1 at m = 7, bits = 4).
    ("src/addca/laurent.py",
     "shift = bits + m.bit_length()",
     "shift = bits + m.bit_length() - 1",
     "tests/test_power_semigroup.py"),
    # The packed power walk's slot bound without its factor n.
    ("src/addca/power_semigroup.py",
     "SlotReducer(m, (n * span * (m - 1) ** 2).bit_length())",
     "SlotReducer(m, (span * (m - 1) ** 2).bit_length())",
     "tests/test_power_semigroup.py"),
    # The Berkowitz slot over Z without its factor n!.
    ("src/addca/polymat.py",
     "slot_width((factorial(n) * ((m - 1) * span) ** n).bit_length() + 1)",
     "slot_width((((m - 1) * span) ** n).bit_length() + 1)",
     "tests/test_polymat.py"),
)


def _pytest(tree: Path, test_file: str) -> int:
    # No bytecode is cached: a .pyc is checked by source size and mtime only,
    # which an edit of the same length within the same second keeps.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        # A test file that fails unmutated would report every mutant killed.
        for test_file in sorted({mutant[3] for mutant in MUTANTS}):
            if _pytest(tree, test_file):
                print(f"{test_file} fails on the unmutated tree")
                return 1
        for path, old, new, test_file in MUTANTS:
            text = (tree / path).read_text(encoding="utf-8")
            if text.count(old) != 1:
                outcome = "stale"
            else:
                (tree / path).write_text(text.replace(old, new), encoding="utf-8")
                outcome = "killed" if _pytest(tree, test_file) else "survived"
                (tree / path).write_text(text, encoding="utf-8")
            failed += outcome != "killed"
            print(f"{outcome:8}  {path}: {new!r}  ({test_file})")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
