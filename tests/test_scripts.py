"""End-to-end runs of the scripts in scripts/: each exits 0 and prints the
pinned output, once its timings are replaced by <time>."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import cases

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SURVEY_OUTPUT = """\
modulus 2: 8 rules (<time>)
  sensitive          6  ( 75.0%)
  equicontinuous     2  ( 25.0%)
  injective          3  ( 37.5%)
  surjective         7  ( 87.5%)
  transitive         6  ( 75.0%)
  signatures:
        4  sensitive + surjective + transitive
        2  injective + sensitive + surjective + transitive
        1  equicontinuous
        1  equicontinuous + injective + surjective
modulus 3: 27 rules (<time>)
  sensitive         24  ( 88.9%)
  equicontinuous     3  ( 11.1%)
  injective          6  ( 22.2%)
  surjective        26  ( 96.3%)
  transitive        24  ( 88.9%)
  signatures:
       20  sensitive + surjective + transitive
        4  injective + sensitive + surjective + transitive
        2  equicontinuous + injective + surjective
        1  equicontinuous
modulus 4: 64 rules (<time>)
  sensitive         48  ( 75.0%)
  equicontinuous    16  ( 25.0%)
  injective         24  ( 37.5%)
  surjective        56  ( 87.5%)
  transitive        48  ( 75.0%)
  signatures:
       32  sensitive + surjective + transitive
       16  injective + sensitive + surjective + transitive
        8  equicontinuous
        8  equicontinuous + injective + surjective
"""

CROSSCHECK_OUTPUT = """\
corpus: 60 matrices, seed 20260814, <time>
verdicts: 2 finite, 58 infinite
orbit sizes (size: count):
  1: 1
  4: 1
divisibility exponents: k=1 x1, k=3 x1
no contradictions between the decision and the simulations
"""


# One case per spec file in specs/ and tests/specs/, verb and format.
REPLAY_OUTPUT = f"{len(cases())} of {len(cases())} golden cases match, 1 parser built (<time>)\n"


def strip_timings(text: str) -> str:
    """Replace every elapsed time such as ``0.3s`` by ``<time>``."""
    return re.sub(r"\b\d+\.\d+s\b", "<time>", text)


@pytest.mark.parametrize("script, args, expected", [
    ("ca_property_survey.py", ["--moduli", "2,3,4"], SURVEY_OUTPUT),
    ("corpus_crosscheck.py", ["--count", "60"], CROSSCHECK_OUTPUT),
    ("replay_goldens.py", [], REPLAY_OUTPUT),
], ids=["survey", "crosscheck", "replay"])
def test_script_output_is_pinned(script, args, expected):
    result = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert strip_timings(result.stdout) == expected
