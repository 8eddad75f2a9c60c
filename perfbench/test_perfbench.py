"""Determinism and output-contract checks for the benchmark itself.

    python3 -m pytest -q perfbench

The same seed must give the same corpus; another seed must give another
corpus that passes every check and reports the same metric names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_addca()

import bench_workloads  # noqa: E402  (needs addca on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRIPT = Path(run.__file__).resolve()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(name):
    first = run.build(name, run.DEFAULT_SEED).corpus_digest
    assert run.build(name, run.DEFAULT_SEED).corpus_digest == first
    assert run.build(name, run.DEFAULT_SEED + 1).corpus_digest != first


def test_scalar_closed_forms():
    # Rule 90 over Z/2: sensitive, surjective, transitive, not injective.
    assert bench_workloads.ScalarRuleItem.closed_form(2, (1, 0, 1)) == (
        True, False, False, True, True)
    # The identity over Z/6 is injective, equicontinuous and not transitive.
    assert bench_workloads.ScalarRuleItem.closed_form(6, (0, 1, 0)) == (
        False, True, True, True, False)
    # 2 on the left, 3 in the centre over Z/6: the identity mod 2 and a
    # scaled shift mod 3, so injective and sensitive but not transitive.
    assert bench_workloads.ScalarRuleItem.closed_form(6, (2, 3, 0)) == (
        True, False, True, True, False)


def test_round_zero_is_digested_once_when_a_run_cycles():
    workload = run.build("survey", run.DEFAULT_SEED)
    item = next(i for i in workload.rounds[0] if isinstance(i, bench_workloads.RuleItem))
    for _ in range(2):
        assert item.record(item.run())
    assert len(workload.verdicts) == 1


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail([float(i) for i in range(1, 201)]) == (95.0, 190.0)
    assert run.tail([float(i) for i in range(1, 20001)]) == (99.9, 19980.0)
    assert run.tail([1.0, 2.0]) == (50.0, 1.0)


def _run(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", name, "--seed", "2",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_other_seed_passes_checks_with_the_same_metric_names(name):
    result = _run(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _run("survey", 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
