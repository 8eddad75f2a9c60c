"""Public API guard: ``addca.__all__`` matches what the package exports."""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

import addca

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"

REMOVED = ("ResidueElement", "ZmodRing", "zmod", "crt_combine", "crt_split")


def test_all_names_resolve_and_are_unique():
    assert len(addca.__all__) == len(set(addca.__all__))
    for name in addca.__all__:
        assert hasattr(addca, name), name


def test_every_public_import_is_listed():
    public = {name for name, value in vars(addca).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(addca.__all__), sorted(public - set(addca.__all__))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from addca import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(addca.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in addca.__all__, name
        assert not hasattr(addca, name), name


def test_benchmark_traced_names_resolve():
    """Every (owner, attribute) the benchmark tracer wraps is still callable,
    so a simplification that deletes or renames one fails here."""
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    for owner, attribute, name in bench_trace.SPANS + bench_trace.LEAVES:
        assert callable(getattr(owner, attribute, None)), name
