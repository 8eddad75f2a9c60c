"""Public API guard: ``addca.__all__`` matches what the package exports."""

from __future__ import annotations

import ast
import importlib.util
import types
from pathlib import Path

import pytest

import addca

ROOT = Path(__file__).resolve().parent.parent
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"
# Files outside the test suite that drive addca: the benchmark and the scripts.
DRIVERS = sorted([ROOT / "perfbench" / "bench_workloads.py", ROOT / "perfbench" / "run.py",
                  *(ROOT / "scripts").glob("*.py")])

REMOVED = ("ResidueElement", "ZmodRing", "zmod", "crt_combine", "crt_split",
           # moved to tests/oracles.py: only the tests call them
           "spreads", "basis_config", "idempotent_power", "embed", "unembed",
           "in_embedding_image", "frobenius_companion", "zeros", "BudgetExhausted")


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


def _addca_references(tree: ast.Module) -> list[tuple[str, list[str]]]:
    """(module, attribute chain) for every ``from addca.x import y`` and every
    ``alias.a.b`` whose alias names an addca module, in source order."""
    modules: dict[str, str] = {}
    references = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "addca":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "addca":
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if node.module == "addca" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
                else:
                    references.append((node.module, [alias.name]))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            references.append((modules[node.id], chain))
    return references


@pytest.mark.parametrize("path", DRIVERS, ids=lambda path: path.name)
def test_benchmark_and_script_references_resolve(path):
    """Every addca name the benchmark and the scripts import or look up
    still exists, so a move out of src/addca fails here and not in a
    benchmark run."""
    references = _addca_references(ast.parse(path.read_text(encoding="utf-8")))
    for module, chain in references:
        owner = importlib.import_module(module)
        for attribute in chain:
            assert hasattr(owner, attribute), f"{path.name}: {module}.{'.'.join(chain)}"
            owner = getattr(owner, attribute)
