"""Public API guard: ``addca.__all__`` matches what the package exports, the
import stays light, and the value types are immutable values."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import addca
from addca import (AbelianGroup, AdditiveCaRule, FinitenessVerdict, GroupEndomorphism, LcaRule,
                   Modulus, OrbitShape, analyze_rule, associated_matrix, char_poly, factorize,
                   laurent_ring, prime_components, scalar_rule)
from addca.cli import parse_spec

ROOT = Path(__file__).resolve().parent.parent
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"
# Files outside the test suite that drive addca: the benchmark and the scripts.
DRIVERS = sorted([ROOT / "perfbench" / "bench_workloads.py", ROOT / "perfbench" / "run.py",
                  *(ROOT / "scripts").glob("*.py")])

# Standard modules that nothing in a process running addca needs; dataclasses
# imports the other four.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

REMOVED = ("ResidueElement", "ZmodRing", "zmod", "crt_combine", "crt_split",
           # moved to tests/oracles.py: only the tests call them
           "spreads", "basis_config", "idempotent_power", "embed", "unembed",
           "in_embedding_image", "frobenius_companion", "zeros", "BudgetExhausted",
           "parse_laurent")


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


def test_import_loads_no_introspection_modules():
    """A fresh ``import addca, addca.cli`` pays for none of HEAVY_MODULES, nor
    for ``addca.tpoly``, which only the tests and the benchmark tracer use."""
    code = ("import addca, addca.cli, sys; "
            "print(' '.join(name for name in sys.argv[1:] if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *HEAVY_MODULES, "addca.tpoly"],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == []


def _group():
    return AbelianGroup((4, 2))


def _additive_rule():
    return AdditiveCaRule(AbelianGroup((4, 3)), 0, (((1, 0), (0, 2)),))


_RULE90_SPEC = {"kind": "linear", "m": 2, "n": 1, "radius": 1,
                "matrices": [[[1]], [[0]], [[1]]], "initial": {"0": [1]}}

# (type name, field to overwrite, factory building a fresh equal instance)
VALUE_TYPES = [
    ("Modulus", "m", lambda: Modulus(12, ((2, 2), (3, 1)))),
    ("LaurentRing", "modulus", lambda: laurent_ring(4)),
    ("OrbitShape", "period", lambda: OrbitShape(2, 3)),
    ("FinitenessVerdict", "finite", lambda: FinitenessVerdict(False, 1, 2)),
    ("PrimeComponent", "prime", lambda: prime_components(_additive_rule())[0]),
    ("SpecDocument", "rule", lambda: parse_spec(_RULE90_SPEC)),
    ("PropertyReport", "notes", lambda: analyze_rule(scalar_rule(2, (1, 0, 1)))),
    ("LcaRule", "matrices", lambda: scalar_rule(4, (1, 2, 3))),
    ("CharPoly", "coeffs",
     lambda: char_poly(associated_matrix(LcaRule(factorize(4), 2, 0, (((1, 2), (3, 1)),))))),
    ("AbelianGroup", "factors", _group),
    ("GroupEndomorphism", "matrix", lambda: GroupEndomorphism(_group(), ((1, 2), (1, 1)))),
    ("AdditiveCaRule", "endomorphisms", _additive_rule),
]


@pytest.mark.parametrize("name, field, make", VALUE_TYPES, ids=[row[0] for row in VALUE_TYPES])
def test_value_types_are_immutable_values(name, field, make):
    value = make()
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")
    rebuilt = make()
    assert rebuilt is not value and rebuilt == value
    if name != "PropertyReport":  # its notes are a dict, so it has no hash
        assert hash(rebuilt) == hash(value)
