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
PACKAGE = ROOT / "src" / "addca"
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"
# Files outside the test suite that drive addca: the benchmark and the scripts.
DRIVERS = sorted([ROOT / "perfbench" / "bench_workloads.py", ROOT / "perfbench" / "run.py",
                  *(ROOT / "scripts").glob("*.py")])
# The code whose references count as uses: the package outside __init__.py,
# the scripts and every file of the benchmark.
USERS = [*sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"),
         *sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])]

# Standard modules that nothing in a process running addca needs; dataclasses
# imports the other four.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

REMOVED = ("ResidueElement", "ZmodRing", "zmod", "crt_combine", "crt_split",
           # moved to tests/oracles.py: only the tests call them
           "spreads", "basis_config", "idempotent_power", "embed", "unembed",
           "in_embedding_image", "frobenius_companion", "zeros", "BudgetExhausted",
           "parse_laurent",
           # deleted: second copies of analyze_rule's criteria, a helper only
           # the tests called and an alias of simulate
           "decide_sensitivity", "decide_injective", "matrix_from_ints", "simulate_additive")
# Deleted methods, as module.class.method: nothing outside the tests called them.
REMOVED_METHODS = ("polymat.RingMatrix.__add__", "polymat.RingMatrix.__sub__",
                   "polymat.RingMatrix.__neg__", "additive_ca.AbelianGroup.reduce",
                   "lca.LcaRule.offsets", "additive_ca.AdditiveCaRule.offsets",
                   "lca.FiniteConfiguration.get", "lca.FiniteConfiguration.support",
                   "lca.FiniteConfiguration.is_zero", "laurent.LaurentPoly.__pow__",
                   "polymat.RingMatrix.__str__")
# The functions of addca.__all__ that nothing outside the tests references.
# simulate is the library's trajectory function; the CLI steps its windowed
# rows with `stepper` instead.
UNREFERENCED_EXPORTS = {"simulate"}
# The methods of exported classes that nothing outside the tests calls: the
# ring handle's element constructors, ``ring.from_int(v)`` and
# ``ring.monomial(e, c)``, which the docs teach, and LaurentPoly.monomial,
# which LaurentRing.monomial forwards to.
UNREFERENCED_METHODS = {"LaurentRing.from_int", "LaurentRing.monomial", "LaurentPoly.monomial"}


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


def test_removed_methods_stay_removed():
    for path in REMOVED_METHODS:
        module, owner, method = path.rsplit(".", 2)
        cls = getattr(importlib.import_module(f"addca.{module}"), owner)
        # A removed dunder that object defines is inherited from object again.
        assert getattr(cls, method, None) is getattr(object, method, None), path


def test_benchmark_traced_names_resolve():
    """Every (owner, attribute) the benchmark tracer wraps is still callable,
    so a simplification that deletes or renames one fails here."""
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    for owner, attribute, name in bench_trace.SPANS + bench_trace.LEAVES:
        assert callable(getattr(owner, attribute, None)), name


def _addca_references(tree: ast.Module, module: str | None = None) -> list[tuple[str, list[str]]]:
    """(module, attribute chain) for every ``from addca.x import y`` and every
    ``alias.a.b`` whose alias names an addca module.  For the source of the
    addca module ``module``, also every ``from .x import y`` and every use of
    a function or class that the module itself defines."""
    modules: dict[str, str] = {}
    references = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "addca":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if module and node.level == 1:
                source = ".".join(filter(None, ["addca", node.module]))
            if source.split(".")[0] != "addca":
                continue
            for alias in node.names:
                submodule = f"{source}.{alias.name}"
                if source == "addca" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
                else:
                    references.append((source, [alias.name]))
    defined = {node.name for node in tree.body if module and isinstance(
        node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in defined:
            references.append((module, [node.id]))
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


def test_every_exported_function_is_used():
    """Each function in addca.__all__ but UNREFERENCED_EXPORTS is referenced
    under its exported name from src/addca (outside __init__.py), scripts/
    or perfbench/, so a function only the tests call fails here."""
    referenced = set()
    for path in USERS:
        module = f"addca.{path.stem}" if path.parent == PACKAGE else None
        for owner, chain in _addca_references(ast.parse(path.read_text(encoding="utf-8")), module):
            owner = importlib.import_module(owner)
            for attribute in chain:
                owner = getattr(owner, attribute, None)
                referenced.add((attribute, id(owner)))
    unused = {name for name in addca.__all__
              if isinstance(getattr(addca, name), types.FunctionType)
              and (name, id(getattr(addca, name))) not in referenced}
    assert unused == UNREFERENCED_EXPORTS


def _attribute_names(node: ast.AST, within: str | None = None):
    """Every attribute name under ``node``, except a function's own name
    inside it: a method that forwards to a same-named method, as
    LaurentRing.monomial does, does not make that name used."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        within = node.name
    if isinstance(node, ast.Attribute) and node.attr != within:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _attribute_names(child, within)


def test_every_public_method_is_used():
    """Each public, non-dunder method or property of a class in
    addca.__all__, but UNREFERENCED_METHODS, is named as an attribute in
    src/addca (outside __init__.py), scripts/ or perfbench/, so a method
    only the tests call fails here.  The class of a receiver is not known
    without running the code, so an attribute of the method's name on any
    receiver counts."""
    names = set()
    for path in USERS:
        names.update(_attribute_names(ast.parse(path.read_text(encoding="utf-8"))))
    methods = (types.FunctionType, classmethod, staticmethod, property)
    unused = {f"{name}.{attribute}" for name in addca.__all__
              if isinstance(getattr(addca, name), type)
              for attribute, value in vars(getattr(addca, name)).items()
              if not attribute.startswith("_") and isinstance(value, methods)
              and attribute not in names}
    assert unused == UNREFERENCED_METHODS


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
