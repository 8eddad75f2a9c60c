"""Span tracing of addca's public functions, installed from the benchmark.

``Tracer.installed()`` wraps the functions in ``SPANS`` and ``LEAVES`` and
puts the wrappers into every addca namespace that holds the original, since
modules import functions by name (``lca``, ``power_semigroup`` and ``cli``
each do ``from .polymat import char_poly``).  Leaving the context restores
the originals, so the untraced replay and the profile run the plain program.

* A span function gets one span per call: name, start, end, parent span and
  item id.  Its self time is its duration minus that of its child spans.
* A leaf function is called thousands of times per item, so it only adds to
  per-name counters (calls, time).  Its time stays inside its parent span's
  self time; the leaf's own self time excludes leaves nested inside it.

Spans stay in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import addca
from addca import additive_ca, cli, laurent, lca, modring, polymat, power_semigroup, tpoly

MODULES = (addca, modring, laurent, tpoly, polymat, power_semigroup, lca, additive_ca, cli)

# (owner, attribute, traced name)
SPANS = (
    (lca, "analyze_rule", "lca.analyze_rule"),
    (lca, "associated_matrix", "lca.associated_matrix"),
    (lca, "decide_surjective", "lca.decide_surjective"),
    (lca, "decide_transitive", "lca.decide_transitive"),
    (lca, "step", "lca.step"),
    (polymat, "char_poly", "polymat.char_poly"),
    (polymat, "determinant", "polymat.determinant"),
    (polymat.RingMatrix, "__mul__", "polymat.matmul"),
    (power_semigroup, "decide_finite_powers", "power_semigroup.decide_finite_powers"),
    (power_semigroup, "detect_orbit", "power_semigroup.detect_orbit"),
    (power_semigroup, "divisibility_witness", "power_semigroup.divisibility_witness"),
    (power_semigroup, "sampled_degree_growth", "power_semigroup.sampled_degree_growth"),
    (additive_ca, "decide_properties", "additive_ca.decide_properties"),
    (additive_ca, "associated_lca", "additive_ca.associated_lca"),
    (additive_ca, "step_additive", "additive_ca.step_additive"),
    (cli, "main", "cli.main"),
    (cli, "load_spec", "cli.load_spec"),
    (cli, "parse_spec", "cli.parse_spec"),
)
LEAVES = (
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly, "reduce_mod_prime", "laurent.reduce_mod_prime"),
    (tpoly, "pow_t_mod", "tpoly.pow_t_mod"),
    (tpoly, "mod_monic", "tpoly.mod_monic"),
    (modring, "factorize", "modring.factorize"),
)


class Tracer:
    """Spans, per-name counters and self times for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, item]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.item: int | None = None
        self._span_stack: list[int] = []    # open spans, innermost last
        self._child_s: list[float] = []     # child-span time of each open span
        self._leaf_child_s: list[float] = []  # nested-leaf time of each open leaf

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self
        orbit = name == "power_semigroup.detect_orbit"
        step = name == "lca.step"

        def traced(*args, **kwargs):
            if tracer.item is None:  # checks between items are not traced
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._span_stack[-1] if tracer._span_stack else None
            record = [name, 0.0, 0.0, parent, tracer.item]
            tracer.spans.append(record)
            tracer._span_stack.append(index)
            tracer._child_s.append(0.0)
            matmuls = tracer.calls["polymat.matmul"] if orbit else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._span_stack.pop()
                child = tracer._child_s.pop()
                record[1], record[2] = t0, t1
                tracer._close(name, t1 - t0, child)
                if tracer._child_s:
                    tracer._child_s[-1] += t1 - t0
            if orbit:
                tracer.counts["orbit_matmuls"] += tracer.calls["polymat.matmul"] - matmuls
                if result is not None:
                    tracer.counts["orbit_size"] += result.size
            elif step:
                tracer.counts["lca.step_cells_in"] += len(args[1].cells)
            return result

        return traced

    def leaf(self, name: str, fn):
        tracer = self
        pairs = name == "laurent.mul"

        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            if pairs:
                tracer.counts["laurent.mul_term_pairs"] += (
                    len(args[0].support()) * len(args[1].support()))
            nested = tracer._leaf_child_s
            nested.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._close(name, elapsed, nested.pop())
                if nested:
                    nested[-1] += elapsed

        return traced

    def _close(self, name: str, elapsed: float, child: float) -> None:
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child

    # -- items ----------------------------------------------------------------

    def run_item(self, index: int, kind: str, fn):
        """Run one item under a root span ``item.<kind>``; calls outside
        items, such as the checks, are not traced."""
        self.item = index
        try:
            return self.span(f"item.{kind}", fn)()
        finally:
            self.item = None

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []
        try:
            for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
                for owner, attribute, name in table:
                    original = getattr(owner, attribute)
                    wrapper = make(name, original)
                    targets = [owner] if isinstance(owner, type) else [
                        module for module in MODULES
                        if getattr(module, attribute, None) is original]
                    for target in targets:
                        saved.append((target, attribute, original))
                        setattr(target, attribute, wrapper)
            yield self
        finally:
            for target, attribute, original in reversed(saved):
                setattr(target, attribute, original)

    # -- results ----------------------------------------------------------------

    def compact_spans(self) -> dict:
        """Spans with name ids and microsecond offsets from the first span."""
        names = sorted({record[0] for record in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[name], round((start - origin) * 1e6), round((end - origin) * 1e6),
                 parent, item] for name, start, end, parent, item in self.spans]
        return {"names": names, "fields": ["name", "start_us", "end_us", "parent", "item"],
                "rows": rows}

    def shares(self) -> list[tuple[str, float]]:
        """Self time of every span name as a share of all item time."""
        items = sum(t for name, t in self.total_s.items() if name.startswith("item."))
        span_names = {record[0] for record in self.spans}
        rows = [(name, self.self_s[name] / items) for name in span_names if items]
        return sorted(rows, key=lambda row: -row[1])


def profile_by_module(fn) -> dict[str, float]:
    """cProfile ``fn()``; return self time per source file as shares."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    by_file: dict[str, float] = defaultdict(float)
    for (filename, _line, _func), row in stats.stats.items():
        path = Path(filename)
        if path.parent.name == "addca":
            key = f"addca/{path.name}"
        elif filename.startswith("~"):
            key = "(builtins)"
        else:
            key = "(stdlib and benchmark)"
        by_file[key] += row[2]
    total = sum(by_file.values()) or 1.0
    return dict(sorted(((k, v / total) for k, v in by_file.items()), key=lambda kv: -kv[1]))
