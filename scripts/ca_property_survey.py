#!/usr/bin/env python3
"""Survey dynamical properties across small linear CA rules.

Enumerates every scalar (n = 1) rule of the given radius for each modulus,
optionally adds random n = 2 matrix rules, runs the property deciders, and
tabulates how often each property and property combination occurs.

    python3 scripts/ca_property_survey.py --moduli 2,3,4 --radius 1
    python3 scripts/ca_property_survey.py --moduli 6 --matrix-samples 50
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path

# Import addca from this checkout's src/ (no install or PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addca.lca import LcaRule, analyze_rule, scalar_rule
from addca.modring import factorize

PROPERTIES = ("sensitive", "equicontinuous", "injective", "surjective", "transitive")


def scalar_rules(m: int, radius: int):
    width = 2 * radius + 1
    for coeffs in itertools.product(range(m), repeat=width):
        yield scalar_rule(m, coeffs), f"coeffs {coeffs}"


def random_matrix_rule(rng: random.Random, m: int, radius: int) -> LcaRule:
    n = 2
    matrices = tuple(
        tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(n))
        for _ in range(2 * radius + 1))
    return LcaRule(factorize(m), n, radius, matrices)


def survey(rules) -> tuple[Counter, Counter, int]:
    per_property: Counter[str] = Counter()
    per_signature: Counter[tuple] = Counter()
    total = 0
    for rule, _label in rules:
        report = analyze_rule(rule)
        flags = {name: getattr(report, name) for name in PROPERTIES}
        for name, value in flags.items():
            if value:
                per_property[name] += 1
        per_signature[tuple(sorted(name for name, v in flags.items() if v))] += 1
        total += 1
    return per_property, per_signature, total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--moduli", default="2,3,4",
                        help="comma-separated alphabet sizes to survey")
    parser.add_argument("--radius", type=int, default=1)
    parser.add_argument("--matrix-samples", type=int, default=0,
                        help="additionally sample this many random n=2 rules per modulus")
    parser.add_argument("--seed", type=int, default=20260814)
    args = parser.parse_args()

    moduli = [int(part) for part in args.moduli.split(",") if part.strip()]
    rng = random.Random(args.seed)

    for m in moduli:
        started = time.perf_counter()
        rules = list(scalar_rules(m, args.radius))
        if args.matrix_samples:
            rules.extend((random_matrix_rule(rng, m, args.radius), "random n=2")
                         for _ in range(args.matrix_samples))
        per_property, per_signature, total = survey(rules)
        elapsed = time.perf_counter() - started
        print(f"modulus {m}: {total} rules ({elapsed:.1f}s)")
        for name in PROPERTIES:
            count = per_property[name]
            print(f"  {name:<14} {count:>5}  ({100.0 * count / total:5.1f}%)")
        print("  signatures:")
        for signature, count in per_signature.most_common():
            label = " + ".join(signature) if signature else "(none)"
            print(f"    {count:>5}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
