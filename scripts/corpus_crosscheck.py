#!/usr/bin/env python3
"""Cross-check the finiteness decision against orbit enumeration on a random corpus.

For every sampled matrix the coefficient-integrality verdict is compared with
what direct simulation can see: finite verdicts must close their power orbit
and produce a t^(2k)-t^k divisibility exponent; infinite verdicts must keep
growing in degree along doubled powers.  Prints one summary table.

    python3 scripts/corpus_crosscheck.py --count 200 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

# Import addca from this checkout's src/ (no install or PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addca.laurent import LaurentPoly, laurent_ring
from addca.polymat import RingMatrix
from addca.power_semigroup import (
    decide_finite_powers,
    detect_orbit,
    divisibility_witness,
    sampled_degree_growth,
)

MODULI = (2, 3, 4, 6, 8, 9, 12)


def random_matrix(rng: random.Random, m: int, n: int) -> RingMatrix:
    ring = laurent_ring(m)
    rows = [[LaurentPoly(ring.modulus, {e: rng.randrange(m) for e in (-1, 0, 1)})
             for _ in range(n)] for _ in range(n)]
    return RingMatrix(ring, rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--budget", type=int, default=100_000,
                        help="orbit budget for finite verdicts")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    started = time.perf_counter()
    verdicts: Counter[str] = Counter()
    orbit_sizes: Counter[int] = Counter()
    witness_exponents: Counter[int] = Counter()
    problems = []

    for index in range(args.count):
        matrix = random_matrix(rng, rng.choice(MODULI), rng.randint(1, 3))
        verdict = decide_finite_powers(matrix)
        if verdict.finite:
            verdicts["finite"] += 1
            orbit = detect_orbit(matrix, args.budget)
            exponent = divisibility_witness(matrix, args.budget)
            if orbit is None or exponent is None:
                problems.append(f"#{index}: finite verdict but budget exhausted")
                continue
            orbit_sizes[orbit.size] += 1
            witness_exponents[exponent] += 1
        else:
            verdicts["infinite"] += 1
            profile = sampled_degree_growth(matrix)
            if profile[-1] <= profile[0]:
                problems.append(f"#{index}: infinite verdict but flat degrees {profile}")

    elapsed = time.perf_counter() - started
    print(f"corpus: {args.count} matrices, seed {args.seed}, {elapsed:.1f}s")
    print(f"verdicts: {verdicts['finite']} finite, {verdicts['infinite']} infinite")
    if orbit_sizes:
        print("orbit sizes (size: count):")
        for size in sorted(orbit_sizes):
            print(f"  {size}: {orbit_sizes[size]}")
    if witness_exponents:
        top = ", ".join(f"k={k} x{c}" for k, c in sorted(witness_exponents.items()))
        print(f"divisibility exponents: {top}")
    if problems:
        print("PROBLEMS:")
        for line in problems:
            print(f"  {line}")
        return 1
    print("no contradictions between the decision and the simulations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
