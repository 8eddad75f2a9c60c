"""Acceptance suite: one printed pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion is also a hard assertion, so the suite doubles as a regression
gate.  All corpora are seeded and the seeds appear in the printed lines.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from addca import tpoly
from addca.additive_ca import (
    AbelianGroup,
    associated_lca,
    decide_properties,
    embed_config,
    prime_components,
    project_config,
    step_additive,
)
from addca.laurent import LaurentPoly, laurent_ring
from addca.lca import (
    LcaRule,
    analyze_rule,
    decide_surjective,
    decide_transitive,
    scalar_rule,
    step,
)
from addca.lca import step as lca_step
from addca.modring import factorize
from addca.polymat import (
    RingMatrix,
    char_poly,
    identity,
)
from addca.power_semigroup import (
    decide_finite_powers,
    detect_orbit,
    divisibility_witness,
    sampled_degree_growth,
)

from oracles import (
    balance_surjectivity_oracle,
    bounded_transitivity_oracle,
    char_poly_by_minor_sums,
    constant_matrix,
    constant_value,
    evaluate_at_matrix,
    finite_support_kernel_witness,
    frobenius_companion,
    matrix_trace,
    max_exponent,
    periodic_kernel_witness,
    spreads,
    tpoly_sub,
    zeros,
)
from test_additive_ca import random_config, random_rule

MATRIX_SEED = 1270001
NILPOTENT_SEED = 883311
LCA_SEED = 6600
ADDITIVE_SEED = 9911

# Budget for confirming that infinite-verdict orbits do not close.  A full
# 1e5-step budget is only feasible for finite orbits (their matrices stay
# small); an exploding matrix reaches entry degree ~budget, making long
# enumeration quadratic in the budget, so the check is a short exhaustion
# run plus the degree-growth record along doubled powers.
INFINITE_ORBIT_BUDGET = 32
# Budget for the orbit and the divisibility witness of finite-verdict
# matrices.  Every finite matrix of the corpus needs at most 11 (measured by
# bisecting each search's budget); 64 leaves headroom.  A wrong chi that calls
# an infinite matrix finite then fails within 64 products instead of walking
# 1e5 products of ever larger entries.
FINITE_ORBIT_BUDGET = 64


def _report(number: int, description: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# corpora


@lru_cache(maxsize=None)
def matrix_corpus() -> tuple[RingMatrix, ...]:
    """500 matrices, n <= 3, m in {2,3,4,6,8,9,12}, entry supports in [-1,1]."""
    rng = random.Random(MATRIX_SEED)
    moduli = (2, 3, 4, 6, 8, 9, 12)
    corpus = []
    for _ in range(500):
        m = rng.choice(moduli)
        n = rng.randint(1, 3)
        ring = laurent_ring(m)
        rows = [[LaurentPoly(ring.modulus, {e: rng.randrange(m) for e in (-1, 0, 1)})
                 for _ in range(n)] for _ in range(n)]
        corpus.append(RingMatrix(ring, rows))
    return tuple(corpus)


@lru_cache(maxsize=None)
def lca_corpus() -> tuple[LcaRule, ...]:
    """Named landmark rules plus 50 random ones (m <= 4, n <= 2, r <= 1)."""
    rng = random.Random(LCA_SEED)
    shear = LcaRule(factorize(4), 2, 1,
                    (((0, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 0))))
    rules = [
        scalar_rule(2, (1, 0, 1)),    # rule 90
        scalar_rule(4, (1,)),         # identity
        scalar_rule(4, (0, 0, 1)),    # shift
        scalar_rule(4, (0,)),         # zero
        scalar_rule(4, (0, 2, 0)),    # nilpotent scalar
        scalar_rule(4, (2, 0, 0)),    # non-surjective with finite-support kernel
        scalar_rule(2, (1, 1, 1)),
        scalar_rule(3, (1, 1, 1)),
        shear,
    ]
    while len(rules) < 59:
        m = rng.choice((2, 3, 4))
        n = rng.choice((1, 1, 2))
        r = rng.choice((0, 1))
        mats = tuple(tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(n))
                     for _ in range(2 * r + 1))
        rules.append(LcaRule(factorize(m), n, r, mats))
    return tuple(rules)


def _degree_records(profile: list[int]) -> list[int]:
    records = []
    for value in profile:
        if not records or value > records[-1]:
            records.append(value)
    return records


def _divides_t2k_minus_tk(matrix: RingMatrix, k: int) -> bool:
    ring = matrix.ring
    chi = list(char_poly(matrix).coeffs)
    low = tpoly.pow_t_mod(chi, k)
    high = tpoly.pow_t_mod(chi, 2 * k)
    return not tpoly_sub(high, low, ring)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_worked_example():
    started = time.perf_counter()
    ring = laurent_ring(4)
    upper = RingMatrix(ring, [[ring.one(), ring.monomial(1)],
                              [ring.zero(), ring.one()]])
    ident = identity(ring, 2)

    verdict_a = decide_finite_powers(upper)
    verdict_b = decide_finite_powers(ident)
    orbit_a = detect_orbit(upper, 100_000)
    orbit_b = detect_orbit(ident, 100_000)
    chi_a = char_poly(upper)
    chi_b = char_poly(ident)
    squared = tuple(ring.from_int(v) for v in (1, -2, 1))  # (t-1)^2

    elapsed = time.perf_counter() - started
    passed = (verdict_a.finite and verdict_b.finite
              and orbit_a is not None and orbit_a.size == 4
              and orbit_b is not None and orbit_b.size == 1
              and chi_a.coeffs == squared and chi_b.coeffs == squared
              and elapsed < 1.0)
    _report(1, "[[1,x],[0,1]] over Z/4 has a 4-element power set, I has 1, "
               "both finite with chi=(t-1)^2",
            passed, f"sizes {orbit_a and orbit_a.size}/{orbit_b and orbit_b.size}, "
                    f"{elapsed:.2f}s < 1s")


def test_criterion_2_companion_verdicts_agree():
    started = time.perf_counter()
    disagreements = 0
    for matrix in matrix_corpus():
        chi = char_poly(matrix)
        direct = decide_finite_powers(matrix).finite
        via_companion = decide_finite_powers(frobenius_companion(chi)).finite
        if direct != via_companion:
            disagreements += 1
    elapsed = time.perf_counter() - started
    passed = disagreements == 0 and elapsed < 60.0
    _report(2, "finiteness verdict is invariant under passing to the companion "
               "of the characteristic polynomial",
            passed, f"500 matrices, seed {MATRIX_SEED}, {disagreements} disagreements, "
                    f"{elapsed:.1f}s < 60s")


def test_criterion_3_charpoly_oracles():
    started = time.perf_counter()
    failures = 0
    for matrix in matrix_corpus():
        chi = char_poly(matrix)
        if chi.coeffs != char_poly_by_minor_sums(matrix).coeffs:
            failures += 1
            continue
        if evaluate_at_matrix(chi, matrix) != zeros(matrix.ring, matrix.n):
            failures += 1
    elapsed = time.perf_counter() - started
    _report(3, "division-free char poly equals the principal-minor expansion and "
               "annihilates its matrix",
            failures == 0, f"500 matrices, seed {MATRIX_SEED}, {failures} failures, "
                           f"{elapsed:.1f}s")


def test_criterion_4_finiteness_cross_validation():
    started = time.perf_counter()
    contradictions = 0
    finite_count = infinite_count = 0
    for matrix in matrix_corpus():
        if decide_finite_powers(matrix).finite:
            finite_count += 1
            orbit = detect_orbit(matrix, FINITE_ORBIT_BUDGET)
            witness = divisibility_witness(matrix, FINITE_ORBIT_BUDGET)
            if orbit is None or witness is None or not _divides_t2k_minus_tk(matrix, witness):
                contradictions += 1
        else:
            infinite_count += 1
            orbit = detect_orbit(matrix, INFINITE_ORBIT_BUDGET)
            profile = sampled_degree_growth(matrix)
            records = _degree_records(profile)
            if orbit is not None or len(records) < 3 or profile[-1] <= profile[0]:
                contradictions += 1
    elapsed = time.perf_counter() - started
    _report(4, "finite verdicts close their orbits and divide t^2k - t^k; infinite "
               "verdicts exhaust the budget with growing degree records",
            contradictions == 0,
            f"{finite_count} finite / {infinite_count} infinite, seed {MATRIX_SEED}, "
            f"{contradictions} contradictions, {elapsed:.1f}s")


def test_criterion_5_nilpotent_traces():
    started = time.perf_counter()
    rng = random.Random(NILPOTENT_SEED)
    moduli = (4, 8, 9, 12)
    failures = 0
    nonzero_traces = 0
    produced = 0
    while produced < 200:
        m = rng.choice(moduli)
        n = rng.randint(2, 3)
        entries = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        # accept iff nilpotent: over each residue field the n-th power vanishes
        nilpotent = True
        for p in factorize(m).primes:
            acc = [[v % p for v in row] for row in entries]
            base = [row[:] for row in acc]
            for _ in range(n - 1):
                acc = [[sum(acc[i][k] * base[k][j] for k in range(n)) % p
                        for j in range(n)] for i in range(n)]
            if any(any(row) for row in acc):
                nilpotent = False
                break
        if not nilpotent:
            continue
        produced += 1
        ring = laurent_ring(m)
        matrix = constant_matrix(ring, entries)
        index_bound = n * max_exponent(factorize(m))
        if matrix**index_bound != zeros(ring, n):
            failures += 1
            continue
        trace = constant_value(matrix_trace(matrix))
        if trace % m:
            nonzero_traces += 1
        if not all(trace % p == 0 for p in factorize(m).primes):
            failures += 1
        elif not any(pow(trace, j, m) == 0 for j in range(1, 9)):
            failures += 1  # brute-force confirmation of nilpotency
    elapsed = time.perf_counter() - started
    _report(5, "random nilpotent matrices over Z/m have nilpotent trace",
            failures == 0,
            f"200 matrices ({nonzero_traces} nonzero traces), seed {NILPOTENT_SEED}, "
            f"{failures} failures, {elapsed:.1f}s")


def test_criterion_6_surjectivity_balance_and_kernel_witnesses():
    started = time.perf_counter()
    disagreements = 0
    finite_support_witnesses = 0
    periodic_witnesses = 0
    checked = 0
    for rule in lca_corpus():
        if rule.modulus.m ** (rule.n * (2 * rule.radius + 1)) > 2**20:
            continue
        checked += 1
        surjective = decide_surjective(rule)
        if surjective != balance_surjectivity_oracle(rule):
            disagreements += 1
            continue
        if analyze_rule(rule).injective:
            # completeness direction: the search space really is empty
            if periodic_kernel_witness(rule) is not None:
                disagreements += 1
            continue
        if not surjective:
            # Garden-of-Eden: non-surjective rules have finite-support kernels
            witness = finite_support_kernel_witness(rule)
            if witness is None or not witness.cells or step(rule, witness).cells:
                disagreements += 1
            else:
                finite_support_witnesses += 1
        else:
            # surjective implies pre-injective: only periodic witnesses exist
            word = periodic_kernel_witness(rule)
            if word is None:
                disagreements += 1
            else:
                periodic_witnesses += 1
    elapsed = time.perf_counter() - started
    passed = disagreements == 0 and elapsed < 300.0
    _report(6, "surjectivity decisions match balance counting; every non-injective "
               "rule exhibits an explicit kernel witness",
            passed, f"{checked} rules, seed {LCA_SEED}, {finite_support_witnesses} "
                    f"finite-support + {periodic_witnesses} periodic witnesses, "
                    f"{disagreements} disagreements, {elapsed:.1f}s < 300s")


def test_criterion_7_transitivity_bounded_oracle():
    started = time.perf_counter()
    disagreements = 0
    transitive_count = 0
    for rule in lca_corpus():
        decided = decide_transitive(rule)
        if decided:
            transitive_count += 1
        if decided != bounded_transitivity_oracle(rule, k_max=64):
            disagreements += 1
    elapsed = time.perf_counter() - started
    _report(7, "transitivity certificate agrees with the k <= 64 bounded "
               "surjectivity-of-F^k-I oracle",
            disagreements == 0,
            f"{len(lca_corpus())} rules ({transitive_count} transitive), seed {LCA_SEED}, "
            f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_8_additive_commutation_and_verdicts():
    started = time.perf_counter()
    rng = random.Random(ADDITIVE_SEED)
    prime_pool = (2, 2, 2, 3, 3, 5, 7)
    failures = 0
    for _ in range(200):
        factors: list[int] = []
        order = 1
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(prime_pool)
            k = rng.randint(1, 3 if p == 2 else 2 if p == 3 else 1)
            if order * p**k > 64:
                continue
            factors.append(p**k)
            order *= p**k
        if not factors:
            factors = [rng.choice((2, 3, 4))]
        group = AbelianGroup(tuple(factors))
        rule = random_rule(rng, group, rng.choice((0, 1)))
        config = random_config(rng, group, span=2)

        components = prime_components(rule)
        ok = True
        for component in components:
            linear = associated_lca(component.rule)
            sub_group = component.rule.group
            current = project_config(config, component)
            for _ in range(10):
                stepped = step_additive(component.rule, current)
                if embed_config(sub_group, stepped) != \
                        lca_step(linear, embed_config(sub_group, current)):
                    ok = False
                    break
                current = stepped
            if not ok:
                break
        if ok:
            report = decide_properties(rule)
            linear_reports = [analyze_rule(associated_lca(c.rule)) for c in components]
            ok = (report.sensitive == any(r.sensitive for r in linear_reports)
                  and report.equicontinuous == (not report.sensitive)
                  and report.injective == all(r.injective for r in linear_reports)
                  and report.surjective == all(r.surjective for r in linear_reports)
                  and report.transitive == all(r.transitive for r in linear_reports))
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - started
    _report(8, "embedding commutes with 10 steps of every prime component and "
               "additive verdicts match the associated linear ones",
            failures == 0,
            f"200 triples (|G| <= 64), seed {ADDITIVE_SEED}, {failures} failures, "
            f"{elapsed:.1f}s")


def test_criterion_9_sensitive_rules_spread():
    started = time.perf_counter()
    sensitive_count = 0
    failures = 0
    for rule in lca_corpus():
        if not analyze_rule(rule).sensitive:
            continue
        sensitive_count += 1
        if not any(spreads(rule, i, horizon=20, budget=200) is True
                   for i in range(rule.n)):
            failures += 1
    elapsed = time.perf_counter() - started
    _report(9, "every sensitive rule has a basis perturbation escaping |pos| > 20 "
               "within 200 steps",
            failures == 0,
            f"{sensitive_count} sensitive rules, seed {LCA_SEED}, {failures} failures, "
            f"{elapsed:.1f}s")
