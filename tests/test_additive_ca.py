"""Tests for additive CA over products of primary cyclic groups.

The load-bearing check is the intertwining identity: embedding a
configuration and stepping the associated linear CA must equal stepping the
additive CA and embedding the result.  Everything else (splitting, property
verdicts) is cross-checked against brute-force oracles on the additive
semantics, never through the embedding being tested.
"""

from __future__ import annotations

import random
import re
import time
from itertools import product

import pytest

from addca.additive_ca import (
    AbelianGroup,
    AdditiveCaRule,
    GroupEndomorphism,
    MalformedEndomorphismError,
    associated_lca,
    decide_properties,
    embed_config,
    prime_components,
    project_config,
    step_additive,
)
from addca.lca import FiniteConfiguration, LcaRule, analyze_rule, scalar_rule
from addca.lca import simulate as lca_simulate
from addca.lca import step as lca_step
from addca.modring import factorize

from oracles import (
    additive_balance_surjectivity_oracle,
    additive_local_map,
    additive_periodic_kernel_witness,
    apply_endomorphism,
    associated_lca_matrices,
    cell,
    combination,
    embed,
    finite_support_kernel_witness,
    group_elements,
    group_order,
    group_reduce,
    in_embedding_image,
    is_periodic_additive_kernel_word,
    max_abs_position,
    offsets,
    periodic_kernel_witness,
    step_through_constructor,
    unembed,
)

G42 = AbelianGroup((4, 2))


# ---------------------------------------------------------------------------
# corpus helpers


def endomorphism(group: AbelianGroup, pick) -> GroupEndomorphism:
    """The endomorphism whose entry (i, j) is p^lift * pick(q), one of the
    q = p^(k_i - lift) values that keep it a homomorphism."""
    rows = []
    for i in range(group.rank):
        p_i, k_i = group.prime_exponent(i)
        row = []
        for j in range(group.rank):
            p_j, k_j = group.prime_exponent(j)
            if p_i != p_j:
                row.append(0)
            else:
                lift = max(0, k_i - k_j)
                row.append(p_i**lift * pick(p_i ** (k_i - lift)))
        rows.append(tuple(row))
    return GroupEndomorphism(group, tuple(rows))


def random_endomorphism(rng: random.Random, group: AbelianGroup) -> GroupEndomorphism:
    return endomorphism(group, rng.randrange)


def random_rule(rng: random.Random, group: AbelianGroup, radius: int) -> AdditiveCaRule:
    endos = tuple(random_endomorphism(rng, group) for _ in range(2 * radius + 1))
    return AdditiveCaRule(group, radius, endos)


def random_config(rng: random.Random, group: AbelianGroup, span: int = 3) -> FiniteConfiguration:
    cells = {}
    for pos in range(-span, span + 1):
        if rng.random() < 0.5:
            cells[pos] = tuple(rng.randrange(q) for q in group.factors)
    return FiniteConfiguration(group.factors, cells)


def brute_step(rule: AdditiveCaRule, config: FiniteConfiguration) -> FiniteConfiguration:
    """Slide the local map over every window that can see the support."""
    group = rule.group
    if not config.cells:
        return FiniteConfiguration(group.factors, {})
    lo = min(config.cells) - rule.radius
    hi = max(config.cells) + rule.radius
    cells = {}
    for pos in range(lo, hi + 1):
        word = tuple(cell(config, pos + z) for z in offsets(rule))
        value = additive_local_map(rule, word)
        if any(value):
            cells[pos] = value
    return FiniteConfiguration(group.factors, cells)


def diag_rule(group: AbelianGroup, *diagonals: tuple[int, ...]) -> AdditiveCaRule:
    """Rule whose endomorphisms are the given diagonal matrices, z = -r..r."""
    rank = group.rank
    endos = []
    for diag in diagonals:
        endos.append(tuple(tuple(diag[i] if i == j else 0 for j in range(rank))
                           for i in range(rank)))
    radius = (len(diagonals) - 1) // 2
    return AdditiveCaRule(group, radius, tuple(endos))


SINGLE_PRIME_FACTORS = [(2,), (4,), (8,), (2, 2), (4, 2), (2, 4), (8, 2, 4),
                        (3,), (9,), (3, 9), (9, 3, 3)]
MIXED_FACTORS = [(2, 3), (4, 3), (2, 9, 2), (8, 3, 3)]


# ---------------------------------------------------------------------------
# groups and endomorphisms


def test_group_validation_and_shape():
    assert G42.rank == 2
    assert group_order(G42) == 8
    assert G42.primes() == (2,)
    assert G42.prime_exponent(0) == (2, 2)
    assert G42.prime_exponent(1) == (2, 1)
    assert group_reduce(G42, (7, 5)) == (3, 1)
    assert len(list(group_elements(AbelianGroup((4, 3))))) == 12
    with pytest.raises(ValueError):
        AbelianGroup((6,))  # not primary: must be split into (2, 3)
    with pytest.raises(ValueError):
        AbelianGroup(())
    with pytest.raises(ValueError):
        AbelianGroup((4, 1))
    with pytest.raises(ValueError):
        group_reduce(G42, (1, 2, 3))


def test_endomorphism_validation():
    endo = GroupEndomorphism(G42, ((1, 2), (1, 1)))
    assert endo.matrix == ((1, 2), (1, 1))
    assert apply_endomorphism(endo, (3, 1)) == (1, 0)  # (3 + 2, 3 + 1) mod (4, 2)

    # e_1 has order 2, so its image in the Z/4 part must be 2-divisible
    with pytest.raises(MalformedEndomorphismError, match=r"\(0,1\).*divisible by 2"):
        GroupEndomorphism(G42, ((0, 1), (0, 1)))

    mixed = AbelianGroup((4, 3))
    with pytest.raises(MalformedEndomorphismError, match=r"\(0,1\)"):
        GroupEndomorphism(mixed, ((1, 1), (0, 1)))

    with pytest.raises(MalformedEndomorphismError):
        GroupEndomorphism(G42, ((1,), (1,)))

    # entries are stored as canonical residues mod the row's factor
    assert GroupEndomorphism(G42, ((5, -2), (4, 3))).matrix == ((1, 2), (0, 1))


def test_canonical_endomorphism_matrix_is_shared_not_copied():
    matrix = ((1, 2), (1, 1))
    shared = GroupEndomorphism(G42, matrix)
    assert shared.matrix is matrix
    rebuilt = GroupEndomorphism(G42, [[5, -2], [True, 3.0]])
    assert rebuilt.matrix == matrix
    assert all(type(v) is int for row in rebuilt.matrix for v in row)
    assert rebuilt == shared and hash(rebuilt) == hash(shared)
    assert type(GroupEndomorphism(G42, ((True, 2), (1, 1))).matrix[0][0]) is int
    rule = AdditiveCaRule(G42, 0, (shared,))
    for value in (G42, shared, rule):
        assert not hasattr(value, "__dict__")


def test_rejected_matrix_really_is_not_additive():
    # The raw map h -> ((0*h0 + 1*h1) mod 4, h1 mod 2) from the rejected
    # matrix above genuinely fails additivity, so the validation is not
    # stricter than the mathematics demands.
    def raw(h):
        return ((h[1]) % 4, (h[1]) % 2)

    h = (0, 1)
    doubled = raw(((h[0] + h[0]) % 4, (h[1] + h[1]) % 2))
    pointwise = tuple((a + b) % q for a, b, q in zip(raw(h), raw(h), (4, 2)))
    assert doubled == (0, 0)
    assert pointwise == (2, 0)
    assert doubled != pointwise


def test_valid_endomorphisms_are_additive_exhaustively():
    rng = random.Random(96321)
    for factors in [(4, 2), (2, 2), (8,), (9, 3), (3, 3), (2, 3), (4, 3)]:
        group = AbelianGroup(factors)
        for _ in range(4):
            endo = random_endomorphism(rng, group)
            for h, g in product(group_elements(group), repeat=2):
                total = tuple((a + b) % q for a, b, q in zip(h, g, factors))
                expect = tuple((a + b) % q for a, b, q in zip(apply_endomorphism(endo, h),
                                                              apply_endomorphism(endo, g), factors))
                assert apply_endomorphism(endo, total) == expect


def test_rule_validation():
    ident = GroupEndomorphism(G42, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="expected 3"):
        AdditiveCaRule(G42, 1, (ident,))
    with pytest.raises(ValueError, match="radius"):
        AdditiveCaRule(G42, -1, ())
    other = GroupEndomorphism(AbelianGroup((4, 4)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="different group"):
        AdditiveCaRule(G42, 0, (other,))
    # raw matrices are wrapped (and validated) on the way in
    rule = AdditiveCaRule(G42, 1, (((0, 0), (0, 0)), ((1, 2), (1, 1)), ((2, 0), (0, 1))))
    assert rule.endomorphisms[1].matrix == ((1, 2), (1, 1))
    assert list(offsets(rule)) == [-1, 0, 1]


# ---------------------------------------------------------------------------
# stepping


def test_step_additive_matches_sliding_local_map():
    rng = random.Random(55802)
    for factors in SINGLE_PRIME_FACTORS[:6] + MIXED_FACTORS:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            rule = random_rule(rng, group, radius)
            for _ in range(3):
                config = random_config(rng, group)
                assert step_additive(rule, config) == brute_step(rule, config)


def test_step_rejects_foreign_configurations():
    rule = diag_rule(G42, (1, 1))
    with pytest.raises(ValueError, match="alphabet"):
        step_additive(rule, FiniteConfiguration((4, 4), {0: (1, 1)}))


def _sparse_matrices(rng: random.Random, m: int, n: int, radius: int, count: int) -> list:
    """2r+1 matrices over Z/m, all zero except at ``count`` random offsets,
    always including -r and r."""
    zero = ((0,) * n,) * n
    mats = [zero] * (2 * radius + 1)
    for k in {0, 2 * radius, *rng.sample(range(2 * radius + 1), count - 2)}:
        mats[k] = tuple(tuple(rng.randrange(1, m) for _ in range(n)) for _ in range(n))
    return mats


def _kernel_corpus(rng: random.Random) -> tuple[list, list, list]:
    """(cases, full, cancelling), lists of linear and additive rules: dense
    random rules over Z/m and over mixed-order groups, sparse rules of radius
    30 to 1000, m = 2^61 - 1 with n = 4 and all-zero rules; rules at their
    largest entries; rules under which two equal cells at 0 and 2 cancel on
    cell 1."""
    cases = []
    for m in (2, 3, 4, 6, 9):
        for n in (1, 2, 3):
            radius = rng.randrange(3)
            mats = tuple(tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(n))
                         for _ in range(2 * radius + 1))
            cases.append(LcaRule(factorize(m), n, radius, mats))
    for factors in ((4, 2, 3, 9), (2, 3), (8, 3, 3), (9,)):
        cases.append(random_rule(rng, AbelianGroup(factors), rng.randrange(3)))
    for m, n, radius, count in ((4, 2, 30, 2), (6, 3, 137, 3), (9, 1, 1000, 3),
                                (2**61 - 1, 4, 45, 3)):
        cases.append(LcaRule(factorize(m), n, radius, _sparse_matrices(rng, m, n, radius, count)))
    mixed = AbelianGroup((4, 2, 3, 9))
    endos = [((0,) * 4,) * 4] * 121
    for k in (0, 37, 120):
        endos[k] = random_endomorphism(rng, mixed)
    cases.append(AdditiveCaRule(mixed, 60, endos))
    cases.append(LcaRule(factorize(4), 2, 2, [((0, 0), (0, 0))] * 5))
    cases.append(AdditiveCaRule(mixed, 1, [((0,) * 4,) * 4] * 3))
    # Every entry and component at its largest residue: a target slot sums
    # exactly k*n*(Q-1)^2, the bound the slot width is chosen for.
    full = []
    for m, n, radius in ((4, 2, 1), (4, 3, 2), (2**61 - 1, 4, 1), (5, 2, 3)):
        full.append(LcaRule(factorize(m), n, radius, [((m - 1,) * n,) * n] * (2 * radius + 1)))
    # F(c)_1 = M c_0 - M c_2 = 0 when c_0 = c_2.
    endo = random_endomorphism(rng, mixed).matrix
    negated = tuple(tuple(-v for v in row) for row in endo)
    cancelling = [scalar_rule(2, (1, 0, 1)),
                  AdditiveCaRule(mixed, 1, (endo, ((0,) * 4,) * 4, negated))]
    return cases, full, cancelling


def test_steps_match_the_constructor_kernel_differentially():
    """lca.step and step_additive, whose packed kernel reduces each cell once
    and drops the zero ones itself, against the kernel that hands its
    unreduced sums to the public constructor: dense random rules over Z/m and
    over mixed-order groups, sparse rules of radius 30 to 1000, cells at
    +-10^9, m = 2^61 - 1 with n = 4, all-zero rules, cells whose images
    cancel, rules and cells at their largest entries, which fill every
    packed slot to its bound, and dense rules of radius 300 and 1000 whose
    offsets span several packed groups."""
    rng = random.Random(20261019)
    cases, full, cancelling = _kernel_corpus(rng)
    # Dense rules at their largest entries whose nonzero offsets fill several
    # groups of the stepper, the last one only partly.
    full += [LcaRule(factorize(6), 2, radius, [((5, 5), (5, 5))] * (2 * radius + 1))
             for radius in (300, 1000)]
    mixed = AbelianGroup((4, 2, 3, 9))
    full.append(AdditiveCaRule(mixed, 300, [endomorphism(mixed, lambda q: q - 1)] * 601))
    cancelled = 0
    assert step_additive is lca_step
    for rule in cases + full + cancelling:
        matrices, orders = rule.matrices, rule.orders
        offsets = [k - rule.radius for k, mat in enumerate(matrices) if any(map(any, mat))]
        # A cell at z_b - z_a meets the cell at 0 on target -z_a.
        meeting = {b - a for a in offsets for b in offsets}
        spots = [range(-5, 6), sorted(meeting), [-10**9, -10**9 + 1, 10**9, 10**9 + 1]]
        configs = [FiniteConfiguration(orders, {pos: tuple(rng.randrange(q) for q in orders)
                                                for pos in where if rng.random() < 0.6})
                   for where in spots for _ in range(2)]
        if rule in full:
            top = tuple(q - 1 for q in orders)
            configs = [FiniteConfiguration(orders, {pos: top for pos in range(-8, 9)})]
        if rule in cancelling:
            cell = tuple(rng.randrange(1, q) for q in orders)
            configs.append(FiniteConfiguration(orders, {0: cell, 2: cell}))
        for config in configs:
            start = time.perf_counter()
            stepped = lca_step(rule, config)
            assert time.perf_counter() - start < 0.5, (rule, config)
            expected = step_through_constructor(matrices, rule.radius, config)
            assert stepped == expected and hash(stepped) == hash(expected), (rule, config)
            assert all(type(v) is int for vec in stepped.cells.values() for v in vec)
            if not offsets:
                assert not stepped.cells
            if config.cells and len(offsets) == 2 * rule.radius + 1:
                hull = range(min(config.cells) - rule.radius, max(config.cells) + rule.radius + 1)
                cancelled += sum(pos not in stepped.cells for pos in hull[:50])
        if rule in cancelling:
            assert 1 not in stepped.cells
    assert cancelled


def test_trajectories_match_single_steps_and_the_constructor_kernel():
    """simulate, which builds one stepper for the whole trajectory, against
    four calls of step (which step_additive is) and four steps of the
    constructor kernel, on the corpus of the single-step test: cells near 0
    and at +-10^9, cells at the largest entries, and cells that cancel."""
    rng = random.Random(20261020)
    cases, full, cancelling = _kernel_corpus(rng)
    for rule in cases + full + cancelling:
        orders = rule.orders
        configs = [FiniteConfiguration(orders, {pos: tuple(rng.randrange(q) for q in orders)
                                                for pos in where if rng.random() < 0.6})
                   for where in (range(-5, 6), (-10**9, 10**9 + 1))]
        if rule in full:
            configs.append(FiniteConfiguration(orders, {pos: tuple(q - 1 for q in orders)
                                                        for pos in range(-8, 9)}))
        if rule in cancelling:
            cell = tuple(rng.randrange(1, q) for q in orders)
            configs.append(FiniteConfiguration(orders, {0: cell, 2: cell}))
        for config in configs:
            by_step, by_oracle = [config], [config]
            for _ in range(4):
                by_step.append(lca_step(rule, by_step[-1]))
                by_oracle.append(step_through_constructor(rule.matrices, rule.radius,
                                                          by_oracle[-1]))
            assert lca_simulate(rule, config, 4) == by_step == by_oracle, (rule, config)


def test_wrong_alphabet_has_one_message_for_both_rule_kinds():
    linear = LcaRule(factorize(4), 2, 0, [((1, 0), (0, 1))])
    additive = diag_rule(G42, (1, 1))
    for rule, one_step, run, orders in ((linear, lca_step, lca_simulate, (4, 2)),
                                        (additive, step_additive, lca_simulate, (4, 4))):
        config = FiniteConfiguration(orders, {0: (1, 1)})
        message = re.escape(f"configuration alphabet {orders} does not match rule {rule.orders}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            one_step(rule, config)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(rule, config, 3)


def test_simulate_additive_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps must be non-negative, got -3"):
        lca_simulate(diag_rule(G42, (1, 1)), FiniteConfiguration((4, 2), {0: (1, 1)}), -3)


def test_simulate_additive_trajectory():
    # shift by one cell: delta_{+1} = id
    shift = diag_rule(G42, (0, 0), (0, 0), (1, 1))
    start = FiniteConfiguration((4, 2), {0: (3, 1)})
    trajectory = lca_simulate(shift, start, 3)
    assert len(trajectory) == 4
    assert trajectory[3] == FiniteConfiguration((4, 2), {-3: (3, 1)})


# ---------------------------------------------------------------------------
# the embedding


def test_embed_example_and_image_membership():
    assert embed(G42, (3, 1)) == (3, 2)
    assert embed(G42, (0, 0)) == (0, 0)
    assert unembed(G42, (3, 2)) == (3, 1)
    with pytest.raises(ValueError, match="component 1"):
        unembed(G42, (3, 1))

    config = FiniteConfiguration((4, 2), {5: (3, 1)})
    image = embed_config(G42, config)
    assert image == FiniteConfiguration((4, 4), {5: (3, 2)})
    assert in_embedding_image(G42, image)
    assert not in_embedding_image(G42, FiniteConfiguration((4, 4), {0: (0, 1)}))
    with pytest.raises(ValueError, match="does not live over the given group"):
        embed_config(G42, FiniteConfiguration((2, 4), {5: (1, 3)}))

    with pytest.raises(ValueError, match="mixes primes"):
        embed(AbelianGroup((4, 3)), (1, 1))

    group = AbelianGroup((8, 2, 4))  # scales (1, 4, 2)
    assert embed(group, (5, 1, 3)) == (5, 4, 6)
    assert unembed(group, (13, 4, 6)) == (5, 1, 3)
    with pytest.raises(ValueError, match="component 2 = 3 is not a multiple of 2"):
        unembed(group, (5, 4, 3))
    image = embed_config(group, FiniteConfiguration((8, 2, 4), {0: (5, 1, 3), 2: (0, 1, 1)}))
    assert image == FiniteConfiguration((8, 8, 8), {0: (5, 4, 6), 2: (0, 4, 2)})
    assert in_embedding_image(group, image)
    assert not in_embedding_image(group, FiniteConfiguration((8, 8, 8), {1: (1, 4, 1)}))
    assert not in_embedding_image(group, FiniteConfiguration((8, 8, 8), {1: (1, 2, 2)}))


def test_embed_is_additive_and_injective():
    for factors in [(4, 2), (2, 4), (8, 2, 2), (9, 3), (3, 3), (2,)]:
        group = AbelianGroup(factors)
        p, k1 = group.prime_exponent(0)[0], max(group.prime_exponent(i)[1]
                                                for i in range(group.rank))
        modulus = p**k1
        images = set()
        for h in group_elements(group):
            images.add(embed(group, h))
            for g in group_elements(group):
                total = group_reduce(group, tuple(a + b for a, b in zip(h, g)))
                summed = tuple((a + b) % modulus
                               for a, b in zip(embed(group, h), embed(group, g)))
                assert embed(group, total) == summed
        assert len(images) == group_order(group)
        for image in images:
            assert embed(group, unembed(group, image)) == image


def test_associated_lca_entries():
    rule = AdditiveCaRule(G42, 0, (((1, 2), (1, 1)),))
    linear = associated_lca(rule)
    assert linear.modulus.m == 4
    assert linear.n == 2
    assert linear.matrices == (((1, 1), (2, 1)),)

    # factor order does not have to be sorted for the embedding itself
    swapped = AdditiveCaRule(AbelianGroup((2, 4)), 0, (((1, 1), (2, 1)),))
    assert associated_lca(swapped).matrices == (((1, 2), (1, 1)),)

    with pytest.raises(ValueError, match="mixes primes"):
        associated_lca(diag_rule(AbelianGroup((4, 3)), (1, 1)))


def test_associated_lca_matches_two_case_formula():
    """entry * s_i // s_j against the oracle's p^(k_j - k_i) scaling and exact
    division, on fixed-seed endomorphisms of mixed-exponent p-groups."""
    rng = random.Random(70331)
    for factors in [(8, 2, 4), (27, 3), (2, 8, 4, 2), (9, 27, 3)]:
        group = AbelianGroup(factors)
        for _ in range(40):
            rule = random_rule(rng, group, 1)
            assert associated_lca(rule).matrices == associated_lca_matrices(rule), rule


def test_embedding_intertwines_the_dynamics():
    """The defining property: L . Xi == Xi . F, iterated a few steps."""
    rng = random.Random(20260814)
    for factors in SINGLE_PRIME_FACTORS:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            for _ in range(3):
                rule = random_rule(rng, group, radius)
                linear = associated_lca(rule)
                current = random_config(rng, group)
                for _ in range(3):
                    stepped = step_additive(rule, current)
                    assert embed_config(group, stepped) == \
                        lca_step(linear, embed_config(group, current))
                    current = stepped


# ---------------------------------------------------------------------------
# primary decomposition


def test_prime_components_layout():
    group = AbelianGroup((2, 9, 4, 3))
    rule = diag_rule(group, (1, 1, 1, 1))
    comps = prime_components(rule)
    assert [c.prime for c in comps] == [2, 3]
    assert comps[0].source_indices == (2, 0)   # Z/4 before Z/2
    assert comps[1].source_indices == (1, 3)   # Z/9 before Z/3
    assert comps[0].rule.group.factors == (4, 2)
    assert comps[1].rule.group.factors == (9, 3)


def test_splitting_commutes_with_stepping():
    rng = random.Random(77443)
    for factors in MIXED_FACTORS:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            rule = random_rule(rng, group, radius)
            comps = prime_components(rule)
            for _ in range(3):
                config = random_config(rng, group)
                stepped = step_additive(rule, config)
                for comp in comps:
                    assert project_config(stepped, comp) == \
                        step_additive(comp.rule, project_config(config, comp))


# ---------------------------------------------------------------------------
# property decisions


def test_decide_frozen_examples():
    mixed = AbelianGroup((4, 3))

    shift = diag_rule(mixed, (0, 0), (0, 0), (1, 1))
    report = decide_properties(shift)
    assert (report.sensitive, report.injective, report.surjective, report.transitive) \
        == (True, True, True, True)
    assert not report.equicontinuous

    ident = diag_rule(mixed, (1, 1))
    report = decide_properties(ident)
    assert report.equicontinuous and report.injective and report.surjective
    assert not report.sensitive and not report.transitive

    both_neighbors = AbelianGroup((2, 3))
    xor_like = diag_rule(both_neighbors, (1, 1), (0, 0), (1, 1))
    report = decide_properties(xor_like)
    assert report.sensitive and report.surjective and report.transitive
    assert not report.injective

    # one prime transitive, the other frozen: the product is not transitive
    half_frozen = diag_rule(both_neighbors, (1, 0), (0, 1), (1, 0))
    report = decide_properties(half_frozen)
    assert report.sensitive and report.surjective
    assert not report.injective and not report.transitive
    assert any(key.startswith("p=2:") for key in report.notes)
    assert any(key.startswith("p=3:") for key in report.notes)


def test_decide_agrees_with_additive_oracles():
    rng = random.Random(660091)
    groups = [(2,), (3,), (4,), (2, 2), (3, 3), (4, 2), (9,), (4, 3), (2, 3), (4, 4)]
    checked_noninjective = 0
    for factors in groups:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            for _ in range(2):
                rule = random_rule(rng, group, radius)
                report = decide_properties(rule)
                assert report.surjective == additive_balance_surjectivity_oracle(rule)
                witness = additive_periodic_kernel_witness(rule)
                assert report.injective == (witness is None)
                if witness is not None:
                    checked_noninjective += 1
                    assert is_periodic_additive_kernel_word(rule, witness)
    assert checked_noninjective >= 5


def test_sensitivity_verdicts_match_orbit_growth():
    rng = random.Random(44617)
    for factors in [(2,), (4,), (2, 2), (3,), (9,), (4, 3), (2, 3)]:
        group = AbelianGroup(factors)
        nonzero_cells = [v for v in group_elements(group) if any(v)]
        for _ in range(2):
            rule = random_rule(rng, group, 1)
            report = decide_properties(rule)
            if report.sensitive:
                spread = False
                for cell in nonzero_cells:
                    config = FiniteConfiguration(group.factors, {0: cell})
                    for _ in range(100):
                        config = step_additive(rule, config)
                        if max_abs_position(config) > 5:
                            spread = True
                            break
                    if spread:
                        break
                assert spread, "sensitive rule never grew past the horizon"
            else:
                for cell in nonzero_cells:
                    config = FiniteConfiguration(group.factors, {0: cell})
                    seen = {config}
                    for _ in range(300):
                        config = step_additive(rule, config)
                        if config in seen:
                            break
                        seen.add(config)
                    else:
                        raise AssertionError(
                            "equicontinuous rule has a non-recurrent finite orbit")


def test_linear_kernel_elements_descend_to_the_group():
    """A nonzero kernel word of the associated linear CA, multiplied by p
    until just before it dies, lands in the image of the embedding and
    un-embeds to a nonzero kernel word of the additive CA."""
    rng = random.Random(98531)
    rules = [AdditiveCaRule(G42, 0, (((2, 0), (0, 1)),))]
    for factors in [(4, 2), (2, 4), (8, 2), (9, 3), (4, 2, 2)]:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            rules.append(random_rule(rng, group, radius))

    transferred = 0
    for rule in rules:
        group = rule.group
        linear = associated_lca(rule)
        if analyze_rule(linear).injective:
            continue
        word = periodic_kernel_witness(linear)
        assert word is not None
        p = group.primes()[0]
        modulus = linear.modulus.m

        def scale_word(w, factor):
            return [tuple((v * factor) % modulus for v in letter) for letter in w]

        power = 0
        while any(any(scale_word(word, p ** (power + 1))[i]) for i in range(len(word))):
            power += 1
        surviving = scale_word(word, p**power)
        assert any(any(letter) for letter in surviving)
        descended = [unembed(group, letter) for letter in surviving]
        assert any(any(letter) for letter in descended)
        assert is_periodic_additive_kernel_word(rule, descended)
        assert not decide_properties(rule).injective
        transferred += 1
    assert transferred >= 3


def test_finite_support_kernels_survive_p_scaling_into_the_image():
    """For finite-support kernel elements of L, repeated multiplication by p
    gives a nonzero kernel element inside the image of the embedding whose
    support is contained in the original one."""
    rng = random.Random(274133)
    rules = [AdditiveCaRule(G42, 0, (((2, 0), (0, 1)),))]
    for factors in [(4, 2), (2, 4), (8, 2), (9, 3)]:
        group = AbelianGroup(factors)
        for radius in (0, 1):
            for _ in range(3):
                rules.append(random_rule(rng, group, radius))

    exercised = 0
    for rule in rules:
        group = rule.group
        witness = finite_support_kernel_witness(associated_lca(rule))
        if witness is None:
            continue
        p = group.primes()[0]
        power = 0
        while combination((p ** (power + 1), witness)).cells:
            power += 1
        survivor = combination((p**power, witness))
        assert survivor.cells
        assert set(survivor.cells) <= set(witness.cells)
        assert in_embedding_image(group, survivor)
        descended = FiniteConfiguration(
            group.factors,
            {pos: unembed(group, vec) for pos, vec in survivor.cells.items()})
        assert descended.cells
        assert not step_additive(rule, descended).cells
        exercised += 1
    assert exercised >= 3


def test_component_reports_match_whole_group_analysis():
    # For a group that is already (Z/p^k)^n the embedding is the identity and
    # the additive verdicts must coincide with the plain linear analysis.
    rng = random.Random(31280)
    group = AbelianGroup((4, 4))
    for radius in (0, 1):
        rule = random_rule(rng, group, radius)
        report = decide_properties(rule)
        direct = analyze_rule(associated_lca(rule))
        assert (report.sensitive, report.equicontinuous, report.injective,
                report.surjective, report.transitive) == \
            (direct.sensitive, direct.equicontinuous, direct.injective,
             direct.surjective, direct.transitive)
