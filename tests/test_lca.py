"""Linear CA deciders against brute-force oracles, plus simulator semantics."""

from __future__ import annotations

import random
import time
from itertools import product
from pathlib import Path

import pytest

from addca import lca
from addca.cli import load_spec
from addca.laurent import laurent_ring
from addca.lca import (
    FiniteConfiguration,
    LcaRule,
    analyze_rule,
    associated_matrix,
    decide_surjective,
    decide_transitive,
    render_trajectory,
    scalar_rule,
    simulate,
    step,
    transitivity_obstruction,
)
from addca.lca import _fp_gcd
from addca.modring import factorize
from addca.power_semigroup import detect_orbit
from addca.polymat import RingMatrix, char_poly, determinant, identity

from oracles import (
    balance_surjectivity_oracle,
    basis_config,
    bounded_transitivity_oracle,
    combination,
    config_series_components,
    descent_transitivity_oracle,
    format_fp_poly,
    matrix_sum,
    parse_laurent,
    periodic_kernel_witness,
    render_trajectory_by_cells,
    scalar_rule_verdicts,
    shift_configuration,
    spreads,
    step_through_constructor,
    term_map_associated_matrix,
    tychonoff_distance,
)
from test_cli_golden import recorded

SPECS = Path(__file__).resolve().parent / "specs"


def rule90() -> LcaRule:
    return scalar_rule(2, (1, 0, 1))


def shift_rule(m: int = 2) -> LcaRule:
    return scalar_rule(m, (0, 0, 1))


def identity_rule(m: int = 2) -> LcaRule:
    return scalar_rule(m, (0, 1, 0))


def shear_rule() -> LcaRule:
    # radius-1 rule on (Z/4)^2 whose Laurent matrix is [[1, x], [0, 1]]
    zero = ((0, 0), (0, 0))
    left = ((0, 1), (0, 0))
    center = ((1, 0), (0, 1))
    return LcaRule(factorize(4), 2, 1, (left, center, zero))


def random_rule(rng: random.Random, m: int, n: int, radius: int, density: float = 0.5) -> LcaRule:
    mats = []
    for _ in range(2 * radius + 1):
        mats.append(tuple(tuple(rng.randrange(m) if rng.random() < density else 0
                                for _ in range(n)) for _ in range(n)))
    return LcaRule(factorize(m), n, radius, tuple(mats))


def rule_corpus(count: int, seed: int) -> list[LcaRule]:
    rng = random.Random(seed)
    rules = [rule90(), shift_rule(2), shift_rule(4), identity_rule(2),
             identity_rule(4), scalar_rule(3, (1, 2, 1)), shear_rule(),
             scalar_rule(4, (2, 1, 0)), scalar_rule(2, (1, 1, 1))]
    while len(rules) < count:
        m = rng.choice([2, 3, 4])
        n = rng.choice([1, 1, 2])
        radius = rng.choice([0, 1])
        rules.append(random_rule(rng, m, n, radius))
    return rules


# ---------------------------------------------------------------------------
# construction and semantics


def test_rule_validation():
    with pytest.raises(ValueError):
        LcaRule(factorize(2), 1, 1, (((1,),), ((1,),)))  # wrong matrix count
    with pytest.raises(ValueError):
        LcaRule(factorize(2), 2, 0, (((1, 0),),))  # not n x n
    with pytest.raises(ValueError):
        scalar_rule(2, (1, 0))  # even window
    with pytest.raises(ValueError, match="rank n must be >= 1"):
        LcaRule(factorize(2), 0, 0, ((),))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        LcaRule(factorize(2), 1, -1, ())


def test_canonical_matrices_are_shared_not_copied():
    mats = (((1, 0), (0, 3)), ((0, 1), (2, 0)), ((0, 0), (0, 0)))
    shared = LcaRule(factorize(4), 2, 1, mats)
    assert all(shared.matrices[k] is mats[k] for k in range(3))
    # lists, out-of-range ints and bools still normalise to canonical ints
    raw = [[[True, False], [-4, 7]], [[4, -3], [2, 8]], [[4, 0], [0, -8]]]
    rebuilt = LcaRule(factorize(4), 2, 1, raw)
    assert rebuilt.matrices == mats
    assert all(type(v) is int for mat in rebuilt.matrices for row in mat for v in row)
    assert rebuilt == shared and hash(rebuilt) == hash(shared)
    flagged = LcaRule(factorize(4), 2, 1, (((True, 0), (0, 3)),) + mats[1:])
    assert type(flagged.matrices[0][0][0]) is int and flagged.matrices[1] is mats[1]
    assert not hasattr(shared, "__dict__")


def test_associated_matrix_examples():
    ring = laurent_ring(2)
    assert associated_matrix(rule90()).rows[0][0] == parse_laurent("x + x^-1", ring.modulus)
    assert associated_matrix(shift_rule(2)).rows[0][0] == ring.monomial(-1)
    a = associated_matrix(shear_rule())
    ring4 = laurent_ring(4)
    assert a == RingMatrix(ring4, [
        [ring4.one(), ring4.monomial(1)],
        [ring4.zero(), ring4.one()],
    ])


def test_associated_matrix_matches_the_term_map_build_differentially():
    """associated_matrix, which zips the offset matrices into one slot column
    per entry, against the former build from one term map per entry: random
    rules with n = 1..5, m in {2, 4, 6, 9, 12} and radius 0..3; all-zero
    rules and rules with zero offset matrices, with zero entries or with a
    single nonzero offset; rules nonzero at offsets -r and r only, whose
    entries are stored sparse; and every rule of tests/specs/.  Each
    entry must keep its storage form and hash.  A mirrored A(X) leaves every
    verdict unchanged, so the verdict tests and digests cannot catch a
    reversed column."""
    rng = random.Random(20261024)
    rules = []
    for n in range(1, 6):
        for m in (2, 4, 6, 9, 12):
            for radius in range(4):
                rules.append(random_rule(rng, m, n, radius, density=rng.choice([0.2, 0.6, 1.0])))
                zero = ((0,) * n,) * n
                mats = [zero] * (2 * radius + 1)
                rules.append(LcaRule(factorize(m), n, radius, mats))
                mats[rng.randrange(2 * radius + 1)] = random_rule(rng, m, n, 0).matrices[0]
                rules.append(LcaRule(factorize(m), n, radius, mats))
                mats = list(random_rule(rng, m, n, radius, density=0.8).matrices)
                mats[rng.randrange(2 * radius + 1)] = zero
                rules.append(LcaRule(factorize(m), n, radius, mats))
        ends = [((rng.randrange(1, 12),) * n,) * n] + [((0,) * n,) * n] * 17 + [((5,) * n,) * n]
        rules.append(LcaRule(factorize(12), n, 9, ends))
    specs = sorted(SPECS.glob("*.json"))
    rules += [load_spec(str(path)).rule for path in specs]
    # The goldens name every spec, so one that goes missing fails here too.
    assert {f"tests/specs/{path.name}" for path in specs} == {
        spec for _, spec, _, _ in recorded() if spec.startswith("tests/specs/")}
    assert len(rules) == 405 + len(specs)
    assert {30, 40, 1000} <= {rule.radius for rule in rules[-len(specs):]}
    stored = set()
    for rule in rules:
        built, expected = associated_matrix(rule), term_map_associated_matrix(rule)
        assert built.rows == expected.rows, rule
        for got, want in zip(sum(built.rows, ()), sum(expected.rows, ())):
            assert (got.low, got.exps, got.coeffs) == (want.low, want.exps, want.coeffs), rule
            assert hash(got) == hash(want), rule
            stored.add(got.exps is None)
    assert stored == {True, False}


def test_step_matches_power_series_multiplication():
    rng = random.Random(8)
    for rule in rule_corpus(18, seed=404):
        ring = laurent_ring(rule.modulus.m)
        cells = {rng.randrange(-4, 5): [rng.randrange(rule.modulus.m) for _ in range(rule.n)]
                 for _ in range(4)}
        config = FiniteConfiguration((rule.modulus.m,) * rule.n, cells)
        series = config_series_components(config, ring)
        matrix = associated_matrix(rule)
        expected = [sum((matrix.rows[i][j] * series[j] for j in range(rule.n)),
                        start=ring.zero()) for i in range(rule.n)]
        stepped = config_series_components(step(rule, config), ring)
        assert stepped == expected


def test_rule90_single_cell_evolution():
    rule = rule90()
    config = basis_config(rule, 0)
    trajectory = simulate(rule, config, 4)
    assert sorted(trajectory[1].cells) == [-1, 1]
    assert sorted(trajectory[2].cells) == [-2, 2]
    assert sorted(trajectory[3].cells) == [-3, -1, 1, 3]
    assert sorted(trajectory[4].cells) == [-4, 4]


def test_simulate_rejects_negative_steps():
    rule = rule90()
    with pytest.raises(ValueError, match="steps must be non-negative, got -1"):
        simulate(rule, basis_config(rule, 0), -1)


def test_step_multiplies_once_per_component_and_group(monkeypatch):
    """A stepped cell costs n multiplications per group of nonzero offset
    matrices, however wide the radius: rules whose only nonzero offsets are
    -R, 0 and R, for R from 1 to 1000, whose three blocks share one group,
    counted through the kernel's `mul`."""
    products = 0

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(lca, "mul", counting_mul)
    rng = random.Random(1019)
    for n in (1, 2, 3):
        zero = ((0,) * n,) * n
        for radius in (1, 10, 100, 1000):
            mats = [zero] * (2 * radius + 1)
            for k in (0, radius, 2 * radius):
                mats[k] = tuple(tuple(rng.randrange(1, 5) for _ in range(n)) for _ in range(n))
            rule = LcaRule(factorize(5), n, radius, mats)
            config = FiniteConfiguration((5,) * n, {
                pos: tuple(rng.randrange(1, 5) for _ in range(n))
                for pos in rng.sample(range(-50, 50), 20)})
            products = 0
            stepped = step(rule, config)
            assert products == 20 * n, (n, radius)
            assert stepped == step_through_constructor(rule.matrices, radius, config)


def test_step_time_is_linear_in_the_nonzero_offsets():
    """A dense rule of radius 10^4 over Z/6 with n = 2 and every entry 5: one
    step of 10 cells at (5, 5) takes under half a second (about 0.08 s on
    CPython 3.11, 2 vCPUs), since its 20001 nonzero offsets are packed into
    groups of lca.GROUP_BITS bits.  With all of them in one group, each cell
    shifts its 800000-bit product once per offset, and the step takes about
    3 s there."""
    radius = 10**4
    rule = LcaRule(factorize(6), 2, radius, [((5, 5), (5, 5))] * (2 * radius + 1))
    config = FiniteConfiguration((6, 6), {pos: (5, 5) for pos in range(10)})
    begin = time.perf_counter()
    stepped = step(rule, config)
    assert time.perf_counter() - begin < 0.5
    assert stepped == step_through_constructor(rule.matrices, radius, config)


def test_space_time_rendering_golden():
    rule = rule90()
    text = render_trajectory(simulate(rule, basis_config(rule, 0), 4), window=4)
    assert text == "\n".join([
        "000010000",
        "000101000",
        "001000100",
        "010101010",
        "100000001",
    ])


def test_space_time_rendering_matches_cell_by_cell_reference():
    """Zero and nonzero cells, one and several components, single- and
    multi-digit values, supports inside, across and beyond the window."""
    rng = random.Random(1018)
    for orders in ((2,), (7,), (12,), (4, 4), (10, 3, 2), (101, 2)):
        for _ in range(12):
            window = rng.randrange(0, 6)
            trajectory = [FiniteConfiguration(orders, {
                rng.randrange(-9, 10): tuple(rng.randrange(o) for o in orders)
                for _ in range(rng.randrange(0, 8))}) for _ in range(rng.randrange(0, 4))]
            assert (render_trajectory(trajectory, window)
                    == render_trajectory_by_cells(trajectory, window)), (orders, window)


def test_space_time_rendering_wide_cells():
    rule = shear_rule()
    config = FiniteConfiguration((4, 4), {0: (3, 2)})
    text = render_trajectory(simulate(rule, config, 1), window=1)
    assert text == "\n".join([
        "0,0 3,2 0,0",
        "0,0 3,2 2,0",
    ])


def test_configuration_normalization_and_algebra():
    c = FiniteConfiguration((4,), {0: (5,), 3: (4,)})
    assert c.cells == {0: (1,)}
    d = combination((1, shift_configuration(c, 2)), (1, c))
    assert sorted(d.cells) == [0, 2]
    assert not combination((1, d), (-1, d)).cells
    assert not combination((4, c)).cells
    with pytest.raises(ValueError):
        FiniteConfiguration((4,), {0: (1, 2)})


# ---------------------------------------------------------------------------
# deciders on named rules


def test_rule90_report():
    report = analyze_rule(rule90())
    assert report.sensitive and not report.equicontinuous
    assert report.surjective and not report.injective
    assert report.transitive
    assert "non-constant mod 2" in report.notes["sensitivity"]


def test_shift_rule_report():
    report = analyze_rule(shift_rule(4))
    assert report.sensitive  # x^-1 is not integral over Z/4
    assert report.injective and report.surjective and report.transitive


def test_identity_rule_report():
    report = analyze_rule(identity_rule(4))
    assert report.equicontinuous and not report.sensitive
    assert report.injective and report.surjective
    assert not report.transitive


def test_zero_rule_report():
    rule = scalar_rule(6, (0, 0, 0))
    report = analyze_rule(rule)
    assert report.equicontinuous
    assert not report.surjective and not report.injective and not report.transitive


def test_shear_rule_is_equicontinuous_bijection_but_not_transitive():
    report = analyze_rule(shear_rule())
    assert report.equicontinuous and report.injective and report.surjective
    assert not report.transitive


def test_report_round_trip():
    from addca.lca import PropertyReport

    report = analyze_rule(rule90())
    assert PropertyReport(**report.to_dict()) == report


# ---------------------------------------------------------------------------
# oracle agreement on a randomized corpus


def test_surjectivity_matches_balance_oracle():
    """The corpus, over prime powers, and scalar rules over Z/6, Z/10 and
    Z/12 whose det A(X) vanishes mod one prime of m but not mod another."""
    composite = [scalar_rule(6, (0, 2, 0)), scalar_rule(6, (2, 0, 3)),
                 scalar_rule(10, (5, 0, 5)), scalar_rule(12, (3, 4, 0)), scalar_rule(12, (0, 6, 4))]
    for rule in rule_corpus(40, seed=11) + composite:
        assert decide_surjective(rule) == balance_surjectivity_oracle(rule), rule
    assert [decide_surjective(rule) for rule in composite] == [False, True, False, True, False]


def test_injectivity_matches_kernel_search():
    for rule in rule_corpus(40, seed=12):
        witness = periodic_kernel_witness(rule)
        if analyze_rule(rule).injective:
            assert witness is None, (rule, witness)
        else:
            assert witness is not None, rule


def test_scalar_rules_match_the_closed_forms():
    """Every scalar rule with m = 2..12 and radius 0 or 1 against the
    classical closed forms in its coefficients."""
    checked = 0
    for m in range(2, 13):
        for width in (1, 3):
            for coefficients in product(range(m), repeat=width):
                report = analyze_rule(scalar_rule(m, coefficients))._asdict()
                del report["notes"]
                assert report == scalar_rule_verdicts(m, coefficients), (m, coefficients)
                checked += 1
    assert checked == 6160


def test_transitivity_matches_bounded_oracle():
    for rule in rule_corpus(30, seed=13):
        assert decide_transitive(rule) == bounded_transitivity_oracle(rule, k_max=24), rule


def descent_corpus() -> list[LcaRule]:
    """450 radius-1 rules, m in {2,3,4,6,8,9}, n <= 3, entries zeroed with probability 1/2."""
    rng = random.Random(2024)
    return [random_rule(rng, rng.choice([2, 3, 4, 6, 8, 9]), rng.choice([1, 2, 3]), 1)
            for _ in range(450)]


def test_transitivity_matches_former_descent():
    obstructed = 0
    for rule in descent_corpus():
        decided = decide_transitive(rule)
        assert decided == descent_transitivity_oracle(rule), rule
        obstructed += not decided and decide_surjective(rule)
    assert obstructed >= 40  # surjective but not transitive: the slices do the work


def test_chi_mod_p_is_one_chi_reduced(monkeypatch):
    """transitivity_obstruction runs Berkowitz once per rule and reduces chi
    mod each prime p | m; that equals chi of A(X) reduced mod p."""
    composite = [rule for rule in descent_corpus() if len(rule.modulus.primes) > 1]
    assert len(composite) >= 40
    for rule in composite:
        matrix = associated_matrix(rule)
        chi = char_poly(matrix).coeffs
        for p in rule.modulus.primes:
            reduced = RingMatrix(laurent_ring(p), [[entry.reduce_mod_prime(p) for entry in row]
                                                   for row in matrix.rows])
            assert char_poly(reduced).coeffs == tuple(c.reduce_mod_prime(p) for c in chi), rule
    calls = []
    monkeypatch.setattr(lca, "char_poly", lambda matrix: calls.append(matrix) or char_poly(matrix))
    for rule in composite:
        calls.clear()
        transitivity_obstruction(rule)
        assert len(calls) == 1, rule


def test_transitivity_certificate_gives_a_failing_power():
    checked = 0
    for rule in descent_corpus():
        report = analyze_rule(rule)
        if report.transitive:
            assert report.notes["transitivity"].startswith("surjective and G_p = 1 for every p | m")
            continue
        if not report.surjective:
            continue
        p, gcd = transitivity_obstruction(rule)
        assert report.notes["transitivity"].startswith(f"G_{p} = {format_fp_poly(gcd)} ")
        # the least j with gcd(G_p, t^(p^j - 1) - 1) != 1 over F_p; j <= deg G_p
        k = next(p**j - 1 for j in range(1, len(gcd))
                 if len(_fp_gcd(gcd, [p - 1] + [0] * (p**j - 2) + [1], p)) > 1)
        matrix = associated_matrix(rule)
        ident = identity(matrix.ring, matrix.n)
        power = ident
        for _ in range(k):
            power = power * matrix
        assert determinant(matrix_sum(power, ident, -1)).reduce_mod_prime(p).is_zero(), (rule, k)
        checked += 1
    assert checked >= 40


def test_dichotomy_and_implications():
    for rule in rule_corpus(30, seed=14):
        report = analyze_rule(rule)
        assert report.sensitive == (not report.equicontinuous)
        if report.transitive:
            assert report.surjective
        if report.injective:
            assert report.surjective


def test_equicontinuous_rules_have_periodic_iterates():
    found = 0
    for rule in rule_corpus(30, seed=15):
        if not analyze_rule(rule).equicontinuous:
            continue
        found += 1
        orbit = detect_orbit(associated_matrix(rule), budget=10_000)
        assert orbit is not None
        q, c = orbit.preperiod, orbit.period
        for index in range(rule.n):
            start = basis_config(rule, index)
            trajectory = simulate(rule, start, q + c)
            assert trajectory[q + c] == trajectory[q]
    assert found >= 3


# ---------------------------------------------------------------------------
# spreading


def test_rule90_spreads_past_horizon():
    assert spreads(rule90(), 0, horizon=3) is True
    assert spreads(shift_rule(2), 0, horizon=3) is True


def test_identity_rule_never_reports_spreading():
    assert spreads(identity_rule(2), 0, horizon=1, budget=50) is None
    # nilpotent-to-zero rule dies out: also indeterminate
    assert spreads(scalar_rule(4, (0, 2, 0)), 0, horizon=1, budget=50) is None


def test_sensitive_rules_spread_in_corpus():
    for rule in rule_corpus(25, seed=16):
        if analyze_rule(rule).sensitive:
            assert any(spreads(rule, i, horizon=8, budget=120) for i in range(rule.n)), rule


def test_spreading_witness_scales_tychonoff_distance():
    # two configurations agreeing on a huge central window end up far apart
    rule = rule90()
    zero = FiniteConfiguration((2,), {})
    far = shift_configuration(basis_config(rule, 0), 30)
    assert tychonoff_distance(zero, far) == 2.0 ** -30
    after = simulate(rule, far, 30)[-1]
    assert tychonoff_distance(zero, after) >= 2.0 ** -1  # difference reached cell 0
