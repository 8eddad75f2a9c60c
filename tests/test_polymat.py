"""Matrix invariants: Berkowitz vs minor sums, Cayley-Hamilton, companions."""

from __future__ import annotations

import random
import time

import pytest

from addca import power_semigroup, tpoly
from addca.laurent import LaurentPoly, laurent_ring
from addca.polymat import (
    CharPoly,
    RingMatrix,
    _berkowitz,
    char_poly,
    determinant,
    identity,
)
from addca.power_semigroup import detect_orbit, sampled_degree_growth

from oracles import (
    cayley_hamilton_check,
    char_poly_by_minor_sums,
    column_replace_det,
    constant_matrix,
    constant_value,
    frobenius_companion,
    laurent_power,
    matmul_by_entries,
    matrix_sum,
    matrix_trace,
    parse_laurent,
    principal_submatrix,
    scalar_matrix,
    zeros,
)

MODULI = [2, 3, 4, 6, 8]
# Moduli of the differential test of the integer Berkowitz path: small
# primes and prime powers, and primes whose coefficients fill 31 and 61 bits.
DIFFERENTIAL_MODULI = [2, 4, 9, 25, 2**31 - 1, 2**61 - 1]


def random_laurent_matrix(rng: random.Random, m: int, n: int, span: int = 1) -> RingMatrix:
    ring = laurent_ring(m)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {e: rng.randrange(m) for e in range(-span, span + 1) if rng.random() < 0.6}
            row.append(LaurentPoly(ring.modulus, coeffs))
        rows.append(row)
    return RingMatrix(ring, rows)


def random_zmod_matrix(rng: random.Random, m: int, n: int) -> RingMatrix:
    ring = laurent_ring(m)
    return constant_matrix(ring, [[rng.randrange(m) for _ in range(n)] for _ in range(n)])


def upper_shear_matrix(m: int) -> RingMatrix:
    # [[1, x], [0, 1]] over Z/m
    ring = laurent_ring(m)
    return RingMatrix(ring, [
        [ring.one(), ring.monomial(1)],
        [ring.zero(), ring.one()],
    ])


def test_shear_square_example():
    a = upper_shear_matrix(4)
    sq = a * a
    ring = laurent_ring(4)
    assert sq == RingMatrix(ring, [
        [ring.one(), ring.monomial(1, 2)],
        [ring.zero(), ring.one()],
    ])


def test_shear_char_poly_example():
    a = upper_shear_matrix(4)
    ring = laurent_ring(4)
    poly = char_poly(a)
    # (t - 1)^2 = t^2 - 2t + 1, canonically t^2 + 2t + 1 over Z/4
    assert poly.coeffs == (ring.one(), ring.from_int(2), ring.one())
    assert poly == char_poly(identity(ring, 2))


def test_antidiagonal_determinant_example():
    ring = laurent_ring(2)
    a = RingMatrix(ring, [
        [ring.zero(), ring.one()],
        [ring.monomial(1), ring.zero()],
    ])
    assert determinant(a) == ring.monomial(1)


def test_char_poly_trace_and_determinant_terms():
    rng = random.Random(7)
    for m in MODULI:
        for n in (1, 2, 3):
            a = random_zmod_matrix(rng, m, n)
            poly = char_poly(a)
            assert poly.degree == n
            assert poly.coeffs[n - 1] == -matrix_trace(a)
            det = determinant(a)
            sign_det = det if n % 2 == 0 else -det
            assert poly.coeffs[0] == sign_det


def test_berkowitz_equals_minor_sums_on_corpus():
    rng = random.Random(20260814)
    for _ in range(60):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 5)
        a = random_laurent_matrix(rng, m, n)
        assert char_poly(a) == char_poly_by_minor_sums(a)


def test_cayley_hamilton_on_corpus():
    rng = random.Random(5150)
    for _ in range(40):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 4)
        a = random_laurent_matrix(rng, m, n)
        assert cayley_hamilton_check(a)


def test_determinant_is_multiplicative():
    rng = random.Random(31337)
    for _ in range(40):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 4)
        a = random_laurent_matrix(rng, m, n)
        b = random_laurent_matrix(rng, m, n)
        assert determinant(a * b) == determinant(a) * determinant(b)


def test_submatrix_letter_layout():
    # 4x4 matrix with distinguishable entries 1..16; row set {2,4} and column
    # set {1,4} in 1-based labels pick out the corner entries of rows 2 and 4.
    ring = laurent_ring(97)
    a = constant_matrix(ring, [
        [1, 2, 3, 4],
        [5, 6, 7, 8],
        [9, 10, 11, 12],
        [13, 14, 15, 16],
    ])
    sub = principal_submatrix(a, [1, 3], [0, 3])
    assert [[constant_value(e) for e in row] for row in sub.rows] == [[5, 8], [13, 16]]
    # index sets are sets: order of the labels must not matter
    assert principal_submatrix(a, [3, 1], [3, 0]) == sub
    with pytest.raises(ValueError):
        principal_submatrix(a, [0, 0], [1, 2])
    with pytest.raises(ValueError):
        principal_submatrix(a, [0, 4], [1, 2])


def test_empty_submatrix_has_unit_determinant():
    ring = laurent_ring(6)
    a = constant_matrix(ring, [[1, 2], [3, 4]])
    assert determinant(principal_submatrix(a, [], [])) == ring.one()


def test_column_replacement_matches_principal_minor():
    rng = random.Random(77)
    for _ in range(25):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 5)
        a = random_laurent_matrix(rng, m, n)
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask & (1 << i)]
            expected = determinant(principal_submatrix(a, subset, subset))
            assert column_replace_det(a, subset) == expected


def test_shifted_determinant_expansion():
    # det(A + x*I) = sum over principal subsets P of det(A_P) * x^(n - |P|)
    rng = random.Random(411)
    for _ in range(20):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 4)
        a = random_laurent_matrix(rng, m, n)
        ring = a.ring
        x = ring.monomial(1)
        shifted = matrix_sum(a, scalar_matrix(ring, n, x))
        total = ring.zero()
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask & (1 << i)]
            term = determinant(principal_submatrix(a, subset, subset))
            total = total + term * laurent_power(x, n - len(subset))
        assert determinant(shifted) == total


def test_companion_example():
    ring = laurent_ring(4)
    poly = CharPoly((ring.one(), ring.from_int(-2), ring.one()))
    comp = frobenius_companion(poly)
    values = [[constant_value(e) for e in row] for row in comp.rows]
    assert values == [[0, 1], [3, 2]]
    assert char_poly(comp) == poly


def test_companion_round_trip_random():
    rng = random.Random(8888)
    for _ in range(30):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 5)
        ring = laurent_ring(m)
        coeffs = []
        for _ in range(n):
            data = {e: rng.randrange(m) for e in range(-1, 2) if rng.random() < 0.5}
            coeffs.append(LaurentPoly(ring.modulus, data))
        coeffs.append(ring.one())
        poly = CharPoly(tuple(coeffs))
        assert char_poly(frobenius_companion(poly)) == poly


def test_companion_requires_monic_nonconstant():
    ring = laurent_ring(4)
    with pytest.raises(ValueError):
        CharPoly((ring.from_int(2),))  # not monic
    with pytest.raises(ValueError):
        frobenius_companion(CharPoly((ring.one(),)))  # degree 0


def test_minor_sum_guard():
    ring = laurent_ring(2)
    big = zeros(ring, 13)
    with pytest.raises(ValueError):
        char_poly_by_minor_sums(big)


def test_triangular_determinant_is_diagonal_product():
    ring = laurent_ring(6)
    a = RingMatrix(ring, [
        [parse_laurent("2x + 1", ring.modulus), ring.monomial(-3), ring.from_int(5)],
        [ring.zero(), ring.monomial(2, 3), ring.one()],
        [ring.zero(), ring.zero(), ring.monomial(-1)],
    ])
    expected = parse_laurent("2x + 1", ring.modulus) * ring.monomial(2, 3) * ring.monomial(-1)
    assert determinant(a) == expected


def test_matrix_power_and_hash():
    ring = laurent_ring(4)
    a = upper_shear_matrix(4)
    assert a ** 4 == identity(ring, 2)
    assert a ** 0 == identity(ring, 2)
    assert hash(a * a) == hash(a ** 2)


def laurent_berkowitz(matrix: RingMatrix) -> CharPoly:
    """The Berkowitz recurrence run on the Laurent entries themselves."""
    return CharPoly(tuple(reversed(_berkowitz(matrix.rows, matrix.ring.one()))))


def random_mixed_entry(rng: random.Random, m: int) -> LaurentPoly:
    """Zero, a constant, a dense run of exponents or a gapped handful of
    terms, with negative exponents and coefficients from all of [0, m)."""
    modulus = laurent_ring(m).modulus
    kind = rng.randrange(4)
    if kind == 0:
        return LaurentPoly.zero(modulus)
    if kind == 1:
        return LaurentPoly.constant(modulus, rng.randrange(m))
    if kind == 2:
        low = rng.randrange(-3, 2)
        stop = low + rng.randrange(1, 5)
        return LaurentPoly(modulus, {e: rng.randrange(m) for e in range(low, stop)})
    exps = rng.sample(range(-6, 7), rng.randrange(2, 4))
    return LaurentPoly(modulus, {e: rng.choice((1, m - 1, rng.randrange(m))) for e in exps})


def test_integer_berkowitz_matches_oracles_differentially():
    """char_poly (Berkowitz over Z at x = 2^s) against the minor-sum oracle
    and against the recurrence on Laurent entries, on zero matrices, on
    random matrices with zero, constant, dense and gapped entries, on
    7 B over Z/8 for a 0/1 matrix B with |det B| = 5: its det, 7^5 * 5 in
    absolute value, needs the n! of the slot bound n! ((m - 1) span)^n, on
    [[200]] over Z/256: its constant coefficient -200 needs the sign bit on
    top of bits(n! ((m - 1) span)^n) = bits(255) = 8, and on [[100]] over
    Z/128: in its one-byte slots the unpack offset must be 2^7, since -100
    lies below -2^6."""
    rng = random.Random(20261018)
    matrices = [constant_matrix(laurent_ring(8), [[7 * b for b in row] for row in (
        (1, 0, 0, 1, 0), (0, 1, 1, 1, 1), (1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (1, 1, 1, 0, 0))])]
    matrices.append(constant_matrix(laurent_ring(256), [[200]]))
    matrices.append(constant_matrix(laurent_ring(128), [[100]]))
    for m in DIFFERENTIAL_MODULI:
        ring = laurent_ring(m)
        for n in range(9):
            matrices.append(zeros(ring, n))
            matrices += [RingMatrix(ring, [[random_mixed_entry(rng, m) for _ in range(n)]
                                           for _ in range(n)]) for _ in range(2 if n < 7 else 1)]
    for a in matrices:
        poly = char_poly(a)
        assert poly == laurent_berkowitz(a), a.rows
        assert poly == char_poly_by_minor_sums(a), a.rows


def test_integer_berkowitz_on_triangular_matrices_of_full_coefficients():
    """chi of a triangular matrix is the product of t - d_i.  With every d_i
    the all-(m - 1) polynomial on x^-3 ... x^4, the coefficients of chi over Z
    are same-sign sums that need far more than n bits(m - 1) bits."""
    rng = random.Random(4242)
    for m in DIFFERENTIAL_MODULI:
        ring = laurent_ring(m)
        full = LaurentPoly(ring.modulus, {e: m - 1 for e in range(-3, 5)})
        for n in range(2, 9):
            rows = [[full if i == j else random_mixed_entry(rng, m) if i < j else ring.zero()
                     for j in range(n)] for i in range(n)]
            expected = [ring.one()]
            for _ in range(n):
                expected = tpoly.mul(expected, [-full, ring.one()])
            assert char_poly(RingMatrix(ring, rows)).coeffs == tuple(expected), (m, n)


def test_wide_span_matrix_runs_on_laurent_entries():
    """x^(10^9) must never become a 10^9-slot integer."""
    ring = laurent_ring(3)
    a = RingMatrix(ring, [[ring.monomial(10**9), ring.one()],
                          [ring.one(), ring.monomial(-10**9)]])
    start = time.perf_counter()
    poly = char_poly(a)
    assert time.perf_counter() - start < 1.0
    assert poly == char_poly_by_minor_sums(a)
    assert poly.coeffs == (ring.zero(), ring.monomial(10**9, 2) + ring.monomial(-10**9, 2),
                           ring.one())


def random_matrix(rng: random.Random, m: int, n: int) -> RingMatrix:
    return RingMatrix(laurent_ring(m), [[random_mixed_entry(rng, m) for _ in range(n)]
                                        for _ in range(n)])


def sparse_matrix(rng: random.Random, m: int, n: int, radius: int = 1000) -> RingMatrix:
    """Entries on x^-radius and x^radius only: far too wide to pack."""
    modulus = laurent_ring(m).modulus
    return RingMatrix(laurent_ring(m), [
        [LaurentPoly(modulus, {-radius: rng.randrange(m), radius: rng.randrange(m)})
         for _ in range(n)] for _ in range(n)])


def full_matrix(m: int, n: int, low: int, span: int) -> RingMatrix:
    """Every entry the all-(m - 1) polynomial on x^low ... x^(low + span - 1)."""
    ring = laurent_ring(m)
    full = LaurentPoly(ring.modulus, {e: m - 1 for e in range(low, low + span)})
    return RingMatrix(ring, [[full] * n for _ in range(n)])


def assert_canonical(matrix: RingMatrix) -> None:
    for row in matrix.rows:
        for entry in row:
            rebuilt = LaurentPoly(entry.modulus, dict(entry.items()))
            assert entry == rebuilt and hash(entry) == hash(rebuilt), entry


def test_matrix_product_matches_entrywise_oracle_differentially():
    """RingMatrix.__mul__ against the entrywise product, on zero, identity,
    random, sparse and full-coefficient factors."""
    rng = random.Random(20261019)
    for m in DIFFERENTIAL_MODULI:
        ring = laurent_ring(m)
        pairs = []
        for n in range(6):
            a, b = random_matrix(rng, m, n), random_matrix(rng, m, n)
            shifted = RingMatrix(ring, [[entry * ring.monomial(rng.randrange(-9, 10))
                                         for entry in row] for row in b.rows])
            pairs += [(a, b), (b, a), (a, shifted), (zeros(ring, n), a), (a, zeros(ring, n)),
                      (identity(ring, n), a), (a, identity(ring, n)),
                      (a, sparse_matrix(rng, m, n)), (sparse_matrix(rng, m, n), a),
                      (full_matrix(m, n, -2, 3), full_matrix(m, n, 1, 4))]
        wide = RingMatrix(ring, [[ring.monomial(10**9), ring.one()],
                                 [ring.one(), ring.monomial(-10**9)]])
        pairs += [(wide, wide), (wide, random_matrix(rng, m, 2)), (random_matrix(rng, m, 2), wide)]
        for a, b in pairs:
            product = a * b
            assert product == matmul_by_entries(a, b), (m, a.rows, b.rows)
            assert_canonical(product)


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name so that every call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_power_searches_make_the_same_matrix_products(monkeypatch):
    """detect_orbit makes as many matrix products whether its walk runs on
    packed integers or on Laurent rows.  sampled_degree_growth squares A mod
    p on packed integers when it is dense, with no matrix product, and by
    one product per doubling otherwise."""
    rng = random.Random(2026)
    ring = laurent_ring(4)
    shear = RingMatrix(ring, [[ring.one(), ring.monomial(1)], [ring.zero(), ring.one()]])
    matrices = [shear, random_zmod_matrix(rng, 9, 3), random_laurent_matrix(rng, 4, 2),
                sparse_matrix(rng, 8, 2, radius=50)]
    calls = _count_calls(monkeypatch, RingMatrix, "__mul__")

    def run(matrix):
        calls.clear()
        orbit = detect_orbit(matrix, budget=40)
        orbit_products = len(calls)
        calls.clear()
        profile = sampled_degree_growth(matrix, 4)
        return orbit, orbit_products, profile, len(calls)

    def unreachable(*args):
        raise AssertionError("a packed path ran with _dense_span patched out")

    ladder_products = []
    for matrix in matrices:
        packed = run(matrix)
        with monkeypatch.context() as entrywise:
            # power_semigroup binds _dense_span at import, so its own name is patched.
            entrywise.setattr(power_semigroup, "_dense_span", lambda rows: None)
            for name in ("_packed_power_walk", "_packed_degree_ladder"):
                entrywise.setattr(power_semigroup, name, unreachable)
            unpacked = run(matrix)
        assert unpacked[:3] == packed[:3]
        assert unpacked[3] == 4
        ladder_products.append(packed[3])
    assert ladder_products == [0, 0, 0, 4]
