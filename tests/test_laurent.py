"""Laurent polynomial arithmetic and the integrality criterion."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addca.laurent import LaurentPoly, laurent_ring
from addca.modring import factorize

from oracles import (dict_product, integral_witness_constant, laurent_power, max_exponent,
                     neg_degree, parse_laurent, pos_degree)

MODULI = [2, 3, 4, 6, 8, 9, 12]
# 2^31 - 1 and 2^61 - 1 need Kronecker slots wider than 8 bytes.
PRODUCT_MODULI = [2, 4, 9, 25, 256, 2**31 - 1, 2**61 - 1]
# Operand lengths at which a slot one bit narrower than 2 bits(m-1) + bits(k)
# overflows for all-(m-1) operands: 29 for m = 4, 114 for 25, 5 for 2^31 - 1
# and 65 for 2^61 - 1.
EXTREME_LENGTHS = [2, 3, 5, 8, 16, 29, 31, 64, 65, 114, 128, 300]


def random_poly(rng: random.Random, m: int, span: int = 2, density: float = 0.7) -> LaurentPoly:
    coeffs = {e: rng.randrange(m) for e in range(-span, span + 1) if rng.random() < density}
    return LaurentPoly(factorize(m), coeffs)


def powers_eventually_repeat(f: LaurentPoly, budget: int) -> bool:
    """Oracle: walk f^1, f^2, ... and report whether a value repeats within budget."""
    seen = {f: 1}
    current = f
    for _ in range(budget):
        current = current * f
        if current in seen:
            return True
        seen[current] = 1
    return False


@st.composite
def laurent_polys(draw, moduli=MODULI, span=2):
    m = draw(st.sampled_from(moduli))
    exponents = st.integers(min_value=-span, max_value=span)
    coeffs = draw(st.dictionaries(exponents, st.integers(0, m - 1), max_size=2 * span + 1))
    return LaurentPoly(factorize(m), coeffs)


def test_square_example_mod_2():
    f = parse_laurent("x^-1 + x", factorize(2))
    assert f * f == parse_laurent("x^-2 + x^2", factorize(2))  # cross terms cancel mod 2


def test_normalization_drops_zero_coefficients():
    m4 = factorize(4)
    f = LaurentPoly(m4, {3: 4, 0: 5, -1: 8})
    assert f == LaurentPoly.constant(m4, 1)
    assert f.support() == (0,)
    assert LaurentPoly(m4, {2: 2}) + LaurentPoly(m4, {2: 2}) == LaurentPoly.zero(m4)


def test_reduce_mod_prime_example():
    f = parse_laurent("3x + 2", factorize(6))
    assert str(f.reduce_mod_prime(2)) == "x"
    assert str(f.reduce_mod_prime(3)) == "2"
    with pytest.raises(ValueError):
        f.reduce_mod_prime(5)


def test_prime_aware_degrees_example():
    # 2x^3 + x^2 + x^-1 over Z/4: the leading coefficient dies mod 2.
    f = parse_laurent("2x^3 + x^2 + x^-1", factorize(4))
    assert pos_degree(f, 2) == 2
    assert neg_degree(f, 2) == -1
    # no qualifying monomials on either side -> 0 by convention
    g = parse_laurent("3", factorize(4))
    assert pos_degree(g, 2) == 0
    assert neg_degree(g, 2) == 0
    h = parse_laurent("2x + 2x^-5", factorize(4))
    assert pos_degree(h, 2) == 0
    assert neg_degree(h, 2) == 0


def _mod_p_draws(rng: random.Random, m: int) -> list[LaurentPoly]:
    """Zero, constants, and dense and sparse polynomials with negative exponents."""
    modulus = factorize(m)
    polys = [LaurentPoly.zero(modulus), LaurentPoly.constant(modulus, rng.randrange(m))]
    for _ in range(60):
        terms = rng.randrange(1, 8)
        span = rng.choice((terms, 4 * terms, 40 * terms))  # dense or sparse storage
        low = rng.randrange(-span, span)
        # coefficients share the primes of m often, so terms vanish mod p
        coeffs = [rng.choice((rng.randrange(m), m // modulus.primes[-1] * rng.randrange(m)))
                  for _ in range(terms)]
        polys.append(LaurentPoly(modulus, zip(rng.sample(range(low, low + span), terms), coeffs)))
    return polys


def test_mod_p_questions_match_a_term_reference():
    """pos_degree, neg_degree and integrality_obstruction, read from
    reduce_mod_prime, against the same answers read from items()."""
    rng = random.Random(31337)
    forms = set()
    for m in (4, 6, 12, 225, 2**61 - 1):
        for f in _mod_p_draws(rng, m):
            forms.add(f.exps is None)
            primes = f.modulus.primes
            for p in primes:
                survivors = [e for e, c in f.items() if c % p]
                assert pos_degree(f, p) == max([e for e in survivors if e > 0], default=0), (f, p)
                assert neg_degree(f, p) == min([e for e in survivors if e < 0], default=0), (f, p)
            expected = next((p for p in primes
                             if any(c % p for e, c in f.items() if e != 0)), None)
            assert f.integrality_obstruction() == expected, f
    assert forms == {True, False}


def test_integrality_examples():
    m4 = factorize(4)
    assert parse_laurent("x", m4).integrality_obstruction() is not None
    f = parse_laurent("2x + 1", m4)
    assert f.integrality_obstruction() is None
    one = LaurentPoly.constant(m4, 1)
    assert (f - one) * (f - one) == LaurentPoly.zero(m4)  # (f-1)^2 = 4x^2 = 0
    assert parse_laurent("3", factorize(12)).integrality_obstruction() is None
    assert parse_laurent("2x + 1", factorize(6)).integrality_obstruction() is not None


def test_integrality_agrees_with_power_enumeration_oracle():
    rng = random.Random(20260814)
    checked_finite = checked_infinite = 0
    for _ in range(60):
        m = rng.choice(MODULI)
        f = random_poly(rng, m)
        integral = f.integrality_obstruction() is None
        repeats = powers_eventually_repeat(f, budget=100)
        assert integral == repeats, f"disagreement for {f!r}"
        checked_finite += integral
        checked_infinite += not integral
    assert checked_finite >= 5 and checked_infinite >= 5


def test_integral_witness_constant_kills_nilpotent_part():
    rng = random.Random(99)
    found = 0
    for _ in range(400):
        m = rng.choice(MODULI)
        f = random_poly(rng, m)
        c = integral_witness_constant(f)
        if c is None:
            assert f.integrality_obstruction() is not None
            continue
        found += 1
        shifted = f - LaurentPoly.constant(f.modulus, c)
        power = laurent_power(shifted, max_exponent(f.modulus))
        assert power.is_zero(), (f, c)
    assert found >= 40


@settings(max_examples=80, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_reduction_is_ring_homomorphism(f, g):
    if f.modulus.m != g.modulus.m:
        return
    for p in f.modulus.primes:
        assert (f + g).reduce_mod_prime(p) == f.reduce_mod_prime(p) + g.reduce_mod_prime(p)
        assert (f * g).reduce_mod_prime(p) == f.reduce_mod_prime(p) * g.reduce_mod_prime(p)


@settings(max_examples=80, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(f, g, h):
    if len({f.modulus.m, g.modulus.m, h.modulus.m}) != 1:
        return
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == LaurentPoly.zero(f.modulus)


@settings(max_examples=60, deadline=None)
@given(laurent_polys())
def test_parse_render_round_trip(f):
    assert parse_laurent(str(f), f.modulus) == f


def test_rendering_layout():
    ring = laurent_ring(8)
    f = ring.monomial(2, 3) + ring.monomial(-1) + ring.from_int(5)
    assert str(f) == "3x^2 + 5 + x^-1"
    assert str(ring.zero()) == "0"
    assert str(ring.monomial(1)) == "x"


def test_pow_and_shift():
    ring = laurent_ring(9)
    f = ring.monomial(1) + ring.from_int(1)
    assert laurent_power(f, 3) == parse_laurent("x^3 + 3x^2 + 3x + 1", ring.modulus)
    assert f * ring.monomial(-2) == parse_laurent("x^-1 + x^-2", ring.modulus)
    assert laurent_power(f, 0) == ring.one()
    assert f * ring.from_int(3) == parse_laurent("3x + 3", ring.modulus)


def _product_operands(rng: random.Random, m: int):
    """Operand pairs for the product test: random dense and sparse ones of 0
    to 300 terms with negative exponents, zero, one-term operands, gapped
    supports, and all-(m-1) operands of EXTREME_LENGTHS."""
    modulus = factorize(m)

    def random_operand(terms: int, span: int) -> LaurentPoly:
        low = rng.randrange(-span, span + 1)
        exponents = rng.sample(range(low, low + max(span, terms)), terms)
        return LaurentPoly(modulus, {e: rng.randrange(1, m) for e in exponents})

    zero = LaurentPoly.zero(modulus)
    gapped = LaurentPoly(modulus, {0: 1, 500: m - 1})
    for _ in range(40):
        size_a, size_b = rng.choice([(0, 5), (1, 1), (1, 40), (2, 3), (7, 11), (30, 30),
                                     (3, 300), (120, 200), (300, 300)])
        yield random_operand(size_a, 50), random_operand(size_b, rng.choice([size_b, 400]))
    yield zero, gapped
    yield gapped, gapped
    yield gapped, random_operand(20, 30)
    yield LaurentPoly.monomial(modulus, -7, m - 1), gapped
    for length in EXTREME_LENGTHS:
        full = LaurentPoly(modulus, {e: m - 1 for e in range(-length, 0)})
        yield full, full
        yield full, LaurentPoly(modulus, {e: m - 1 for e in range(300)})


def test_kronecker_product_matches_dict_convolution():
    """Products against the term-by-term oracle, and sums and differences
    against the constructor, which accumulates the terms of both operands
    without calling ``__add__``."""
    rng = random.Random(20261018)
    for m in PRODUCT_MODULI:
        checked = 0
        for f, g in _product_operands(rng, m):
            expected = dict_product(f, g)
            product = f * g
            assert product == expected, (m, f.low, f.coeffs[:5], g.low, g.coeffs[:5])
            assert g * f == expected
            assert all(0 <= c < m for c in product.coeffs)
            assert product.is_zero() or (product.coeffs[0] and product.coeffs[-1])
            assert f + g == LaurentPoly(f.modulus, [*f.items(), *g.items()])
            assert f - g == LaurentPoly(f.modulus, [*f.items(), *((e, -c) for e, c in g.items())])
            checked += 1
        assert checked == 40 + 4 + 2 * len(EXTREME_LENGTHS)


def test_far_apart_exponents_keep_one_slot():
    modulus = factorize(9)
    product = LaurentPoly.monomial(modulus, 10**9) * LaurentPoly.monomial(modulus, -10**9)
    assert (product.low, product.exps, product.coeffs) == (0, None, (1,))
    assert product == LaurentPoly.constant(modulus, 1)
    parsed = parse_laurent("x^1000000000", modulus)
    assert (parsed.low, parsed.exps, parsed.coeffs) == (10**9, None, (1,))
    assert parsed.support() == (10**9,)


def test_storage_form_is_canonical():
    m4 = factorize(4)
    f = LaurentPoly(m4, [(-3, 2), (-3, 2), (-1, 5), (2, 8), (4, 0)])
    assert (f.low, f.exps, f.coeffs) == (-1, None, (1,))
    g = parse_laurent("2x^2 + 2", m4)
    assert (g * g).is_zero() and (g * g).low == 0  # 4x^4 + 8x^2 + 4 = 0 mod 4
    two = LaurentPoly.constant(m4, 2)
    h = parse_laurent("x + 2 + 2x^-1", m4) * two
    assert (h.low, h.exps, h.coeffs) == (1, None, (2,))
    assert list(parse_laurent("x^3 + 3x^-2", m4).items()) == [(-2, 3), (3, 1)]
    assert (-parse_laurent("x^3 + 3x^-2", m4)).coeffs == (1, 0, 0, 0, 0, 3)
    assert (parse_laurent("x^3 + 3x^-2", m4) + parse_laurent("x^-2", m4)).coeffs == (1,)
    # More than four slots per term is stored sparsely, and a product, sum or
    # reduction that fills the span back in is stored densely.
    gapped = parse_laurent("2x^100 + 1", m4)
    assert (gapped.low, gapped.exps, gapped.coeffs) == (0, (0, 100), (1, 2))
    assert gapped * gapped == LaurentPoly.constant(m4, 1)  # 4x^200 + 4x^100 + 1
    square = laurent_power(parse_laurent("x^100 + 1", m4), 2)
    assert (square.exps, square.coeffs) == ((0, 100, 200), (1, 2, 1))
    assert gapped * two == two
    assert (gapped * two).exps is None
    assert gapped.reduce_mod_prime(2).exps is None
    assert (gapped + LaurentPoly(m4, {100: 2})).exps is None
    filled = gapped + LaurentPoly(m4, {e: 1 for e in range(1, 100)})
    assert filled.exps is None and len(filled.coeffs) == 101
    assert filled - LaurentPoly(m4, {e: 1 for e in range(1, 100)}) == gapped
    for poly in (gapped, square, filled, -gapped, gapped * LaurentPoly.monomial(m4, -7),
                 square * two):
        rebuilt = LaurentPoly(m4, dict(poly.items()))
        assert (rebuilt.low, rebuilt.exps, rebuilt.coeffs) == (poly.low, poly.exps, poly.coeffs)


def test_hash_separates_exponents():
    """CPython has hash(-1) == hash(-2); the hash must still tell x^-1 from
    x^-2, in the dense and in the sparse form."""
    modulus = factorize(5)
    monomials = [LaurentPoly.monomial(modulus, e) for e in range(-50, 51)]
    assert len({hash(f) for f in monomials}) == len(monomials)
    left = parse_laurent("x^-10 + x^-1 + x^500", modulus)
    right = parse_laurent("x^-10 + x^-2 + x^500", modulus)
    assert left.exps is not None and right.exps is not None
    assert left != right and hash(left) != hash(right)


def test_wide_sparse_powers_stay_sparse():
    """(x^-R + x^R)^32 over Z/3 keeps its few terms at R = 10^4: storage and
    products scale with the terms, not with the span of 64R exponents."""
    modulus = factorize(3)
    radius = 10**4
    power = laurent_power(parse_laurent(f"x^{radius} + x^-{radius}", modulus), 32)
    terms = {radius * (2 * k - 32): comb(32, k) % 3 for k in range(33)}
    assert power == LaurentPoly(modulus, terms)
    assert power.exps is not None and len(power.coeffs) == sum(1 for c in terms.values() if c)
    assert pos_degree(power, 3) == 32 * radius and neg_degree(power, 3) == -32 * radius
