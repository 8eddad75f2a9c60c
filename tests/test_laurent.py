"""Laurent polynomial arithmetic and the integrality criterion."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addca.laurent import LaurentPoly, laurent_ring, parse_laurent
from addca.modring import factorize

from oracles import integral_witness_constant

MODULI = [2, 3, 4, 6, 8, 9, 12]


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
    assert f.pos_degree(2) == 2
    assert f.neg_degree(2) == -1
    # no qualifying monomials on either side -> 0 by convention
    g = parse_laurent("3", factorize(4))
    assert g.pos_degree(2) == 0
    assert g.neg_degree(2) == 0
    h = parse_laurent("2x + 2x^-5", factorize(4))
    assert h.pos_degree(2) == 0
    assert h.neg_degree(2) == 0


def test_integrality_examples():
    m4 = factorize(4)
    assert not parse_laurent("x", m4).is_integral_over_base()
    f = parse_laurent("2x + 1", m4)
    assert f.is_integral_over_base()
    one = LaurentPoly.constant(m4, 1)
    assert (f - one) * (f - one) == LaurentPoly.zero(m4)  # (f-1)^2 = 4x^2 = 0
    assert parse_laurent("3", factorize(12)).is_integral_over_base()
    assert not parse_laurent("2x + 1", factorize(6)).is_integral_over_base()


def test_integrality_agrees_with_power_enumeration_oracle():
    rng = random.Random(20260814)
    checked_finite = checked_infinite = 0
    for _ in range(60):
        m = rng.choice(MODULI)
        f = random_poly(rng, m)
        integral = f.is_integral_over_base()
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
            assert not f.is_integral_over_base()
            continue
        found += 1
        shifted = f - LaurentPoly.constant(f.modulus, c.value)
        power = shifted ** f.modulus.max_exponent
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
    assert f ** 3 == parse_laurent("x^3 + 3x^2 + 3x + 1", ring.modulus)
    assert f.shift(-2) == parse_laurent("x^-1 + x^-2", ring.modulus)
    assert f ** 0 == ring.one()
    assert f.scale(3) == parse_laurent("3x + 3", ring.modulus)
