"""Moduli: exact factoring, and Z/mZ as the constant Laurent polynomials
(canonical residues, nilpotency, ring axioms)."""

from __future__ import annotations

import math

import pytest

from addca.laurent import laurent_ring
from addca.modring import (
    MILLER_RABIN_BOUND,
    InvalidModulusError,
    RingMismatchError,
    factorize,
    power,
)

from oracles import constant_value, max_exponent, nilradical_generator, prime_powers


def brute_force_is_nilpotent(value: int, m: int) -> bool:
    """Oracle: enumerate powers a^1, a^2, ... until 0 or until a cycle repeats."""
    seen = set()
    a = value % m
    while a not in seen:
        if a == 0:
            return True
        seen.add(a)
        a = (a * value) % m
    return False


def test_factorize_examples():
    assert factorize(12).factorization == ((2, 2), (3, 1))
    assert factorize(2).factorization == ((2, 1),)
    assert factorize(97).factorization == ((97, 1),)
    assert prime_powers(factorize(60)) == (4, 3, 5)
    assert nilradical_generator(factorize(12)) == 6


def test_factorize_rejects_bad_moduli():
    for bad in (1, 0, -4):
        with pytest.raises(InvalidModulusError):
            factorize(bad)


def test_factorize_large_moduli_exactly():
    mersenne61 = 2**61 - 1
    assert factorize(mersenne61).factorization == ((mersenne61, 1),)
    assert factorize((2**31 - 1) ** 2).factorization == ((2**31 - 1, 2),)
    p, q = 999_999_937, 1_000_000_007  # a semiprime near 10^18
    assert factorize(p * q).factorization == ((p, 1), (q, 1))
    assert factorize(2**5 * 3 * 4099**2 * q).factorization == (
        (2, 5), (3, 1), (4099, 2), (q, 1))
    for m in (mersenne61, (2**31 - 1) ** 2, p * q):
        modulus = factorize(m)
        assert math.prod(prime**k for prime, k in modulus.factorization) == m


def test_factorize_splits_strong_pseudoprimes_below_the_bound():
    # psi_12, the least composite that passes Miller-Rabin for the first 12
    # prime bases; base 41 exposes it and Pollard rho splits it.
    psi12 = 318_665_857_834_031_151_167_461
    assert factorize(psi12).factorization == ((399_165_290_221, 1), (798_330_580_441, 1))
    # psi_13 passes all 13 bases, so it is exactly where the bound has to stop.
    assert MILLER_RABIN_BOUND == 3_317_044_064_679_887_385_961_981
    with pytest.raises(InvalidModulusError, match="cannot be factored exactly"):
        factorize(MILLER_RABIN_BOUND)


def test_factorize_rejects_unsplittable_large_cofactor():
    # 2^89 - 1 is prime, but above the bound where Miller-Rabin is exact.
    for m in (2**89 - 1, 6 * (2**89 - 1)):
        with pytest.raises(InvalidModulusError, match="cannot be factored exactly"):
            factorize(m)


def test_canonical_representative():
    r = laurent_ring(6)
    assert constant_value(r.from_int(-1)) == 5
    assert constant_value(r.from_int(6)) == 0 and r.from_int(6).is_zero()
    assert constant_value(r.from_int(4) + r.from_int(5)) == 3
    assert constant_value(r.from_int(2) - r.from_int(5)) == 3
    assert constant_value(-r.from_int(2)) == 4
    assert constant_value(r.from_int(2) ** 5) == 2


def test_mismatched_moduli_rejected():
    with pytest.raises(RingMismatchError):
        laurent_ring(4).from_int(1) + laurent_ring(6).from_int(1)


def is_nilpotent(value: int, m: int) -> bool:
    """A constant c of Z/mZ is nilpotent iff every prime dividing m divides c;
    then c^K == 0 for K the largest prime exponent of m."""
    modulus = factorize(m)
    nilpotent = value % nilradical_generator(modulus) == 0
    power = laurent_ring(m).from_int(value) ** max_exponent(modulus)
    assert power.is_zero() == nilpotent, (value, m)
    return nilpotent


def test_nilpotent_examples():
    # 2 mod 6: powers cycle through {2, 4} and never hit 0.
    assert brute_force_is_nilpotent(2, 6) is False
    assert is_nilpotent(2, 6) is False
    # 6 mod 12 squares to 36 = 0 mod 12.
    assert brute_force_is_nilpotent(6, 12) is True
    assert is_nilpotent(6, 12) is True
    assert is_nilpotent(2, 8) is True
    assert is_nilpotent(3, 9) is True


def test_nilpotent_matches_power_oracle_exhaustively():
    # Criterion agreement for every modulus up to 60 and every residue.
    for m in range(2, 61):
        for v in range(m):
            assert is_nilpotent(v, m) == brute_force_is_nilpotent(v, m), (m, v)


def test_ring_axioms_exhaustive_small_moduli():
    for m in range(2, 17):
        ring = laurent_ring(m)
        elems = [ring.from_int(v) for v in range(m)]
        one, zero = ring.one(), ring.zero()
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems[:: max(1, m // 4)]:
                    assert (a + b) + c == a + (b + c)
                    assert a * (b + c) == a * b + a * c


def test_power_squares_and_multiplies_exactly_once_per_bit():
    """One product per set bit and one squaring per further bit; the
    identity is never squared."""
    for exponent in list(range(70)) + [2**20, 2**20 - 1, 10**9 + 7]:
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return a * b % 1009

        assert power(1, 3, exponent, counting_mul) == pow(3, exponent, 1009)
        squarings = max(exponent.bit_length() - 1, 0)
        assert len(calls) == exponent.bit_count() + squarings, exponent
    assert power("one", "base", 0, None) == "one"
    with pytest.raises(ValueError, match="negative exponent"):
        power(1, 3, -1, int.__mul__)
