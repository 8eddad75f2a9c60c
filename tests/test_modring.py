"""Residue arithmetic: canonical forms, nilpotency, CRT round-trips."""

from __future__ import annotations

import math

import pytest

from addca.modring import (
    MILLER_RABIN_BOUND,
    InvalidModulusError,
    ResidueElement,
    RingMismatchError,
    crt_combine,
    factorize,
    zmod,
)


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
    assert factorize(60).prime_powers() == (4, 3, 5)
    assert factorize(12).nilradical_generator() == 6


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
    r = zmod(6)
    assert r.from_int(-1).value == 5
    assert r.from_int(6).value == 0
    assert (r.from_int(4) + r.from_int(5)).value == 3
    assert (r.from_int(2) - r.from_int(5)).value == 3
    assert (-r.from_int(2)).value == 4
    assert (r.from_int(2) ** 5).value == 2


def test_mismatched_moduli_rejected():
    with pytest.raises(RingMismatchError):
        zmod(4).from_int(1) + zmod(6).from_int(1)


def test_nilpotent_examples():
    # 2 mod 6: powers cycle through {2, 4} and never hit 0.
    assert brute_force_is_nilpotent(2, 6) is False
    assert zmod(6).from_int(2).is_nilpotent() is False
    # 6 mod 12 squares to 36 = 0 mod 12.
    assert brute_force_is_nilpotent(6, 12) is True
    assert zmod(12).from_int(6).is_nilpotent() is True
    assert zmod(8).from_int(2).is_nilpotent() is True
    assert zmod(9).from_int(3).is_nilpotent() is True


def test_nilpotent_matches_power_oracle_exhaustively():
    # Criterion agreement for every modulus up to 60 and every residue.
    for m in range(2, 61):
        ring = zmod(m)
        for a in ring.elements():
            assert a.is_nilpotent() == brute_force_is_nilpotent(a.value, m), (m, a.value)


def test_unit_predicate():
    assert zmod(12).from_int(5).is_unit()
    assert not zmod(12).from_int(4).is_unit()
    assert zmod(12).from_int(5).inverse().value == 5  # 25 = 24 + 1


def test_ring_axioms_exhaustive_small_moduli():
    for m in range(2, 17):
        ring = zmod(m)
        elems = list(ring.elements())
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


def test_crt_split_example():
    a = zmod(12).from_int(7)
    parts = a.crt_split()
    assert [(p.value, p.modulus.m) for p in parts] == [(3, 4), (1, 3)]


def test_crt_round_trip_exhaustive():
    for m in range(2, 61):
        modulus = factorize(m)
        for v in range(m):
            a = ResidueElement(v, modulus)
            assert crt_combine(a.crt_split(), modulus) == a


def test_crt_combine_rejects_misaligned_parts():
    parts = zmod(12).from_int(7).crt_split()
    with pytest.raises(RingMismatchError):
        crt_combine(parts[::-1], factorize(12))
    with pytest.raises(RingMismatchError):
        crt_combine(parts, factorize(18))


def test_crt_split_is_ring_homomorphism():
    modulus = factorize(60)
    for v in range(0, 60, 7):
        for w in range(0, 60, 11):
            a, b = ResidueElement(v, modulus), ResidueElement(w, modulus)
            for part_sum, part_a, part_b in zip((a + b).crt_split(), a.crt_split(), b.crt_split()):
                assert part_sum == part_a + part_b
            for part_prod, part_a, part_b in zip((a * b).crt_split(), a.crt_split(), b.crt_split()):
                assert part_prod == part_a * part_b
