"""The modulus m of Z/mZ: exact factoring, canonical integer matrices, errors,
and the square-and-multiply power shared by every ring in the package.

Z/mZ has no element type of its own.  Its elements are the constant Laurent
polynomials, ``laurent_ring(m).from_int(v)``, so a constant matrix over Z/mZ
is ``matrix_from_ints(laurent_ring(m), rows)``.  Moduli are factored exactly:
trial division takes the small primes, and a cofactor below 3.3e24 is split
by deterministic Miller-Rabin and Pollard rho.  A larger cofactor without
small factors is rejected, never guessed.
"""

from __future__ import annotations

import math
import reprlib
from functools import lru_cache
from typing import Sequence


def short_repr(value) -> str:
    """``reprlib.repr(value)`` cut to 60 characters, for echoing a value in an
    error message."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


class InvalidModulusError(ValueError):
    """The modulus is not an integer >= 2, or cannot be factored exactly."""


class RingMismatchError(ValueError):
    """Two elements from different rings were combined."""


class Modulus:
    """A modulus m >= 2 together with its prime factorization.

    ``factorization`` is a tuple of (prime, exponent) pairs in increasing
    prime order; it is carried around so that per-prime questions
    (nilpotency, reductions) never re-factor.  ``primes`` lists its primes,
    and ``prime_moduli`` maps each prime p to the Modulus of Z/pZ; both are
    built once here.  Immutable, and compared and hashed by ``m`` and
    ``factorization``.  Unlike the package's NamedTuple value types it is a
    plain ``__slots__`` class, because every Laurent operation reads ``m``
    and a slot is read faster than a tuple field.
    """

    __slots__ = ("m", "factorization", "primes", "prime_moduli")

    def __init__(self, m: int, factorization: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "factorization", factorization)
        primes = tuple(p for p, _ in factorization)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "prime_moduli", {
            p: self if p == m else Modulus(p, ((p, 1),)) for p in primes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Modulus")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Modulus):
            return NotImplemented
        return self.m == other.m and self.factorization == other.factorization

    def __hash__(self) -> int:
        return hash((self.m, self.factorization))

    def __repr__(self) -> str:
        return f"Modulus(m={self.m!r}, factorization={self.factorization!r})"

    def __str__(self) -> str:
        return f"Z/{self.m}"


# Trial division runs up to this bound; Miller-Rabin with the first 13 primes
# as bases is deterministic below MILLER_RABIN_BOUND, the least composite
# that passes all 13 (with the first 12 the bound would be
# 318_665_857_834_031_151_167_461, itself such a composite).
TRIAL_DIVISION_BOUND = 1 << 12
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def factorize(m: int) -> Modulus:
    """Factor m exactly and wrap it as a :class:`Modulus`.

    Trial division up to TRIAL_DIVISION_BOUND, then Miller-Rabin and Pollard
    rho on a remaining cofactor below MILLER_RABIN_BOUND.  Raises InvalidModulusError
    for m < 2 and for a larger cofactor that trial division cannot split.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {short_repr(m)}")
    rest = m
    factors: dict[int, int] = {}
    d = 2
    while d < TRIAL_DIVISION_BOUND and d * d <= rest:
        while rest % d == 0:
            rest //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if rest >= MILLER_RABIN_BOUND:
        raise InvalidModulusError(
            f"modulus {short_repr(m)} has a factor of {rest.bit_length()} bits with no "
            f"prime divisor below {TRIAL_DIVISION_BOUND}; it cannot be factored exactly")
    for p in _prime_factors(rest):
        factors[p] = factors.get(p, 0) + 1
    return Modulus(m, tuple(sorted(factors.items())))


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n < MILLER_RABIN_BOUND, with multiplicity."""
    if n == 1:
        return []
    if _is_prime(n):
        return [n]
    d = _pollard_rho(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases: exact for n < MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's variant of Pollard rho,
    gcds batched over 128 steps, increments c = 1, 2, ... until one splits n)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def power(one, base, exponent: int, mul):
    """base^exponent by square and multiply, with ``one`` the identity of ``mul``.

    Calls ``mul`` once per set bit of the exponent and once more, to square,
    per further bit.
    """
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent}: only nonnegative powers are defined")
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


def canonical_matrix(matrix, moduli: Sequence[int]) -> tuple | None:
    """Square matrix as a tuple of int tuples, entry (i, j) reduced mod moduli[i].

    The caller's tuple comes back unchanged when it is already canonical
    (entries of type exactly int, in range), so objects built from canonical
    data hold no second copy.  None unless the matrix is len(moduli) x len(moduli).
    """
    size = len(moduli)
    if (type(matrix) is tuple and len(matrix) == size
            and all(type(row) is tuple and len(row) == size
                    and all(type(v) is int and 0 <= v < q for v in row)
                    for row, q in zip(matrix, moduli))):
        return matrix
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    if len(rows) != size or any(len(row) != size for row in rows):
        return None
    return tuple(tuple(v % q for v in row) for row, q in zip(rows, moduli))
