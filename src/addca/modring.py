"""Exact arithmetic in Z/mZ: canonical residues, factoring, CRT splitting.

Everything downstream (Laurent polynomials, matrices, CA rules) reduces to
residue arithmetic, so elements here are deliberately tiny value objects.
Moduli are factored exactly: trial division takes the small primes, and a
cofactor below 3.3e24 is split by deterministic Miller-Rabin and Pollard rho.
A larger cofactor without small factors is rejected, never guessed.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


def short_repr(value) -> str:
    """``reprlib.repr(value)`` cut to 60 characters, for echoing a value in an
    error message."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


class InvalidModulusError(ValueError):
    """The modulus is not an integer >= 2, or cannot be factored exactly."""


class RingMismatchError(ValueError):
    """Two elements from different rings were combined."""


@dataclass(frozen=True, slots=True)
class Modulus:
    """A modulus m >= 2 together with its prime factorization.

    ``factorization`` is a tuple of (prime, exponent) pairs in increasing
    prime order; it is carried around so that per-prime questions
    (nilpotency, reductions) never re-factor.
    """

    m: int
    factorization: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    @property
    def max_exponent(self) -> int:
        return max(k for _, k in self.factorization)

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**k for p, k in self.factorization)

    def nilradical_generator(self) -> int:
        """Product of the distinct primes dividing m (generates the nilradical)."""
        return math.prod(self.primes)

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


def _same_ring(a: "ResidueElement", b: "ResidueElement") -> None:
    if a.modulus.m != b.modulus.m:
        raise RingMismatchError(
            f"cannot combine residues mod {a.modulus.m} and mod {b.modulus.m}"
        )


@dataclass(frozen=True, slots=True)
class ResidueElement:
    """An element of Z/mZ, stored as its canonical representative in [0, m)."""

    value: int
    modulus: Modulus

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.modulus.m)

    def __add__(self, other: "ResidueElement") -> "ResidueElement":
        _same_ring(self, other)
        return ResidueElement(self.value + other.value, self.modulus)

    def __sub__(self, other: "ResidueElement") -> "ResidueElement":
        _same_ring(self, other)
        return ResidueElement(self.value - other.value, self.modulus)

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        _same_ring(self, other)
        return ResidueElement(self.value * other.value, self.modulus)

    def __neg__(self) -> "ResidueElement":
        return ResidueElement(-self.value, self.modulus)

    def __pow__(self, exponent: int) -> "ResidueElement":
        return ResidueElement(pow(self.value, exponent, self.modulus.m), self.modulus)

    def inverse(self) -> "ResidueElement":
        return ResidueElement(pow(self.value, -1, self.modulus.m), self.modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus.m) == 1

    def is_nilpotent(self) -> bool:
        """True iff some power vanishes, i.e. every prime dividing m divides value."""
        return all(self.value % p == 0 for p in self.modulus.primes)

    def crt_split(self) -> tuple["ResidueElement", ...]:
        """Project onto the prime-power component rings of Z/mZ."""
        return tuple(
            ResidueElement(self.value % q, factorize(q))
            for q in self.modulus.prime_powers()
        )

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus.m})"


def crt_combine(parts: tuple[ResidueElement, ...] | list[ResidueElement],
                modulus: Modulus) -> ResidueElement:
    """Inverse of :meth:`ResidueElement.crt_split` for the given modulus.

    The parts must line up, in order, with the prime-power components of
    ``modulus``; the result is the unique residue reducing to each part.
    """
    expected = modulus.prime_powers()
    got = tuple(part.modulus.m for part in parts)
    if got != expected:
        raise RingMismatchError(
            f"component moduli {got} do not match prime powers {expected} of {modulus.m}"
        )
    total = 0
    for part in parts:
        q = part.modulus.m
        rest = modulus.m // q
        total += part.value * rest * pow(rest, -1, q)
    return ResidueElement(total, modulus)


@dataclass(frozen=True, slots=True)
class ZmodRing:
    """Handle for Z/mZ used by generic matrix/polynomial code."""

    modulus: Modulus

    def zero(self) -> ResidueElement:
        return ResidueElement(0, self.modulus)

    def one(self) -> ResidueElement:
        return ResidueElement(1, self.modulus)

    def from_int(self, value: int) -> ResidueElement:
        return ResidueElement(value, self.modulus)

    def elements(self) -> Iterator[ResidueElement]:
        for v in range(self.modulus.m):
            yield ResidueElement(v, self.modulus)


def zmod(m: int) -> ZmodRing:
    """Shorthand: the ring handle for Z/mZ."""
    return ZmodRing(factorize(m))
