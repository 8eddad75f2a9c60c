"""Exact arithmetic in Z/mZ: canonical residues, factoring, CRT splitting.

Everything downstream (Laurent polynomials, matrices, CA rules) reduces to
residue arithmetic, so elements here are deliberately tiny value objects.
Moduli are desk-scale word-sized integers; trial division is plenty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


class InvalidModulusError(ValueError):
    """The modulus is not an integer >= 2."""


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


@lru_cache(maxsize=None)
def factorize(m: int) -> Modulus:
    """Factor m by trial division and wrap it as a :class:`Modulus`."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {m!r}")
    rest = m
    factors: list[tuple[int, int]] = []
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            k = 0
            while rest % d == 0:
                rest //= d
                k += 1
            factors.append((d, k))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Modulus(m, tuple(factors))


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
