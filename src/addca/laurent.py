"""Sparse Laurent polynomials over Z/mZ.

This is the coefficient ring for everything dynamical in the package: the
matrix attached to a one-dimensional linear cellular automaton has entries
here, and almost every decision procedure bottoms out in two questions about
an element f of (Z/mZ)[x, x^-1]:

* is f integral over the subring Z/mZ of constants?
* how far does f stretch in each direction once reduced mod a prime p?

Integrality has a pleasantly concrete criterion.  Write m = p1^k1 ... ps^ks.
Then f is integral over Z/mZ iff for every prime pi the reduction of f mod pi
is a constant.  (If f mod p == c then f - c is p-divisible componentwise, so
(f - c)^k == 0 for k the exponent of p in m, and f satisfies a monic equation;
conversely a monic equation survives reduction mod p, and the only elements of
F_p[x, x^-1] integral over F_p are the constants, x being transcendental.)
The test suite double-checks this criterion against a brute-force
power-enumeration oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .modring import Modulus, ResidueElement, RingMismatchError, factorize


class LaurentPoly:
    """Immutable sparse Laurent polynomial with canonical int coefficients.

    Coefficients are stored as a dict {exponent: value} with values in
    [1, m); zero coefficients are never kept.  Instances are treated as
    frozen: all operations return new objects.
    """

    __slots__ = ("modulus", "_coeffs", "_hash")

    def __init__(self, modulus: Modulus,
                 coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                 *, _normalized: bool = False):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        if _normalized:
            data = dict(items)
        else:
            m = modulus.m
            data = {}
            for e, c in items:
                if isinstance(c, ResidueElement):
                    c = c.value
                c = (data.get(e, 0) + c) % m
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        self.modulus = modulus
        self._coeffs = data
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modulus: Modulus) -> "LaurentPoly":
        return cls(modulus, {}, _normalized=True)

    @classmethod
    def constant(cls, modulus: Modulus, value: int) -> "LaurentPoly":
        return cls(modulus, {0: value})

    @classmethod
    def monomial(cls, modulus: Modulus, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls(modulus, {exponent: coefficient})

    # -- views -------------------------------------------------------------

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return all(e == 0 for e in self._coeffs)

    def constant_value(self) -> int:
        return self._coeffs.get(0, 0)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.modulus.m != other.modulus.m:
            raise RingMismatchError(
                f"cannot combine Laurent polynomials mod {self.modulus.m} and mod {other.modulus.m}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        m = self.modulus.m
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            c = (out.get(e, 0) + c) % m
            if c:
                out[e] = c
            elif e in out:
                del out[e]
        return LaurentPoly(self.modulus, out, _normalized=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        m = self.modulus.m
        return LaurentPoly(self.modulus, {e: m - c for e, c in self._coeffs.items()},
                           _normalized=True)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        m = self.modulus.m
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = (out.get(e, 0) + c1 * c2) % m
        return LaurentPoly(self.modulus, {e: c for e, c in out.items() if c},
                           _normalized=True)

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if exponent < 0:
            raise ValueError("negative powers of general Laurent polynomials are not defined here")
        result = LaurentPoly.constant(self.modulus, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, value: int | ResidueElement) -> "LaurentPoly":
        if isinstance(value, ResidueElement):
            value = value.value
        m = self.modulus.m
        out = {e: (c * value) % m for e, c in self._coeffs.items()}
        return LaurentPoly(self.modulus, {e: c for e, c in out.items() if c},
                           _normalized=True)

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by x^offset."""
        return LaurentPoly(self.modulus, {e + offset: c for e, c in self._coeffs.items()},
                           _normalized=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.modulus.m == other.modulus.m and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.modulus.m, frozenset(self._coeffs.items())))
        return self._hash

    # -- prime-aware structure ----------------------------------------------

    def _require_prime_factor(self, p: int) -> None:
        if p not in self.modulus.primes:
            raise ValueError(f"{p} is not a prime divisor of the modulus {self.modulus.m}")

    def reduce_mod_prime(self, p: int) -> "LaurentPoly":
        """Coefficientwise reduction onto (Z/pZ)[x, x^-1]."""
        self._require_prime_factor(p)
        target = factorize(p)
        return LaurentPoly(target, {e: c % p for e, c in self._coeffs.items()
                                    if c % p}, _normalized=True)

    def pos_degree(self, p: int) -> int:
        """Largest exponent > 0 whose coefficient survives mod p (0 if none)."""
        self._require_prime_factor(p)
        degs = [e for e, c in self._coeffs.items() if e > 0 and c % p]
        return max(degs) if degs else 0

    def neg_degree(self, p: int) -> int:
        """Smallest exponent < 0 whose coefficient survives mod p (0 if none)."""
        self._require_prime_factor(p)
        degs = [e for e, c in self._coeffs.items() if e < 0 and c % p]
        return min(degs) if degs else 0

    def integrality_obstruction(self) -> int | None:
        """Smallest prime p | m with f mod p non-constant, or None when f is
        integral over Z/mZ."""
        for p in self.modulus.primes:
            if any(e != 0 and c % p for e, c in self._coeffs.items()):
                return p
        return None

    def is_integral_over_base(self) -> bool:
        """True iff f satisfies some monic polynomial with constant coefficients."""
        return self.integrality_obstruction() is None

    # -- rendering / parsing -------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                tail = "x" if e == 1 else f"x^{e}"
                parts.append(head + tail)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self} mod {self.modulus.m})"


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?x(?:\^(-?\d+))?$")


def parse_laurent(text: str, modulus: Modulus) -> LaurentPoly:
    """Parse the rendering produced by ``str(LaurentPoly)``.

    Accepts sums of ``c``, ``x``, ``c x^e`` and ``x^e`` terms joined by '+',
    e.g. ``"2x^3 + x + 5 + x^-2"``.
    """
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(modulus)
    terms: list[tuple[int, int]] = []
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty term in {text!r}")
        if token.isdigit():
            terms.append((0, int(token)))
            continue
        match = _TERM_RE.match(token)
        if not match:
            raise ValueError(f"cannot parse Laurent term {token!r}")
        coeff = int(match.group(1)) if match.group(1) else 1
        exponent = int(match.group(2)) if match.group(2) else 1
        terms.append((exponent, coeff))
    return LaurentPoly(modulus, terms)


@dataclass(frozen=True, slots=True)
class LaurentRing:
    """Handle for (Z/mZ)[x, x^-1] used by generic matrix/polynomial code."""

    modulus: Modulus

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.modulus)

    def one(self) -> LaurentPoly:
        return LaurentPoly.constant(self.modulus, 1)

    def from_int(self, value: int) -> LaurentPoly:
        return LaurentPoly.constant(self.modulus, value)

    def monomial(self, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return LaurentPoly.monomial(self.modulus, exponent, coefficient)


def laurent_ring(m: int) -> LaurentRing:
    """Shorthand: the ring handle for (Z/mZ)[x, x^-1]."""
    return LaurentRing(factorize(m))

