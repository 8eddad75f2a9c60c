"""Laurent polynomials over Z/mZ, stored sparsely and multiplied by Kronecker
substitution.

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

Storage.  A polynomial whose exponents span at most _DENSE_SPAN_PER_TERM
slots per nonzero term is dense: its lowest exponent ``low`` plus the tuple
of coefficients of x^low, x^(low+1), ... up to the highest term.  Any other
is sparse: the tuple ``exps`` of its exponents and the tuple of their
coefficients.  So memory is proportional to the number of terms, never to
a wide span of exponents, and the dense tuples feed the Kronecker product
without unpacking.

Multiplication picks one of two products from the operands' shape.  When
a sparse operand makes the term pairs fewer than the slots of the result
(``1 + x^500`` times itself, say) it convolves the terms through a dict.
Otherwise both operands are packed into one integer each, the
coefficient of x^(low + i) in slot i (Kronecker substitution, see Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
2009).  A slot holds 2 * bits(m - 1) + bits(k) bits, k the length of the
shorter coefficient tuple (at least the number of terms that meet in one
slot), enough for any coefficient of the integer product, so one big-int
multiply yields every convolution sum in its own slot.  Slots are rounded up
to 1, 2, 4 or 8 bytes and unpacked with ``memoryview.cast``; wider slots
(large moduli) are unpacked by slicing the product's bytes.  Each slot is
then reduced mod m.  The packing helpers also serve ``polymat.char_poly``,
which evaluates a whole matrix at x = 2^s, and the packed power walk and
degree ladder of ``power_semigroup``, which reduce every slot mod m with
``SlotReducer`` instead of unpacking.  A one-term operand is a scaled
shift.  The test oracle ``tests/oracles.py::dict_product`` convolves term
by term without either shortcut.
"""

from __future__ import annotations

import struct
import sys
from functools import reduce
from itertools import compress
from operator import mul, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .modring import Modulus, RingMismatchError, factorize, power

# A polynomial is stored densely when its exponents span at most this many
# slots per nonzero term, sparsely otherwise.
_DENSE_SPAN_PER_TERM = 4
# struct / memoryview format of an unsigned slot of 1, 2, 4 or 8 bytes.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BYTEORDER = sys.byteorder  # the order native struct formats and memoryview.cast use


class LaurentPoly:
    """Immutable Laurent polynomial with canonical int coefficients.

    ``low`` is the lowest exponent with a nonzero coefficient.  A dense
    polynomial has ``exps is None`` and ``coeffs[i]``, in [0, m), the
    coefficient of x^(low + i), first and last nonzero.  A sparse one has
    the increasing tuple ``exps`` of exponents with nonzero coefficient and
    ``coeffs[i]``, in [1, m), the coefficient of x^exps[i].  The form is a
    function of the polynomial (dense iff its span is at most
    _DENSE_SPAN_PER_TERM slots per nonzero term), so equal polynomials have
    equal storage.  Zero is dense with ``low == 0, coeffs == ()``.
    Instances are treated as frozen: all operations return new objects.
    """

    __slots__ = ("modulus", "low", "exps", "coeffs")

    def __init__(self, modulus: Modulus,
                 coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # The type test spares plain dicts the slower ABC check.
        items = (coeffs.items() if type(coeffs) is dict or isinstance(coeffs, Mapping)
                 else coeffs)
        m = modulus.m
        data: dict[int, int] = {}
        for e, c in items:
            data[e] = (data.get(e, 0) + c) % m
        self.modulus = modulus
        self.low, self.exps, self.coeffs = _storage_of_terms(data)

    @classmethod
    def _make(cls, modulus: Modulus, low: int, exps: tuple | None,
              coeffs: tuple) -> "LaurentPoly":
        poly = object.__new__(cls)
        poly.modulus = modulus
        poly.low = low
        poly.exps = exps
        poly.coeffs = coeffs
        return poly

    @classmethod
    def _from_terms(cls, modulus: Modulus, data: dict[int, int]) -> "LaurentPoly":
        """Polynomial with canonical coefficient ``data[e]`` at x^e."""
        return cls._make(modulus, *_storage_of_terms(data))

    @classmethod
    def _from_slots(cls, modulus: Modulus, low: int, values) -> "LaurentPoly":
        """Polynomial with canonical coefficient ``values[i]`` at x^(low + i)."""
        end = len(values)
        while end and not values[end - 1]:
            end -= 1
        start = 0
        while start < end and not values[start]:
            start += 1
        poly = object.__new__(cls)
        poly.modulus = modulus
        if end - start > _DENSE_SPAN_PER_TERM * (len(values) - values.count(0)):
            poly.low = low + start
            poly.exps = tuple(compress(range(low, low + len(values)), values))
            poly.coeffs = tuple(filter(None, values))
        else:
            poly.low = low + start if end else 0
            poly.exps = None
            poly.coeffs = tuple(values[start:end])
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modulus: Modulus) -> "LaurentPoly":
        return cls._make(modulus, 0, None, ())

    @classmethod
    def constant(cls, modulus: Modulus, value: int) -> "LaurentPoly":
        return cls._from_slots(modulus, 0, (value % modulus.m,))

    @classmethod
    def monomial(cls, modulus: Modulus, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls(modulus, {exponent: coefficient})

    # -- views -------------------------------------------------------------

    def support(self) -> tuple[int, ...]:
        if self.exps is not None:
            return self.exps
        return tuple(compress(range(self.low, self.low + len(self.coeffs)), self.coeffs))

    def items(self) -> Iterator[tuple[int, int]]:
        return zip(self.support(), filter(None, self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not self.coeffs or (self.low == 0 and len(self.coeffs) == 1)

    def _span(self) -> int:
        """Number of exponents from the lowest to the highest (0 for zero)."""
        return len(self.coeffs) if self.exps is None else self.exps[-1] - self.low + 1

    def _slots(self) -> Sequence[int]:
        """Coefficients of x^low, x^(low + 1), ... up to the highest exponent."""
        if self.exps is None:
            return self.coeffs
        values = [0] * self._span()
        for e, c in zip(self.exps, self.coeffs):
            values[e - self.low] = c
        return values

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.modulus is not other.modulus and self.modulus.m != other.modulus.m:
            raise RingMismatchError(
                f"cannot combine Laurent polynomials mod {self.modulus.m} and mod {other.modulus.m}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        m = self.modulus.m
        if self.exps is None and other.exps is None:
            low = min(self.low, other.low)
            span = max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low
            if span <= _DENSE_SPAN_PER_TERM * (len(self.coeffs) + len(other.coeffs)):
                out = [0] * span
                start = self.low - low
                out[start:start + len(self.coeffs)] = self.coeffs
                start = other.low - low
                stop = start + len(other.coeffs)
                out[start:stop] = [(x + y) % m for x, y in zip(out[start:stop], other.coeffs)]
                return LaurentPoly._from_slots(self.modulus, low, out)
        data = dict(self.items())
        for e, c in other.items():
            data[e] = (data.get(e, 0) + c) % m
        return LaurentPoly._from_terms(self.modulus, data)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        m = self.modulus.m
        return LaurentPoly._make(self.modulus, self.low, self.exps,
                                 tuple([m - c if c else 0 for c in self.coeffs]))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        a, b = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        if len(a.coeffs) <= 1:
            return b._scaled(a.coeffs[0], a.low) if a.coeffs else LaurentPoly.zero(self.modulus)
        if a.exps is None and b.exps is None:
            a_slots, b_slots = a.coeffs, b.coeffs
        else:
            if len(a.coeffs) * len(b.coeffs) < a._span() + b._span():
                return a._convolve(b)
            a_slots, b_slots = a._slots(), b._slots()
        m = self.modulus.m
        width = slot_width(2 * (m - 1).bit_length() + len(a.coeffs).bit_length())
        product = pack_slots(a_slots, width) * pack_slots(b_slots, width)
        out = [c % m for c in unpack_slots(product, len(a_slots) + len(b_slots) - 1, width)]
        return LaurentPoly._from_slots(self.modulus, a.low + b.low, out)

    def _convolve(self, other: "LaurentPoly") -> "LaurentPoly":
        """Term-by-term product, for operands with few terms per result slot."""
        m = self.modulus.m
        data: dict[int, int] = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly._from_terms(self.modulus, {e: c % m for e, c in data.items()})

    def _scaled(self, value: int, offset: int) -> "LaurentPoly":
        """value * x^offset * self."""
        m = self.modulus.m
        values = [c * value % m for c in self.coeffs]
        if self.exps is None:
            return LaurentPoly._from_slots(self.modulus, self.low + offset, values)
        return LaurentPoly._from_terms(self.modulus,
                                       dict(zip(map(offset.__add__, self.exps), values)))

    def __pow__(self, exponent: int) -> "LaurentPoly":
        return power(LaurentPoly.constant(self.modulus, 1), self, exponent, mul)

    def scale(self, value: int) -> "LaurentPoly":
        return self._scaled(value, 0)

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by x^offset."""
        if not self.coeffs:
            return self
        exps = None if self.exps is None else tuple(map(offset.__add__, self.exps))
        return LaurentPoly._make(self.modulus, self.low + offset, exps, self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.modulus.m == other.modulus.m and self.low == other.low
                and self.coeffs == other.coeffs and self.exps == other.exps)

    def __hash__(self) -> int:
        # Exponents are hashed doubled: CPython has hash(-1) == hash(-2).
        exps = None if self.exps is None else tuple([2 * e for e in self.exps])
        return hash((self.modulus.m, 2 * self.low, exps, self.coeffs))

    # -- prime-aware structure ----------------------------------------------

    def reduce_mod_prime(self, p: int) -> "LaurentPoly":
        """Coefficientwise reduction onto (Z/pZ)[x, x^-1]."""
        target = self.modulus.prime_moduli.get(p)
        if target is None:
            raise ValueError(f"{p} is not a prime divisor of the modulus {self.modulus.m}")
        values = [c % p for c in self.coeffs]
        if self.exps is None:
            return LaurentPoly._from_slots(target, self.low, values)
        return LaurentPoly._from_terms(target, dict(zip(self.exps, values)))

    def integrality_obstruction(self) -> int | None:
        """Smallest prime p | m with f mod p non-constant, or None when f is
        integral over Z/mZ."""
        for p in self.modulus.primes:
            if not self.reduce_mod_prime(p).is_constant():
                return p
        return None

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in reversed(list(self.items())):
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                tail = "x" if e == 1 else f"x^{e}"
                parts.append(head + tail)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self} mod {self.modulus.m})"


def _storage_of_terms(data: dict[int, int]) -> tuple[int, tuple | None, tuple]:
    """(low, exps, coeffs) of the polynomial with canonical coefficient
    ``data[e]`` at x^e."""
    exps = sorted(e for e, c in data.items() if c)
    if not exps:
        return 0, None, ()
    low = exps[0]
    span = exps[-1] - low + 1
    if span > _DENSE_SPAN_PER_TERM * len(exps):
        return low, tuple(exps), tuple(map(data.__getitem__, exps))
    values = [0] * span
    for e in exps:
        values[e - low] = data[e]
    return low, None, tuple(values)


def slot_width(bits: int) -> int:
    """Bytes per slot for slot values of ``bits`` bits: 1, 2, 4 or 8, or the
    exact byte count above 8."""
    width = (bits + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def pack_slots(values: Sequence[int], width: int) -> int:
    """The int with ``values[i]``, each in [0, 256^width), in byte slot i."""
    if width <= 8:
        return int.from_bytes(struct.pack(f"{len(values)}{_SLOT_FORMATS[width]}", *values),
                              _BYTEORDER)
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in values), "little")


def unpack_slots(value: int, slots: int, width: int) -> Sequence[int]:
    """The first ``slots`` slot values of a non-negative int below 256^(slots * width)."""
    if width <= 8:
        return memoryview(value.to_bytes(slots * width, _BYTEORDER)).cast(_SLOT_FORMATS[width])
    data = value.to_bytes(slots * width, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


class SlotReducer:
    """Reduces every slot of packed ints mod m without unpacking them.

    For slot values below 2^bits, let s = bits + bits(m) and M = ceil(2^s / m).
    Then floor(v M / 2^s) = floor(v / m) for every such v, because
    2^s > m 2^bits (division by an invariant integer, Granlund and
    Montgomery, PLDI 1994).  The slots are ``width`` bytes, at least
    bits + bits(M) and s bits, so each v M stays inside its own slot and
    v - m ((v M >> s) & mask), with 2^(8 width - s) - 1 in every slot of
    mask, is v with each slot reduced mod m.  The values are non-negative, so
    the bit length of their OR is the longest of them, which sizes the mask.
    """

    __slots__ = ("m", "width", "_shift", "_magic", "_digit", "_mask", "_mask_bits")

    def __init__(self, m: int, bits: int):
        shift = bits + m.bit_length()
        magic = -(-(1 << shift) // m)
        self.m = m
        self.width = slot_width(max(bits + magic.bit_length(), shift))
        self._shift = shift
        self._magic = magic
        self._digit = (1 << 8 * self.width - shift) - 1
        self._mask = self._mask_bits = 0

    def __call__(self, values: Sequence[int]) -> list[int]:
        """``values`` with every slot, each below 2^bits, reduced mod m."""
        need = reduce(or_, values, 0).bit_length()
        if need > self._mask_bits:
            # Grow the mask to twice the slots needed, so that a walk whose
            # values lengthen step by step rebuilds it only O(log) times.
            bits = 8 * self.width
            slots = 2 * (need // bits + 1)
            self._mask = self._digit * (((1 << bits * slots) - 1) // ((1 << bits) - 1))
            self._mask_bits = bits * slots
        m, shift, magic, mask = self.m, self._shift, self._magic, self._mask
        return [v - m * ((v * magic >> shift) & mask) for v in values]


class LaurentRing(NamedTuple):
    """Handle for (Z/mZ)[x, x^-1] used by generic matrix/polynomial code."""

    modulus: Modulus

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.modulus)

    def one(self) -> LaurentPoly:
        return LaurentPoly._make(self.modulus, 0, None, (1,))

    def from_int(self, value: int) -> LaurentPoly:
        return LaurentPoly.constant(self.modulus, value)

    def monomial(self, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return LaurentPoly.monomial(self.modulus, exponent, coefficient)


def laurent_ring(m: int) -> LaurentRing:
    """Shorthand: the ring handle for (Z/mZ)[x, x^-1]."""
    return LaurentRing(factorize(m))

