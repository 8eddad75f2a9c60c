"""Square matrices over a commutative ring, with division-free invariants.

The coefficient ring (Z/mZ)[x, x^-1], whose constants are Z/mZ, has zero
divisors, so none of the classical elimination schemes apply: there is no
echelon form and fraction-free tricks such as Bareiss still divide.  The
characteristic polynomial is therefore computed with the Berkowitz vector
recurrence (Berkowitz, IPL 18, 1984), which uses ring operations only, and
the determinant is read off its constant term.

Because the recurrence uses only +, - and *, it commutes with any ring map,
so a Laurent matrix runs it on integers.  Write A = x^lo A' with A'
polynomial of degree < span.  Evaluating A' at x = 2^s is Kronecker
substitution (Harvey 2009): each entry packs its coefficients into s-bit
slots.  Over Z the coefficient of t^(n-j) in det(tI - A') is a sum of
C(n, j) j! products of j entries of l1 norm at most (m-1) span, so every
x-coefficient of every t-coefficient is below n! ((m-1) span)^n in absolute
value.  With 2^(s-1) above that bound the balanced s-bit digits of the
Berkowitz result are exactly those coefficients; reduced mod m and shifted
by x^(lo (n-j)) they give the characteristic polynomial of A.  A matrix whose
span exceeds _DENSE_SPAN_PER_TERM slots per nonzero term (the rule
LaurentPoly uses for its own storage) runs the same recurrence on its
Laurent entries instead, so x^(10^9) never becomes a 10^9-slot integer.

A product of two matrices is one ring dot product per entry.  The packed
product is `power_semigroup`'s one step, which walks the powers of one dense
matrix without unpacking between steps: its slots are wide enough for the
reduction mod m to run on the packed integers too, with a mask built once
per walk (`power_semigroup.SlotReducer`).

The independent cross-checks of Berkowitz (minor sums by a Laplace DP,
Cayley-Hamilton, the Frobenius companion matrix of a monic polynomial) live
in the test oracles.
"""

from __future__ import annotations

from functools import reduce
from math import factorial
from operator import add, mul
from typing import Any, NamedTuple, Sequence

from .laurent import (_DENSE_SPAN_PER_TERM, LaurentPoly, LaurentRing, pack_slots,
                      slot_width, unpack_slots)
from .modring import power


class RingMatrix:
    """Immutable dense square matrix over a ring handle, with products,
    powers, == and a hash: the only matrix operations the power-set and
    property criteria need.

    The ring handle only needs ``zero()`` and ``one()``; entries need +,
    unary - and *, which `_dot` and `_berkowitz` use, and ==.  Dimension 0
    is allowed so that empty principal submatrices make sense (their
    determinant is one).
    ``_chi`` holds the characteristic polynomial once `char_poly` has
    computed it, so each matrix runs Berkowitz at most once.
    """

    __slots__ = ("ring", "n", "rows", "_chi")

    def __init__(self, ring, rows: Sequence[Sequence[Any]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.ring = ring
        self.n = n
        self.rows = rows
        self._chi = None

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        """Matrix product, one ring dot product per entry."""
        if self.n != other.n or self.ring != other.ring:
            raise ValueError("matrix dimensions or base rings do not match")
        cols = tuple(zip(*other.rows))
        return RingMatrix(self.ring, [[_dot(row, col) for col in cols] for row in self.rows])

    def __pow__(self, exponent: int) -> "RingMatrix":
        return power(identity(self.ring, self.n), self, exponent, mul)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.n == other.n and self.ring == other.ring and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ring, self.rows))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return f"RingMatrix({self.n}x{self.n} over {self.ring})"


def identity(ring, n: int) -> RingMatrix:
    one, zero = ring.one(), ring.zero()
    return RingMatrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])


class CharPoly(NamedTuple("CharPoly", [("coeffs", tuple)])):
    """Monic characteristic polynomial; coeffs[k] is the coefficient of t^k.

    The coefficients are Laurent polynomials over the modulus of the leading
    one.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple) -> "CharPoly":
        if coeffs and not isinstance(coeffs[-1], LaurentPoly):
            raise TypeError(f"unsupported coefficient type {type(coeffs[-1]).__name__}")
        if not coeffs or coeffs[-1] != LaurentPoly.constant(coeffs[-1].modulus, 1):
            raise ValueError("characteristic polynomial must be monic")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        parts = []
        one = self.coeffs[-1]
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c.coeffs:
                continue
            text = str(c)
            if k == 0:
                parts.append(f"({text})" if ("+" in text or " " in text) else text)
                continue
            t_part = "t" if k == 1 else f"t^{k}"
            if c == one:
                parts.append(t_part)
            elif "+" in text or " " in text:
                parts.append(f"({text})*{t_part}")
            else:
                parts.append(f"{text}*{t_part}")
        return " + ".join(parts) if parts else "0"


def char_poly(matrix: RingMatrix) -> CharPoly:
    """Characteristic polynomial det(t*I - A).

    A Laurent matrix whose exponents are dense enough is evaluated at
    x = 2^s and runs Berkowitz over Z (see the module docstring); any other
    matrix runs Berkowitz on its entries.  The result is kept on the matrix,
    so a second call returns it without running Berkowitz again.
    """
    if matrix._chi is None:
        ring = matrix.ring
        shape = isinstance(ring, LaurentRing) and _dense_span(matrix.rows)
        matrix._chi = (_char_poly_at_power_of_two(matrix, *shape) if shape
                       else CharPoly(tuple(reversed(_berkowitz(matrix.rows, ring.one())))))
    return matrix._chi


def _dense_span(rows: Sequence[Sequence[LaurentPoly]]) -> tuple[int, int] | None:
    """(lo, span) with every exponent of the entries in [lo, lo + span), when
    the span is at most _DENSE_SPAN_PER_TERM slots per nonzero term of all
    the entries; None for a wider or an all-zero matrix."""
    entries = [a for row in rows for a in row if a.coeffs]
    if not entries:
        return None
    lo = min([a.low for a in entries])
    span = max([a.low + a._span() for a in entries]) - lo
    # Every entry has a nonzero term, so the terms are counted only when the
    # span is wide for the number of entries.
    if span > _DENSE_SPAN_PER_TERM * len(entries) and span > _DENSE_SPAN_PER_TERM * sum(
            [len(a.coeffs) - a.coeffs.count(0) for a in entries]):
        return None
    return lo, span


def _at_power_of_two(rows: Sequence[Sequence[LaurentPoly]], lo: int, width: int) -> list:
    """Every entry times x^-lo, evaluated at x = 2^(8 width)."""
    bits = 8 * width
    return [[pack_slots(a._slots(), width) << bits * (a.low - lo) if a.coeffs else 0
             for a in row] for row in rows]


def _char_poly_at_power_of_two(matrix: RingMatrix, lo: int, span: int) -> CharPoly:
    """char_poly of a Laurent matrix with exponents in [lo, lo + span), by
    Berkowitz over Z at x = 2^s."""
    n = matrix.n
    modulus = matrix.ring.modulus
    m = modulus.m
    width = slot_width((factorial(n) * ((m - 1) * span) ** n).bit_length() + 1)
    bits = 8 * width
    coeffs_desc = _berkowitz(_at_power_of_two(matrix.rows, lo, width), 1)
    # Adding half to every slot makes the balanced digits non-negative.
    half = 1 << bits - 1
    top = n * (span - 1) + 1  # slots of the constant coefficient
    halves = pack_slots([half] * top, width)
    coeffs = [LaurentPoly.constant(modulus, 1)]
    for j in range(1, n + 1):  # coeffs_desc[j] is the coefficient of t^(n-j)
        slots = j * (span - 1) + 1
        digits = unpack_slots(coeffs_desc[j] + (halves >> bits * (top - slots)), slots, width)
        coeffs.append(LaurentPoly._from_slots(modulus, lo * j, [(u - half) % m for u in digits]))
    return CharPoly(tuple(reversed(coeffs)))


def _berkowitz(rows: Sequence[Sequence[Any]], one: Any) -> list:
    """Coefficients of det(t*I - A), highest power of t first.

    Grows the leading principal submatrix one row at a time; at each stage the
    coefficient vector is multiplied by a Toeplitz matrix whose column is
    built from the new diagonal entry d, the border row R / column S and the
    Krylov products R M^k S.  O(n^4) ring operations, no division.
    """
    if not rows:
        return [one]
    coeffs_desc = [one, -rows[0][0]]  # t - a_00
    for r in range(1, len(rows)):
        block = [rows[i][:r] for i in range(r)]
        row = rows[r][:r]
        vec = [rows[i][r] for i in range(r)]
        toeplitz = [one, -rows[r][r], -_dot(row, vec)]
        for _ in range(r - 1):
            vec = [_dot(block_row, vec) for block_row in block]
            toeplitz.append(-_dot(row, vec))
        coeffs_desc = [_dot(toeplitz[i::-1], coeffs_desc) for i in range(r + 2)]
    return coeffs_desc


def _dot(a: Sequence[Any], b: Sequence[Any]) -> Any:
    """a[0] * b[0] + a[1] * b[1] + ... over the shorter of a and b (never empty)."""
    return reduce(add, map(mul, a, b))


def determinant(matrix: RingMatrix) -> Any:
    """det A = (-1)^n * a_0 where a_0 is the constant term of det(tI - A)."""
    a0 = char_poly(matrix).coeffs[0]
    return a0 if matrix.n % 2 == 0 else -a0
