"""Square matrices over a commutative ring, with division-free invariants.

The coefficient ring (Z/mZ)[x, x^-1], whose constants are Z/mZ, has zero
divisors, so none of the classical elimination schemes apply: there is no
echelon form and fraction-free tricks such as Bareiss still divide.  The
characteristic polynomial is therefore computed with the Berkowitz vector
recurrence, which uses ring operations only, and the determinant is read off
its constant term.  The Frobenius companion matrix goes the other way, from a
monic polynomial to a matrix.  The independent cross-checks of Berkowitz
(minor sums by a Laplace DP, Cayley-Hamilton) live in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Any, Sequence

from .modring import power


class RingMatrix:
    """Immutable dense square matrix over a ring handle.

    The ring handle only needs ``zero()`` and ``one()``; entries are expected
    to implement +, -, unary -, * and ==.  Dimension 0 is allowed so that
    empty principal submatrices make sense (their determinant is one).
    """

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows: Sequence[Sequence[Any]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.ring = ring
        self.n = n
        self.rows = rows

    def _check(self, other: "RingMatrix") -> None:
        if self.n != other.n or self.ring != other.ring:
            raise ValueError("matrix dimensions or base rings do not match")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check(other)
        return RingMatrix(self.ring, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._check(other)
        return RingMatrix(self.ring, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __neg__(self) -> "RingMatrix":
        return RingMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        self._check(other)
        cols = tuple(zip(*other.rows))
        return RingMatrix(self.ring, [[_dot(row, col) for col in cols] for row in self.rows])

    def scale(self, c: Any) -> "RingMatrix":
        return RingMatrix(self.ring, [[c * a for a in row] for row in self.rows])

    def __pow__(self, exponent: int) -> "RingMatrix":
        return power(identity(self.ring, self.n), self, exponent, mul)

    def trace(self) -> Any:
        acc = self.ring.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

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


def zeros(ring, n: int) -> RingMatrix:
    zero = ring.zero()
    return RingMatrix(ring, [[zero] * n for _ in range(n)])


def matrix_from_ints(ring, rows: Sequence[Sequence[int]]) -> RingMatrix:
    return RingMatrix(ring, [[ring.from_int(v) for v in row] for row in rows])


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coeffs[k] is the coefficient of t^k."""

    coeffs: tuple
    ring: Any

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != self.ring.one():
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == self.ring.zero():
                continue
            text = str(c)
            if k == 0:
                parts.append(f"({text})" if ("+" in text or " " in text) else text)
                continue
            t_part = "t" if k == 1 else f"t^{k}"
            if c == self.ring.one():
                parts.append(t_part)
            elif "+" in text or " " in text:
                parts.append(f"({text})*{t_part}")
            else:
                parts.append(f"{text}*{t_part}")
        return " + ".join(parts) if parts else "0"


def char_poly(matrix: RingMatrix) -> CharPoly:
    """Characteristic polynomial det(t*I - A) via the Berkowitz recurrence.

    Grows the leading principal submatrix one row at a time; at each stage the
    coefficient vector is multiplied by a Toeplitz matrix whose column is
    built from the new diagonal entry d, the border row R / column S and the
    Krylov products R M^k S.  Complexity O(n^4) ring operations, no division.
    """
    ring = matrix.ring
    one = ring.one()
    coeffs_desc = [one]  # char poly of the empty matrix
    for r in range(matrix.n):
        d = matrix.rows[r][r]
        row = matrix.rows[r][:r]
        col = [matrix.rows[i][r] for i in range(r)]
        toeplitz = [one, -d]
        vec = col
        for _ in range(r):
            toeplitz.append(-_dot(row, vec))
            vec = [_dot(matrix.rows[i][:r], vec) for i in range(r)]
        coeffs_desc = [_dot(toeplitz[i::-1], coeffs_desc) for i in range(r + 2)]
    return CharPoly(tuple(reversed(coeffs_desc)), ring)


def _dot(a: Sequence[Any], b: Sequence[Any]) -> Any:
    """a[0] * b[0] + a[1] * b[1] + ... over the shorter of a and b (never empty)."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def determinant(matrix: RingMatrix) -> Any:
    """det A = (-1)^n * a_0 where a_0 is the constant term of det(tI - A)."""
    a0 = char_poly(matrix).coeffs[0]
    return a0 if matrix.n % 2 == 0 else -a0


def frobenius_companion(poly: CharPoly) -> RingMatrix:
    """Companion matrix: ones on the superdiagonal, last row -a_0 ... -a_{n-1}.

    Its characteristic polynomial is the given monic polynomial, which makes
    it the canonical witness that every monic polynomial is a characteristic
    polynomial.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    ring = poly.ring
    one, zero = ring.one(), ring.zero()
    rows = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    rows.append([-poly.coeffs[j] for j in range(n)])
    return RingMatrix(ring, rows)
