"""Dense univariate polynomials over an arbitrary commutative coefficient ring.

Coefficient lists are ascending (index k holds the coefficient of t^k) and
kept free of trailing zeros.  Only the operations needed by the quotient-ring
computations elsewhere live here; in particular division is available only by
monic divisors, which never requires inverting a coefficient.
"""

from __future__ import annotations

from typing import Any, Sequence

from .modring import power

Coeffs = list  # list of ring elements, ascending powers of t


def normalize(coeffs: Sequence[Any], ring) -> Coeffs:
    out = list(coeffs)
    zero = ring.zero()
    while out and out[-1] == zero:
        out.pop()
    return out


def mul(a: Sequence[Any], b: Sequence[Any], ring) -> Coeffs:
    if not a or not b:
        return []
    zero = ring.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return normalize(out, ring)


def mod_monic(a: Sequence[Any], divisor: Sequence[Any], ring) -> Coeffs:
    """Remainder of a modulo a monic divisor (leading coefficient must be one)."""
    if not divisor or divisor[-1] != ring.one():
        raise ValueError("divisor must be monic")
    out = list(a)
    d = len(divisor) - 1
    if d == 0:
        return []
    zero = ring.zero()
    while len(out) - 1 >= d:
        top = out.pop()
        if top == zero:
            continue
        shift = len(out) - d
        for i in range(d):
            out[shift + i] = out[shift + i] - top * divisor[i]
    return normalize(out, ring)


def mul_mod_monic(a: Sequence[Any], b: Sequence[Any], divisor: Sequence[Any], ring) -> Coeffs:
    return mod_monic(mul(a, b, ring), divisor, ring)


def pow_t_mod(divisor: Sequence[Any], exponent: int, ring) -> Coeffs:
    """Residue of t^exponent modulo a monic divisor, by square and multiply."""
    return power(mod_monic([ring.one()], divisor, ring),
                 mod_monic([ring.zero(), ring.one()], divisor, ring), exponent,
                 lambda a, b: mul_mod_monic(a, b, divisor, ring))
