"""Dense univariate polynomials in t with Laurent-polynomial coefficients.

Coefficient lists are ascending (index k holds the coefficient of t^k) and
kept free of trailing zeros.  Only the operations needed by the quotient-ring
computations elsewhere live here; in particular division is available only by
monic divisors, which never requires inverting a coefficient.  No ring handle
is passed around: a zero coefficient is one without terms, and the one of the
ring is the leading coefficient of the monic divisor.

`power_semigroup.divisibility_witness` computes t^k mod chi on packed
integers when the companion matrix of chi is dense; these lists serve the
sparse fallback and the tests, which check the packed residues against
`pow_t_mod`.
"""

from __future__ import annotations

from typing import Sequence

from .laurent import LaurentPoly
from .modring import power

Coeffs = list  # list of LaurentPoly, ascending powers of t


def normalize(coeffs: Sequence[LaurentPoly]) -> Coeffs:
    out = list(coeffs)
    while out and not out[-1].coeffs:
        out.pop()
    return out


def mul(a: Sequence[LaurentPoly], b: Sequence[LaurentPoly]) -> Coeffs:
    if not a or not b:
        return []
    out = [LaurentPoly.zero(a[0].modulus)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca.coeffs:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return normalize(out)


def mod_monic(a: Sequence[LaurentPoly], divisor: Sequence[LaurentPoly]) -> Coeffs:
    """Remainder of a modulo a monic divisor (leading coefficient must be one)."""
    if not divisor or divisor[-1] != LaurentPoly.constant(divisor[-1].modulus, 1):
        raise ValueError("divisor must be monic")
    out = list(a)
    d = len(divisor) - 1
    if d == 0:
        return []
    while len(out) - 1 >= d:
        top = out.pop()
        if not top.coeffs:
            continue
        shift = len(out) - d
        for i in range(d):
            out[shift + i] = out[shift + i] - top * divisor[i]
    return normalize(out)


def pow_t_mod(divisor: Sequence[LaurentPoly], exponent: int) -> Coeffs:
    """Residue of t^exponent modulo a monic divisor, by square and multiply."""
    one = divisor[-1]
    return power(mod_monic([one], divisor),
                 mod_monic([LaurentPoly.zero(one.modulus), one], divisor), exponent,
                 lambda a, b: mod_monic(mul(a, b), divisor))
