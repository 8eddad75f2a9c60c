"""Finiteness of the power set {A^0, A^1, A^2, ...} of a square matrix.

Over the Laurent ring (Z/mZ)[x, x^-1] the following are equivalent for a
square matrix A:

* the set of powers of A is finite;
* A is integral over the constants Z/mZ;
* every coefficient of det(tI - A) is integral over Z/mZ;
* t^(2k) - t^k is a multiple of det(tI - A) for some k >= 1.

The decision procedure used here is the third bullet: compute the
characteristic polynomial once and test each coefficient with the per-prime
constancy criterion.  The other two characterizations are kept around as
executable cross-checks.  `detect_orbit` enumerates A^0, A^1, ... and
`divisibility_witness` the residues t^j mod det(tI - A), each with a
first-repeat search: one product per distinct element, a map from hashes to
indices instead of the elements themselves, and a recomputed x_j to confirm
every hash hit, so the shape found is exact.  `divisibility_witness` then
verifies the exponent k of the last bullet by polynomial division.
"""

from __future__ import annotations

from typing import NamedTuple

from . import tpoly
from .laurent import LaurentPoly
from .modring import power_cost
from .polymat import CharPoly, RingMatrix, char_poly, identity

DEFAULT_BUDGET = 100_000


class OrbitShape(NamedTuple):
    """Eventual-cycle shape of the power sequence A^0, A^1, ...

    ``preperiod`` is the least q with A^(q+c) = A^q and ``period`` the least
    such c; the power set then has exactly q + c distinct elements.
    """

    preperiod: int
    period: int

    @property
    def size(self) -> int:
        return self.preperiod + self.period


class FinitenessVerdict(NamedTuple):
    """Outcome of the finiteness decision for a matrix power set.

    When infinite, ``failing_index``/``failing_prime`` name the first
    characteristic-polynomial coefficient (lowest index) and smallest prime
    whose reduction is non-constant.
    """

    finite: bool
    failing_index: int | None = None
    failing_prime: int | None = None

    @property
    def reason(self) -> str:
        if self.finite:
            return "all characteristic-polynomial coefficients are integral over the constants"
        return (f"coefficient a_{self.failing_index} of the characteristic polynomial "
                f"is non-constant mod {self.failing_prime}")


def decide_finite_powers(matrix: RingMatrix) -> FinitenessVerdict:
    """Decide whether {A^0, A^1, ...} is finite, via coefficient integrality.

    Exact and budget-free: `char_poly_finiteness` of the division-free
    characteristic polynomial.  The orbit itself comes from `detect_orbit`.
    """
    return char_poly_finiteness(char_poly(matrix))


def char_poly_finiteness(poly: CharPoly) -> FinitenessVerdict:
    """Finiteness verdict for every matrix whose characteristic polynomial is ``poly``.

    Tests a_0 ... a_{n-1} for integrality over Z/mZ (a_n = 1 needs no test)
    with `LaurentPoly.integrality_obstruction`; a constant always passes.
    """
    for index in range(poly.degree):
        prime = poly.coeffs[index].integrality_obstruction()
        if prime is not None:
            return FinitenessVerdict(False, failing_index=index, failing_prime=prime)
    return FinitenessVerdict(True)


def _first_repeat(start, advance, power, budget: int) -> OrbitShape | None:
    """Minimal (preperiod, period) of an eventually periodic sequence.

    Walks x_0 = start, x_(k+1) = advance(x_k) once, keeping only the map
    hash(x_j) -> [j].  On a hash hit at step k each earlier j with that hash
    is recomputed as ``power(j)`` and compared with x_k; the first equal one
    is the first repeat, so (j, k - j) is the minimal shape.  A hash
    collision only costs a recomputation, never a wrong shape.  Each advance
    is charged one unit of ``budget`` and each power(j) `power_cost(j)`;
    once the budget is spent the result is None (indeterminate, never
    "infinite").
    """
    seen: dict[int, list[int]] = {}
    value, k, spent = start, 0, 0
    while True:
        earlier = seen.setdefault(hash(value), [])
        for j in earlier:
            spent += power_cost(j)
            if spent > budget:
                return None
            if power(j) == value:
                return OrbitShape(j, k - j)
        earlier.append(k)
        if spent >= budget:
            return None
        spent += 1
        value = advance(value)
        k += 1


def detect_orbit(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> OrbitShape | None:
    """First-repeat search on A^0, A^1, A^2, ...: one product per distinct power.

    Returns the minimal (preperiod, period), or None when the budget (counted
    in matrix multiplications, including the A^j recomputed to confirm a
    hash hit) runs out.  A None is always "indeterminate": it never claims
    the power set is infinite.
    """
    return _first_repeat(identity(matrix.ring, matrix.n), lambda value: value * matrix,
                         lambda j: matrix ** j, budget)


def _idempotent_exponent(orbit: OrbitShape) -> int:
    c = orbit.period
    lo = max(orbit.preperiod, 1)
    return c * ((lo + c - 1) // c)


def divisibility_witness(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> int | None:
    """An exponent k >= 1 such that det(tI - A) divides t^(2k) - t^k.

    Runs the first-repeat search on the residues t^j mod det(tI - A) in the
    quotient ring L[t]/(chi); since chi is monic the reduction needs no
    division.  A hash hit at j is confirmed against ``pow_t_mod(chi, j)``.
    The returned exponent is double-checked by explicitly reducing
    t^(2k) - t^k.  None means the budget ran out (residues of a non-integral
    matrix never cycle).
    """
    chi = list(char_poly(matrix).coeffs)
    zero = LaurentPoly.zero(chi[-1].modulus)
    orbit = _first_repeat(tuple(tpoly.mod_monic([chi[-1]], chi)),
                          lambda residue: tuple(tpoly.mod_monic([zero, *residue], chi)),
                          lambda j: tuple(tpoly.pow_t_mod(chi, j)), budget)
    if orbit is None:
        return None
    k = _idempotent_exponent(orbit)
    low = tpoly.pow_t_mod(chi, k)
    high = tpoly.pow_t_mod(chi, 2 * k)
    if high != low:
        raise AssertionError("cycle detection produced a non-witness exponent")
    return k


def sampled_degree_growth(matrix: RingMatrix, doublings: int = 5) -> list[int]:
    """Max prime-aware degree of the entries of A, A^2, A^4, ..., A^(2^doublings).

    For matrices with infinite power set the mod-p degrees of the entries are
    unbounded, which shows up as growth along this doubling ladder; for finite
    power sets the profile stays flat.  Entries must be Laurent polynomials.
    """
    profile = []
    power = matrix
    while True:
        best = 0
        for row in power.rows:
            for entry in row:
                for p in entry.modulus.primes:
                    best = max(best, entry.pos_degree(p), -entry.neg_degree(p))
        profile.append(best)
        if len(profile) > doublings:
            return profile
        power = power * power
