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
verifies the exponent k of the last bullet by squaring t^k mod det(tI - A).

Both walks run on packed integers when the Laurent entries are dense (the
rule of `polymat._dense_span`).  A = x^lo A' is evaluated once at
x = 2^W, as in `polymat`, and a walk state is (low, the n^2 entries of
x^-low A^j at x = 2^W), with low the lowest exponent of A^j, so equal
matrices have equal states.  One advance is n^2 integer dot products
against the cached packed columns of A', then a slot-wise reduction mod m
on the packed integers themselves (`laurent.SlotReducer`: v - m ((v M >> s)
& mask) with M = ceil(2^s / m), exact for slots below 2^b when 2^s > m 2^b),
then a shift that drops the zero slots below every entry.  The residues
t^j mod chi walk the same way: -a_0 ... -a_(n-1) are packed once, and one
advance is r_(i-1) + top * (-a_i), reduced.  Every hash hit is confirmed
against A^j or ``pow_t_mod(chi, j)`` computed independently and packed the
same way.  A matrix or chi that is not dense, or a state that turns sparse
(x^k and x^-k in one state would be a 2k-slot integer), walks Laurent
objects from the start instead, so the shape is the one that walk finds
with the same budget.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import tpoly
from .laurent import _DENSE_SPAN_PER_TERM, LaurentPoly, LaurentRing, SlotReducer
from .modring import power_cost
from .polymat import CharPoly, RingMatrix, _at_power_of_two, _dense_span, char_poly, identity

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
    the power set is infinite.  A dense Laurent matrix walks packed states
    (see the module docstring); any other matrix, or one whose powers turn
    sparse, walks `RingMatrix` products.
    """
    shape = _dense_span(matrix.rows) if isinstance(matrix.ring, LaurentRing) else None
    if shape:
        try:
            return _first_repeat(*_packed_power_walk(matrix, *shape), budget)
        except _SparseWalk:
            pass
    return _first_repeat(identity(matrix.ring, matrix.n), lambda value: value * matrix,
                         lambda j: matrix ** j, budget)


class _SparseWalk(Exception):
    """A packed walk reached a state that Laurent storage would keep sparse."""


def _packed_power_walk(matrix: RingMatrix, lo: int, span: int) -> tuple:
    """(start, advance, power) of the packed walk on A^0, A^1, ..., for a
    matrix with exponents in [lo, lo + span)."""
    n = matrix.n
    m = matrix.ring.modulus.m
    # An entry of S A sums n convolutions of at most span products below m^2.
    reduce = SlotReducer(m, (n * span * (m - 1) ** 2).bit_length())
    width = reduce.width
    cols = tuple(zip(*_at_power_of_two(matrix.rows, lo, width)))

    def advance(state: tuple) -> tuple:
        low, entries = state
        return _normalized(low + lo, reduce([sum(map(mul, entries[i:i + n], col))
                                             for i in range(0, n * n, n) for col in cols]),
                           width)

    def power(j: int) -> tuple:
        return _packed([a for row in (matrix ** j).rows for a in row], width)

    return (0, tuple([int(i == j) for i in range(n) for j in range(n)])), advance, power


def _packed_residue_walk(chi: list[LaurentPoly], lo: int) -> tuple:
    """(start, advance, power) of the packed walk on t^0, t^1, ... mod chi,
    for a chi whose lower coefficients have exponents from lo up."""
    n = len(chi) - 1
    m = chi[-1].modulus.m
    zero = LaurentPoly.zero(chi[-1].modulus)
    negchi = [-c for c in chi[:-1]]
    # A slot of r_(i-1) + top (-a_i) is below m + span(a_i) m^2.
    reduce = SlotReducer(m, (m - 1 + max([c._span() for c in negchi]) * (m - 1) ** 2)
                         .bit_length())
    width = reduce.width
    bits = 8 * width
    # t r = r_(n-1) t^n + ..., and t^n = -a_(n-1) t^(n-1) - ... - a_0 mod chi;
    # the packed -a_i sit at x^lo, so the sum is aligned at x^min(lo, 0).
    negchi = [c << bits * max(lo, 0) for c in _at_power_of_two([negchi], lo, width)[0]]
    shift = bits * max(-lo, 0)

    def advance(state: tuple) -> tuple:
        low, residue = state
        top = residue[-1]
        return _normalized(low + min(lo, 0),
                           reduce([(r << shift) + top * c for r, c in zip((0, *residue), negchi)]),
                           width)

    def power(j: int) -> tuple:
        residue = tpoly.pow_t_mod(chi, j)
        return _packed(residue + [zero] * (n - len(residue)), width)

    return (0, (1,) + (0,) * (n - 1)), advance, power


def _packed(entries: list[LaurentPoly], width: int) -> tuple[int, tuple[int, ...]]:
    """Walk state of Laurent polynomials: their lowest exponent (0 if all are
    zero) and each one times x^-low at x = 2^(8 width)."""
    low = min([a.low for a in entries if a.coeffs], default=0)
    return low, tuple(_at_power_of_two([entries], low, width)[0])


def _normalized(low: int, values: list[int], width: int) -> tuple[int, tuple[int, ...]]:
    """The walk state x^low (values at x = 2^(8 width)) with the zero slots
    shared by the bottom of every value shifted out.

    Raises _SparseWalk when the slots outnumber _DENSE_SPAN_PER_TERM times the
    set bits (at least the nonzero slots), the storage rule of `LaurentPoly`,
    so that x^k and x^-k in one state never become a 2k-slot integer.
    """
    bits = 8 * width
    lowest = min([(v & -v).bit_length() for v in values if v], default=0)
    if not lowest:
        return 0, tuple(values)
    slots = (lowest - 1) // bits
    if slots:
        low += slots
        values = [v >> bits * slots for v in values]
    if max(map(int.bit_length, values)) > bits * _DENSE_SPAN_PER_TERM * sum(
            map(int.bit_count, values)):
        raise _SparseWalk
    return low, tuple(values)


def _idempotent_exponent(orbit: OrbitShape) -> int:
    c = orbit.period
    lo = max(orbit.preperiod, 1)
    return c * ((lo + c - 1) // c)


def divisibility_witness(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> int | None:
    """An exponent k >= 1 such that det(tI - A) divides t^(2k) - t^k.

    Runs the first-repeat search on the residues t^j mod chi = det(tI - A) in
    the quotient ring L[t]/(chi); since chi is monic the reduction needs no
    division.  When the coefficients a_0 ... a_(n-1) of chi are dense (the
    rule of `_dense_span`) the residues walk packed (see the module
    docstring), otherwise, or once they turn sparse, as lists of Laurent
    polynomials.  A hash hit at j is confirmed against ``pow_t_mod(chi, j)``.
    The returned exponent is double-checked: squaring t^k mod chi must give
    t^k back.  None means the budget ran out (residues of a non-integral
    matrix never cycle).
    """
    chi = list(char_poly(matrix).coeffs)
    orbit = _residue_orbit(chi, budget)
    if orbit is None:
        return None
    k = _idempotent_exponent(orbit)
    low = tpoly.pow_t_mod(chi, k)
    if tpoly.mod_monic(tpoly.mul(low, low), chi) != low:
        raise AssertionError("cycle detection produced a non-witness exponent")
    return k


def _residue_orbit(chi: list[LaurentPoly], budget: int) -> OrbitShape | None:
    """Shape of t^0, t^1, ... mod the monic chi, by `_first_repeat`."""
    shape = _dense_span([chi[:-1]])
    if shape:
        try:
            return _first_repeat(*_packed_residue_walk(chi, shape[0]), budget)
        except _SparseWalk:
            pass
    zero = LaurentPoly.zero(chi[-1].modulus)
    return _first_repeat(tuple(tpoly.mod_monic([chi[-1]], chi)),
                         lambda residue: tuple(tpoly.mod_monic([zero, *residue], chi)),
                         lambda j: tuple(tpoly.pow_t_mod(chi, j)), budget)


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
                    reduced = entry.reduce_mod_prime(p)
                    best = max(best, reduced.low + reduced._span() - 1, -reduced.low)
        profile.append(best)
        if len(profile) > doublings:
            return profile
        power = power * power
