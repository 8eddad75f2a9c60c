"""Finiteness of the power set {A^0, A^1, A^2, ...} of a square matrix.

Over the Laurent ring (Z/mZ)[x, x^-1] the following are equivalent for a
square matrix A:

* the set of powers of A is finite;
* A is integral over the constants Z/mZ;
* every coefficient of det(tI - A) is integral over Z/mZ;
* t^(2k) - t^k is a multiple of det(tI - A) for some k >= 1.

The decision procedure used here is the third bullet: compute the
characteristic polynomial once and test each coefficient with the per-prime
constancy criterion.  The other two characterizations are executable
cross-checks, both by one walk over the first rows of matrix powers:
`detect_orbit` walks A^0, A^1, ..., and `divisibility_witness` walks row 0
of the powers of the companion matrix C of chi = det(tI - A), since row 0 of
C^j is t^j mod chi.  The witness is then checked by computing t^k mod chi
by square and multiply and squaring it once, arithmetic the walk does not
use.  The walk is a first-repeat search: one product per distinct element,
a map from hashes to indices instead of the elements themselves, and a
recomputed x_j to confirm every hash hit, so the shape found is exact.

The walk stays inside a window of exponents fixed before it starts.  Let p^k
exactly divide m.  When A is integral each a_i is c_i + p g_i with c_i
constant, so chi0 = sum c_i t^i has chi0(A) = -p g(A) by Cayley-Hamilton,
and chi0^k annihilates A over Z/p^k.  Padded by powers of t to degree n k,
k now the largest prime exponent of m, and combined by CRT, these give a
monic f of degree n k with constant coefficients and f(A) = 0.  So every A^j
is a constant combination of A^0 ... A^(nk-1), and if the exponents of A
lie in [lo, hi] those of every power lie in
[min(0, (nk-1) lo), max(0, (nk-1) hi)].  A state outside this window proves
that A is not integral, and the walk returns None at once.  A window too
narrow could only turn an answer into None, never into a wrong shape.

The walk runs on packed integers when the Laurent entries are dense (the
rule of `polymat._dense_span`).  A = x^lo A' is evaluated once at x = 2^W,
as in `polymat`, and a state is (low, the walked rows of x^-low A^j at
x = 2^W), with low their lowest exponent, so equal rows have equal states.
One advance is one integer dot product per entry against the cached packed
columns of A', then a slot-wise reduction mod m on the packed integers
(`laurent.SlotReducer`: v - m ((v M >> s) & mask) with M = ceil(2^s / m),
exact for slots below 2^b when 2^s > m 2^b), then a shift that drops the
zero slots below every entry.  A hash hit is confirmed against the rows of
A^j computed by `RingMatrix` products and packed the same way.  A matrix
that is not dense walks tuples of Laurent rows, one ring dot product per
entry, in the same window.

The witness check and the degree ladder stay on packed integers too.  A
residue sum r_i t^i mod chi, d = deg chi, is a walk state of its d
coefficients.  A product of two residues makes the d^2 integer products of
their coefficients, the coefficients of t^0 ... t^(2d-2); those of
t^d ... t^(2d-2) are reduced mod m and folded into the low d with a table
of t^d ... t^(2d-2) mod chi, built once from -chi by r -> t r mod chi and
packed at the window floor (`_packed_residues`).  The ladder of
`sampled_degree_growth` reduces A mod each prime p of m before squaring:
reduction mod p is a ring map, so the mod-p degrees of A^(2^i) are those
of (A mod p)^(2^i).  A dense A squares its packed F_p entries and reads
the lowest and highest exponent of an entry from its lowest and highest
set bit.  A companion or a matrix that is not dense falls back to `tpoly`
and to `RingMatrix` squarings of A mod p.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import tpoly
from .laurent import LaurentPoly, LaurentRing, SlotReducer
from .modring import power, power_cost
from .polymat import CharPoly, RingMatrix, _at_power_of_two, _dense_span, _dot, char_poly, identity

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
    the result is None once the budget is spent or as soon as ``advance``
    returns None, which it does for a state that proves the sequence never
    repeats.
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
        if value is None:
            return None
        k += 1


def detect_orbit(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> OrbitShape | None:
    """First-repeat search on A^0, A^1, A^2, ...: one product per distinct power.

    Returns the minimal (preperiod, period) of a Laurent matrix.  Returns
    None when the budget (counted in matrix multiplications, including the
    A^j recomputed to confirm a hash hit) runs out, which is indeterminate,
    and as soon as a power leaves the window of the module docstring, which
    proves that A is not integral.  So None never means "finite";
    `decide_finite_powers` tells the two cases apart.
    """
    return _orbit(matrix, matrix.n, budget)


def _orbit(matrix: RingMatrix, rows: int, budget: int) -> OrbitShape | None:
    """Shape of the first ``rows`` rows of A^0, A^1, ..., by `_first_repeat`
    on packed integers when A is dense, on Laurent rows otherwise; None when
    the budget runs out or a state leaves `_window`."""
    window = _window(matrix)
    shape = _dense_span(matrix.rows)
    if shape:
        return _first_repeat(*_packed_power_walk(matrix, rows, *shape, window), budget)
    floor, ceiling = window
    cols = tuple(zip(*matrix.rows))

    def advance(state: tuple) -> tuple | None:
        state = tuple([tuple([_dot(row, col) for col in cols]) for row in state])
        if all(floor <= a.low and a.low + a._span() - 1 <= ceiling
               for row in state for a in row if a.coeffs):
            return state
        return None

    return _first_repeat(identity(matrix.ring, matrix.n).rows[:rows], advance,
                         lambda j: (matrix ** j).rows[:rows], budget)


def _window(matrix: RingMatrix) -> tuple[int, int]:
    """[floor, ceiling] holding every exponent of every power of A if A is
    integral: [min(0, (nk-1) lo), max(0, (nk-1) hi)] for the exponents of A
    in [lo, hi] and k the largest prime exponent of m (see the module
    docstring)."""
    entries = [a for row in matrix.rows for a in row if a.coeffs]
    lo = min([a.low for a in entries], default=0)
    hi = max([a.low + a._span() - 1 for a in entries], default=0)
    steps = matrix.n * max([k for _, k in matrix.ring.modulus.factorization]) - 1
    return min(0, steps * lo), max(0, steps * hi)


def _packed_power_walk(matrix: RingMatrix, rows: int, lo: int, span: int,
                       window: tuple[int, int]) -> tuple:
    """(start, advance, power) of the packed walk on the first ``rows`` rows
    of A^0, A^1, ..., for a matrix with exponents in [lo, lo + span); advance
    gives None for a state outside ``window``."""
    n = matrix.n
    m = matrix.ring.modulus.m
    # An entry of S A sums n convolutions of at most span products below m^2.
    reduce = SlotReducer(m, (n * span * (m - 1) ** 2).bit_length())
    width = reduce.width
    cols = tuple(zip(*_at_power_of_two(matrix.rows, lo, width)))

    def advance(state: tuple) -> tuple | None:
        low, entries = state
        return _normalized(low + lo, reduce([sum(map(mul, entries[i:i + n], col))
                                             for i in range(0, rows * n, n) for col in cols]),
                           width, window)

    def power(j: int) -> tuple:
        return _packed([a for row in (matrix ** j).rows[:rows] for a in row], width)

    return (0, tuple([int(i == j) for i in range(rows) for j in range(n)])), advance, power


def _packed(entries: list[LaurentPoly], width: int) -> tuple[int, tuple[int, ...]]:
    """Walk state of Laurent polynomials: their lowest exponent (0 if all are
    zero) and each one times x^-low at x = 2^(8 width)."""
    low = min([a.low for a in entries if a.coeffs], default=0)
    return low, tuple(_at_power_of_two([entries], low, width)[0])


def _normalized(low: int, values: list[int], width: int,
                window: tuple[int, int]) -> tuple[int, tuple[int, ...]] | None:
    """The walk state x^low (values at x = 2^(8 width)) with the zero slots
    shared by the bottom of every value shifted out, or None when its
    exponents leave ``window``."""
    bits = 8 * width
    lowest = min([(v & -v).bit_length() for v in values if v], default=0)
    if not lowest:
        return 0, tuple(values)
    slots = (lowest - 1) // bits
    if slots:
        low += slots
        values = [v >> bits * slots for v in values]
    if low < window[0] or low + (max(map(int.bit_length, values)) - 1) // bits > window[1]:
        return None
    return low, tuple(values)


def _idempotent_exponent(orbit: OrbitShape) -> int:
    c = orbit.period
    lo = max(orbit.preperiod, 1)
    return c * ((lo + c - 1) // c)


def divisibility_witness(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> int | None:
    """An exponent k >= 1 such that det(tI - A) divides t^(2k) - t^k.

    The residues t^j mod chi = det(tI - A) are row 0 of the powers of the
    companion matrix of chi, so `detect_orbit`'s walk on that one row gives
    their shape, and k is the least multiple of the period at or above
    max(preperiod, 1).  k is double-checked by square and multiply on
    arithmetic the walk does not use: squaring t^k mod chi must give t^k
    back.  The residues are packed (`_packed_residues`) when the companion
    is dense, `tpoly` lists otherwise.  Returns None when the budget runs
    out, which is indeterminate, and as soon as a residue leaves the window
    of the module docstring, which proves that A is not integral (its
    residues never cycle).
    """
    chi = list(char_poly(matrix).coeffs)
    companion = _companion(chi)
    orbit = _orbit(companion, 1, budget)
    if orbit is None:
        return None
    k = _idempotent_exponent(orbit)
    if _dense_span(companion.rows):
        one, t, times, _ = _packed_residues(chi, _window(companion))
        low = power(one, t, k, times)
    else:
        low = tpoly.pow_t_mod(chi, k)

        def times(a: list, b: list) -> list:
            return tpoly.mod_monic(tpoly.mul(a, b), chi)
    if times(low, low) != low:
        raise AssertionError("cycle detection produced a non-witness exponent")
    return k


def _packed_residues(chi: list[LaurentPoly], window: tuple[int, int]) -> tuple:
    """(one, t, times, width): the walk states of t^0 and t^1 mod the monic
    chi of degree d >= 1 at x = 2^(8 width), and their product mod chi.

    A product makes the d^2 products of the coefficients of t^0 ... t^(2d-2),
    reduces those of t^d ... t^(2d-2) mod m and folds each into the low d
    with the table of t^d ... t^(2d-2) mod chi, packed at the window floor
    so that every fold term has the exponent offset of the product.  Each
    residue lies in ``window``, of span S, if chi is the characteristic
    polynomial of an integral matrix: then an unreduced low coefficient
    sums at most d S products below m^2 in a slot, and the fold d - 1
    more, so slots below 2^bits((2d - 1) S (m - 1)^2) take every value.  A
    product outside the window raises AssertionError; it cannot happen once
    the walk on the residues has closed.
    """
    d = len(chi) - 1
    m = chi[-1].modulus.m
    floor, ceiling = window
    reduce = SlotReducer(m, ((2 * d - 1) * (ceiling - floor + 1) * (m - 1) ** 2).bit_length())
    width = reduce.width
    bits = 8 * width
    lift = -floor * bits  # from the offset of a product to that of its fold terms
    table = _at_power_of_two([[-a for a in chi[:-1]]], floor, width)  # t^d mod chi

    def times(r: tuple, s: tuple) -> tuple:
        (low_r, r_values), (low_s, s_values) = r, s
        c = [0] * (2 * d - 1)
        for i, a in enumerate(r_values):
            if a:
                for j, b in enumerate(s_values):
                    c[i + j] += a * b
        out = [v << lift for v in c[:d]]
        if d > 1:
            for v, row in zip(reduce(c[d:]), table):
                if v:
                    out = [o + v * w for o, w in zip(out, row)]
        state = _normalized(low_r + low_s + floor, reduce(out), width, window)
        if state is None:
            raise AssertionError("a residue t^j mod chi left the exponent window")
        return state

    one = (0, tuple([int(i == 0) for i in range(d)]))
    if d == 1:
        t = _normalized(floor, table[0], width, window)
    else:
        t = (0, tuple([int(i == 1) for i in range(d)]))
        for _ in range(d - 2):  # t^(j+1) mod chi = t (t^j mod chi), from t^d alone
            low, values = times(t, (floor, table[-1]))
            table.append([v << bits * (low - floor) for v in values])
    return one, t, times, width


def _companion(chi: list[LaurentPoly]) -> RingMatrix:
    """Companion matrix of the monic chi: ones on the superdiagonal and last
    row -a_0 ... -a_(n-1), so that row 0 of its j-th power is t^j mod chi."""
    n = len(chi) - 1
    ring = LaurentRing(chi[-1].modulus)
    one, zero = ring.one(), ring.zero()
    rows = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    if n:
        rows.append([-a for a in chi[:-1]])
    return RingMatrix(ring, rows)


def sampled_degree_growth(matrix: RingMatrix, doublings: int = 5) -> list[int]:
    """Max prime-aware degree of the entries of A, A^2, A^4, ..., A^(2^doublings).

    For matrices with infinite power set the mod-p degrees of the entries are
    unbounded, which shows up as growth along this doubling ladder; for finite
    power sets the profile stays flat.  Entries must be Laurent polynomials.
    Reduction mod p is a ring map, so (A^(2^i) mod p) = (A mod p)^(2^i): each
    prime p of m squares A mod p, on packed integers when A is dense, and
    each step takes the largest degree over the primes.
    """
    shape = _dense_span(matrix.rows)
    modulus = matrix.ring.modulus
    ladders = []
    for p in modulus.primes:
        if shape:
            ladders.append(_packed_degree_ladder(matrix, p, *shape, doublings))
        else:
            reduced = RingMatrix(LaurentRing(modulus.prime_moduli[p]),
                                 [[a.reduce_mod_prime(p) for a in row] for row in matrix.rows])
            ladders.append(_degree_ladder(reduced, doublings))
    return [max(step) for step in zip(*ladders)]


def _degree_ladder(matrix: RingMatrix, doublings: int) -> list[int]:
    """Max degree max(highest exponent, -lowest exponent) of the entries of
    A, A^2, ..., A^(2^doublings), by `RingMatrix` squarings."""
    profile = []
    while True:
        profile.append(max([max(a.low + a._span() - 1, -a.low)
                            for row in matrix.rows for a in row if a.coeffs], default=0))
        if len(profile) > doublings:
            return profile
        matrix = matrix * matrix


def _packed_degree_ladder(matrix: RingMatrix, p: int, lo: int, span: int,
                          doublings: int) -> list[int]:
    """`_degree_ladder` of A mod p for a matrix with exponents in
    [lo, lo + span), squared on its entries at x = 2^s without unpacking.

    The first slot-wise reduction takes the coefficients of A, below m, to
    A mod p.  The entries of A^(2^i) = x^(lo 2^i) A'^(2^i) span at most
    (span - 1) 2^i + 1 slots, so a slot of a square sums at most
    n ((span - 1) 2^doublings + 1) products below p^2.  An entry's lowest
    and highest nonzero slots are those of its lowest and highest set bits.
    """
    n = matrix.n
    bound = max(n * ((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)
    reduce = SlotReducer(p, bound.bit_length())
    bits = 8 * reduce.width
    values = reduce([v for row in _at_power_of_two(matrix.rows, lo, reduce.width) for v in row])
    profile = []
    while True:
        best = 0
        for v in values:
            if v:
                best = max(best, lo + (v.bit_length() - 1) // bits,
                           -lo - ((v & -v).bit_length() - 1) // bits)
        profile.append(best)
        if len(profile) > doublings:
            return profile
        cols = [values[j::n] for j in range(n)]
        values = reduce([sum(map(mul, values[i:i + n], col))
                         for i in range(0, n * n, n) for col in cols])
        lo *= 2
