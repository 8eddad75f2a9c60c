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
C^j is t^j mod chi.  The walk is a first-repeat search: one product per
distinct element, and a map from hashes to indices instead of the elements
themselves.  A hash hit is confirmed by walking again from the start to the
earlier index and comparing the real states, so the shape (q, c) found is
exact.  The witness k is read off that shape: a multiple of c with
k >= max(q, 1), so t^(2k) = t^k mod chi follows from x_(q+c) = x_q.

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

The walk and the degree ladder run on packed integers when the Laurent
entries are dense (the rule of `polymat._dense_span`), with one product,
`_product`.  A = x^lo A' is evaluated once at x = 2^W, as in `polymat`, and
a state is (low, values) with low the lowest exponent of its matrix, so
equal matrices have equal states.  A state times x^lo B is one integer dot
product per row of n values against the packed columns of B, a slot-wise
reduction mod m on the packed integers (`laurent.SlotReducer`:
v - m ((v M >> s) & mask) with M = ceil(2^s / m), exact for slots below 2^b
when 2^s > m 2^b), and a shift that drops the zero slots below every entry.
The walk keeps one value per column of its rows, entry (r, l) in block r of
K slots (Kronecker substitution, Harvey 2009): a step is n dot products, not
rows n.  A state whose next product would spill into the block above raises
`_Widen`, and the walk restarts from A^0 with K doubled, from 2 span up to
the window width plus span, its abandoned products counted in the budget.
K is fixed within a walk, so shapes stay exact; one row never restarts.  The
ladder squares by its state, so it keeps one value per entry, not columns.
Both the reduction and the shift read what they need of a state from one OR
of its non-negative values folded across the blocks: the lowest set bit of
the fold is the lowest over the entries, and its bit length the largest.
Each caller bounds b for its own factors.  The walk steps by A: a slot sums
n convolutions of at most span products below m^2, b = bits(n span (m-1)^2).
The ladder squares A mod p for each prime p of m, since reduction mod p is a
ring map; A^(2^i) spans at most (span - 1) 2^i + 1 slots, so
b = bits(n ((span - 1) 2^d + 1) (p - 1)^2) for d doublings, and at least
bits(m - 1) for the first reduction of A's coefficients to A mod p.
`_product` is the package's only packed matrix product.  A matrix that is
not dense walks tuples of Laurent rows, one ring dot product per entry, in
the same window, and is squared by `RingMatrix` products.
"""

from __future__ import annotations

import functools
from operator import mul, or_
from typing import NamedTuple

from .laurent import LaurentPoly, LaurentRing, SlotReducer
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


def _first_repeat(start, advance, budget: int) -> OrbitShape | None:
    """Minimal (preperiod, period) of an eventually periodic sequence.

    Walks x_0 = start, x_(k+1) = advance(x_k) once, keeping only the map
    hash(x_j) -> [j].  On a hash hit at step k each earlier j with that hash
    is recomputed by walking j advances again from ``start`` and compared
    with x_k; the first equal one is the first repeat, so (j, k - j) is the
    minimal shape.  A hash collision only costs a re-walk, never a wrong
    shape.  Every advance, re-walked ones too, is charged one unit of
    ``budget``; the result is None once the budget is spent or as soon as
    ``advance`` returns None, which it does for a state that proves the
    sequence never repeats.
    """
    seen: dict[int, list[int]] = {}
    value, k, spent = start, 0, 0
    while True:
        earlier = seen.setdefault(hash(value), [])
        for j in earlier:
            spent += j
            if spent > budget:
                return None
            state = start
            for _ in range(j):
                state = advance(state)
            if state == value:
                return OrbitShape(j, k - j)
        earlier.append(k)
        if spent >= budget:
            return None
        spent += 1
        try:
            value = advance(value)
        except _Widen as widen:
            widen.spent = spent
            raise
        if value is None:
            return None
        k += 1


def detect_orbit(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> OrbitShape | None:
    """First-repeat search on A^0, A^1, A^2, ...: one product per distinct power.

    Returns the minimal (preperiod, period) of a Laurent matrix.  Returns
    None when the budget (counted in matrix multiplications, re-walks and
    restarted walks included, see `_first_repeat`) runs out, which is indeterminate,
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
        return _packed_power_walk(matrix, rows, *shape, window, budget, 2 * shape[1])
    floor, ceiling = window
    cols = tuple(zip(*matrix.rows))

    def advance(state: tuple) -> tuple | None:
        state = tuple([tuple([_dot(row, col) for col in cols]) for row in state])
        if all(floor <= a.low and a.low + a._span() - 1 <= ceiling
               for row in state for a in row if a.coeffs):
            return state
        return None

    return _first_repeat(identity(matrix.ring, matrix.n).rows[:rows], advance, budget)


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


class _Widen(Exception):
    """A packed state would spill; `_first_repeat` sets ``spent``, its walk's products."""


def _packed_power_walk(matrix: RingMatrix, rows: int, lo: int, span: int,
                       window: tuple[int, int], budget: int, block: int) -> OrbitShape | None:
    """`_first_repeat` on the first ``rows`` rows of A^0, A^1, ..., for A with
    exponents in [lo, lo + span), in packed columns with blocks of ``block``
    slots, widened as the module docstring says."""
    n = matrix.n
    m = matrix.ring.modulus.m
    reduce = SlotReducer(m, (n * span * (m - 1) ** 2).bit_length())
    factor = lo, tuple(zip(*_at_power_of_two(matrix.rows, lo, reduce.width)))
    while True:
        start = 0, tuple([1 << 8 * reduce.width * block * j if j < rows else 0 for j in range(n)])
        try:
            return _first_repeat(start, lambda state: _product(state, factor, reduce, window,
                                                               (rows, block, span)), budget)
        except _Widen as widen:
            budget -= widen.spent
            block = min(2 * block, window[1] - window[0] + span)


def _product(state: tuple, factor: tuple, reduce: SlotReducer, window: tuple[int, int],
             layout: tuple[int, int, int] = (1, 0, 0)) -> tuple[int, tuple[int, ...]] | None:
    """The walk state of ``state`` times x^lo B, for ``factor`` = (lo, the
    packed columns of B): one integer dot product per row of n values and
    column, each slot reduced by ``reduce``, then `_normalized`."""
    (low, values), (lo, cols) = state, factor
    n = len(cols)
    return _normalized(low + lo, reduce([sum(map(mul, values[i:i + n], col))
                                         for i in range(0, len(values), n) for col in cols]),
                       reduce.width, window, layout)


def _normalized(low: int, values: list[int], width: int, window: tuple[int, int],
                layout: tuple[int, int, int] = (1, 0, 0)) -> tuple[int, tuple[int, ...]] | None:
    """The walk state x^low (values at x = 2^(8 width)) with the zero slots
    shared by the bottom of every entry shifted out, or None when its
    exponents leave ``window``.  Entry r of a value is in block r of ``layout``
    = (blocks, block slots, span); `_Widen` means a product by span would
    spill one.  Both ends come from the OR of the values folded across blocks."""
    bits = 8 * width
    union = functools.reduce(or_, values, 0)
    if not union:
        return 0, tuple(values)
    blocks, block, span = layout
    fold = union >> bits * block * (blocks - 1)  # the top block needs no mask
    for r in range(blocks - 1):
        fold |= union >> bits * block * r & (1 << bits * block) - 1
    slots = ((fold & -fold).bit_length() - 1) // bits
    if slots:
        # Each entry's lowest `slots` slots are zero: one shift moves every block.
        low += slots
        values = [v >> bits * slots for v in values]
    top = (fold.bit_length() - 1) // bits - slots
    if low < window[0] or low + top > window[1]:
        return None
    if blocks > 1 and top + span > block:
        raise _Widen
    return low, tuple(values)


def _idempotent_exponent(orbit: OrbitShape) -> int:
    c = orbit.period
    lo = max(orbit.preperiod, 1)
    return c * ((lo + c - 1) // c)


def divisibility_witness(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> int | None:
    """An exponent k >= 1 such that det(tI - A) divides t^(2k) - t^k.

    The residues t^j mod chi = det(tI - A) are row 0 of the powers of the
    companion matrix C of chi, so `detect_orbit`'s walk on that one row
    gives their exact shape (q, c), and k is the least multiple of c at or
    above max(q, 1): t^(k+c) = t^k mod chi once k >= q, hence t^(2k) = t^k.
    Returns None when the budget runs out, which is indeterminate, and as
    soon as a residue leaves the window of the module docstring, which
    proves that A is not integral (it never cycles).
    """
    orbit = _orbit(_companion(list(char_poly(matrix).coeffs)), 1, budget)
    return None if orbit is None else _idempotent_exponent(orbit)


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
    if doublings < 0:
        raise ValueError(f"doublings must be non-negative, got {doublings}")
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
    [lo, lo + span), squared on packed entries inside the window
    [min(0, lo 2^d), max(0, hi 2^d)] of A^(2^d), hi = lo + span - 1, with the
    slots of the module docstring.  A state's degree is read off its low and
    its longest value; a square outside the window raises AssertionError."""
    n = matrix.n
    bound = max(n * ((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)
    reduce = SlotReducer(p, bound.bit_length())
    window = min(0, lo << doublings), max(0, lo + span - 1 << doublings)
    state = _normalized(lo, reduce([v for row in _at_power_of_two(matrix.rows, lo, reduce.width)
                                    for v in row]), reduce.width, window)
    profile = []
    while True:
        low, values = state
        top = (functools.reduce(or_, values).bit_length() - 1) // (8 * reduce.width)
        profile.append(max(0, -low, low + top))
        if len(profile) > doublings:
            return profile
        state = _product(state, (low, [values[j::n] for j in range(n)]), reduce, window)
        if state is None:
            raise AssertionError("a matrix power left the exponent window")
