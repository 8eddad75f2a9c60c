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

Both searches first test chi with `char_poly_finiteness` and return None
when a coefficient is not integral, so a walk runs only on an integral A,
whose powers are bounded.  Let p^k exactly divide m.  Each a_i is then
c_i + p g_i with c_i constant, so chi0 = sum c_i t^i has chi0(A) = -p g(A)
by Cayley-Hamilton, and chi0^k annihilates A over Z/p^k.  Padded by powers
of t to degree n k, k now the largest prime exponent of m, and combined by
CRT, these give a monic f of degree n k with constant coefficients and
f(A) = 0.  So every A^j is a constant combination of A^0 ... A^(nk-1), and
if the exponents of A lie in [lo, hi] those of every power lie in
[min(0, (nk-1) lo), max(0, (nk-1) hi)].  The widening below stops on this
fact alone.

The walk and the degree ladder run on packed integers when the Laurent
entries are dense (the rule of `polymat._dense_span`), with one step,
`_stepper`.  A = x^lo A' is evaluated once at x = 2^W, as in `polymat`, and
a state is (low, values) with low the lowest exponent of its matrix, so
equal matrices have equal states.  A state times x^lo B is one integer dot
product per row of n values against the packed columns of B, each reduced
slot-wise mod m on the packed integer (`SlotReducer`:
v - m ((v M >> s) & mask) with M = ceil(2^s / m), exact for slots below 2^b
when 2^s > m 2^b), and a shift that drops the zero slots below every entry.
The walk keeps one value per column of its rows, entry (r, l) in block r of
K slots (Kronecker substitution, Harvey 2009): a step is n dot products, not
rows n.  Every walk, on one row or on n, follows one widening rule: a state
whose top slot plus span exceeds K, so that its next product would spill
out of its block, raises `_Widen`, and the walk restarts from A^0 with K
doubled from 2 span, its abandoned products counted in the budget.  The
doubling stops by itself: no state of an integral A outgrows blocks wider
than its bounded exponents plus span.
K is fixed within a walk, so shapes stay exact.  The ladder squares by its
state, so it keeps one value per entry, not columns, in one block as wide
as its mask.  The mask is sized once, to the longest product: rows K slots
for the walk, rebuilt when K doubles, and (span - 1) 2^d + 1 for the
ladder, the most that A and A^(2^d) span, so no square of the ladder
widens.  The shift and the widening check read one OR of the
reduced values folded across the blocks: the lowest set bit of the fold is
the lowest over the entries, and its bit length the largest.
Each caller bounds b for its own factors.  The walk steps by A: a slot sums
n convolutions of at most span products below m^2, b = bits(n span (m-1)^2).
The ladder squares A mod p for each prime p of m, since reduction mod p is a
ring map; A^(2^i) spans at most (span - 1) 2^i + 1 slots, so
b = bits(n ((span - 1) 2^d + 1) (p - 1)^2) for d doublings, and at least
bits(m - 1) for its first step, I times A, which reduces A's coefficients.
`_stepper` is the package's only packed matrix product.  A matrix that is
not dense walks tuples of Laurent rows, one ring dot product per entry,
and is squared by `RingMatrix` products.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .laurent import LaurentPoly, LaurentRing, slot_width
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
    ``budget``; the result is None once the budget is spent.
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
        k += 1


def detect_orbit(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> OrbitShape | None:
    """First-repeat search on A^0, A^1, A^2, ...: one product per distinct power.

    Returns the minimal (preperiod, period) of a Laurent matrix.  Returns
    None when the budget runs out or the power set is infinite: the budget
    counts matrix multiplications, re-walks and restarted walks included
    (see `_first_repeat`), and an A that `decide_finite_powers` calls
    infinite is not walked at all.  So None never means "finite";
    `decide_finite_powers` tells the two cases apart.
    """
    if not decide_finite_powers(matrix).finite:
        return None
    return _orbit(matrix, matrix.n, budget)


def _orbit(matrix: RingMatrix, rows: int, budget: int) -> OrbitShape | None:
    """Shape of the first ``rows`` rows of A^0, A^1, ..., for an integral A,
    by `_first_repeat` on packed integers when A is dense, on Laurent rows
    otherwise; None when the budget runs out."""
    shape = _dense_span(matrix.rows)
    if shape:
        return _packed_power_walk(matrix, rows, *shape, budget, 2 * shape[1])
    cols = tuple(zip(*matrix.rows))

    def advance(state: tuple) -> tuple:
        return tuple([tuple([_dot(row, col) for col in cols]) for row in state])

    return _first_repeat(identity(matrix.ring, matrix.n).rows[:rows], advance, budget)


class _Widen(Exception):
    """A packed state would spill; `_first_repeat` sets ``spent``, its walk's products."""


class SlotReducer:
    """Constants that reduce every slot of a packed int mod m without unpacking.

    For slot values below 2^bits, let s = bits + bits(m) and M = ceil(2^s / m).
    Then floor(v M / 2^s) = floor(v / m) for every such v, because
    2^s > m 2^bits (division by an invariant integer, Granlund and
    Montgomery, PLDI 1994).  The slots are ``width`` bytes, at least
    bits + bits(M) and s bits, so each v M stays inside its own slot and
    v - m ((v M >> s) & mask), with 2^(8 width - s) - 1 in each of the
    lowest ``slots`` slots of mask, is v with each slot reduced mod m.  The
    caller fixes ``slots`` to the longest value it will reduce, so the mask
    is built once; `_stepper` applies the formula.
    """

    __slots__ = ("m", "width", "_shift", "_magic", "_mask")

    def __init__(self, m: int, bits: int, slots: int):
        shift = bits + m.bit_length()
        magic = -(-(1 << shift) // m)
        self.m = m
        self.width = width = slot_width(max(bits + magic.bit_length(), shift))
        self._shift = shift
        self._magic = magic
        ones = ((1 << 8 * width * slots) - 1) // ((1 << 8 * width) - 1)
        self._mask = ((1 << 8 * width - shift) - 1) * ones


def _packed_power_walk(matrix: RingMatrix, rows: int, lo: int, span: int,
                       budget: int, block: int) -> OrbitShape | None:
    """`_first_repeat` on the first ``rows`` rows of A^0, A^1, ..., for an
    integral A with exponents in [lo, lo + span), in packed columns with
    blocks of ``block`` slots, doubled on each `_Widen` until no state
    outgrows them, as the module docstring says."""
    n, m = matrix.n, matrix.ring.modulus.m
    bits = (n * span * (m - 1) ** 2).bit_length()
    while True:
        reduce = SlotReducer(m, bits, rows * block)
        factor = lo, tuple(zip(*_at_power_of_two(matrix.rows, lo, reduce.width)))
        start = 0, tuple([1 << 8 * reduce.width * block * j if j < rows else 0 for j in range(n)])
        try:
            return _first_repeat(start, _stepper(factor, reduce, (rows, block, span)), budget)
        except _Widen as widen:
            budget -= widen.spent
            block = 2 * block


def _stepper(factor: tuple, reduce: SlotReducer, layout: tuple[int, int, int]):
    """The step by x^lo B, ``factor`` = (lo, B's packed columns), of a state
    in ``layout`` = (blocks, block slots, span): the next state, or `_Widen`
    when a product by ``span`` slots would spill out of a block."""
    lo, cols = factor
    n = len(cols)
    m, shift, magic, mask = reduce.m, reduce._shift, reduce._magic, reduce._mask
    bits = 8 * reduce.width
    blocks, block, span = layout
    stride, whole = bits * block, (1 << bits * block) - 1

    def step(state: tuple) -> tuple[int, tuple[int, ...]]:
        low, values = state
        union = 0
        out = []
        for i in range(0, len(values), n):
            row = values[i:i + n]
            for col in cols:
                v = sum(map(mul, row, col))
                v -= m * ((v * magic >> shift) & mask)
                union |= v
                out.append(v)
        if not union:
            return 0, tuple(out)
        fold = union >> stride * (blocks - 1)  # the top block needs no mask
        for r in range(blocks - 1):
            fold |= union >> stride * r & whole
        slots = ((fold & -fold).bit_length() - 1) // bits
        top = (fold.bit_length() - 1) // bits - slots
        low += lo + slots
        if top + span > block:
            raise _Widen
        if slots:
            out = [v >> bits * slots for v in out]
        return low, tuple(out)

    return step


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
    Returns None when the budget runs out, which is indeterminate, and, with
    no walk, when `char_poly_finiteness` finds a coefficient of chi that is
    not integral: then the residues never cycle.
    """
    chi = char_poly(matrix)
    if not char_poly_finiteness(chi).finite:
        return None
    orbit = _orbit(_companion(list(chi.coeffs)), 1, budget)
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
    [lo, lo + span), squared on packed entries with the slots and mask of the
    module docstring, which no square outgrows.  A degree is read off a
    state's low and longest value."""
    n = matrix.n
    bound = max(n * ((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)
    slots = (span - 1 << doublings) + 1
    reduce = SlotReducer(p, bound.bit_length(), slots)
    layout = 1, slots, 1  # widens only a square that outgrows the mask
    cols = tuple(zip(*_at_power_of_two(matrix.rows, lo, reduce.width)))
    state = _stepper((lo, cols), reduce, layout)(
        (0, tuple([int(i == j) for i in range(n) for j in range(n)])))
    profile = []
    while True:
        low, values = state
        top = (max(map(int.bit_length, values)) - 1) // (8 * reduce.width)
        profile.append(max(0, -low, low + top))
        if len(profile) > doublings:
            return profile
        state = _stepper((low, [values[j::n] for j in range(n)]), reduce, layout)(state)
