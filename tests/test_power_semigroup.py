"""Finiteness of matrix power sets: decision, orbits, divisibility witnesses."""

from __future__ import annotations

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from addca import polymat, power_semigroup, tpoly
from addca.cli import load_spec
from addca.laurent import LaurentPoly, SlotReducer, laurent_ring, pack_slots, unpack_slots
from addca.lca import associated_matrix
from addca.polymat import RingMatrix, _dense_span, char_poly, identity, matrix_from_ints
from addca.power_semigroup import (
    OrbitShape,
    _companion,
    _first_repeat,
    _idempotent_exponent,
    _normalized,
    _packed_power_walk,
    _Widen,
    _window,
    decide_finite_powers,
    detect_orbit,
    divisibility_witness,
    sampled_degree_growth,
)

from oracles import (BudgetExhausted, SlotReducerByPasses, brent_orbit, brent_residue_orbit,
                     degree_ladder_mod_m, frobenius_companion, idempotent_power,
                     normalized_by_passes, tpoly_sub)
from test_polymat import random_laurent_matrix, random_zmod_matrix

MODULI = [2, 3, 4, 6, 8, 9, 12]
# The shear's residues t^j mod (t - 1)^2 repeat within a budget of 4
# (measured by bisecting the budget); 16 leaves headroom, and a wrong chi
# fails within 16 steps instead of walking the default 100000.
SHEAR_WITNESS_BUDGET = 16
# Both searches on every matrix of _orbit_corpus(Random(5151)) finish within
# a budget of 19, and on every matrix of _integral_corpus(Random(2718))
# within 56 (measured by bisecting the budget per matrix); 4x headroom,
# rounded up to a power of two, keeps a wrong walk from searching for
# minutes at the default 100000 before it fails.
ORBIT_CORPUS_BUDGET = 128
INTEGRAL_CORPUS_BUDGET = 256
# Every witness walk of _packed_corpus(Random(3141)) that closes at all
# closes within a budget of 68 (bisected per matrix); 4x, rounded up to a
# power of two.
PACKED_CORPUS_BUDGET = 512
# Moduli of the differential tests of the witnesses and the packed ladder:
# primes, prime powers, two primes, and a prime whose squared coefficients
# fill 61 bits.
PACKED_MODULI = (2, 3, 4, 6, 8, 9, 12, 25, 2**31 - 1)


def brute_force_power_set_size(matrix: RingMatrix, cap: int = 4096) -> int:
    """Oracle: enumerate powers into a set until the next one repeats."""
    seen = {identity(matrix.ring, matrix.n)}
    current = identity(matrix.ring, matrix.n)
    for _ in range(cap):
        current = current * matrix
        if current in seen:
            return len(seen)
        seen.add(current)
    raise AssertionError("power set did not close within the cap")


def upper_shear(m: int) -> RingMatrix:
    ring = laurent_ring(m)
    return RingMatrix(ring, [[ring.one(), ring.monomial(1)], [ring.zero(), ring.one()]])


def nilpotent_diagonal_mod_8() -> RingMatrix:
    """[[2x, 1], [0, 2]] over Z/8: 2x and 2 are nilpotent, so the powers
    settle only after a preperiod."""
    ring = laurent_ring(8)
    return RingMatrix(ring, [[ring.monomial(1, 2), ring.one()], [ring.zero(), ring.from_int(2)]])


def test_shear_power_set_has_four_elements():
    a = upper_shear(4)
    assert brute_force_power_set_size(a) == 4  # oracle
    orbit = detect_orbit(a)
    assert orbit == OrbitShape(0, 4)
    assert orbit.size == 4
    assert decide_finite_powers(a).finite


def test_identity_power_set_is_singleton():
    ring = laurent_ring(4)
    ident = identity(ring, 2)
    assert detect_orbit(ident) == OrbitShape(0, 1)
    assert decide_finite_powers(ident).finite


def test_constant_shear_orbit_mod_4():
    ring = laurent_ring(4)
    a = matrix_from_ints(ring, [[1, 1], [0, 1]])
    assert detect_orbit(a) == OrbitShape(0, 4)
    assert decide_finite_powers(a).finite  # Z/m coefficients are constants


def test_unsupported_coefficient_type_is_rejected():
    plain_ints = SimpleNamespace(zero=lambda: 0, one=lambda: 1)
    with pytest.raises(TypeError, match="int"):
        decide_finite_powers(RingMatrix(plain_ints, [[1, 2], [3, 4]]))


def test_scalar_shift_matrix_is_infinite():
    for m in (4, 6):
        ring = laurent_ring(m)
        a = RingMatrix(ring, [[ring.monomial(1)]])
        verdict = decide_finite_powers(a)
        assert not verdict.finite
        assert verdict.failing_index == 0
        assert verdict.failing_prime == 2
        assert "a_0" in verdict.reason and "mod 2" in verdict.reason
        assert detect_orbit(a, budget=50) is None


def test_idempotent_exponent_examples():
    assert _idempotent_exponent(OrbitShape(3, 2)) == 4
    assert _idempotent_exponent(OrbitShape(0, 4)) == 4
    assert _idempotent_exponent(OrbitShape(0, 1)) == 1
    assert _idempotent_exponent(OrbitShape(5, 3)) == 6

    a = upper_shear(4)
    k = idempotent_power(a)
    assert k == 4
    assert a ** 4 == a ** 8


def test_idempotent_power_respects_budget():
    ring = laurent_ring(4)
    a = RingMatrix(ring, [[ring.monomial(1)]])
    with pytest.raises(BudgetExhausted):
        idempotent_power(a, budget=25)


def test_budget_exhaustion_is_indeterminate_not_infinite():
    a = upper_shear(4)
    # budget too small to close the 4-cycle: must answer None, not "infinite"
    assert detect_orbit(a, budget=3) is None
    assert decide_finite_powers(a).finite


def test_divisibility_witness_for_shear():
    a = upper_shear(4)
    k = divisibility_witness(a, budget=SHEAR_WITNESS_BUDGET)
    assert k == 4
    # re-divide explicitly: t^(2k) - t^k must reduce to zero mod chi
    ring = a.ring
    chi = list(char_poly(a).coeffs)
    assert not tpoly_sub(tpoly.pow_t_mod(chi, 2 * k), tpoly.pow_t_mod(chi, k), ring)


def test_divisibility_witness_budget_exhaustion():
    ring = laurent_ring(4)
    a = RingMatrix(ring, [[ring.monomial(1)]])
    assert divisibility_witness(a, budget=40) is None


def test_three_way_agreement_on_random_corpus():
    rng = random.Random(424242)
    finite_seen = infinite_seen = 0
    for _ in range(60):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 4)
        a = random_laurent_matrix(rng, m, n)
        verdict = decide_finite_powers(a)
        if verdict.finite:
            finite_seen += 1
            orbit = detect_orbit(a, budget=100_000)
            assert orbit is not None, f"finite verdict but no orbit: {a!r}"
            assert divisibility_witness(a, budget=100_000) is not None
            size = brute_force_power_set_size(a)
            assert size == orbit.size
        else:
            infinite_seen += 1
            assert detect_orbit(a, budget=24) is None
    assert finite_seen >= 8 and infinite_seen >= 8


def test_equal_char_poly_implies_equal_verdict():
    rng = random.Random(1701)
    for _ in range(25):
        m = rng.choice(MODULI)
        n = rng.randrange(1, 4)
        a = random_laurent_matrix(rng, m, n)
        b = frobenius_companion(char_poly(a))
        assert char_poly(b) == char_poly(a)
        assert decide_finite_powers(a).finite == decide_finite_powers(b).finite


def test_degree_growth_profiles():
    ring = laurent_ring(4)
    shift = RingMatrix(ring, [[ring.monomial(1)]])
    profile = sampled_degree_growth(shift, doublings=5)
    assert profile == [1, 2, 4, 8, 16, 32]

    swap = RingMatrix(laurent_ring(2), [
        [laurent_ring(2).zero(), laurent_ring(2).one()],
        [laurent_ring(2).monomial(1), laurent_ring(2).zero()],
    ])
    profile = sampled_degree_growth(swap, doublings=5)
    assert profile == [1, 1, 2, 4, 8, 16]  # plateaus once, then doubles

    flat = sampled_degree_growth(upper_shear(4), doublings=3)
    assert max(flat) <= 1  # finite power set: no blow-up


def test_monic_remainder_helper():
    ring = laurent_ring(4)
    chi = [ring.one(), ring.from_int(-2), ring.one()]  # (t-1)^2
    assert tpoly.mod_monic([ring.zero(), ring.zero(), ring.one()], chi) \
        == [ring.from_int(-1), ring.from_int(2)]  # t^2 = 2t - 1 mod (t-1)^2
    assert tpoly.pow_t_mod(chi, 0) == [ring.one()]
    with pytest.raises(ValueError):
        tpoly.mod_monic([ring.one()], [ring.from_int(2), ring.from_int(2)])


def _orbit_corpus(rng: random.Random) -> list[RingMatrix]:
    """Finite-power-set matrices: Laurent ones over several moduli, and
    constant non-invertible ones over Z/4 and Z/8 (preperiod > 0)."""
    corpus = []
    while len(corpus) < 30:
        a = random_laurent_matrix(rng, rng.choice([2, 3, 4, 6, 8, 9]), rng.randrange(1, 4))
        if decide_finite_powers(a).finite:
            corpus.append(a)
    for m in (4, 8):
        for _ in range(15):
            corpus.append(random_zmod_matrix(rng, m, rng.randrange(1, 4)))
    corpus.append(nilpotent_diagonal_mod_8())
    return corpus


def test_orbit_search_matches_brent_oracle():
    rng = random.Random(5151)
    preperiodic = 0
    for a in _orbit_corpus(rng):
        expected = brent_orbit(a)
        assert detect_orbit(a, ORBIT_CORPUS_BUDGET) == expected, a
        preperiodic += expected.preperiod > 0
        witness = divisibility_witness(a, ORBIT_CORPUS_BUDGET)
        assert witness == _idempotent_exponent(brent_residue_orbit(a)), a
    assert preperiodic >= 10


def test_orbit_search_is_exact_when_every_hash_collides(monkeypatch):
    class Colliding:
        def __init__(self, value):
            self.value = value

        def __eq__(self, other):
            return self.value == other.value

        def __hash__(self):
            return 7

    def term(k):  # 0, 1, ..., 6, then the cycle 7, ..., 11 repeats
        return Colliding(k if k < 7 else 7 + (k - 7) % 5)

    advanced = []

    def advance(x):
        advanced.append(x.value)
        return term(x.value + 1 if x.value < 11 else 7)

    assert _first_repeat(term(0), advance, budget=1000) == OrbitShape(7, 5)
    # 12 steps, and at step k a re-walk to every earlier index, then to 0..7
    assert len(advanced) == 12 + sum(j for k in range(12) for j in range(k)) + sum(range(8))

    # The packed walks hash their states with the builtin; shadow it in the
    # module so that every state key collides.
    keys = []

    def colliding_hash(value):
        keys.append(value)
        return 0

    monkeypatch.setattr(power_semigroup, "hash", colliding_hash, raising=False)
    a = nilpotent_diagonal_mod_8()
    assert detect_orbit(a) == brent_orbit(a)
    matrix_keys = keys[:]
    keys.clear()
    assert divisibility_witness(a) == _idempotent_exponent(brent_residue_orbit(a))
    for states in (matrix_keys, keys):
        assert all(type(low) is int and all(type(v) is int for v in values)
                   for low, values in states)
    # One value per column: both rows of A^j in the two columns of a matrix
    # state, row 0 of C^j in the two columns of a residue state.
    assert {len(values) for _, values in matrix_keys} == {2}
    assert {len(values) for _, values in keys} == {2}


def test_restarted_products_are_charged_to_the_budget():
    """diag(1 + 2x, 1 + 2x^-1) over Z/8 spans 3 slots, so its walk starts
    with blocks of 6.  A^2 has exponents -2 ... 2, 5 slots, and its next
    product would need 7: the walk restarts after 2 products with blocks of
    12, then closes the 4-cycle (1 + 2x)^4 = 1 in 4 more.  A budget of 4
    covers that last walk but not the 2 products before it."""
    ring = laurent_ring(8)
    a = RingMatrix(ring, [[ring.one() + ring.monomial(1, 2), ring.zero()],
                          [ring.zero(), ring.one() + ring.monomial(-1, 2)]])
    assert brent_orbit(a) == OrbitShape(0, 4)
    assert detect_orbit(a, budget=6) == OrbitShape(0, 4)
    for budget in (4, 5):
        assert detect_orbit(a, budget=budget) is None, budget


def test_orbit_search_spends_one_product_per_power():
    a = upper_shear(4)
    assert detect_orbit(a, budget=4) == OrbitShape(0, 4)
    assert divisibility_witness(a, budget=4) == 4


def test_confirmation_is_charged_to_the_budget():
    """shape.size products reach the repeat, and confirming it walks the
    preperiod q again.  Preperiods 2, 3 and 6 tell this charge of q from
    the bit_length(q) + bit_count(q) of a square-and-multiply A^q."""
    preperiods = []
    for a in (nilpotent_diagonal_mod_8(), matrix_from_ints(laurent_ring(4), [[0, 1], [0, 0]]),
              RingMatrix(laurent_ring(8), [[laurent_ring(8).monomial(1, 2)]]),
              matrix_from_ints(laurent_ring(64), [[2]])):
        shape = brent_orbit(a)
        preperiods.append(shape.preperiod)
        assert detect_orbit(a, budget=shape.size + shape.preperiod) == shape, a
        assert detect_orbit(a, budget=shape.size + shape.preperiod - 1) is None, a
    assert preperiods[0] >= 2 and preperiods[1:] == [2, 3, 6]


def test_power_searches_take_no_ring_matrix_power(monkeypatch):
    """The walks confirm hash hits and read the witness off the shape
    without any A ** j."""
    corpus = _integral_corpus(random.Random(2718)) + _orbit_corpus(random.Random(5151))

    def no_power(*args):
        raise AssertionError("a power search took RingMatrix.__pow__")

    monkeypatch.setattr(RingMatrix, "__pow__", no_power)
    for a in corpus:
        assert detect_orbit(a, INTEGRAL_CORPUS_BUDGET) is not None, a
        assert divisibility_witness(a, INTEGRAL_CORPUS_BUDGET) is not None, a


def test_budget_one_is_indeterminate():
    ring = laurent_ring(8)
    shift = RingMatrix(ring, [[ring.monomial(1)]])
    for a in (upper_shear(4), nilpotent_diagonal_mod_8(), shift):
        assert detect_orbit(a, budget=1) is None
        assert divisibility_witness(a, budget=1) is None
        with pytest.raises(BudgetExhausted):
            idempotent_power(a, budget=1)


def test_slot_reducer_matches_slotwise_remainder():
    rng = random.Random(8080)
    for m in (2, 3, 9, 25, 1 << 41, 3 ** 26):
        for bits in (1, 7, 20, 64, 97):
            reduce = SlotReducer(m, bits)
            top = (1 << bits) - 1
            for count in (1, 5, 40):
                rows = [[top] * count, [rng.randrange(top + 1) for _ in range(count)]]
                packed = reduce([pack_slots(row, reduce.width) for row in rows])
                for row, value in zip(rows, packed):
                    assert list(unpack_slots(value, count, reduce.width)) == [v % m for v in row]
    # Every small modulus at every small width, on the values just below
    # 2^bits, where a shift one bit short first goes wrong.
    for m in range(2, 201):
        for bits in range(1, 13):
            reduce = SlotReducer(m, bits)
            row = list(range(max(0, (1 << bits) - 2 * m), 1 << bits))
            (value,) = reduce([pack_slots(row, reduce.width)])
            assert list(unpack_slots(value, len(row), reduce.width)) == [v % m for v in row], \
                (m, bits)


def _packed_values(rng: random.Random, width: int) -> list[int]:
    """Packed values whose slots start at mixed heights: each value has a
    random number of zero slots below its first nonzero one, and some values
    are zero."""
    count = rng.randrange(1, 6)
    values = []
    for _ in range(count):
        if rng.random() < 0.2:
            values.append(0)
            continue
        slots = [0] * rng.randrange(4) + [rng.randrange(1, 1 << 8 * width)]
        slots += [rng.randrange(1 << 8 * width) for _ in range(rng.randrange(4))]
        values.append(pack_slots(slots, width))
    return values


def test_normalized_matches_the_per_value_passes():
    """One OR per state gives the state and window verdict of a min and a max
    pass over the values: all zero, a single nonzero value, mixed lowest
    slots, and windows that end exactly at the state's lowest and highest
    slot or one slot inside them."""
    rng = random.Random(1616)
    cases = [([0], 1), ([0, 0, 0], 2), ([1 << 40], 1), ([0, 5 << 24, 0], 4)]
    cases += [(_packed_values(rng, width), width) for width in (1, 2, 4) for _ in range(150)]
    for values, width in cases:
        low = rng.randrange(-5, 6)
        free = normalized_by_passes(low, values, width, (-10**9, 10**9))
        assert _normalized(low, values, width, (-10**9, 10**9)) == free
        bottom, packed = free
        top = bottom + (max(map(int.bit_length, packed), default=0) - 1) // (8 * width)
        for window in ((bottom, top), (bottom + 1, top), (bottom, top - 1),
                       (bottom - 1, top + 1), (top + 1, top + 2)):
            assert (_normalized(low, values, width, window)
                    == normalized_by_passes(low, values, width, window)), (values, window)


def _blocked_values(rng: random.Random, width: int, blocks: int, block: int) -> list[int]:
    """Values of ``blocks`` entries each, entry r in block r of ``block``
    slots: every entry fits its block and starts at a random height, and
    some entries and values are zero."""
    values = []
    for _ in range(rng.randrange(1, 6)):
        value = 0
        for r in range(blocks):
            if rng.random() < 0.3:
                continue
            bottom = rng.randrange(block)
            slots = [0] * bottom + [rng.randrange(1, 1 << 8 * width)]
            slots += [rng.randrange(1 << 8 * width) for _ in range(rng.randrange(block - bottom))]
            value |= pack_slots(slots, width) << 8 * width * block * r
        values.append(value)
    return values


def _outcome(normalize, *args):
    try:
        return normalize(*args)
    except _Widen:
        return "widen"


def test_normalized_folds_the_blocks_as_the_per_entry_passes():
    """On values of several blocks, the OR folded across the blocks gives the
    state, window verdict and widening of per-entry passes: spans that fit
    the state's top exactly and one slot too many, and windows that end at
    the state's lowest and highest slot."""
    rng = random.Random(1818)
    seen = set()
    for blocks in (2, 3, 5):
        for block in (1, 2, 4, 7):
            for width in (1, 2):
                for _ in range(40):
                    values = _blocked_values(rng, width, blocks, block)
                    low = rng.randrange(-5, 6)
                    wide = (-10**9, 10**9)
                    state = normalized_by_passes(low, values, width, wide)
                    bottom, packed = state
                    top = max([(v >> 8 * width * block * r & (1 << 8 * width * block) - 1)
                               .bit_length() for v in packed for r in range(blocks)])
                    top = (top - 1) // (8 * width) if top else 0
                    for span in {1, block - top, block - top + 1, block}:
                        layout = blocks, block, span
                        for window in (wide, (bottom, bottom + top), (bottom + 1, bottom + top),
                                       (bottom, bottom + top - 1)):
                            result = _outcome(_normalized, low, values, width, window, layout)
                            assert result == _outcome(normalized_by_passes, low, values, width,
                                                      window, layout), (values, layout, window)
                            seen.add("widen" if result == "widen" else result is None)
    assert seen == {"widen", True, False}


def test_slot_reducer_mask_grows_as_with_per_value_passes():
    """The OR sizes the mask as the longest value did: equal outputs and an
    equal mask after every call of a walk whose values lengthen and shrink."""
    rng = random.Random(1717)
    for m in (2, 9, 25, 2**31 - 1):
        for bits in (3, 20, 64):
            reducer, oracle = SlotReducer(m, bits), SlotReducerByPasses(m, bits)
            for _ in range(40):
                slots = rng.randrange(1, 30)
                values = [rng.randrange(1 << min(bits, 8 * reducer.width * slots))
                          for _ in range(rng.randrange(1, 6))]
                assert reducer(values) == oracle(values)
                assert (reducer._mask, reducer._mask_bits) == (oracle._mask, oracle._mask_bits)


def _integral_corpus(rng: random.Random) -> list[RingMatrix]:
    """Finite-power-set matrices for the packed walks.

    C + r L(x), with C constant, r the product of the primes of m and L
    Laurent, is integral (it is C mod every p | m); non-invertible C over
    Z/4 and Z/8 gives preperiods.  Over m = 2^41 and 3^26 the block matrix
    [[P, X], [0, N]], P a signed permutation, N = p^k L(x) with N^2 = 0 and
    X full-size, has period ord(P) and slots far above 64 bits.  The zero
    matrices and a wide-span matrix walk Laurent rows.  [[2x^4 + 6]] over
    Z/8 walks packed although its square 4x^8 + 4 is sparse.
    """
    corpus = []
    for m in (4, 8, 9, 12):
        radical = 6 if m == 12 else (3 if m == 9 else 2)
        for n in (1, 2, 3, 4):
            for _ in range(2):
                ring = laurent_ring(m)
                rows = [[LaurentPoly(ring.modulus, {0: rng.randrange(m), **{
                    e: radical * rng.randrange(m) for e in rng.sample((-2, -1, 1, 2), 2)}})
                    for _ in range(n)] for _ in range(n)]
                corpus.append(RingMatrix(ring, rows))
    for m, p, k in ((1 << 41, 2, 21), (3 ** 26, 3, 13)):
        ring = laurent_ring(m)
        for size in (1, 2):
            perm = list(range(size))
            rng.shuffle(perm)
            rows = []
            for i in range(size + 2):
                row = []
                for j in range(size + 2):
                    if i < size and j < size:
                        coeffs = {0: rng.choice((1, m - 1))} if perm[i] == j else {}
                    elif i < size:
                        coeffs = {e: rng.randrange(m) for e in (-1, 0, 1)}
                    elif j >= size:
                        coeffs = {e: p ** k * rng.randrange(p ** k) for e in (-1, 0, 1)}
                    else:
                        coeffs = {}
                    row.append(LaurentPoly(ring.modulus, coeffs))
                rows.append(row)
            corpus.append(RingMatrix(ring, rows))
    ring = laurent_ring(4)
    for n in (1, 2, 3):
        corpus.append(RingMatrix(ring, [[ring.zero()] * n for _ in range(n)]))
    corpus.append(RingMatrix(ring, [[ring.one(), ring.monomial(100)], [ring.zero(), ring.one()]]))
    ring = laurent_ring(8)
    corpus.append(RingMatrix(ring, [[ring.monomial(4, 2) + ring.from_int(6)]]))
    return corpus


def test_packed_walks_match_brent_oracles():
    rng = random.Random(2718)
    corpus = _integral_corpus(rng)
    packed = preperiodic = wide_slots = 0
    for a in corpus:
        assert decide_finite_powers(a).finite, a
        expected, residues = brent_orbit(a), brent_residue_orbit(a)
        assert detect_orbit(a, INTEGRAL_CORPUS_BUDGET) == expected, a
        assert divisibility_witness(a, INTEGRAL_CORPUS_BUDGET) == _idempotent_exponent(residues), a
        preperiodic += expected.preperiod > 0
        wide_slots += a.ring.modulus.m > 1 << 40
        # The packed walks themselves, where they run: the walk on A and the
        # walk on row 0 of the companion of chi.
        companion = _companion(list(char_poly(a).coeffs))
        for matrix, rows, oracle in ((a, a.n, expected), (companion, 1, residues)):
            shape = _dense_span(matrix.rows)
            if shape:
                lo, span = shape
                assert _packed_power_walk(matrix, rows, lo, span, _window(matrix),
                                          INTEGRAL_CORPUS_BUDGET, 2 * span) == oracle, a
                packed += 1
    # Of 41 matrices, 4 are zero or wide.  Every companion but one is dense,
    # since even chi = t^n puts ones on its superdiagonal; the 1x1 zero
    # matrix has chi = t, whose companion is the zero matrix [[0]].
    assert packed == 37 + 40
    assert preperiodic >= 10 and wide_slots == 4


def test_packed_walks_widen_from_the_narrowest_block(monkeypatch):
    """Started with blocks of span slots, the packed walks on both corpora
    restart with wider blocks as their states grow, and still find Brent's
    shapes.  The walk on one row has one block and never restarts."""
    walks = []
    first_repeat = power_semigroup._first_repeat

    def counted(*args):
        walks[-1] += 1
        return first_repeat(*args)

    monkeypatch.setattr(power_semigroup, "_first_repeat", counted)
    widened = 0
    for a in _orbit_corpus(random.Random(5151)) + _integral_corpus(random.Random(2718)):
        companion = _companion(list(char_poly(a).coeffs))
        for matrix, rows, oracle in ((a, a.n, brent_orbit), (companion, 1, brent_residue_orbit)):
            shape = _dense_span(matrix.rows)
            if shape:
                lo, span = shape
                walks.append(0)
                assert _packed_power_walk(matrix, rows, lo, span, _window(matrix),
                                          INTEGRAL_CORPUS_BUDGET, span) == oracle(a), (a, rows)
                assert rows > 1 or walks[-1] == 1, a
                widened += walks[-1] > 1
    # 36 of the 177 walks widen (11 of them from the default 2 span).
    assert widened >= 30


def test_dense_widening_spec_widens_once_and_matches_brent(monkeypatch):
    """The golden spec tests/specs/dense_widening.json: A_0 invertible and
    A_(+-1) even over Z/8 put the powers' exponents in -2 ... 2, 5 slots, so
    the walk outgrows its first blocks of 6 slots once, after 2 products,
    and finds Brent's shape with the wider blocks."""
    a = associated_matrix(load_spec(str(Path(__file__).resolve().parent / "specs"
                                         / "dense_widening.json")).rule)
    walks = []
    first_repeat = power_semigroup._first_repeat

    def counted(*args):
        walks.append(None)
        return first_repeat(*args)

    monkeypatch.setattr(power_semigroup, "_first_repeat", counted)
    assert detect_orbit(a) == brent_orbit(a) == OrbitShape(0, 36)
    assert len(walks) == 2
    assert detect_orbit(a, budget=2 + 36) == OrbitShape(0, 36)
    assert detect_orbit(a, budget=36) is None


def _exponents_inside(matrix: RingMatrix, window: tuple[int, int]) -> bool:
    floor, ceiling = window
    return all(floor <= a.low and a.low + a._span() - 1 <= ceiling
               for row in matrix.rows for a in row if a.coeffs)


def test_powers_of_integral_matrices_stay_in_the_window():
    """A^0 ... A^(q+c) of every integral matrix of both corpora, and of the
    companion of its chi, keep their exponents inside `_window`."""
    corpus = _integral_corpus(random.Random(2718)) + _orbit_corpus(random.Random(5151))
    for a in corpus:
        for matrix in (a, _companion(list(char_poly(a).coeffs))):
            window = _window(matrix)
            power = identity(matrix.ring, matrix.n)
            for j in range(brent_orbit(matrix).size + 1):
                assert _exponents_inside(power, window), (a.rows, matrix.rows, j)
                power = power * matrix


def test_non_integral_walks_stop_at_the_window(monkeypatch):
    """A power outside the window ends both searches within a few states,
    whatever the budget: the walks count their states through the builtin
    hash, shadowed here to fail after 64."""
    states = []

    def counting_hash(value):
        states.append(value)
        if len(states) > 64:
            raise AssertionError("walked past 64 states")
        return hash(value)

    monkeypatch.setattr(power_semigroup, "hash", counting_hash, raising=False)
    two, four = laurent_ring(2), laurent_ring(4)
    for a in (RingMatrix(two, [[two.one() + two.monomial(1)]]),
              RingMatrix(four, [[four.monomial(1), four.zero()],
                                [four.zero(), four.monomial(-1)]]),
              RingMatrix(two, [[two.one() + two.monomial(100)]])):  # walks Laurent rows
        assert not decide_finite_powers(a).finite
        for search in (detect_orbit, divisibility_witness):
            states.clear()
            assert search(a) is None, (search.__name__, a.rows)


def test_sparse_companions_walk_laurent_rows():
    """Integral matrices whose companion is too wide to pack: the witness
    walk runs on Laurent rows."""
    ring = laurent_ring(4)
    for a, witness in ((RingMatrix(ring, [[ring.one() + ring.monomial(1000, 2)]]), 2),
                       (RingMatrix(ring, [[ring.one() + ring.monomial(500, 2), ring.zero()],
                                          [ring.zero(), ring.from_int(3)]]), 4)):
        assert not _dense_span(_companion(list(char_poly(a).coeffs)).rows), a
        assert detect_orbit(a, INTEGRAL_CORPUS_BUDGET) == brent_orbit(a) == OrbitShape(0, 2), a
        assert divisibility_witness(a, INTEGRAL_CORPUS_BUDGET) \
            == _idempotent_exponent(brent_residue_orbit(a)) == witness, a


def test_negative_doublings_are_rejected():
    ring = laurent_ring(4)
    for entry in (ring.one() + ring.monomial(1), ring.one() + ring.monomial(1000)):
        with pytest.raises(ValueError, match="doublings"):
            sampled_degree_growth(RingMatrix(ring, [[entry]]), -1)


def _conjugated_signed_cycle(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """S P S^-1 over Z/m for P an n-cycle with signs and S a product of
    elementary matrices: dense, with chi(P) = t^n -+ 1, so that t has order
    at most 2n mod chi when n is prime to m."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][perm[(i + 1) % n]] = rng.choice((1, m - 1))
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(1, m)
        # E A E^-1 for E = I + c e_ij: add c row j to row i, then take c
        # column i from column j.
        rows[i] = [(a + c * b) % m for a, b in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = (row[j] - c * row[i]) % m
    return rows


def _packed_corpus(rng: random.Random) -> list[RingMatrix]:
    """For every m in PACKED_MODULI and n = 0..5: an integral matrix S P S^-1
    + r L(x), r the product of the primes of m and L Laurent on x^-2 ... x^2;
    a random non-integral one; the all-(m - 1) matrices of span 1 and 3;
    and p L(x) for each prime p of m, which is 0 mod p.  Then [[x^(10^9)]]
    and a matrix with entries on x^-R and x^R only, R = 1000."""
    corpus = []
    for m in PACKED_MODULI:
        ring = laurent_ring(m)
        primes = ring.modulus.primes
        radical = 1
        for p in primes:
            radical *= p
        for n in range(6):
            constant = _conjugated_signed_cycle(rng, m, n)
            corpus.append(RingMatrix(ring, [[LaurentPoly(ring.modulus, {0: c, **{
                e: radical * rng.randrange(m) for e in rng.sample((-2, -1, 1, 2), 2)}})
                for c in row] for row in constant]))
            corpus.append(random_laurent_matrix(rng, m, n))
            for span in (1, 3):
                full = LaurentPoly(ring.modulus, {e: m - 1 for e in range(span)})
                corpus.append(RingMatrix(ring, [[full] * n for _ in range(n)]))
            for p in primes:
                corpus.append(RingMatrix(ring, [[LaurentPoly(ring.modulus, {
                    e: p * rng.randrange(m) for e in (-1, 0, 1)}) for _ in range(n)]
                    for _ in range(n)]))
    for m in (2, 12):
        ring = laurent_ring(m)
        corpus.append(RingMatrix(ring, [[ring.monomial(10**9)]]))
        corpus.append(RingMatrix(ring, [
            [LaurentPoly(ring.modulus, {-1000: rng.randrange(1, m), 1000: rng.randrange(1, m)})
             for _ in range(2)] for _ in range(2)]))
    return corpus


def test_packed_corpus_witnesses_match_tpoly_powers():
    """Every witness k that closes on an integral matrix of the corpus has
    t^(2k) = t^k mod chi by schoolbook residues, and is the k of Brent's
    shape of those residues."""
    checked, degrees, unclosed = 0, set(), []
    for a in _packed_corpus(random.Random(3141)):
        if not decide_finite_powers(a).finite:
            continue
        k = divisibility_witness(a, PACKED_CORPUS_BUDGET)
        if k is None:
            unclosed.append((a.ring.modulus.m, a.n))
            continue
        chi = list(char_poly(a).coeffs)
        assert tpoly.pow_t_mod(chi, 2 * k) == tpoly.pow_t_mod(chi, k), (a.rows, k)
        assert k == _idempotent_exponent(brent_residue_orbit(a)), a.rows
        checked += 1
        degrees.add(a.n)
    assert checked >= 60 and degrees == {0, 1, 2, 3, 4, 5}
    # The all-(m - 1) constant -J over Z/(2^31 - 1): (-J)^k = -+n^(k-1) J, and
    # 3 and 5 have huge orders mod 2^31 - 1 (2 and 4 have order 31).
    assert unclosed == [(2**31 - 1, 3), (2**31 - 1, 5)]


def test_packed_ladder_matches_the_ladder_over_z_mod_m():
    for a in _packed_corpus(random.Random(3141)):
        for doublings in (0, 1, 3):
            assert sampled_degree_growth(a, doublings) == degree_ladder_mod_m(a, doublings), \
                (a.rows, doublings)


def test_packed_slots_stay_below_their_bounds(monkeypatch):
    """Every slot that reaches a SlotReducer of the packed walk or ladder is
    below 2^bits, and the extreme inputs reach 2^(bits - 1): the all-(p - 1)
    constant matrices squared once by the ladder."""
    tightest = []

    class CheckedReducer(SlotReducer):
        def __init__(self, m: int, bits: int):
            super().__init__(m, bits)
            self.bits = bits

        def __call__(self, values):
            slot_bits = 8 * self.width
            slots = max(map(int.bit_length, values)) // slot_bits + 1
            ones = ((1 << slot_bits * slots) - 1) // ((1 << slot_bits) - 1)
            for v in values:
                assert not v & ~(ones * ((1 << self.bits) - 1)), "a slot reaches 2^bits"
                tightest.append(bool(v & ones << self.bits - 1))
            return super().__call__(values)

    monkeypatch.setattr(power_semigroup, "SlotReducer", CheckedReducer)
    for a in _packed_corpus(random.Random(3141)):
        sampled_degree_growth(a, 3)
        if decide_finite_powers(a).finite:
            divisibility_witness(a, PACKED_CORPUS_BUDGET)
    # Integral C + (m - p) x + (m - p) x^-1 over Z/p^k: the power walk sums
    # n products of span terms near (m - 1)^2 into one slot.
    rng = random.Random(2718)
    for m, p in ((4, 2), (8, 2), (9, 3), (25, 5)):
        ring = laurent_ring(m)
        for n in (2, 3):
            detect_orbit(RingMatrix(ring, [[LaurentPoly(ring.modulus, {
                -1: m - p, 0: rng.randrange(m), 1: m - p}) for _ in range(n)]
                for _ in range(n)]), PACKED_CORPUS_BUDGET)
    for m in (2, 3, 25, 2**31 - 1):
        tightest.clear()
        sampled_degree_growth(matrix_from_ints(laurent_ring(m), [[m - 1] * 3] * 3), 1)
        assert any(tightest), m


def test_berkowitz_runs_once_per_matrix(monkeypatch):
    """The finiteness verdict and the witness share one chi, kept on the matrix."""
    runs = []
    berkowitz = polymat._berkowitz

    def counted(*args):
        runs.append(None)
        return berkowitz(*args)

    monkeypatch.setattr(polymat, "_berkowitz", counted)
    for a in (upper_shear(4), nilpotent_diagonal_mod_8(),
              RingMatrix(laurent_ring(4), [[laurent_ring(4).monomial(1)]])):
        runs.clear()
        decide_finite_powers(a)
        divisibility_witness(a, SHEAR_WITNESS_BUDGET)
        assert len(runs) == 1, a
