"""Brute-force oracles used to cross-check the algebraic decision procedures.

Everything here is deliberately naive and independent of the production code
paths: surjectivity by preimage counting, injectivity by searching the
de Bruijn graph for periodic kernel patterns, transitivity by bounded
enumeration of the powers F^k - I.  The Berkowitz characteristic polynomial
is checked against signed sums of principal minors (expanded by a subset-DP
Laplace scheme that shares nothing with Berkowitz) and against
Cayley-Hamilton; Laurent integrality against a CRT constant c with (f - c)
nilpotent; the verdicts on scalar rules against classical closed forms.
Former production paths are kept here too, each checking its successor on a
fixed corpus: the transitivity gcd descent over F_p(x)[t], the dict
convolution of Laurent polynomials, the entrywise matrix product, Brent's
cycle detection, the degree ladder over Z/m, the two-case entry formula of
the additive-to-linear embedding, the F_p[t] rendering of G_p, the step
kernel that left each cell's reduction to the configuration constructor and
the build of A(X) from one term map per entry.  So is the former public API
that only the tests call: the zero matrix, the Frobenius companion, the
idempotent power with its budget exception, the element embedding of a
p-group with its inverse and image test, the basis configurations, the
spreading semi-decision, the prime powers, largest exponent and nilradical
generator of a modulus, the Laurent parser, the constant term, the matrix
trace, a group's order and elements, the mod-p degrees of a Laurent
polynomial, the shift of a configuration, the image of a group element
under an endomorphism, the linear combinations of configurations and the
matrix of integer constants.  The packed step is kept as the three passes it
was before one loop did them all: the dot products, a reduction whose mask
is sized on each call by the longest value, and a normalization by a
filtered min of the lowest set bits and a max of the bit lengths.
"""

from __future__ import annotations

import math
import re
from collections import deque
from functools import partial
from itertools import product
from operator import mul

from typing import Any, Sequence

from addca import tpoly
from addca.additive_ca import AbelianGroup, GroupEndomorphism, _embedding_scales
from addca.laurent import LaurentPoly, LaurentRing, laurent_ring
from addca.lca import FiniteConfiguration, LcaRule, _fp_gcd, _fp_trim, associated_matrix
from addca.lca import step as lca_step
from addca.modring import Modulus, power
from addca.polymat import CharPoly, RingMatrix, char_poly, determinant, identity
from addca.power_semigroup import (DEFAULT_BUDGET, OrbitShape, SlotReducer, _companion,
                                   _idempotent_exponent, _Widen, detect_orbit)

MINOR_SUM_MAX_DIMENSION = 12


def offsets(rule) -> range:
    """The offsets -r ... r of a rule's neighborhood, in the order of its matrices."""
    return range(-rule.radius, rule.radius + 1)


def cell(config: FiniteConfiguration, position: int) -> tuple[int, ...]:
    """The vector at ``position``, zero where the configuration stores none."""
    return config.cells.get(position, (0,) * len(config.orders))


def laurent_power(f: LaurentPoly, k: int) -> LaurentPoly:
    """f^k, k >= 0, by square-and-multiply."""
    return power(LaurentPoly.constant(f.modulus, 1), f, k, mul)


def local_map(rule: LcaRule, word: tuple) -> tuple:
    """Apply the local rule to a full neighborhood word of length 2r+1."""
    m = rule.modulus.m
    out = [0] * rule.n
    for k, letter in enumerate(word):
        mat = rule.matrices[k]
        for i in range(rule.n):
            acc = 0
            row = mat[i]
            for j in range(rule.n):
                acc += row[j] * letter[j]
            out[i] = (out[i] + acc) % m
    return tuple(out)


def alphabet(rule: LcaRule) -> list[tuple]:
    return list(product(range(rule.modulus.m), repeat=rule.n))


def balance_surjectivity_oracle(rule: LcaRule, guard: int = 2**20) -> bool:
    """Surjective iff every letter has exactly |S|^(2r) neighborhood preimages."""
    letters = alphabet(rule)
    total_words = len(letters) ** (2 * rule.radius + 1)
    if total_words > guard:
        raise ValueError(f"balance counting needs {total_words} words, over the guard {guard}")
    counts: dict[tuple, int] = {}
    for word in product(letters, repeat=2 * rule.radius + 1):
        image = local_map(rule, word)
        counts[image] = counts.get(image, 0) + 1
    expected = len(letters) ** (2 * rule.radius)
    return all(counts.get(letter, 0) == expected for letter in letters)


def _kernel_cycle_candidates(letters: list[tuple], zero_letter: tuple, sources, local):
    """Yield candidate kernel words: letter sequences along cycles of the
    zero-output de Bruijn subgraph that leave one of the ``sources`` windows
    by a nonzero letter and return to it.

    Any cycle of zero-output edges carrying a nonzero letter somewhere must
    contain an edge whose own letter is nonzero, so scanning those edges out
    of every window and asking whether they close into a cycle is a complete
    search.  With the all-zero window as the only source, the words are the
    nonzero finite-support paths from and back to zero.
    """

    def transitions(state: tuple) -> list[tuple[tuple, tuple]]:
        out = []
        for letter in letters:
            word = state + (letter,)
            if local(word) == zero_letter:
                out.append((letter, word[1:]))
        return out

    for source in sources:
        for first_letter, entry in transitions(source):
            if first_letter == zero_letter:
                continue
            parents: dict[tuple, tuple[tuple, tuple] | None] = {entry: None}
            queue = deque([entry])
            while queue:
                state = queue.popleft()
                for letter, nxt in transitions(state):
                    if nxt not in parents:
                        parents[nxt] = (state, letter)
                        queue.append(nxt)
            if source not in parents:
                continue
            path_letters: list[tuple] = []
            cursor: tuple | None = source
            while cursor is not None and parents[cursor] is not None:
                prev, letter = parents[cursor]
                path_letters.append(letter)
                cursor = prev
            path_letters.reverse()
            yield [first_letter, *path_letters]


def periodic_kernel_witness(rule: LcaRule) -> list[tuple] | None:
    """A word w (len L >= 1) whose periodic repetition is a nonzero kernel
    configuration of the rule, or None when the kernel is trivial.

    Works on the de Bruijn graph of width-2r windows restricted to edges whose
    emitted output letter is zero; the rule is non-injective exactly when that
    subgraph has a cycle using a nonzero letter somewhere.
    """
    letters = alphabet(rule)
    zero_letter = tuple([0] * rule.n)
    local = partial(local_map, rule)
    for word in _kernel_cycle_candidates(letters, zero_letter,
                                         product(letters, repeat=2 * rule.radius), local):
        if _is_periodic_kernel_word(word, rule.radius, local):
            return word
    return None


def _is_periodic_kernel_word(word: list[tuple], radius: int, local) -> bool:
    """Does repeating the word fill the line with a nonzero kernel configuration?"""
    length = len(word)
    if all(all(v == 0 for v in letter) for letter in word):
        return False
    windows = (tuple(word[(i + z) % length] for z in range(-radius, radius + 1))
               for i in range(length))
    return not any(any(local(window)) for window in windows)


def finite_support_kernel_witness(rule: LcaRule) -> FiniteConfiguration | None:
    """A nonzero finite-support kernel configuration, or None when none exists.

    A finite-support kernel element is exactly a path in the zero-output
    de Bruijn graph that leaves the all-zero window, uses a nonzero letter,
    and returns to the all-zero window (the trailing zeros flush the window,
    so every neighborhood that can see the support emits zero).  Breadth-first
    search back to the zero window finds a shortest such path; by the
    Garden-of-Eden theorem this search succeeds only for non-surjective
    rules (surjective implies pre-injective on Z).
    """
    letters = alphabet(rule)
    zero_letter = tuple([0] * rule.n)
    zero_state = (zero_letter,) * (2 * rule.radius)
    # leading zeros can be trimmed, so the first letter may be taken nonzero
    for word in _kernel_cycle_candidates(letters, zero_letter, [zero_state],
                                         partial(local_map, rule)):
        config = FiniteConfiguration((rule.modulus.m,) * rule.n,
                                     {pos: letter for pos, letter in enumerate(word)})
        if config.cells and _maps_to_zero(rule, config):
            return config
    return None


def _maps_to_zero(rule: LcaRule, config: FiniteConfiguration) -> bool:
    """Slide the local map over every window that can see the support."""
    if not config.cells:
        return True
    lo = min(config.cells) - rule.radius
    hi = max(config.cells) + rule.radius
    for pos in range(lo, hi + 1):
        word = tuple(cell(config, pos + z) for z in offsets(rule))
        if any(local_map(rule, word)):
            return False
    return True


def additive_local_map(rule, word: tuple) -> tuple:
    """Apply an additive local rule to a neighborhood word of group elements."""
    group = rule.group
    out = [0] * group.rank
    for k, letter in enumerate(word):
        image = apply_endomorphism(rule.endomorphisms[k], letter)
        for i in range(group.rank):
            out[i] = (out[i] + image[i]) % group.factors[i]
    return tuple(out)


def additive_alphabet(rule) -> list[tuple]:
    return list(product(*(range(q) for q in rule.group.factors)))


def additive_balance_surjectivity_oracle(rule, guard: int = 2**20) -> bool:
    """Surjective iff every group element has exactly |G|^(2r) preimages."""
    letters = additive_alphabet(rule)
    total_words = len(letters) ** (2 * rule.radius + 1)
    if total_words > guard:
        raise ValueError(f"balance counting needs {total_words} words, over the guard {guard}")
    counts: dict[tuple, int] = {}
    for word in product(letters, repeat=2 * rule.radius + 1):
        image = additive_local_map(rule, word)
        counts[image] = counts.get(image, 0) + 1
    expected = len(letters) ** (2 * rule.radius)
    return all(counts.get(letter, 0) == expected for letter in letters)


def additive_periodic_kernel_witness(rule) -> list[tuple] | None:
    """Same cycle search as periodic_kernel_witness, alphabet = group elements."""
    letters = additive_alphabet(rule)
    zero_letter = (0,) * rule.group.rank
    for word in _kernel_cycle_candidates(letters, zero_letter,
                                         product(letters, repeat=2 * rule.radius),
                                         lambda w: additive_local_map(rule, w)):
        if is_periodic_additive_kernel_word(rule, word):
            return word
    return None


def is_periodic_additive_kernel_word(rule, word: list[tuple]) -> bool:
    """Does repeating the word fill the line with a nonzero kernel configuration?"""
    return _is_periodic_kernel_word(word, rule.radius, partial(additive_local_map, rule))


def scalar_rule_verdicts(m: int, coefficients: Sequence[int]) -> dict[str, bool]:
    """The classical closed forms for the scalar rule F(c)_i = sum_z a_z c_(i+z)
    over Z/m with coefficients a_-r .. a_r: surjective iff gcd(m, a_-r, ...,
    a_r) = 1; injective iff every prime p | m leaves exactly one a_z nonzero
    mod p (Ito, Osato & Nasu 1983); equicontinuous iff every p | m divides
    every a_z with z != 0 (Manzini & Margara 1999), sensitive otherwise;
    transitive iff gcd(m, a_z : z != 0) = 1."""
    r = len(coefficients) // 2
    off_centre = [*coefficients[:r], *coefficients[r + 1:]]
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
    equicontinuous = all(a % p == 0 for p in primes for a in off_centre)
    return {"sensitive": not equicontinuous, "equicontinuous": equicontinuous,
            "injective": all(sum(a % p != 0 for a in coefficients) == 1 for p in primes),
            "surjective": math.gcd(m, *coefficients) == 1,
            "transitive": math.gcd(m, *off_centre) == 1}


def bounded_transitivity_oracle(rule: LcaRule, k_max: int = 64) -> bool:
    """Surjective and F^k - I surjective for k = 1..k_max (determinant test)."""
    matrix = associated_matrix(rule)
    det = determinant(matrix)
    primes = rule.modulus.primes
    if any(det.reduce_mod_prime(p).is_zero() for p in primes):
        return False
    ident = identity(matrix.ring, matrix.n)
    power = ident
    for _ in range(k_max):
        power = power * matrix
        d = determinant(matrix_sum(power, ident, -1))
        if any(d.reduce_mod_prime(p).is_zero() for p in primes):
            return False
    return True


def descent_transitivity_oracle(rule: LcaRule) -> bool:
    """Surjective and gcd(chi mod p, t^(p^i - 1) - 1) = 1 over F_p(x) for all
    p | m and i = 1..n.

    Any root of unity among the eigenvalues lies in some F_{p^i} with i <= n,
    so this finite family of gcds sees all of them.  Each gcd is computed
    fraction-free: t^h is reduced in L[t]/(chi) (chi is monic), then a
    pseudo-remainder descent with F_p[x]-content stripping finishes it.
    """
    matrix = associated_matrix(rule)
    det = determinant(matrix)
    if any(det.reduce_mod_prime(p).is_zero() for p in rule.modulus.primes):
        return False
    for p in rule.modulus.primes:
        ring_p = laurent_ring(p)
        reduced = RingMatrix(ring_p, [[entry.reduce_mod_prime(p) for entry in row]
                                      for row in matrix.rows])
        chi = list(char_poly(reduced).coeffs)
        for i in range(1, rule.n + 1):
            if not _coprime_with_t_power_minus_one(chi, p**i - 1, ring_p):
                return False
    return True


def _coprime_with_t_power_minus_one(chi: list, h: int, ring: LaurentRing) -> bool:
    """Is gcd(chi, t^h - 1) trivial over the fraction field F_p(x)?"""
    g = tpoly_sub(tpoly.pow_t_mod(chi, h), [ring.one()], ring)
    if not g:
        return False  # chi divides t^h - 1 outright
    f = list(chi)
    while len(g) > 1:
        r = _pseudo_remainder(f, g, ring)
        if not r:
            return False  # g is a common factor of positive degree
        f, g = g, _strip_fp_content(r, ring)
    return True


def _pseudo_remainder(f: list, g: list, ring: LaurentRing) -> list:
    """prem(f, g): remainder of lc(g)^k * f modulo g, fraction-free."""
    out = list(f)
    dg = len(g) - 1
    lc = g[-1]
    while len(out) > dg:
        top = out.pop()
        out = [lc * c for c in out]
        shift = len(out) - dg
        for i in range(dg):
            out[shift + i] = out[shift + i] - top * g[i]
        out = tpoly.normalize(out)
    return out


def tpoly_sub(a: Sequence[Any], b: Sequence[Any], ring) -> list:
    """a - b for ascending t-coefficient lists, trailing zeros dropped."""
    out = [ring.zero()] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return tpoly.normalize(out)


def format_fp_poly(coeffs: list[int]) -> str:
    """Reference rendering of a monic polynomial over F_p, ascending
    coefficients in [0, p), in the style of CharPoly: t^2 + 2*t + 1."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c and k == 0:
            parts.append(str(c))
        elif c:
            parts.append(("" if c == 1 else f"{c}*") + ("t" if k == 1 else f"t^{k}"))
    return " + ".join(parts)


def associated_lca_matrices(rule) -> tuple:
    """Local matrices of the linear CA extending a single-prime additive CA,
    by the two-case formula: entry (i, j) times p^(k_j - k_i) when k_j >= k_i,
    else entry exactly divided by p^(k_i - k_j), reduced mod p^k1."""
    group = rule.group
    exponents = [group.prime_exponent(i) for i in range(group.rank)]
    p = exponents[0][0]
    modulus = p ** max(k for _, k in exponents)
    matrices = []
    for endo in rule.endomorphisms:
        rows = []
        for i, (_, k_i) in enumerate(exponents):
            row = []
            for j, (_, k_j) in enumerate(exponents):
                entry = endo.matrix[i][j]
                if k_j >= k_i:
                    row.append(entry * p ** (k_j - k_i) % modulus)
                else:
                    assert entry % p ** (k_i - k_j) == 0
                    row.append(entry // p ** (k_i - k_j) % modulus)
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return tuple(matrices)


def fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b over F_p, ascending coefficient lists."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = (a[-1] * inv) % p
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] = (a[k + i] - c * b[i]) % p
        _fp_trim(a)
    return q, a


def _strip_fp_content(coeffs: list, ring: LaurentRing) -> list:
    """Divide a t-polynomial over F_p[x, x^-1] by the F_p[x]-content of its
    coefficients (and by common x-powers), to keep pseudo-remainders small."""
    p = ring.modulus.m
    shifted = []
    for c in coeffs:
        if c.is_zero():
            shifted.append(None)
            continue
        support = c.support()
        offset = support[0]
        dense = [0] * (support[-1] - offset + 1)
        for e, v in c.items():
            dense[e - offset] = v
        shifted.append(dense)
    content: list[int] | None = None
    for dense in shifted:
        if dense is None:
            continue
        content = dense if content is None else _fp_gcd(content, dense, p)
        if len(content) == 1:
            return coeffs  # unit content: nothing to strip
    if content is None or len(content) == 1:
        return coeffs
    out = []
    for c, dense in zip(coeffs, shifted):
        if dense is None:
            out.append(ring.zero())
            continue
        quotient, remainder = fp_divmod(dense, content, p)
        if remainder:
            raise ArithmeticError("exact division expected")
        offset = c.support()[0]
        out.append(LaurentPoly(ring.modulus,
                               {offset + i: v for i, v in enumerate(quotient) if v}))
    return out


def tychonoff_distance(a: FiniteConfiguration, b: FiniteConfiguration) -> float:
    """2^(-l) where l is the least radius at which the configurations differ."""
    if a == b:
        return 0.0
    horizon = max(max_abs_position(a), max_abs_position(b))
    for radius in range(horizon + 1):
        if cell(a, radius) != cell(b, radius) or cell(a, -radius) != cell(b, -radius):
            return 2.0 ** (-radius)
    raise AssertionError("configurations compare equal cellwise but not as objects")


def render_trajectory_by_cells(trajectory: Sequence[FiniteConfiguration], window: int) -> str:
    """Reference space-time diagram: the text of every cell in the window,
    zero or not, is built first and the grid joined from the list."""
    texts: list[list[str]] = []
    width = 1
    for config in trajectory:
        row = [",".join(str(v) for v in cell(config, pos)) for pos in range(-window, window + 1)]
        width = max(width, max((len(t) for t in row), default=1))
        texts.append(row)
    if width == 1:
        return "\n".join("".join(row) for row in texts)
    return "\n".join(" ".join(t.rjust(width) for t in row) for row in texts)


def config_series_components(config: FiniteConfiguration, ring) -> list:
    """The vector of Laurent polynomials P_c with component i = sum c_i^(pos) X^pos."""
    n = len(config.orders)
    comps = []
    for i in range(n):
        comps.append(LaurentPoly(ring.modulus,
                                 {pos: vec[i] for pos, vec in config.cells.items() if vec[i]}))
    return comps


def principal_submatrix(matrix: RingMatrix, rows: Sequence[int], cols: Sequence[int]) -> RingMatrix:
    """Submatrix with the given (0-based) row and column index sets.

    Index sets are sorted first, matching the convention that a set of row
    and column labels, not their order, selects the submatrix.
    """
    rows = sorted(rows)
    cols = sorted(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column index sets must have equal size")
    for idx in (*rows, *cols):
        if not 0 <= idx < matrix.n:
            raise ValueError(f"index {idx} out of range for dimension {matrix.n}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("index sets must not contain repeats")
    return RingMatrix(matrix.ring, [[matrix.rows[i][j] for j in cols] for i in rows])


def _det_by_laplace_dp(matrix: RingMatrix) -> Any:
    """Determinant by Laplace expansion organized as a DP over column subsets.

    Exponential in principle but O(n * 2^n) in practice thanks to shared
    minors; independent of the Berkowitz path, which is the point.
    """
    n = matrix.n
    ring = matrix.ring
    if n == 0:
        return ring.one()
    level = {0: ring.one()}
    for r in range(n):
        row = matrix.rows[r]
        nxt: dict[int, Any] = {}
        for mask, val in level.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                pos = bin(mask & (bit - 1)).count("1")
                term = row[j] * val
                if (r + pos) % 2:
                    term = -term
                new_mask = mask | bit
                if new_mask in nxt:
                    nxt[new_mask] = nxt[new_mask] + term
                else:
                    nxt[new_mask] = term
        level = nxt
    return level[(1 << n) - 1]


def char_poly_by_minor_sums(matrix: RingMatrix) -> CharPoly:
    """Oracle: coefficient of t^k is (-1)^(n-k) times the sum of the
    determinants of all principal (n-k) x (n-k) submatrices.

    Exists solely as an independent cross-check of `char_poly`; the minors go
    through the Laplace DP, never through Berkowitz.  Guarded to n <= 12.
    """
    n = matrix.n
    if n > MINOR_SUM_MAX_DIMENSION:
        raise ValueError(f"minor-sum expansion is limited to n <= {MINOR_SUM_MAX_DIMENSION}")
    ring = matrix.ring
    coeffs = [ring.zero()] * (n + 1)
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask & (1 << i)]
        size = len(subset)
        det = _det_by_laplace_dp(principal_submatrix(matrix, subset, subset))
        k = n - size
        coeffs[k] = coeffs[k] + (det if size % 2 == 0 else -det)
    return CharPoly(tuple(coeffs))


def column_replace_det(matrix: RingMatrix, cols: Sequence[int]) -> Any:
    """Determinant after replacing the columns *outside* ``cols`` by the
    matching identity columns.

    Expanding that determinant shows it equals the principal minor on
    ``cols``; the identity is exercised by the tests.
    """
    cols = set(cols)
    ring = matrix.ring
    one, zero = ring.one(), ring.zero()
    n = matrix.n
    build = [[matrix.rows[i][j] if j in cols else (one if i == j else zero)
              for j in range(n)] for i in range(n)]
    return determinant(RingMatrix(ring, build))


def cayley_hamilton_check(matrix: RingMatrix) -> bool:
    """True iff the matrix annihilates its own characteristic polynomial."""
    return evaluate_at_matrix(char_poly(matrix), matrix) == zeros(matrix.ring, matrix.n)


def evaluate_at_matrix(poly: CharPoly, matrix: RingMatrix) -> RingMatrix:
    """Horner evaluation of the polynomial at a square matrix."""
    acc = zeros(matrix.ring, matrix.n)
    for coeff in reversed(poly.coeffs):
        acc = matrix_sum(acc * matrix, scalar_matrix(matrix.ring, matrix.n, coeff))
    return acc


def integral_witness_constant(f: LaurentPoly) -> int | None:
    """A constant c with (f - c)^K == 0 for K = max prime exponent of m.

    Exists exactly when f is integral over Z/mZ: c only needs to agree with
    the mod-p constant of f for each prime p, so any CRT lift over the
    product of the distinct primes will do.
    """
    if f.integrality_obstruction() is not None:
        return None
    radical = nilradical_generator(f.modulus)
    total = 0
    for p in f.modulus.primes:
        rest = radical // p
        total += constant_value(f.reduce_mod_prime(p)) * rest * pow(rest, -1, p)
    return total % radical


def dict_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f * g by convolving {exponent: coefficient} dicts term by term."""
    m = f.modulus.m
    out: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % m
    return LaurentPoly(f.modulus, out)


def matmul_by_entries(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """a * b with each entry a sum of Laurent products of a row and a column."""
    zero = a.ring.zero()
    cols = list(zip(*b.rows))
    return RingMatrix(a.ring, [[sum(map(mul, row, col), zero) for col in cols] for row in a.rows])


def brent_cycle(start, advance, cap: int = 1024) -> OrbitShape:
    """Minimal (preperiod, period) of an eventually periodic sequence by
    Brent's cycle detection; ``advance`` maps a value to its successor.
    Raises AssertionError after ``cap`` calls of ``advance``: the matrix
    orbits of the tests close within 193, and the powers of a matrix that
    is not integral, handed over by a wrong finiteness verdict, grow with
    each step and would never close."""
    steps = 0

    def step(value):
        nonlocal steps
        steps += 1
        if steps > cap:
            raise AssertionError(f"no cycle within {cap} steps")
        return advance(value)

    power = period = 1
    tortoise, hare = start, step(start)
    while tortoise != hare:
        if power == period:
            tortoise = hare
            power *= 2
            period = 0
        hare = step(hare)
        period += 1
    front = start
    for _ in range(period):
        front = step(front)
    back, preperiod = start, 0
    while back != front:
        back, front = step(back), step(front)
        preperiod += 1
    return OrbitShape(preperiod, period)


def brent_orbit(matrix: RingMatrix) -> OrbitShape:
    """Orbit shape of A^0, A^1, ... by Brent's cycle detection."""
    return brent_cycle(identity(matrix.ring, matrix.n), lambda value: value * matrix)


def brent_residue_orbit(matrix: RingMatrix) -> OrbitShape:
    """Orbit shape of t^0, t^1, ... mod det(tI - A) by Brent's cycle detection."""
    ring = matrix.ring
    chi = list(char_poly(matrix).coeffs)
    return brent_cycle(tuple(tpoly.mod_monic([ring.one()], chi)),
                       lambda residue: tuple(tpoly.mod_monic([ring.zero(), *residue], chi)))


def degree_ladder_mod_m(matrix: RingMatrix, doublings: int) -> list[int]:
    """Max prime-aware degree of the entries of A, A^2, ..., A^(2^doublings),
    squaring A over Z/m and reducing every entry of every square mod each p."""
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


# ---------------------------------------------------------------------------
# former public API that only the tests call


def zeros(ring, n: int) -> RingMatrix:
    zero = ring.zero()
    return RingMatrix(ring, [[zero] * n for _ in range(n)])


def scalar_matrix(ring, n: int, c: Any) -> RingMatrix:
    """c times the n x n identity."""
    zero = ring.zero()
    return RingMatrix(ring, [[c if i == j else zero for j in range(n)] for i in range(n)])


def matrix_sum(a: RingMatrix, b: RingMatrix, sign: int = 1) -> RingMatrix:
    """a + b entry by entry, or a - b for ``sign`` -1, over one ring."""
    if a.n != b.n or a.ring != b.ring:
        raise ValueError("matrix dimensions or base rings do not match")
    return RingMatrix(a.ring, [[x + y if sign > 0 else x - y for x, y in zip(ra, rb)]
                               for ra, rb in zip(a.rows, b.rows)])


def frobenius_companion(poly: CharPoly) -> RingMatrix:
    """Companion matrix: ones on the superdiagonal, last row -a_0 ... -a_{n-1}.

    Its characteristic polynomial is the given monic polynomial, which makes
    it the canonical witness that every monic polynomial is a characteristic
    polynomial.
    """
    if poly.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    return _companion(list(poly.coeffs))


class BudgetExhausted(RuntimeError):
    """An enumeration did not finish within its step budget."""


def idempotent_power(matrix: RingMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Least k >= 1 with A^k = A^(2k), for matrices with finite power set.

    Derived from the orbit shape: the smallest multiple of the period that is
    >= max(preperiod, 1).  Raises BudgetExhausted when the orbit cannot be
    enumerated within budget.
    """
    orbit = detect_orbit(matrix, budget)
    if orbit is None:
        raise BudgetExhausted(f"no cycle found within {budget} multiplications")
    k = _idempotent_exponent(orbit)
    if matrix ** k != matrix ** (2 * k):
        raise AssertionError("orbit shape produced a non-idempotent exponent")
    return k


def embed(group: AbelianGroup, element: Sequence[int]) -> tuple[int, ...]:
    """Coordinatewise embedding of a p-group into (Z/p^k1)^n.

    Component i is scaled by p^(k1 - k_i); the map is injective and additive,
    and its image is exactly the set of vectors whose i-th component is
    divisible by p^(k1 - k_i).
    """
    _, scales = _embedding_scales(group)
    return tuple(v * s for v, s in zip(group_reduce(group, element), scales))


def in_embedding_image(group: AbelianGroup, config: FiniteConfiguration) -> bool:
    """Is a configuration over (Z/p^k1)^n cellwise inside Xi(G^Z)?"""
    _, scales = _embedding_scales(group)
    return all(v % s == 0 for vec in config.cells.values() for v, s in zip(vec, scales))


def unembed(group: AbelianGroup, vector: Sequence[int]) -> tuple[int, ...]:
    """Invert the embedding on its image: xi(unembed(v)) == v.

    Raises ValueError when some component is not divisible by the required
    power of p, i.e. the vector is outside xi(G).
    """
    modulus, scales = _embedding_scales(group)
    vector = tuple(int(v) % modulus for v in vector)
    if len(vector) != group.rank:
        raise ValueError(f"vector needs {group.rank} components, got {len(vector)}")
    for i, (v, scale) in enumerate(zip(vector, scales)):
        if v % scale:
            raise ValueError(f"component {i} = {v} is not a multiple of {scale}")
    return tuple(v // s for v, s in zip(vector, scales))


def max_abs_position(config: FiniteConfiguration) -> int:
    return max((abs(p) for p in config.cells), default=0)


def basis_config(rule: LcaRule, index: int) -> FiniteConfiguration:
    """The configuration holding the standard basis vector e_index at cell 0."""
    if not 0 <= index < rule.n:
        raise ValueError(f"basis index {index} out of range for n={rule.n}")
    vec = [0] * rule.n
    vec[index] = 1
    return FiniteConfiguration((rule.modulus.m,) * rule.n, {0: vec})


def spreads(rule: LcaRule, index: int, horizon: int, budget: int = 200) -> bool | None:
    """Semi-decide whether the basis perturbation e_index escapes [-horizon, horizon].

    Iterates the rule on basis_config(index) for up to ``budget`` steps and
    reports True at the first support excursion beyond the horizon.  None is
    indeterminate: no excursion was observed within the budget (in particular
    a perturbation that provably never moves still reports None).
    """
    current = basis_config(rule, index)
    for _ in range(budget):
        current = lca_step(rule, current)
        if not current.cells:
            return None
        if max_abs_position(current) > horizon:
            return True
    return None


def prime_powers(modulus: Modulus) -> tuple[int, ...]:
    return tuple(p**k for p, k in modulus.factorization)


def max_exponent(modulus: Modulus) -> int:
    return max(k for _, k in modulus.factorization)


def nilradical_generator(modulus: Modulus) -> int:
    """Product of the distinct primes dividing m (generates the nilradical)."""
    return math.prod(modulus.primes)


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?x(?:\^(-?\d+))?$")


def parse_laurent(text: str, modulus: Modulus) -> LaurentPoly:
    """Parse the rendering produced by ``str(LaurentPoly)``.

    Accepts sums of ``c``, ``x``, ``c x^e`` and ``x^e`` terms joined by '+',
    e.g. ``"2x^3 + x + 5 + x^-2"``.
    """
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(modulus)
    terms: list[tuple[int, int]] = []
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty term in {text!r}")
        if token.isdigit():
            terms.append((0, int(token)))
            continue
        match = _TERM_RE.match(token)
        if not match:
            raise ValueError(f"cannot parse Laurent term {token!r}")
        coeff = int(match.group(1)) if match.group(1) else 1
        exponent = int(match.group(2)) if match.group(2) else 1
        terms.append((exponent, coeff))
    return LaurentPoly(modulus, terms)


def constant_value(f: LaurentPoly) -> int:
    """The coefficient of x^0."""
    return dict(f.items()).get(0, 0)


def matrix_trace(matrix: RingMatrix) -> Any:
    acc = matrix.ring.zero()
    for i in range(matrix.n):
        acc = acc + matrix.rows[i][i]
    return acc


def group_reduce(group: AbelianGroup, vector: Sequence[int]) -> tuple[int, ...]:
    """The canonical form of a group element: component i mod factors[i]."""
    if len(vector) != group.rank:
        raise ValueError(f"element needs {group.rank} components, got {len(vector)}")
    return tuple(int(v) % q for v, q in zip(vector, group.factors))


def group_order(group: AbelianGroup) -> int:
    return math.prod(group.factors)


def group_elements(group: AbelianGroup):
    return product(*(range(q) for q in group.factors))


def pos_degree(f: LaurentPoly, p: int) -> int:
    """Largest exponent > 0 whose coefficient survives mod p (0 if none)."""
    reduced = f.reduce_mod_prime(p)
    return max(reduced.low + reduced._span() - 1, 0)


def neg_degree(f: LaurentPoly, p: int) -> int:
    """Smallest exponent < 0 whose coefficient survives mod p (0 if none)."""
    return min(f.reduce_mod_prime(p).low, 0)


def shift_configuration(config: FiniteConfiguration, offset: int) -> FiniteConfiguration:
    """The configuration moved ``offset`` cells to the right."""
    return FiniteConfiguration(config.orders, {p + offset: v for p, v in config.cells.items()})


def combination(*terms: tuple[int, FiniteConfiguration]) -> FiniteConfiguration:
    """The sum of c * config over the (c, config) terms, all over one alphabet."""
    orders = terms[0][1].orders
    cells: dict[int, list[int]] = {}
    for c, config in terms:
        if config.orders != orders:
            raise ValueError("configurations live over different alphabets")
        for pos, vec in config.cells.items():
            acc = cells.setdefault(pos, [0] * len(orders))
            for i, v in enumerate(vec):
                acc[i] += c * v
    return FiniteConfiguration(orders, cells)


def constant_matrix(ring, rows: Sequence[Sequence[int]]) -> RingMatrix:
    """The matrix of the constants ``rows`` over a Laurent ring handle."""
    return RingMatrix(ring, [[ring.from_int(v) for v in row] for row in rows])


def apply_endomorphism(endomorphism: GroupEndomorphism, vector: Sequence[int]) -> tuple[int, ...]:
    """The image of a group element under an endomorphism."""
    vec = group_reduce(endomorphism.group, vector)
    return tuple(sum(map(mul, row, vec)) % q
                 for row, q in zip(endomorphism.matrix, endomorphism.group.factors))


def term_map_associated_matrix(rule: LcaRule) -> RingMatrix:
    """A(X) = sum_z A_z X^(-z) with entry (i, j) built from the map
    {r - k: M_k[i][j]} over the offset matrices M_k."""
    radius, mats = rule.radius, rule.matrices
    return RingMatrix(LaurentRing(rule.modulus), [
        [LaurentPoly._from_terms(rule.modulus,
                                 {radius - k: mat[i][j] for k, mat in enumerate(mats)})
         for j in range(rule.n)] for i in range(rule.n)])


def step_through_constructor(matrices: Sequence, radius: int,
                             config: FiniteConfiguration) -> FiniteConfiguration:
    """The kernel of `lca.stepper` with its unreduced sums handed to the public
    FiniteConfiguration constructor, which reduces and filters the cells."""
    rank = len(config.orders)
    acc: dict[int, list[int]] = {}
    for pos, vec in config.cells.items():
        target = pos + radius
        for mat in matrices:
            out = acc.setdefault(target, [0] * rank)
            for i, row in enumerate(mat):
                out[i] += sum(map(mul, row, vec))
            target -= 1
    return FiniteConfiguration(config.orders, acc)


def normalized_by_passes(low: int, values: list[int], width: int,
                         layout: tuple[int, int, int]) -> tuple[int, tuple[int, ...]]:
    """The normalization of `power_semigroup._stepper` on the entries
    themselves, as a separate pass over reduced values: each value is
    cut into its ``blocks`` entries of ``block`` slots, the lowest slot is
    the min over the nonzero entries of their lowest set bit and the highest
    their largest bit length, and every entry is shifted on its own before
    the values are put together again."""
    blocks, block, span = layout
    bits = 8 * width
    stride, whole = bits * block, (1 << bits * block) - 1
    cut = [[v >> stride * r & whole for r in range(blocks)] if blocks > 1 else [v]
           for v in values]
    lowest = min([(e & -e).bit_length() for entries in cut for e in entries if e], default=0)
    if not lowest:
        return 0, tuple(values)
    slots = (lowest - 1) // bits
    if slots:
        low += slots
        cut = [[e >> bits * slots for e in entries] for entries in cut]
        values = [sum([e << stride * r for r, e in enumerate(entries)]) for entries in cut]
    top = (max([e.bit_length() for entries in cut for e in entries]) - 1) // bits
    if top + span > block:
        raise _Widen
    return low, tuple(values)


def reduced_by_passes(reduce: SlotReducer, values: list[int]) -> list[int]:
    """Every slot of ``values`` reduced mod m with ``reduce``'s shift and
    magic number and a mask built on each call, as many slots as the longest
    value has."""
    bits = 8 * reduce.width
    slots = max(map(int.bit_length, values)) // bits + 1
    mask = ((1 << bits - reduce._shift) - 1) * (((1 << bits * slots) - 1) // ((1 << bits) - 1))
    return [v - reduce.m * ((v * reduce._magic >> reduce._shift) & mask) for v in values]


def packed_products(values: Sequence[int], cols: Sequence[Sequence[int]]) -> list[int]:
    """One integer dot product per row of len(cols) values and column."""
    n = len(cols)
    return [sum(map(mul, values[i:i + n], col)) for i in range(0, len(values), n) for col in cols]


def step_by_passes(factor: tuple, reduce: SlotReducer, layout: tuple[int, int, int],
                   state: tuple) -> tuple[int, tuple[int, ...]]:
    """`power_semigroup._stepper`'s step as three passes: `packed_products`,
    `reduced_by_passes` and `normalized_by_passes`."""
    (low, values), (lo, cols) = state, factor
    return normalized_by_passes(low + lo, reduced_by_passes(reduce, packed_products(values, cols)),
                                reduce.width, layout)


def exponent_window(matrix: RingMatrix) -> tuple[int, int]:
    """[min(0, (nk-1) lo), max(0, (nk-1) hi)] for A's exponents in [lo, hi]
    and k the largest prime exponent of m: it holds every exponent of every
    power of an integral A (see the `power_semigroup` module docstring), so
    the packed walks' doubling blocks stop widening."""
    entries = [a for row in matrix.rows for a in row if a.coeffs]
    lo = min([a.low for a in entries], default=0)
    hi = max([a.low + a._span() - 1 for a in entries], default=0)
    steps = matrix.n * max([k for _, k in matrix.ring.modulus.factorization]) - 1
    return min(0, steps * lo), max(0, steps * hi)
