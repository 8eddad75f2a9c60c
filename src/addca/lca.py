"""One-dimensional linear cellular automata over (Z/mZ)^n.

A rule of radius r is given by 2r+1 matrices A_{-r}, ..., A_r over Z/mZ; the
global map sends configuration c to F(c)_i = sum_z A_z c_{i+z}.  Encoding a
configuration as the formal power series P_c(X) = sum_i c_i X^i turns F into
multiplication by the associated Laurent matrix

    A(X) = sum_z A_z X^(-z),

and every dynamical question handled here reduces to algebra on A(X):

* sensitivity/equicontinuity: F is equicontinuous iff the powers of A(X)
  form a finite set, i.e. iff A(X) is integral over Z/mZ (the dichotomy --
  there is nothing between equicontinuity and sensitivity);
* surjectivity: det A(X) must be nonzero mod every prime p | m;
* injectivity: det A(X) must be a single monomial mod every prime p | m;
* transitivity: F must be surjective and, for every prime p | m, the
  characteristic polynomial of A(X) mod p must have no root of unity among
  its roots -- exactly the obstruction to some F^k - I failing surjectivity.
  Write chi mod p = sum_e x^e g_e(t) with x-slices g_e in F_p[t].  A root of
  unity is algebraic over F_p while x is transcendental, so it is a root of
  chi mod p iff it is a root of every g_e, i.e. of G_p = gcd_e g_e.  Every
  nonzero element of the algebraic closure of F_p is a root of unity, and
  surjectivity keeps t = 0 from being a root, so the test is G_p = 1.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_, mod, mul, rshift
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .laurent import LaurentPoly, LaurentRing
from .modring import Modulus, canonical_matrix, factorize
from .polymat import CharPoly, RingMatrix, char_poly, determinant
from .power_semigroup import decide_finite_powers


# ---------------------------------------------------------------------------
# rules and configurations


class LcaRule(NamedTuple("LcaRule", [("modulus", Modulus), ("n", int), ("radius", int),
                                     ("matrices", tuple)])):
    """A radius-r linear CA rule on (Z/mZ)^n: one n x n matrix per offset.

    ``matrices[k]`` is the matrix A_z for z = k - radius, entries canonical
    residues in [0, m).
    """

    __slots__ = ()

    def __new__(cls, modulus: Modulus, n: int, radius: int, matrices) -> "LcaRule":
        if n < 1:
            raise ValueError("alphabet rank n must be >= 1")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        mats = tuple(matrices)
        if len(mats) != 2 * radius + 1:
            raise ValueError(
                f"expected {2 * radius + 1} matrices for radius {radius}, got {len(mats)}"
            )
        normalized = tuple(canonical_matrix(mat, (modulus.m,) * n) for mat in mats)
        if None in normalized:
            raise ValueError(f"each local matrix must be {n}x{n}")
        return super().__new__(cls, modulus, n, radius, normalized)

    @property
    def orders(self) -> tuple[int, ...]:
        """The order of each cell component, (m,) * n."""
        return (self.modulus.m,) * self.n


def scalar_rule(m: int, coefficients: Sequence[int]) -> LcaRule:
    """Convenience for n = 1: a rule from the 2r+1 scalar coefficients."""
    if len(coefficients) % 2 == 0:
        raise ValueError("need an odd number of coefficients (centered window)")
    radius = len(coefficients) // 2
    return LcaRule(factorize(m), 1, radius, tuple(((c,),) for c in coefficients))


class FiniteConfiguration:
    """A finitely supported configuration; cell i holds a vector mod orders.

    ``orders`` gives the modulus of each vector component (all equal to m for
    plain LCA configurations; additive-CA configurations reuse this class
    with mixed component orders).  Zero cells are never stored.
    """

    __slots__ = ("orders", "cells")

    def __init__(self, orders: Sequence[int],
                 cells: Mapping[int, Sequence[int]] | Iterable[tuple[int, Sequence[int]]] = ()):
        orders = tuple(int(o) for o in orders)
        items = cells.items() if isinstance(cells, Mapping) else cells
        data: dict[int, tuple[int, ...]] = {}
        for pos, vec in items:
            vec = tuple(vec)
            if len(vec) != len(orders):
                raise ValueError(f"cell at {pos} has {len(vec)} components, expected {len(orders)}")
            vec = tuple(int(v) % o for v, o in zip(vec, orders))
            if any(vec):
                data[int(pos)] = vec
        self.orders = orders
        self.cells = data

    @classmethod
    def _canonical(cls, orders: tuple[int, ...],
                   cells: dict[int, tuple[int, ...]]) -> "FiniteConfiguration":
        """A configuration of cells that are already reduced and nonzero, as
        the constructor stores them, taken without a check or a copy."""
        config = cls.__new__(cls)
        config.orders = orders
        config.cells = cells
        return config

    def cropped(self, reach: int) -> "FiniteConfiguration":
        """This configuration with every cell outside -reach .. reach zeroed."""
        cells = self.cells
        if not cells or -reach <= min(cells) and max(cells) <= reach:
            return self
        return FiniteConfiguration._canonical(
            self.orders, {pos: vec for pos, vec in cells.items() if -reach <= pos <= reach})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteConfiguration):
            return NotImplemented
        return self.orders == other.orders and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.orders, frozenset(self.cells.items())))

    def __repr__(self) -> str:
        return f"FiniteConfiguration(orders={self.orders}, cells={dict(sorted(self.cells.items()))})"


# ---------------------------------------------------------------------------
# semantics


def associated_matrix(rule: LcaRule) -> RingMatrix:
    """A(X) = sum_z A_z X^(-z): A_z = ``matrices[k]`` sits at x^(r - k), so
    the flattened offset matrices, last first, zip into one column per entry,
    its canonical coefficients at x^(-r) .. x^r; nothing is summed."""
    modulus, n = rule.modulus, rule.n
    entries = [LaurentPoly._from_slots(modulus, -rule.radius, column) for column in
               zip(*[[c for row in mat for c in row] for mat in reversed(rule.matrices)])]
    return RingMatrix(LaurentRing(modulus), [entries[i:i + n] for i in range(0, n * n, n)])


def step(rule: LcaRule, config: FiniteConfiguration) -> FiniteConfiguration:
    """One synchronous update F(c)_i = sum_z A_z c_{i+z}, that is
    P_F(c) = A(X) * P_c, of a linear or additive rule.  Each call builds a
    `stepper`: a caller that steps repeatedly holds its ``advance`` instead."""
    advance, _ = stepper(rule, config)
    return advance(config)


# Bit budget of a `stepper` group: a cell reads each block of its group's
# product with one shift, which costs the product's length, so a cell's
# work stays linear in the nonzero offsets.
GROUP_BITS = 2048


def stepper(rule: LcaRule, config: FiniteConfiguration) -> tuple[Callable, int]:
    """(advance, k) for a linear or additive rule and a configuration over
    its alphabet: ``advance(c)`` is one step F(c)_i = sum_z M_z c_{i+z} of a
    configuration c over that alphabet, and k is the number of nonzero M_z.

    ``rule.matrices[k]`` is M_(k - radius) and component i of a cell is
    reduced mod ``rule.orders[i]``: (m,) * n for an LcaRule, the group's
    factors for an AdditiveCaRule, the only difference between the two
    steps.  The alphabet is checked and the 2r+1 matrices are scanned here,
    once, so a trajectory that reuses ``advance`` pays O(cells * k) a step,
    whatever the radius.  Entries and components lie below Q = max(orders),
    and a target takes one product per nonzero offset, so its slot i sums at
    most k*n products below (Q-1)^2 and b = bits(k*n*(Q-1)^2) keeps it from
    carrying into slot i+1.  Column j of M_z is entry i in
    bits [i*b, (i+1)*b) of a block of n*b bits; the nonzero offsets are cut
    into groups of consecutive offsets whose blocks fit GROUP_BITS, and the
    blocks of a group sit side by side in one super-column per j.  A cell
    costs one dot product ``sum(map(mul, vec, supers))`` per group, which
    holds M_z vec for every offset z of the group, each slot a sum of n
    products below 2^b, so no block carries into the next; each block is
    read off and added to its target.  Every target is split into its slots
    in one pass at the end, reduced and dropped if it is zero.
    """
    orders = rule.orders
    if config.orders != orders:
        raise ValueError(f"configuration alphabet {config.orders} does not match rule {orders}")
    offsets = [(k - rule.radius, mat) for k, mat in enumerate(rule.matrices) if any(map(any, mat))]
    rank = len(orders)
    top = max(orders) - 1
    width = (len(offsets) * rank * top * top).bit_length()
    block = rank * width
    size = max(1, GROUP_BITS // (block or 1))
    groups = []
    for start in range(0, len(offsets), size):
        run = offsets[start:start + size]
        supers = [sum(row[j] << at * block + i * width
                      for at, (_, mat) in enumerate(run) for i, row in enumerate(mat))
                  for j in range(rank)]
        # F(c)_(pos - z) takes M_z c_pos, so the target of a cell is pos - z.
        groups.append((supers, [(at * block, -z) for at, (z, _) in enumerate(run)]))
    whole, mask = (1 << block) - 1, (1 << width) - 1
    slots = [(i * width, order) for i, order in enumerate(orders)]

    def advance(config: FiniteConfiguration) -> FiniteConfiguration:
        acc: dict[int, int] = {}
        get = acc.get
        for pos, vec in config.cells.items():
            for supers, blocks in groups:
                dots = sum(map(mul, vec, supers))
                for at, shift in blocks:
                    target = pos + shift
                    acc[target] = get(target, 0) + (dots >> at & whole)
        vecs = list(zip(*[map(mod, map(and_, map(rshift, acc.values(), repeat(shift)),
                                       repeat(mask)), repeat(order))
                          for shift, order in slots]))
        cells = dict(compress(zip(acc, vecs), map(any, vecs)))
        return FiniteConfiguration._canonical(orders, cells)

    return advance, len(offsets)


def simulate(rule: LcaRule, config: FiniteConfiguration, steps: int) -> list[FiniteConfiguration]:
    """Trajectory [c, F(c), ..., F^steps(c)] of a linear or additive rule,
    stepped by one `stepper`; a negative ``steps`` raises ValueError."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    advance, _ = stepper(rule, config)
    out = [config]
    for _ in range(steps):
        out.append(advance(out[-1]))
    return out


# ---------------------------------------------------------------------------
# decision procedures


def decide_surjective(rule: LcaRule) -> bool:
    """Surjectivity: det A(X) must not vanish modulo any prime dividing m."""
    det = determinant(associated_matrix(rule))
    return all(not det.reduce_mod_prime(p).is_zero() for p in rule.modulus.primes)


def decide_transitive(rule: LcaRule) -> bool:
    """Topological transitivity via the x-slice gcd certificate.

    F is transitive iff it is surjective and F^k - I stays surjective for all
    k >= 1.  det(A^k - I) mod p vanishes for some k exactly when chi mod p
    has a root of unity among its roots, and those roots are the roots of the
    x-slice gcd G_p in F_p[t] (see the module docstring); a surjective rule
    is therefore transitive iff G_p = 1 for every prime p | m.
    """
    return decide_surjective(rule) and transitivity_obstruction(rule) is None


def transitivity_obstruction(rule: LcaRule) -> tuple[int, list[int]] | None:
    """(p, G_p) for the first prime p | m whose x-slice gcd G_p is not 1.

    G_p is monic, with ascending coefficients in [0, p); None when every
    G_p = 1.  Berkowitz uses only +, - and *, so chi mod p is chi with every
    coefficient reduced mod p: one char_poly serves every prime.
    """
    chi = char_poly(associated_matrix(rule)).coeffs
    for p in rule.modulus.primes:
        slices: dict[int, list[int]] = {}
        for k, coeff in enumerate(chi):
            for e, v in coeff.reduce_mod_prime(p).items():
                slices.setdefault(e, [0] * len(chi))[k] = v
        gcd = slices.pop(0)  # chi is monic, so this slice is too
        for g in slices.values():
            if len(gcd) == 1:
                break
            gcd = _fp_gcd(gcd, g, p)
        if len(gcd) > 1:
            return p, gcd
    return None


class PropertyReport(NamedTuple):
    """Decision summary for one CA, with human-readable witness notes."""

    sensitive: bool
    equicontinuous: bool
    injective: bool
    surjective: bool
    transitive: bool
    notes: dict[str, str]

    def to_dict(self) -> dict:
        return {**self._asdict(), "notes": dict(self.notes)}


def analyze_rule(rule: LcaRule) -> PropertyReport:
    """Run all deciders on one rule and collect witness notes."""
    matrix = associated_matrix(rule)
    verdict = decide_finite_powers(matrix)
    det = determinant(matrix)
    notes = {"sensitivity": verdict.reason}
    monomial_counts = {p: len(det.reduce_mod_prime(p).support()) for p in rule.modulus.primes}
    notes["determinant"] = f"det A(X) = {det}"
    notes["injectivity"] = ", ".join(
        f"{count} monomial(s) mod {p}" for p, count in monomial_counts.items())
    surjective = all(count > 0 for count in monomial_counts.values())
    injective = all(count == 1 for count in monomial_counts.values())
    transitive = decide_transitive(rule)
    if transitive:
        notes["transitivity"] = (
            "surjective and G_p = 1 for every p | m "
            "(G_p: gcd over F_p[t] of the x-slices of chi mod p)")
    elif not surjective:
        notes["transitivity"] = "not surjective"
    else:
        p, gcd = transitivity_obstruction(rule)
        modulus = factorize(p)
        notes["transitivity"] = (
            f"G_{p} = {CharPoly(tuple(LaurentPoly.constant(modulus, c) for c in gcd))} "
            f"(gcd over F_{p}[t] of the x-slices of "
            f"chi mod {p}): a root of order k gives det(A^k - I) = 0 mod {p}")
    return PropertyReport(
        sensitive=not verdict.finite,
        equicontinuous=verdict.finite,
        injective=injective,
        surjective=surjective,
        transitive=transitive,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# dense polynomials over F_p, ascending coefficient lists


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        c = (a[-1] * inv) % p
        k = len(a) - len(b)
        for i in range(len(b)):
            a[k + i] = (a[k + i] - c * b[i]) % p
        _fp_trim(a)
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


# ---------------------------------------------------------------------------
# space-time rendering


def render_trajectory(trajectory: Sequence[FiniteConfiguration], window: int) -> str:
    """Plain-text space-time diagram: one row per time step, cells in [-W, W].

    Cell vectors are comma-joined digit groups; when every visible cell fits
    in one character the grid is printed without separators.  A zero cell's
    text is no longer than any other, so the width pass reads only nonzero
    cells, and each row is built as one string.
    """
    positions = range(-window, window + 1)
    zero = ",".join("0" * len(trajectory[0].orders)) if trajectory else ""
    width = max(1, len(zero))
    for config in trajectory:
        cells = config.cells
        width = max([width] + [len(",".join(map(str, cells[pos])))
                               for pos in positions if pos in cells])
    blank = zero.rjust(width)
    separator = "" if width == 1 else " "
    rows = []
    for config in trajectory:
        cells = config.cells
        rows.append(separator.join([",".join(map(str, cells[pos])).rjust(width)
                                    if pos in cells else blank for pos in positions]))
    return "\n".join(rows)
