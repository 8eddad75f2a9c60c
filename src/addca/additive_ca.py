"""Additive cellular automata over finite abelian groups.

A finite abelian group G splits as a product of primary cyclic factors
Z/p^k.  An additive CA over G (local rule a sum of endomorphisms applied to
the neighborhood) decomposes accordingly into one additive CA per prime, and
each single-prime component embeds into a *linear* CA over (Z/p^k1)^n, where
k1 is the largest exponent of that prime:

* elements embed coordinatewise by xi(h)^i = h^i * p^(k1 - k_i);
* the local endomorphisms delta_z turn into matrices with entries
  a_{i,j} = p^(k_j - k_i) * delta_z(e_j)^i, where a negative exponent means
  exact integer division (guaranteed by the homomorphism condition).

The embedding Xi (cellwise xi) intertwines the two global maps,
L o Xi = Xi o F, and the dynamical properties of F are read off the linear
automaton L: sensitivity is the OR over prime components, while injectivity,
surjectivity and transitivity are the ANDs.  The tests validate the whole
construction through the commutation identity rather than fixed literals.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .lca import FiniteConfiguration, LcaRule, PropertyReport, analyze_rule, step
from .modring import canonical_matrix, factorize, short_repr


class MalformedEndomorphismError(ValueError):
    """An integer matrix does not define an endomorphism of the group."""


class AbelianGroup(NamedTuple("AbelianGroup", [("factors", tuple)])):
    """A finite abelian group presented as a product of primary cyclic factors.

    ``factors[i]`` is a prime power q_i >= 2 and the group is the product of
    the Z/q_i in the given order; elements are integer vectors with component
    i taken mod q_i.
    """

    __slots__ = ()

    def __new__(cls, factors: Sequence[int]) -> "AbelianGroup":
        factors = tuple(int(q) for q in factors)
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        for q in factors:
            mod = factorize(q)  # raises InvalidModulusError for q < 2
            if len(mod.factorization) != 1:
                raise ValueError(f"factor {short_repr(q)} is not a prime power; split it first")
        return super().__new__(cls, factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({factorize(q).primes[0] for q in self.factors}))

    def prime_exponent(self, index: int) -> tuple[int, int]:
        """(p, k) with factors[index] == p^k."""
        ((p, k),) = factorize(self.factors[index]).factorization
        return p, k


class GroupEndomorphism(NamedTuple("GroupEndomorphism", [("group", AbelianGroup),
                                                         ("matrix", tuple)])):
    """An endomorphism of an AbelianGroup given by an integer matrix.

    Column j is the image of the j-th canonical generator, written in
    generator coordinates; entry (i, j) is stored mod factors[i].  For the
    matrix to define a homomorphism, entry (i, j) must be divisible by
    p^(k_i - k_j) whenever factors i and j share the prime p with k_i > k_j,
    and must vanish when the factors involve different primes.
    """

    __slots__ = ()

    def __new__(cls, group: AbelianGroup, matrix) -> "GroupEndomorphism":
        rank = group.rank
        reduced = canonical_matrix(matrix, group.factors)
        if reduced is None:
            raise MalformedEndomorphismError(f"matrix must be {rank}x{rank}")
        for i in range(rank):
            p_i, k_i = group.prime_exponent(i)
            for j in range(rank):
                p_j, k_j = group.prime_exponent(j)
                entry = reduced[i][j]
                if entry == 0:
                    continue
                if p_i != p_j:
                    raise MalformedEndomorphismError(
                        f"entry ({i},{j}) = {entry} maps a {p_j}-part into a {p_i}-part; "
                        "it must be 0")
                if k_i > k_j and entry % p_i ** (k_i - k_j):
                    raise MalformedEndomorphismError(
                        f"entry ({i},{j}) = {entry} must be divisible by "
                        f"{p_i}^{k_i - k_j} to define a homomorphism")
        return super().__new__(cls, group, reduced)


class AdditiveCaRule(NamedTuple("AdditiveCaRule", [("group", AbelianGroup), ("radius", int),
                                                   ("endomorphisms", tuple)])):
    """A radius-r additive CA on G^Z: F(c)_i = sum_z delta_z(c_{i+z})."""

    __slots__ = ()

    def __new__(cls, group: AbelianGroup, radius: int, endomorphisms) -> "AdditiveCaRule":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        endos = tuple(endomorphisms)
        if len(endos) != 2 * radius + 1:
            raise ValueError(
                f"expected {2 * radius + 1} endomorphisms, got {len(endos)}")
        normalized = []
        for endo in endos:
            if not isinstance(endo, GroupEndomorphism):
                endo = GroupEndomorphism(group, endo)
            elif endo.group != group:
                raise ValueError("endomorphism attached to a different group")
            normalized.append(endo)
        return super().__new__(cls, group, radius, tuple(normalized))

    @property
    def orders(self) -> tuple[int, ...]:
        """The order of each cell component, the group's factors."""
        return self.group.factors

    @property
    def matrices(self) -> tuple:
        """The endomorphisms' matrices; ``matrices[k]`` acts at offset k - radius."""
        return tuple(endo.matrix for endo in self.endomorphisms)


# `lca.step` and `lca.simulate` step both rule kinds: `lca.stepper` reads
# only a rule's radius, orders and matrices.
step_additive = step


# ---------------------------------------------------------------------------
# primary decomposition


class PrimeComponent(NamedTuple):
    """One prime-primary component of an additive CA.

    ``rule`` lives over the factors of the original group that belong to
    ``prime``, sorted by decreasing exponent; ``source_indices[i]`` is the
    original factor index of component coordinate i.
    """

    prime: int
    rule: AdditiveCaRule
    source_indices: tuple[int, ...]


def prime_components(rule: AdditiveCaRule) -> list[PrimeComponent]:
    """Split an additive CA along the primes of its group.

    The cross-prime blocks of every endomorphism are zero (enforced at
    construction), so restricting all matrices to each prime's coordinates
    loses nothing: the original CA is the direct product of the components.
    """
    group = rule.group
    components = []
    for p in group.primes():
        indices = [i for i in range(group.rank) if group.prime_exponent(i)[0] == p]
        # sort by decreasing exponent, stable on the original order
        indices.sort(key=lambda i: -group.prime_exponent(i)[1])
        sub_group = AbelianGroup(tuple(group.factors[i] for i in indices))
        endos = [tuple(tuple(mat[a][b] for b in indices) for a in indices)
                 for mat in rule.matrices]
        components.append(PrimeComponent(
            prime=p,
            rule=AdditiveCaRule(sub_group, rule.radius, tuple(endos)),
            source_indices=tuple(indices),
        ))
    return components


def project_config(config: FiniteConfiguration, component: PrimeComponent) -> FiniteConfiguration:
    """Restrict a configuration over G to the coordinates of one component."""
    idx = component.source_indices
    return FiniteConfiguration(
        component.rule.group.factors,
        {pos: tuple(vec[i] for i in idx) for pos, vec in config.cells.items()},
    )


# ---------------------------------------------------------------------------
# embedding into a linear CA


def _embedding_scales(group: AbelianGroup) -> tuple[int, tuple[int, ...]]:
    """(p^k1, s) for a p-group, where xi scales component i by s_i = p^(k1 - k_i)."""
    if len(group.primes()) != 1:
        raise ValueError("group mixes primes; take prime_components first")
    top = max(group.factors)
    return top, tuple(top // q for q in group.factors)


def embed_config(group: AbelianGroup, config: FiniteConfiguration) -> FiniteConfiguration:
    """Cellwise embedding Xi of a configuration over G into one over (Z/p^k1)^n."""
    modulus, scales = _embedding_scales(group)
    if config.orders != group.factors:
        raise ValueError("configuration does not live over the given group")
    return FiniteConfiguration((modulus,) * group.rank,
                               {pos: tuple(v * s for v, s in zip(vec, scales))
                                for pos, vec in config.cells.items()})


def associated_lca(rule: AdditiveCaRule) -> LcaRule:
    """The linear CA over (Z/p^k1)^n that extends a single-prime additive CA.

    Matrix entry (i, j) at offset z is p^(k_j - k_i) * delta_z(e_j)^i with the
    canonical representative of delta_z(e_j)^i in [0, p^k_i), computed as
    entry * s_i // s_j for the embedding scales s.  When k_i > k_j the
    division is exact: the homomorphism condition makes the entry divisible
    by p^(k_i - k_j) = s_j / s_i.  Correctness is asserted through
    L o Xi = Xi o F in the tests.
    """
    modulus, scales = _embedding_scales(rule.group)
    matrices = tuple(
        tuple(tuple(entry * s_i // s_j % modulus for entry, s_j in zip(row, scales))
              for row, s_i in zip(mat, scales))
        for mat in rule.matrices)
    return LcaRule(factorize(modulus), rule.group.rank, rule.radius, matrices)


# ---------------------------------------------------------------------------
# decisions


def decide_properties(rule: AdditiveCaRule) -> PropertyReport:
    """Dynamical properties of an additive CA via its prime components.

    Each single-prime component delegates to the linear deciders through the
    embedding; the verdicts combine as OR for sensitivity and AND for
    injectivity, surjectivity and transitivity (a finite product of additive
    CA is transitive iff every factor is, transitivity and mixing being
    equivalent here).
    """
    components = prime_components(rule)
    reports = [(c.prime, analyze_rule(associated_lca(c.rule))) for c in components]
    sensitive = any(rep.sensitive for _, rep in reports)
    injective = all(rep.injective for _, rep in reports)
    surjective = all(rep.surjective for _, rep in reports)
    transitive = all(rep.transitive for _, rep in reports)
    notes: dict[str, str] = {}
    for prime, rep in reports:
        for key, text in rep.notes.items():
            notes[f"p={prime}: {key}"] = text
    return PropertyReport(
        sensitive=sensitive,
        equicontinuous=not sensitive,
        injective=injective,
        surjective=surjective,
        transitive=transitive,
        notes=notes,
    )
