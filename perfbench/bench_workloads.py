"""Seeded workloads for the addca benchmark, with their output checks.

A workload is a list of *rounds*; a round is a list of items, and every
round of one workload holds the same mix of item classes.  The measuring
loop in ``run.py`` only ever stops between rounds, so a run of any length
sees the same mix and throughput stays comparable across runs and seeds.

Each item has ``run()``, the timed call into addca, and ``record(result)``,
which checks the result outside the timed region.  Checks never trust the
code under test for the expected answer: scalar rules get closed-form
verdicts, matrices are integral or non-integral by construction, and
trajectories are compared with ``A(X)^t * P_c`` and with the embedding
identity of the additive reduction.

addca functions are always looked up through their module at call time
(``lca.analyze_rule(...)``), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

from addca import additive_ca, cli, laurent, lca, modring, polymat, power_semigroup

PROPERTIES = ("sensitive", "equicontinuous", "injective", "surjective", "transitive")

SURVEY_MODULI = (2, 3, 4, 5, 6)
SURVEY_PAIR_MODULI = (2, 3, 4, 6, 8, 9)
SURVEY_PAIRS_PER_MODULUS = 4
# Additive groups as (prime, exponent) factors: mixed primes and exponents.
SURVEY_GROUPS = (
    ((2, 2), (2, 1), (3, 1)),
    ((3, 2), (3, 1)),
    ((2, 3), (2, 1), (3, 1)),
    ((5, 2), (5, 1), (2, 1)),
)
# A 20 s run covers about 75 rounds; distinct rounds keep its slowest
# items from being a few rules repeated.
SURVEY_ROUNDS = 96

# (m, n, copies per round).  Pairs that cost seconds per rule are left out
# (m=3 or 6 with n >= 5).  By cost the 41 items of a round fall into bands
# of 33 (n=4 over Z/2, Z/4), 3 (n=5), 2 (n=4 over Z/3, Z/6) and 3 (n=6).
# The weights put the median inside the first band and the tail (the
# 11th-largest of the 250-350 items of a 20 s run) inside the last, not on
# a boundary between bands.  Rules of the first band cost 2-20 ms each, so
# the median needs a few hundred of them to vary little from seed to seed;
# they add a tenth to the time of a round.
WIDE_CLASSES = (
    (2, 4, 18), (4, 4, 15), (3, 4, 1), (6, 4, 1),
    (2, 5, 2), (4, 5, 1), (2, 6, 2), (4, 6, 1),
)
WIDE_ROUNDS = 32

POWERS_MODULI = (4, 8, 9, 25)
POWERS_DIMENSIONS = (2, 3, 4)
POWERS_DOUBLINGS = 6
# Integral matrices per round of these classes; one of every other class.
# Item costs spread from 1 ms to 250 ms, so with one matrix per class the
# median falls where items are sparse and moves by 10-20% from seed to seed.
# Integral n=3 matrices over Z/9 sit in the middle of that range and most
# cost 15-20 ms, so their copies hold the median and cost a quarter of a
# round.
POWERS_INTEGRAL_COPIES = {(9, 3): 20}
POWERS_ROUNDS = 16

SIMULATE_STEPS = 256        # trajectory length before a lane restarts
SIMULATE_WIDTH = 128        # support width of the dense initial configurations
SIMULATE_CHECKPOINTS = (1, 16, 64)
SIMULATE_GROUP = ((2, 2), (2, 1), (3, 1), (3, 2))


class ItemFailure(Exception):
    """A check on one item's output failed."""


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workload container


class Workload:
    """Rounds of items plus what the measuring loop and the report need."""

    def __init__(self, name: str, corpus: list) -> None:
        self.name = name
        self.corpus = corpus          # the generated inputs, as plain data
        self.rounds: list[list] = []
        self.failures: list[str] = []
        self.verdicts: list = []      # n >= 2 verdicts of round 0, in item order
        self.cells_in = 0             # simulate: input support summed over steps

    @property
    def corpus_digest(self) -> str:
        return _digest(self.corpus)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def verdict_digest(self) -> str | None:
        return _digest(self.verdicts) if self.verdicts else None


class Item:
    """One timed call; subclasses define ``run`` and ``check``."""

    kind = "item"

    def __init__(self, workload: Workload, label: str, first_round: bool) -> None:
        self.workload = workload
        self.label = label
        self.first_round = first_round

    def run(self):
        raise NotImplementedError

    def check(self, result) -> object:
        """Raise ItemFailure on a wrong result; return the verdict to digest."""
        raise NotImplementedError

    def record(self, result) -> bool:
        """Check one result outside the timed region; False if the item failed."""
        if isinstance(result, BaseException):
            self.workload.fail(f"{self.label}: raised {type(result).__name__}: {result}")
            return False
        try:
            verdict = self.check(result)
        except ItemFailure as err:
            self.workload.fail(f"{self.label}: {err}")
            return False
        if self.first_round and verdict is not None:
            # Digest round 0 once, also when a long run cycles back to it.
            self.first_round = False
            self.workload.verdicts.append((self.label, verdict))
        return True


def _flags(report) -> tuple:
    return tuple(bool(getattr(report, name)) for name in PROPERTIES)


def _check_invariants(flags: dict) -> None:
    if flags["sensitive"] == flags["equicontinuous"]:
        raise ItemFailure("sensitive must equal not equicontinuous")
    if flags["injective"] and not flags["surjective"]:
        raise ItemFailure("injective but not surjective")
    if flags["transitive"] and not flags["surjective"]:
        raise ItemFailure("transitive but not surjective")


def _primes(m: int) -> list[int]:
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]


# ---------------------------------------------------------------------------
# decision items


class ScalarRuleItem(Item):
    """analyze_rule on a scalar radius-1 rule, checked against closed forms."""

    kind = "scalar"

    def __init__(self, workload, m: int, coeffs: tuple) -> None:
        super().__init__(workload, f"scalar m={m} {coeffs}", False)
        self.rule = lca.scalar_rule(m, coeffs)
        self.expected = self.closed_form(m, coeffs)

    @staticmethod
    def closed_form(m: int, coeffs: tuple) -> tuple:
        centre = len(coeffs) // 2
        live = [[i for i, a in enumerate(coeffs) if a % p] for p in _primes(m)]
        surjective = all(live)
        injective = all(len(alive) == 1 for alive in live)
        equicontinuous = all(alive in ([], [centre]) for alive in live)
        transitive = all(any(i != centre for i in alive) for alive in live)
        return (not equicontinuous, equicontinuous, injective, surjective, transitive)

    def run(self):
        return lca.analyze_rule(self.rule)

    def check(self, report):
        got = _flags(report)
        if got != self.expected:
            raise ItemFailure(f"verdicts {got} differ from closed form {self.expected}")
        return None


class RuleItem(Item):
    """analyze_rule on a matrix rule (n >= 2): invariants plus the digest."""

    kind = "rule"

    def __init__(self, workload, rule, label: str, first_round: bool) -> None:
        super().__init__(workload, label, first_round)
        self.rule = rule

    def run(self):
        return lca.analyze_rule(self.rule)

    def check(self, report):
        _check_invariants(dict(zip(PROPERTIES, _flags(report))))
        return _flags(report)


class AdditiveItem(RuleItem):
    """decide_properties on an additive rule over a mixed finite group."""

    kind = "additive"

    def run(self):
        return additive_ca.decide_properties(self.rule)


class CliItem(Item):
    """One in-process ``addca <verb> <spec> --format json`` call."""

    kind = "cli"

    def __init__(self, workload, verb: str, path: Path, first_round: bool) -> None:
        super().__init__(workload, f"cli {verb} {path.name}", first_round)
        self.argv = [verb, str(path), "--format", "json"]
        self.verb = verb

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        if code != 0:
            raise ItemFailure(f"exit code {code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ItemFailure(f"output is not JSON: {err}") from None
        if self.verb == "analyze":
            flags = {name: payload["report"][name] for name in PROPERTIES}
            _check_invariants(flags)
            return tuple(flags.values())
        if not isinstance(payload.get("finite"), bool) or "chi" not in payload:
            raise ItemFailure("charpoly output lacks chi or a finite verdict")
        return payload["chi"], payload["finite"]


# ---------------------------------------------------------------------------
# rule generators


def random_linear_rule(rng: random.Random, m: int, n: int) -> tuple:
    return tuple(tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(n))
                 for _ in range(3))


def random_endomorphisms(rng: random.Random, factors: tuple) -> tuple:
    """Radius-1 endomorphism matrices that are homomorphisms by construction:
    zero across primes, and divisible by p^(k_i - k_j) when k_i > k_j."""
    out = []
    for _ in range(3):
        rows = []
        for p_i, k_i in factors:
            rows.append(tuple(
                0 if p_i != p_j else p_i ** max(0, k_i - k_j) * rng.randrange(p_i**k_i)
                for p_j, k_j in factors))
        out.append(tuple(rows))
    return tuple(out)


def random_automorphism(rng: random.Random, factors: tuple) -> tuple:
    """A unit on the diagonal and multiples of p elsewhere within each prime:
    the identity on G/pG up to units, hence an automorphism of G."""
    return tuple(tuple(
        _random_unit(rng, p_i, p_i**k_i) if i == j
        else 0 if p_i != p_j else p_i ** max(1, k_i - k_j) * rng.randrange(p_i**k_i)
        for j, (p_j, k_j) in enumerate(factors)) for i, (p_i, k_i) in enumerate(factors))


def _random_unit(rng: random.Random, p: int, q: int) -> int:
    return rng.choice([u for u in range(1, q) if u % p])


def additive_rule(factors: tuple, endos: tuple):
    group = additive_ca.AbelianGroup(tuple(p**k for p, k in factors))
    return additive_ca.AdditiveCaRule(group, 1, endos)


def linear_rule(m: int, n: int, matrices: tuple):
    return lca.LcaRule(modring.factorize(m), n, 1, matrices)


# ---------------------------------------------------------------------------
# survey and wide


def build_survey(seed: int, root: Path) -> Workload:
    rng = random.Random(f"addca-bench/survey/{seed}")
    specs = sorted((root / "specs").glob("*.json"))
    verbs = []
    for path in specs:
        document = cli.load_spec(str(path))
        verbs.append(("analyze", path))
        if document.kind == "linear":
            verbs.append(("charpoly", path))
    corpus: list = [[path.name for path in specs]]
    workload = Workload("survey", corpus)
    # Scalar verdicts are checked against closed forms, not digested, so one
    # set of scalar items serves every round.
    scalars = [ScalarRuleItem(workload, m, coeffs) for m in SURVEY_MODULI
               for coeffs in itertools.product(range(m), repeat=3)]
    for index in range(SURVEY_ROUNDS):
        first = index == 0
        pairs = [(m, random_linear_rule(rng, m, 2)) for m in SURVEY_PAIR_MODULI
                 for _ in range(SURVEY_PAIRS_PER_MODULUS)]
        additives = [(factors, random_endomorphisms(rng, factors))
                     for factors in SURVEY_GROUPS for _ in range(2)]
        corpus.append((pairs, additives))
        items: list[Item] = list(scalars)
        items += [RuleItem(workload, linear_rule(m, 2, mats), f"pair m={m} #{k}", first)
                  for k, (m, mats) in enumerate(pairs)]
        items += [AdditiveItem(workload, additive_rule(factors, endos), f"additive #{k}", first)
                  for k, (factors, endos) in enumerate(additives)]
        items += [CliItem(workload, verb, path, first) for verb, path in verbs]
        # Interleave the classes so that every stretch of a round has the same mix.
        rng.shuffle(items)
        workload.rounds.append(items)
    return workload


def build_wide(seed: int, root: Path) -> Workload:
    rng = random.Random(f"addca-bench/wide/{seed}")
    corpus = []
    workload = Workload("wide", corpus)
    for index in range(WIDE_ROUNDS):
        specs = [(m, n, random_linear_rule(rng, m, n))
                 for m, n, copies in WIDE_CLASSES for _ in range(copies)]
        corpus.append(specs)
        workload.rounds.append([
            RuleItem(workload, linear_rule(m, n, mats), f"wide m={m} n={n} #{k}", index == 0)
            for k, (m, n, mats) in enumerate(specs)])
    return workload


# ---------------------------------------------------------------------------
# powers


def _unit_triangular(rng: random.Random, m: int, n: int, lower: bool) -> list:
    return [[rng.randrange(m) if (j < i if lower else j > i) else int(i == j)
             for j in range(n)] for i in range(n)]


def _invertible(rng: random.Random, m: int, n: int) -> tuple:
    """A random matrix mod m with determinant 1: lower times upper unit triangular."""
    product = _int_matmul(_unit_triangular(rng, m, n, True), _unit_triangular(rng, m, n, False), m)
    return tuple(tuple(row) for row in product)


def _int_matmul(a: list, b: list, m: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]


def _unit_triangular_inverse(t: list, m: int) -> list:
    """(I + N)^-1 = sum_{k < n} (-N)^k for a nilpotent strict part N."""
    n = len(t)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    minus_n = [[(-t[i][j] if i != j else 0) % m for j in range(n)] for i in range(n)]
    total, power = ident, ident
    for _ in range(n - 1):
        power = _int_matmul(power, minus_n, m)
        total = [[(x + y) % m for x, y in zip(r1, r2)] for r1, r2 in zip(total, power)]
    return total


def _primitive_roots(p: int) -> list[int]:
    return [g for g in range(1, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1]


def integral_entries(rng: random.Random, m: int, p: int, n: int) -> list:
    """Entries {exponent: coefficient} of an integral Laurent matrix.

    The constant part is S (D + U) S^-1: D has primitive roots mod p on the
    diagonal, U is strictly upper triangular and S is a product of unit
    triangular matrices, so it is dense while its power orbit has a length
    set by (m, n) more than by the seed.  The rest of each entry is a
    nonzero multiple of p on two of the exponents -2..2, so every entry is
    constant mod p and the matrix is integral over Z/m.
    """
    roots = _primitive_roots(p)
    upper = [[(rng.choice(roots) + p * rng.randrange(m // p)) % m if i == j
              else rng.randrange(m) if j > i else 0 for j in range(n)] for i in range(n)]
    low = _unit_triangular(rng, m, n, True)
    high = _unit_triangular(rng, m, n, False)
    s = _int_matmul(low, high, m)
    s_inv = _int_matmul(_unit_triangular_inverse(high, m), _unit_triangular_inverse(low, m), m)
    constant = _int_matmul(_int_matmul(s, upper, m), s_inv, m)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = {0: constant[i][j]}
            for e in rng.sample((-2, -1, 1, 2), 2):
                entry[e] = p * (1 + rng.randrange(m // p - 1))
            row.append(entry)
        rows.append(row)
    return rows


def nonintegral_entries(rng: random.Random, m: int, p: int, n: int) -> list:
    """Random entries on exponents -1..1 whose trace is non-constant mod p,
    so the coefficient a_(n-1) = -trace is not integral."""
    while True:
        rows = [[{e: rng.randrange(m) for e in (-1, 0, 1)} for _ in range(n)] for _ in range(n)]
        if any(sum(rows[i][i][e] for i in range(n)) % p for e in (-1, 1)):
            return rows


def laurent_matrix(m: int, entries: list):
    modulus = modring.factorize(m)
    return polymat.RingMatrix(laurent.LaurentRing(modulus),
                              [[laurent.LaurentPoly(modulus, cell) for cell in row]
                               for row in entries])


class IntegralItem(Item):
    """Integral by construction: finite verdict, closed orbit, divisibility witness."""

    kind = "integral"

    def __init__(self, workload, matrix, label: str, first_round: bool) -> None:
        super().__init__(workload, label, first_round)
        self.matrix = matrix

    def run(self):
        verdict = power_semigroup.decide_finite_powers(self.matrix)
        orbit = power_semigroup.detect_orbit(self.matrix)
        exponent = power_semigroup.divisibility_witness(self.matrix)
        return verdict, orbit, exponent

    def check(self, result):
        verdict, orbit, exponent = result
        if not verdict.finite:
            raise ItemFailure(f"integral matrix judged infinite: {verdict.reason}")
        if orbit is None or exponent is None:
            raise ItemFailure("orbit or divisibility witness indeterminate")
        return orbit.preperiod, orbit.period, exponent


class GrowthItem(Item):
    """Non-integral by construction: infinite verdict, strictly growing degrees."""

    kind = "growth"

    def __init__(self, workload, matrix, label: str, first_round: bool) -> None:
        super().__init__(workload, label, first_round)
        self.matrix = matrix

    def run(self):
        verdict = power_semigroup.decide_finite_powers(self.matrix)
        profile = power_semigroup.sampled_degree_growth(self.matrix, POWERS_DOUBLINGS)
        return verdict, profile

    def check(self, result):
        verdict, profile = result
        if verdict.finite:
            raise ItemFailure("non-integral matrix judged finite")
        if any(b <= a for a, b in zip(profile, profile[1:])):
            raise ItemFailure(f"degree profile {profile} is not strictly growing")
        return verdict.failing_index, verdict.failing_prime, tuple(profile)


def build_powers(seed: int, root: Path) -> Workload:
    rng = random.Random(f"addca-bench/powers/{seed}")
    corpus = []
    workload = Workload("powers", corpus)
    for index in range(POWERS_ROUNDS):
        first = index == 0
        items: list[Item] = []
        for m in POWERS_MODULI:
            p = _primes(m)[0]
            for n in POWERS_DIMENSIONS:
                goods = [integral_entries(rng, m, p, n)
                         for _ in range(POWERS_INTEGRAL_COPIES.get((m, n), 1))]
                bad = nonintegral_entries(rng, m, p, n)
                corpus.append((m, n, goods, bad))
                items.extend(IntegralItem(workload, laurent_matrix(m, good),
                                          f"integral m={m} n={n} #{k}", first)
                             for k, good in enumerate(goods))
                items.append(GrowthItem(workload, laurent_matrix(m, bad),
                                        f"growth m={m} n={n}", first))
        rng.shuffle(items)
        workload.rounds.append(items)
    return workload


# ---------------------------------------------------------------------------
# simulate


def series(config, modulus) -> list:
    """P_c(X) as a column of Laurent polynomials, one per vector component."""
    rank = len(config.orders)
    return [laurent.LaurentPoly(modulus, {pos: vec[j] for pos, vec in config.cells.items()})
            for j in range(rank)]


class Lane:
    """One trajectory that restarts from its initial configuration every
    SIMULATE_STEPS steps, so each round does the same work."""

    def __init__(self, name: str, rule, initial, additive: bool) -> None:
        self.name = name
        self.rule = rule
        self.initial = initial
        self.additive = additive
        self.current = initial
        self.t = 0
        self.snapshots: dict[int, object] = {}


class StepItem(Item):
    """One step call on a lane; checks run on the lane's checkpoints."""

    kind = "step"

    def __init__(self, workload, lane: Lane) -> None:
        super().__init__(workload, f"step {lane.name}", False)
        self.lane = lane

    def run(self):
        lane = self.lane
        if lane.additive:
            return additive_ca.step_additive(lane.rule, lane.current)
        return lca.step(lane.rule, lane.current)

    def record(self, result) -> bool:
        lane = self.lane
        before, t = lane.current, lane.t + 1
        self.workload.cells_in += len(before.cells)
        ok = super().record(result)
        if ok:
            lane.current = result
        lane.t = t
        if t == SIMULATE_STEPS:
            lane.current, lane.t = lane.initial, 0
        if ok and t in SIMULATE_CHECKPOINTS:
            ok = self._checkpoint(before, result, t)
        return ok

    def check(self, result):
        if self.lane.name == "rule90":
            live = len(result.cells)
            if live != 2 ** bin(self.lane.t + 1).count("1"):
                raise ItemFailure(f"{live} live cells at step {self.lane.t + 1}")
        return None

    def _checkpoint(self, before, after, t: int) -> bool:
        lane = self.lane
        try:
            if t in lane.snapshots:
                if lane.snapshots[t] != after:
                    raise ItemFailure(f"step {t} differs from the first trajectory")
                return True
            if lane.additive:
                check_embedding(lane.rule, before, after)
            else:
                check_matrix_power(lane.rule, lane.initial, after, t)
        except ItemFailure as err:
            self.workload.fail(f"{self.label}: {err}")
            return False
        lane.snapshots[t] = after
        return True


def check_matrix_power(rule, initial, after, t: int) -> None:
    """P_{F^t(c)} == A(X)^t * P_c."""
    power = lca.associated_matrix(rule) ** t
    start = series(initial, rule.modulus)
    zero = laurent.LaurentPoly.zero(rule.modulus)
    expected = []
    for row in power.rows:
        acc = zero
        for a, b in zip(row, start):
            acc = acc + a * b
        expected.append(acc)
    if expected != series(after, rule.modulus):
        raise ItemFailure(f"F^{t}(c) disagrees with A(X)^{t} * P_c")


def check_embedding(rule, before, after) -> None:
    """L o Xi == Xi o F on each prime component of the additive rule."""
    for component in additive_ca.prime_components(rule):
        group = component.rule.group
        linear = additive_ca.associated_lca(component.rule)
        left = additive_ca.embed_config(group, additive_ca.project_config(after, component))
        right = lca.step(linear, additive_ca.embed_config(
            group, additive_ca.project_config(before, component)))
        if left != right:
            raise ItemFailure(f"embedding does not commute for p={component.prime}")


def build_simulate(seed: int, root: Path) -> Workload:
    rng = random.Random(f"addca-bench/simulate/{seed}")

    def dense(orders: tuple) -> dict:
        cells = {}
        for pos in range(SIMULATE_WIDTH):
            vec = tuple(rng.randrange(o) for o in orders)
            if not any(vec):
                vec = (1,) + vec[1:]
            cells[pos] = vec
        return cells

    # Invertible outer matrices make every dense support grow by one cell on
    # each side per step, so the work per round does not depend on the seed.
    group = tuple(p**k for p, k in SIMULATE_GROUP)
    n3 = (_invertible(rng, 4, 3), random_linear_rule(rng, 4, 3)[1], _invertible(rng, 4, 3))
    endos = (random_automorphism(rng, SIMULATE_GROUP),
             random_endomorphisms(rng, SIMULATE_GROUP)[1],
             random_automorphism(rng, SIMULATE_GROUP))
    spot = rng.randrange(-100, 100)
    z4_cells, n3_cells, add_cells = dense((4,)), dense((4,) * 3), dense(group)
    corpus = [spot, z4_cells, n3, n3_cells, endos, add_cells]
    lanes = [
        Lane("rule90", lca.scalar_rule(2, (1, 0, 1)),
             lca.FiniteConfiguration((2,), {spot: (1,)}), False),
        Lane("z4dense", lca.scalar_rule(4, (1, 1, 1)),
             lca.FiniteConfiguration((4,), z4_cells), False),
        Lane("n3", linear_rule(4, 3, n3), lca.FiniteConfiguration((4,) * 3, n3_cells), False),
        Lane("additive", additive_rule(SIMULATE_GROUP, endos),
             lca.FiniteConfiguration(group, add_cells), True),
    ]
    workload = Workload("simulate", corpus)
    # One round is a full trajectory of every lane, stepped in lockstep.
    round_items = [StepItem(workload, lane) for _ in range(SIMULATE_STEPS) for lane in lanes]
    workload.rounds.append(round_items)
    return workload


FACTORIES = {
    "survey": build_survey,
    "wide": build_wide,
    "powers": build_powers,
    "simulate": build_simulate,
}
