"""Command-line front end for rule analysis and simulation.

Rule specifications are JSON documents::

    {"kind": "linear", "m": 2, "n": 1, "radius": 1,
     "matrices": [[[1]], [[0]], [[1]]],
     "initial": {"0": [1]}}

    {"kind": "additive", "group": [4, 2], "radius": 0,
     "matrices": [[[1, 2], [1, 1]]]}

``matrices`` lists one integer matrix per offset, ordered z = -r .. r.  The
optional ``initial`` object maps cell positions (JSON keys, so strings) to
cell vectors and is only needed by ``simulate``.

Verbs: ``analyze`` (property report), ``simulate`` (space-time grid),
``charpoly`` (characteristic polynomial with per-prime integrality verdicts)
and ``orbit`` (power-set shape under a step budget).  Exit codes: 0 success,
2 malformed specification, 3 budget exhausted where an exact answer exists
(``orbit``) or where the grid would cost more than ``MAX_STEP_WORK``
(``simulate``).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import NamedTuple

from .additive_ca import (
    AdditiveCaRule,
    AbelianGroup,
    GroupEndomorphism,
    MalformedEndomorphismError,
    decide_properties,
)
from .lca import (
    FiniteConfiguration,
    LcaRule,
    analyze_rule,
    associated_matrix,
    render_trajectory,
    stepper,
)
from .modring import InvalidModulusError, factorize, short_repr
from .polymat import char_poly
from .power_semigroup import (DEFAULT_BUDGET, char_poly_finiteness, decide_finite_powers,
                              detect_orbit, sampled_degree_growth)


# simulate builds its (steps + 1) x (2 * window + 1) grid in memory, about 70
# bytes a cell, so a larger grid is refused before anything is simulated.
MAX_GRID_CELLS = 10**6

# simulate charges each cell it steps once per nonzero offset matrix of the
# rule, the targets the step adds that cell into (a zero offset matrix costs
# none), and exits 3 once the charge, in cell-offset pairs, passes this limit.
MAX_STEP_WORK = 5 * 10**6


class SpecError(ValueError):
    """A rule specification is malformed; the message names the bad field."""


class SpecDocument(NamedTuple):
    kind: str
    rule: LcaRule | AdditiveCaRule
    initial: FiniteConfiguration | None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _int_field(data: dict, name: str) -> int:
    _expect(name in data, f"missing required field \"{name}\"")
    value = data[name]
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"field \"{name}\" must be an integer, got {short_repr(value)}")
    return value


def _int_matrix(raw, rank: int, where: str) -> tuple:
    _expect(isinstance(raw, list) and len(raw) == rank, f"{where} must be a {rank}x{rank} matrix")
    for i, row in enumerate(raw):
        _expect(isinstance(row, list) and len(row) == rank,
                f"{where} must be a {rank}x{rank} matrix (row {i} is not)")
        for j, entry in enumerate(row):
            _expect(isinstance(entry, int) and not isinstance(entry, bool),
                    f"{where} entry ({i},{j}) must be an integer, got {short_repr(entry)}")
    return tuple(map(tuple, raw))


def _initial_config(data: dict, orders: tuple[int, ...]) -> FiniteConfiguration | None:
    if "initial" not in data:
        return None
    raw = data["initial"]
    _expect(isinstance(raw, dict), "field \"initial\" must map positions to cell vectors")
    cells = {}
    keys: dict[int, str] = {}
    for key, vector in raw.items():
        try:
            position = int(key)
        except ValueError:
            raise SpecError(f"initial position {short_repr(key)} is not an integer") from None
        _expect(position not in keys, f"initial positions {short_repr(keys.get(position))} "
                f"and {short_repr(key)} both name cell {position}")
        keys[position] = key
        _expect(isinstance(vector, list) and len(vector) == len(orders),
                f"initial cell at {short_repr(key)} must be a vector of {len(orders)} integers")
        _expect(all(isinstance(v, int) and not isinstance(v, bool) for v in vector),
                f"initial cell at {short_repr(key)} must contain integers only")
        cells[position] = tuple(vector)
    return FiniteConfiguration(orders, cells)


def parse_spec(data: dict) -> SpecDocument:
    _expect(isinstance(data, dict), "specification must be a JSON object")
    kind = data.get("kind")
    _expect(kind in ("linear", "additive"),
            f"field \"kind\" must be \"linear\" or \"additive\", got {short_repr(kind)}")

    if kind == "linear":
        m = _int_field(data, "m")
        try:
            modulus = factorize(m)
        except InvalidModulusError as err:
            raise SpecError(f"field \"m\": {err}") from None
        n = _int_field(data, "n")
        _expect(n >= 1, f"field \"n\" must be >= 1, got {short_repr(n)}")
    else:
        raw_group = data.get("group")
        _expect(isinstance(raw_group, list) and raw_group
                and all(isinstance(q, int) and not isinstance(q, bool) for q in raw_group),
                "field \"group\" must be a non-empty list of prime-power integers")
        try:
            group = AbelianGroup(tuple(raw_group))
        except ValueError as err:
            raise SpecError(f"field \"group\": {err}") from None
        if "n" in data:
            _expect(_int_field(data, "n") == group.rank,
                    f"field \"n\" disagrees with the group rank {group.rank}")
        n = group.rank

    radius = _int_field(data, "radius")
    _expect(radius >= 0, f"field \"radius\" must be >= 0, got {short_repr(radius)}")
    _expect("matrices" in data, "missing required field \"matrices\"")
    raw_matrices = data["matrices"]
    _expect(isinstance(raw_matrices, list) and len(raw_matrices) == 2 * radius + 1,
            f"field \"matrices\" must list {2 * radius + 1} matrices (offsets -r..r)")
    matrices = []
    for idx, raw in enumerate(raw_matrices):
        where = f"matrices[{idx}] (offset {idx - radius})"
        entries = _int_matrix(raw, n, where)
        if kind == "additive":
            try:
                entries = GroupEndomorphism(group, entries)
            except MalformedEndomorphismError as err:
                raise SpecError(f"{where}: {err}") from None
        matrices.append(entries)
    rule: LcaRule | AdditiveCaRule = (LcaRule(modulus, n, radius, matrices) if kind == "linear"
                                      else AdditiveCaRule(group, radius, matrices))

    return SpecDocument(kind=kind, rule=rule, initial=_initial_config(data, rule.orders))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json would keep only the last value of a key
    given twice, so that is a spec error."""
    data = {}
    for key, value in pairs:
        _expect(key not in data, f"key {short_repr(key)} appears twice in one object")
        data[key] = value
    return data


def load_spec(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise SpecError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise SpecError(f"{path}: not valid UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply") from None
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise SpecError(f"{path}: a number has more than "
                        f"{sys.get_int_max_str_digits()} digits") from None
    try:
        return parse_spec(data)
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from None


def _describe(document: SpecDocument) -> str:
    rule = document.rule
    if document.kind == "linear":
        return f"linear over Z/{rule.modulus.m}, n={rule.n}, radius={rule.radius}"
    factors = " x ".join(f"Z/{q}" for q in rule.group.factors)
    return f"additive over {factors}, radius={rule.radius}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(document: SpecDocument, args: argparse.Namespace) -> int:
    if document.kind == "linear":
        report = analyze_rule(document.rule)
    else:
        report = decide_properties(document.rule)
    if args.format == "json":
        _emit_json({"kind": document.kind, "rule": _describe(document),
                    "report": report.to_dict()})
        return 0
    print(f"rule: {_describe(document)}")
    for name in ("sensitive", "equicontinuous", "injective", "surjective", "transitive"):
        print(f"{name}: {_yesno(getattr(report, name))}")
    if report.notes:
        print("notes:")
        for key, text in report.notes.items():
            print(f"  {key}: {text}")
    return 0


def cmd_simulate(document: SpecDocument, args: argparse.Namespace) -> int:
    if document.initial is None:
        raise SpecError("simulate needs an \"initial\" configuration in the spec")
    _expect(args.steps >= 0, "--steps must be >= 0")
    _expect(args.window >= 0, "--window must be >= 0")
    cells = (args.steps + 1) * (2 * args.window + 1)
    _expect(cells <= MAX_GRID_CELLS,
            f"--steps {args.steps} and --window {args.window} ask for a grid of {cells} cells; "
            f"the limit is {MAX_GRID_CELLS}")
    trajectory = _windowed_trajectory(document.rule, document.initial, args.steps, args.window)
    if trajectory is None:
        print(f"budget exhausted: --steps {args.steps} and --window {args.window} need more "
              f"than {MAX_STEP_WORK} cell-offset pairs (stepped cells times nonzero offset "
              f"matrices); lower --steps", file=sys.stderr)
        return 3
    grid = render_trajectory(trajectory, args.window)
    if args.format == "json":
        _emit_json({"kind": document.kind, "rule": _describe(document),
                    "window": args.window, "rows": grid.split("\n")})
        return 0
    print(grid)
    return 0


def _windowed_trajectory(rule: LcaRule | AdditiveCaRule, initial: FiniteConfiguration,
                         steps: int, window: int) -> list[FiniteConfiguration] | None:
    """Rows 0 .. steps of the trajectory of ``initial``, each cropped to
    [-window, window], or None once the stepped cells, each charged the
    number of the rule's nonzero offset matrices, cost more than
    ``MAX_STEP_WORK``.  One `stepper` serves every row.  A cell of row t + s
    depends only on the cells of row t within radius * s of it, so row t is
    stepped cropped to its light cone |x| <= window + radius * (steps - t),
    which gives every later row exactly on the window."""
    advance, offsets = stepper(rule, initial)
    radius = rule.radius
    current = initial.cropped(window + radius * steps)
    rows = [current.cropped(window)]
    work = 0
    for t in range(1, steps + 1):
        work += offsets * len(current.cells)
        if work > MAX_STEP_WORK:
            return None
        current = advance(current).cropped(window + radius * (steps - t))
        rows.append(current.cropped(window))
    return rows


def cmd_charpoly(document: SpecDocument, args: argparse.Namespace) -> int:
    if document.kind != "linear":
        raise SpecError("charpoly needs a linear spec (additive rules: analyze instead)")
    matrix = associated_matrix(document.rule)
    poly = char_poly(matrix)
    verdict = char_poly_finiteness(poly)
    primes = document.rule.modulus.primes
    coefficients = []
    for index, coeff in enumerate(poly.coeffs):
        reductions = []
        for p in primes:
            reduced = coeff.reduce_mod_prime(p)
            reductions.append({"prime": p, "value": str(reduced),
                               "constant": reduced.is_constant()})
        coefficients.append({"index": index, "value": str(coeff), "reductions": reductions})
    if args.format == "json":
        _emit_json({"rule": _describe(document), "chi": str(poly),
                    "coefficients": coefficients,
                    "finite": verdict.finite, "reason": verdict.reason})
        return 0
    print(f"chi = {poly}")
    for entry in coefficients:
        print(f"a_{entry['index']} = {entry['value']}")
        for red in entry["reductions"]:
            flag = "constant" if red["constant"] else "NOT constant"
            print(f"  mod {red['prime']}: {red['value']} ({flag})")
    print(f"verdict: {'finite' if verdict.finite else 'infinite'} power set "
          f"({verdict.reason})")
    return 0


def cmd_orbit(document: SpecDocument, args: argparse.Namespace) -> int:
    if document.kind != "linear":
        raise SpecError("orbit needs a linear spec")
    _expect(args.budget >= 1, "--budget must be >= 1")
    matrix = associated_matrix(document.rule)
    verdict = decide_finite_powers(matrix)
    if verdict.finite:
        shape = detect_orbit(matrix, args.budget)
        if shape is not None:
            if args.format == "json":
                _emit_json({"rule": _describe(document), "finite": True,
                            "preperiod": shape.preperiod, "period": shape.period,
                            "size": shape.size, "budget": args.budget})
            else:
                print(f"preperiod {shape.preperiod}, period {shape.period}: "
                      f"power set has {shape.size} elements")
            return 0
        # An exact answer exists (the power set is finite) but the budget
        # ran out before the cycle closed.
        if args.format == "json":
            _emit_json({"rule": _describe(document), "finite": True,
                        "indeterminate": True, "budget": args.budget})
        else:
            print(f"indeterminate (budget {args.budget}); coefficient verdict: finite")
        return 3
    # The coefficient verdict is exact, so no walk runs and no budget is spent.
    growth = sampled_degree_growth(matrix)
    if args.format == "json":
        _emit_json({"rule": _describe(document), "finite": False,
                    "reason": verdict.reason, "degree_samples": growth})
    else:
        print(f"infinite power set: {verdict.reason}")
        print(f"  max entry degrees along doubled powers: {growth}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``addca`` argument parser, built on first use and then shared by
    every `main` call in the process; nothing modifies it after it is built."""
    parser = argparse.ArgumentParser(
        prog="addca",
        description="Analyze and simulate linear and additive one-dimensional CA.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="path to a JSON rule specification")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    sub.add_parser("analyze", parents=[common],
                   help="decide sensitivity, injectivity, surjectivity, transitivity")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="print a space-time grid from the spec's initial configuration")
    p_sim.add_argument("--steps", type=int, default=8, help="number of updates (default: 8)")
    p_sim.add_argument("--window", type=int, default=10,
                       help="half-width of the printed window (default: 10)")

    sub.add_parser("charpoly", parents=[common],
                   help="characteristic polynomial with per-prime integrality verdicts")

    p_orb = sub.add_parser("orbit", parents=[common],
                           help="preperiod/period/size of the matrix power set")
    p_orb.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="max matrix multiplications before giving up "
                            f"(default: {DEFAULT_BUDGET})")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "charpoly": cmd_charpoly,
    "orbit": cmd_orbit,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document = load_spec(args.spec)
        return _COMMANDS[args.command](document, args)
    except SpecError as err:
        print(f"spec error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
