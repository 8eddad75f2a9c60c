"""CLI tests: spec parsing diagnostics, exit codes, golden outputs."""

from __future__ import annotations

import argparse
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addca import cli
from addca.cli import MAX_GRID_CELLS, SpecError, build_parser, main, parse_spec
from addca.lca import FiniteConfiguration, LcaRule, PropertyReport, render_trajectory, simulate
from addca.modring import factorize
from addca.power_semigroup import DEFAULT_BUDGET

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path: Path, payload) -> str:
    path = tmp_path / "rule.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_analyze_rule90_text(capsys):
    code, out, err = run_cli(capsys, "analyze", str(SPECS / "rule90.json"))
    assert code == 0 and err == ""
    assert "rule: linear over Z/2, n=1, radius=1" in out
    assert "sensitive: yes" in out
    assert "equicontinuous: no" in out
    assert "injective: no" in out
    assert "surjective: yes" in out
    assert "transitive: yes" in out


def test_analyze_identity_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPECS / "identity.json"))
    assert code == 0
    assert "equicontinuous: yes" in out
    assert "injective: yes" in out
    assert "transitive: no" in out


def test_analyze_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPECS / "rule90.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "seed" not in payload
    report = PropertyReport(**payload["report"])
    assert report.to_dict() == payload["report"]
    assert report.sensitive and report.surjective and report.transitive
    assert not report.injective


def test_analyze_additive_spec(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPECS / "additive42.json"))
    assert code == 0
    assert "rule: additive over Z/4 x Z/2, radius=0" in out
    # delta_0 = [[1,2],[1,1]] is invertible on Z/4 x Z/2 but has no spatial
    # movement, so the rule is an equicontinuous bijection
    assert "equicontinuous: yes" in out
    assert "injective: yes" in out
    assert "surjective: yes" in out
    assert "transitive: no" in out


def test_simulate_rule90_golden(capsys):
    code, out, _ = run_cli(capsys, "simulate", str(SPECS / "rule90.json"),
                           "--steps", "4", "--window", "4")
    assert code == 0
    assert out.splitlines() == [
        "000010000",
        "000101000",
        "001000100",
        "010101010",
        "100000001",
    ]


def test_simulate_shift_diagonal(capsys):
    code, out, _ = run_cli(capsys, "simulate", str(SPECS / "shift.json"),
                           "--steps", "3", "--window", "3")
    assert code == 0
    assert out.splitlines() == [
        "0003000",
        "0030000",
        "0300000",
        "3000000",
    ]


def test_simulate_json_rows(capsys):
    code, out, _ = run_cli(capsys, "simulate", str(SPECS / "rule90.json"),
                           "--steps", "2", "--window", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == ["00100", "01010", "10001"]


def test_simulate_requires_initial(capsys, tmp_path):
    path = write_spec(tmp_path, {"kind": "linear", "m": 4, "n": 1, "radius": 0,
                                 "matrices": [[[1]]]})
    code, _, err = run_cli(capsys, "simulate", path)
    assert code == 2
    assert "initial" in err


def test_simulate_rejects_an_oversized_grid(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", str(SPECS / "rule90.json"),
                             "--steps", "2", "--window", str(10**9))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "--window" in err and "--steps" in err and str(MAX_GRID_CELLS) in err
    # one cell over the limit is refused, before any simulation
    code, _, err = run_cli(capsys, "simulate", str(SPECS / "rule90.json"),
                           "--steps", "0", "--window", str(MAX_GRID_CELLS // 2))
    assert code == 2 and f"grid of {MAX_GRID_CELLS + 1} cells" in err


def _random_simulate_spec(rng: random.Random) -> dict:
    """A random linear rule, or the additive rule of specs/, with a random
    initial configuration that may reach far outside a small window."""
    if rng.random() < 0.25:
        spec = json.loads((SPECS / "additive42.json").read_text())
        rank = len(spec["group"])
    else:
        m, rank, radius = rng.choice((2, 3, 4, 6, 9)), rng.randint(1, 3), rng.randint(0, 2)
        spec = {"kind": "linear", "m": m, "n": rank, "radius": radius,
                "matrices": [[[rng.randrange(m) for _ in range(rank)] for _ in range(rank)]
                             for _ in range(2 * radius + 1)]}
    spec["initial"] = {str(pos): [rng.randrange(5) for _ in range(rank)]
                       for pos in rng.sample(range(-40, 41), rng.randint(0, 6))}
    return spec


def test_simulate_matches_the_full_trajectory(tmp_path):
    """The light-cone crop prints the grid of the whole trajectory, byte for
    byte, on random rules, initial cells and windows."""
    rng = random.Random(2024)
    for _ in range(60):
        spec = _random_simulate_spec(rng)
        steps, window = rng.randint(0, 25), rng.randint(0, 12)
        document = parse_spec(spec)
        expected = render_trajectory(simulate(document.rule, document.initial, steps),
                                     window) + "\n"
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["simulate", write_spec(tmp_path, spec),
                         "--steps", str(steps), "--window", str(window)])
        assert (code, out.getvalue()) == (0, expected), (spec, steps, window)


def test_simulate_exits_3_past_the_step_work_limit(capsys, monkeypatch):
    """Rule 90 from one cell steps 1, 2 and 2 cells, at its two nonzero
    offsets each (the zero centre matrix costs nothing), for its first three
    rows: a charge of 10."""
    rule90 = str(SPECS / "rule90.json")
    monkeypatch.setattr(cli, "MAX_STEP_WORK", 10)
    code, out, err = run_cli(capsys, "simulate", rule90, "--steps", "3")
    assert code == 0 and len(out.splitlines()) == 4
    monkeypatch.setattr(cli, "MAX_STEP_WORK", 9)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "simulate", rule90, "--steps", "3", "--format", fmt)
        assert code == 3 and out == ""
        assert err.startswith("budget exhausted: ") and "--steps 3" in err
        assert "Traceback" not in err


def test_simulate_charges_only_nonzero_offsets(capsys, monkeypatch):
    """sparse_spreading has radius 40 but three nonzero offset matrices, so
    500 steps are charged 376,500 cell-offset pairs, not 81 per stepped
    cell, and finish under the default limit."""
    spec = str(SPECS.parent / "tests" / "specs" / "sparse_spreading.json")
    code, out, err = run_cli(capsys, "simulate", spec, "--steps", "500")
    assert code == 0 and err == "" and len(out.splitlines()) == 501
    monkeypatch.setattr(cli, "MAX_STEP_WORK", 376_499)
    code, out, err = run_cli(capsys, "simulate", spec, "--steps", "500")
    assert code == 3 and out == ""
    assert err == ("budget exhausted: --steps 500 and --window 10 need more than 376499 "
                   "cell-offset pairs (stepped cells times nonzero offset matrices); "
                   "lower --steps\n")


def test_trajectory_time_does_not_grow_with_the_radius(monkeypatch):
    """Rules of radius 10^5, one whose only nonzero offset matrix is
    M_0 = [[1]] and one whose matrices are all zero, each from one cell: 200
    steps of simulate and of the CLI's windowed trajectory take under a
    second, since the 2r+1 matrices are scanned once per trajectory, not once
    per step.  The identity rule is charged its one nonzero offset matrix
    per stepped cell, 200 in all."""
    radius = 10**5
    zero = [((0,),)] * (2 * radius + 1)
    identity = zero[:radius] + [((1,),)] + zero[radius + 1:]
    start = FiniteConfiguration((2,), {0: (1,)})
    empty = FiniteConfiguration((2,))
    for matrices, rows in ((identity, [start] * 201), (zero, [start] + [empty] * 200)):
        rule = LcaRule(factorize(2), 1, radius, matrices)
        for run in (simulate, lambda *args: cli._windowed_trajectory(*args, 0)):
            begin = time.perf_counter()
            assert run(rule, start, 200) == rows
            assert time.perf_counter() - begin < 1.0
    monkeypatch.setattr(cli, "MAX_STEP_WORK", 199)
    assert cli._windowed_trajectory(LcaRule(factorize(2), 1, radius, identity),
                                    start, 200, 0) is None


def test_simulate_rejects_duplicate_initial_positions(capsys, tmp_path):
    spec = json.loads((SPECS / "rule90.json").read_text())
    spec["initial"] = {"1": [1], "01": [0], " 2": [1], "+2": [0]}
    code, out, err = run_cli(capsys, "simulate", write_spec(tmp_path, spec))
    assert code == 2 and out == ""
    assert err.endswith("initial positions '1' and '01' both name cell 1\n"), err
    # json.load alone would keep the last of two equal keys
    text = json.dumps(spec).replace('"01"', '"1"')
    code, out, err = run_cli(capsys, "simulate", write_spec(tmp_path, text))
    assert code == 2 and out == ""
    assert err.endswith("key '1' appears twice in one object\n"), err


def _call(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one in-process call; argparse errors
    exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", ["analyze", "simulate", "charpoly", "orbit"])
def test_seed_is_not_an_option(verb):
    """No verb takes --seed: it changed nothing but an echo in the JSON."""
    code, out, err = _call([verb, str(SPECS / "rule90.json"), "--seed", "7"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 7" in err, err


def test_shared_parser_leaks_no_state(monkeypatch):
    """Each call on the shared parser prints what a call on a freshly built
    parser prints, whatever the call before it parsed."""
    monkeypatch.chdir(SPECS.parent)
    pairs = [
        (["simulate", "specs/rule90.json", "--steps", "3"], ["simulate", "specs/rule90.json"]),
        (["orbit", "specs/shear.json", "--budget", "5", "--format", "json"],
         ["orbit", "specs/shear.json", "--format", "json"]),
        (["orbit", "specs/shear.json", "--budget"], ["analyze", "specs/rule90.json"]),
    ]
    for first, second in pairs:
        fresh = []
        for argv in (first, second):
            build_parser.cache_clear()
            fresh.append(_call(argv))
        build_parser.cache_clear()
        assert [_call(first), _call(second)] == fresh
        assert build_parser.cache_info().misses == 1
    assert fresh[0][0] == 2 and "expected one argument" in fresh[0][2]


def test_parser_is_built_on_first_use():
    code = ("import addca.cli as cli; assert cli.build_parser.cache_info().currsize == 0; "
            "cli.main(['analyze', 'specs/rule90.json']); "
            "assert cli.build_parser.cache_info().currsize == 1")
    result = subprocess.run([sys.executable, "-c", code], cwd=SPECS.parent,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_orbit_budget_default_is_the_api_default():
    """--budget defaults to power_semigroup.DEFAULT_BUDGET, and its help says so."""
    args = build_parser().parse_args(["orbit", "specs/shear.json"])
    assert args.budget == DEFAULT_BUDGET
    code, out, _ = _call(["orbit", "--help"])
    assert code == 0 and f"(default: {DEFAULT_BUDGET})" in " ".join(out.split())


def test_charpoly_shear(capsys):
    code, out, _ = run_cli(capsys, "charpoly", str(SPECS / "shear.json"))
    assert code == 0
    # chi = (t-1)^2 = t^2 - 2t + 1 = t^2 + 2t + 1 over Z/4
    assert "chi = t^2 + 2*t + 1" in out
    assert "a_0 = 1" in out
    assert "a_1 = 2" in out
    assert "mod 2: 0 (constant)" in out
    assert "verdict: finite power set" in out


def test_charpoly_rule90_flags_nonconstant_coefficient(capsys):
    code, out, _ = run_cli(capsys, "charpoly", str(SPECS / "rule90.json"),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["finite"] is False
    assert payload["chi"] == "t + (x + x^-1)"
    a0 = payload["coefficients"][0]
    assert a0["reductions"] == [{"prime": 2, "value": "x + x^-1", "constant": False}]
    assert "a_0" in payload["reason"] and "mod 2" in payload["reason"]


def test_charpoly_rejects_additive_spec(capsys):
    code, _, err = run_cli(capsys, "charpoly", str(SPECS / "additive42.json"))
    assert code == 2
    assert "linear" in err


def test_orbit_shear_and_identity(capsys):
    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "shear.json"))
    assert code == 0
    assert "preperiod 0, period 4: power set has 4 elements" in out

    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "identity.json"),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 1


def test_orbit_budget_exhaustion_on_finite_rule(capsys):
    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "shear.json"), "--budget", "2")
    assert code == 3
    assert "indeterminate (budget 2); coefficient verdict: finite" in out
    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "shear.json"), "--budget", "2",
                           "--format", "json")
    assert code == 3
    report = json.loads(out)
    assert (report["finite"], report["indeterminate"], report["budget"]) == (True, True, 2)
    assert "period" not in report


def test_orbit_infinite_rule_reports_degree_growth(capsys):
    """The coefficient verdict is exact, so no walk runs: the output names
    the failing coefficient and no budget."""
    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "rule90.json"), "--budget", "16")
    assert code == 0
    assert ("infinite power set: coefficient a_0 of the characteristic polynomial "
            "is non-constant mod 2") in out
    assert "budget" not in out and "indeterminate" not in out
    assert "max entry degrees along doubled powers: [1, 2, 4, 8, 16, 32]" in out
    code, out, _ = run_cli(capsys, "orbit", str(SPECS / "rule90.json"), "--budget", "16",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["finite"] is False and report["degree_samples"] == [1, 2, 4, 8, 16, 32]
    assert "indeterminate" not in report and "budget" not in report


# Each verb's own options; --budget 2 gives orbit its three cases on specs/:
# a shape (identity), exit 3 (shear) and an infinite power set (rule90).
_VERB_OPTIONS = {
    "analyze": {},
    "charpoly": {},
    "orbit": {"budget": 2},
    "simulate": {"steps": 3, "window": 3},
}


@pytest.mark.parametrize("verb", sorted(_VERB_OPTIONS))
@pytest.mark.parametrize("spec", sorted(SPECS.glob("*.json")), ids=lambda path: path.name)
def test_verbs_leave_the_format_to_main(capsys, verb, spec):
    """Each verb answers from its own options, with no ``format`` in its
    namespace, and main prints the answer's payload as --format json and its
    lines as text, with the answer's exit code."""
    options = _VERB_OPTIONS[verb]
    argv = [verb, str(spec), *(f"--{name}={value}" for name, value in options.items())]
    command = getattr(cli, f"cmd_{verb}")
    try:
        code, payload, lines = command(cli.load_spec(str(spec)), argparse.Namespace(**options))
    except SpecError:
        assert run_cli(capsys, *argv)[0] == 2
        return
    for fmt, text in (("json", json.dumps(payload, indent=2)), ("text", "\n".join(lines))):
        assert run_cli(capsys, *argv, "--format", fmt) == (code, text + "\n", "")


def test_orbit_on_a_wide_gapped_rule(capsys, tmp_path):
    """Only the offsets -R and R are nonzero, so the doubled powers hold few
    terms spread over up to 64R exponents."""
    radius = 10**4
    matrices = [[[0]] for _ in range(2 * radius + 1)]
    matrices[0] = matrices[-1] = [[1]]
    spec = {"kind": "linear", "m": 3, "n": 1, "radius": radius, "matrices": matrices}
    code, out, _ = run_cli(capsys, "orbit", write_spec(tmp_path, spec))
    assert code == 0
    assert "infinite power set: " in out
    samples = [radius * 2**k for k in range(6)]
    assert f"max entry degrees along doubled powers: {samples}" in out


def test_spec_error_names_bad_json_line(capsys, tmp_path):
    path = write_spec(tmp_path, "{\n  \"kind\": \"linear\",\n  oops\n}\n")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert ":3:" in err  # line of the syntax error


def test_spec_error_on_undecodable_or_too_deep_json(capsys, tmp_path):
    path = tmp_path / "rule.json"
    for raw, needle in ((b'{"x": "\xff"}', "not valid UTF-8"),
                        (b"[" * 100_000, "nested too deeply"),
                        (b'{"m": ' + b"7" * 5000 + b"}", "digits")):
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"spec error: {path}: ") and needle in err, err


def test_spec_error_names_bad_fields(capsys, tmp_path):
    cases = [
        ({"kind": "affine"}, "\"kind\""),
        ({"kind": "linear", "n": 1, "radius": 0, "matrices": [[[1]]]}, "\"m\""),
        ({"kind": "linear", "m": 1, "n": 1, "radius": 0, "matrices": [[[1]]]}, "\"m\""),
        ({"kind": "linear", "m": 2, "n": 1, "radius": 1, "matrices": [[[1]]]}, "3 matrices"),
        ({"kind": "linear", "m": 2, "n": 2, "radius": 0, "matrices": [[[1]]]}, "2x2"),
        ({"kind": "linear", "m": 2, "n": 1, "radius": 0, "matrices": [[[1]]],
          "initial": {"a": [1]}}, "position"),
        ({"kind": "linear", "m": 2, "n": 1, "radius": 0, "matrices": [[[1]]],
          "initial": {"0": [1, 1]}}, "vector of 1"),
        ({"kind": "additive", "group": [6], "radius": 0, "matrices": [[[1]]]},
         "\"group\""),
    ]
    for payload, needle in cases:
        code, _, err = run_cli(capsys, "analyze", write_spec(tmp_path, payload))
        assert code == 2, payload
        assert needle in err, (payload, err)


def test_spec_error_echoes_a_short_value(capsys, tmp_path):
    deep = 1
    for _ in range(900):
        deep = [deep]
    base = {"kind": "linear", "m": 2, "n": 1, "radius": 0, "matrices": [[[1]]]}
    cases = [
        ({**base, "m": deep}, "\"m\""),
        ({**base, "kind": "k" * 5000}, "\"kind\""),
        ({**base, "n": -10**4000}, "\"n\""),
        ({**base, "matrices": [[["x" * 5000]]]}, "entry (0,0)"),
        ({**base, "initial": {"p" * 5000: [1]}}, "position"),
    ]
    for payload, needle in cases:
        code, out, err = run_cli(capsys, "analyze", write_spec(tmp_path, payload))
        assert code == 2 and out == ""
        assert needle in err
        assert len(err.rstrip("\n")) < 200 and err.count("\n") == 1, err


def test_large_prime_modulus(capsys, tmp_path):
    base = {"kind": "linear", "n": 2, "radius": 1,
            "matrices": [[[1, 0], [0, 0]], [[3, 1], [5, 7]], [[0, 2], [0, 1]]]}
    code, out, err = run_cli(capsys, "analyze", write_spec(tmp_path, {**base, "m": 2**61 - 1}))
    assert code == 0 and err == ""
    assert f"linear over Z/{2**61 - 1}" in out
    code, out, err = run_cli(capsys, "analyze", write_spec(tmp_path, {**base, "m": 2**89 - 1}))
    assert code == 2 and out == ""
    assert "\"m\"" in err and "cannot be factored exactly" in err


def test_spec_error_names_hom_violation_with_offset(capsys, tmp_path):
    payload = {"kind": "additive", "group": [4, 2], "radius": 1,
               "matrices": [[[0, 0], [0, 0]], [[0, 1], [0, 1]], [[0, 0], [0, 0]]]}
    code, _, err = run_cli(capsys, "analyze", write_spec(tmp_path, payload))
    assert code == 2
    assert "matrices[1] (offset 0)" in err
    assert "(0,1)" in err and "divisible by 2" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "addca", "analyze", str(SPECS / "rule90.json")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "transitive: yes" in result.stdout


# -- fuzzing ----------------------------------------------------------------

_HUGE = st.integers(min_value=-2**200, max_value=2**200)
_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))


def _mostly(draw, good, bad):
    """A value from ``good``, or about one time in eight from ``bad`` (the
    choice shrinks toward ``good``)."""
    return draw(bad if draw(st.integers(0, 7)) == 7 else good)


@st.composite
def fuzzed_specs(draw):
    """Rule specs that are mostly well-shaped, with any field replaced by a
    wrong type, a bool, a huge or negative int, an empty or ragged list, or
    dropped."""
    kind = _mostly(draw, st.sampled_from(["linear", "additive"]), _JUNK)
    size = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 2))
    spec = {"kind": kind}
    if kind == "additive":
        group = draw(st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), min_size=1, max_size=size))
        spec["group"] = _mostly(draw, st.just(group), st.lists(_HUGE | _JUNK, max_size=2) | _JUNK)
        size = len(group)
    else:
        spec["m"] = _mostly(draw, st.integers(2, 12), st.integers(-3, 1) | _HUGE | _JUNK)
    spec["n"] = _mostly(draw, st.just(size), st.integers(-3, 0) | _HUGE | _JUNK)
    spec["radius"] = _mostly(draw, st.just(radius), st.integers(-3, -1) | _HUGE | _JUNK)
    # about one spec in four draws its entries from everything, the rest small ints
    entry = st.integers(-3, 20)
    entry = entry | _HUGE | _JUNK if draw(st.integers(0, 3)) == 3 else entry
    matrix = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    ragged = st.lists(st.lists(entry, max_size=3), max_size=3)
    spec["matrices"] = _mostly(
        draw, st.lists(matrix, min_size=2 * radius + 1, max_size=2 * radius + 1),
        st.lists(matrix | ragged, max_size=3) | _JUNK)
    cells = {}
    for _ in range(draw(st.integers(0, 3))):
        position = _mostly(draw, st.integers(-5, 5).map(str),
                           st.sampled_from(["", "x", "1.5", " 7", "-0", str(10**30)]))
        cells[position] = _mostly(draw, st.lists(entry, min_size=size, max_size=size),
                                  ragged | _JUNK)
    spec["initial"] = _mostly(draw, st.just(cells), _JUNK)
    for key in list(spec):
        if draw(st.integers(0, 9)) == 9:
            del spec[key]
    return _mostly(draw, st.just(spec), st.lists(st.integers(0, 3), max_size=2) | _JUNK)


@settings(max_examples=150, deadline=None)
@given(fuzzed_specs())
def test_parse_spec_raises_only_spec_error(data):
    try:
        parse_spec(data)
    except SpecError:
        pass


_FUZZ_ARGS = {
    "analyze": [],
    "charpoly": [],
    "orbit": ["--budget", "20"],
    "simulate": ["--steps", "3", "--window", "3"],
}


@settings(max_examples=150, deadline=None)
@given(fuzzed_specs(), st.sampled_from(sorted(_FUZZ_ARGS)), st.sampled_from(["text", "json"]))
def test_cli_exits_cleanly_on_fuzzed_specs(tmp_path_factory, data, verb, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "rule.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([verb, str(path), "--format", fmt, *_FUZZ_ARGS[verb]])
    assert code in (0, 2, 3), (code, data)
    assert (code == 2) == err.getvalue().startswith("spec error: "), err.getvalue()
