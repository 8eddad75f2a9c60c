#!/usr/bin/env python3
"""Check that the tests catch a fixed set of mutants of the slot bounds, the
step kernel's block layout, the power walk's blocks, masks and integrality
gates, the F_p[t] gcd, the deciders, the CLI's one format switch in ``main``
and the exit code of ``orbit``'s exhausted budget.

Each mutant is one textual edit of a file under ``src/addca``.  Most make a
packed-integer slot one bit or one factor too narrow, or flip a comparison
in a decider; each is paired with the fastest single test file, or single
test, that fails on it.  The script copies ``src`` and ``tests`` to a
temporary directory, with ``specs``, ``scripts`` and ``perfbench``, which
the CLI and script tests read and no mutant edits.  It checks that each
named test file passes there, then applies one mutant at a time and runs
pytest on its test file only; the
checkout itself is never modified.  A mutant whose test file still passes
has survived.  An edit whose ``old`` text is not found exactly once is
reported as stale, since the code it mutates has moved.  Equivalent mutants,
edits that change no output, are checked for staleness and printed with
their reason but not run.  Prints one line per mutant and exits 1 if a test
file fails unmutated, a mutant survives or an edit is stale.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old, new, test file that must fail)
MUTANTS = (
    # The reducer's shift one bit short: floor(v M / 2^s) is no longer v // m
    # for every v below 2^bits (13 reduces to -1 at m = 7, bits = 4).
    ("src/addca/power_semigroup.py",
     "shift = bits + m.bit_length()",
     "shift = bits + m.bit_length() - 1",
     "tests/test_power_semigroup.py"),
    # The reducer's magic number rounded down instead of up.
    ("src/addca/power_semigroup.py",
     "magic = -(-(1 << shift) // m)",
     "magic = (1 << shift) // m",
     "tests/test_power_semigroup.py"),
    # The Kronecker product's slot without bits(k), the terms meeting in one slot.
    ("src/addca/laurent.py",
     "width = slot_width(2 * (m - 1).bit_length() + len(a.coeffs).bit_length())",
     "width = slot_width(2 * (m - 1).bit_length())",
     "tests/test_acceptance.py"),
    # The packed power walk's slot bound without its factor n.
    ("src/addca/power_semigroup.py",
     "bits = (n * span * (m - 1) ** 2).bit_length()",
     "bits = (span * (m - 1) ** 2).bit_length()",
     "tests/test_power_semigroup.py"),
    # The packed power walk's slot bound with (m - 1) for (m - 1)^2.
    ("src/addca/power_semigroup.py",
     "bits = (n * span * (m - 1) ** 2).bit_length()",
     "bits = (n * span * (m - 1)).bit_length()",
     "tests/test_power_semigroup.py"),
    # The power walk widens its blocks one slot late: an entry's product
    # spills its top slot into the block above, or on one row past the mask.
    ("src/addca/power_semigroup.py",
     "if top + span > block:",
     "if top + span > block + 1:",
     "tests/test_power_semigroup.py::test_one_row_walks_widen_from_the_narrowest_block"),
    # A state of one block never widens: a one-row walk started at 2 span
    # slots outgrows its mask and keeps its top slots unreduced.
    ("src/addca/power_semigroup.py",
     "if top + span > block:",
     "if blocks > 1 and top + span > block:",
     "tests/test_power_semigroup.py::test_one_row_walks_widen_from_the_narrowest_block"),
    # The block fold skips the top block of a state with several blocks:
    # the last row's entries no longer set the state's low and top.
    ("src/addca/power_semigroup.py",
     "fold = union >> stride * (blocks - 1)",
     "fold = union if blocks == 1 else 0",
     "tests/test_power_semigroup.py"),
    # The degree ladder's mask one slot short: the last square's top slot,
    # the power's highest exponent, stays unreduced.
    ("src/addca/power_semigroup.py",
     "SlotReducer(p, bound.bit_length(), slots)",
     "SlotReducer(p, bound.bit_length(), slots - 1)",
     "tests/test_acceptance.py"),
    # A restarted walk forgets the products of the walks it abandoned.
    ("src/addca/power_semigroup.py",
     "budget -= widen.spent",
     "pass",
     "tests/test_power_semigroup.py"),
    # The degree ladder's slot bound without its factor n.
    ("src/addca/power_semigroup.py",
     "bound = max(n * ((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)",
     "bound = max(((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)",
     "tests/test_power_semigroup.py"),
    # The degree ladder's slot bound without room for the entries of A mod m.
    ("src/addca/power_semigroup.py",
     "bound = max(n * ((span - 1 << doublings) + 1) * (p - 1) ** 2, matrix.ring.modulus.m - 1)",
     "bound = n * ((span - 1 << doublings) + 1) * (p - 1) ** 2",
     "tests/test_power_semigroup.py"),
    # detect_orbit without its integrality gate: a non-integral matrix is
    # walked until the budget runs out.
    ("src/addca/power_semigroup.py",
     "    if not decide_finite_powers(matrix).finite:\n        return None\n"
     "    return _orbit(matrix, matrix.n, budget)",
     "    return _orbit(matrix, matrix.n, budget)",
     "tests/test_power_semigroup.py::test_non_integral_matrices_are_not_walked"),
    # divisibility_witness without its integrality gate: the residues of a
    # chi that is not integral are walked until the budget runs out.
    ("src/addca/power_semigroup.py",
     "    if not char_poly_finiteness(chi).finite:\n        return None\n",
     "",
     "tests/test_power_semigroup.py::test_non_integral_matrices_are_not_walked"),
    # The Berkowitz slot over Z without its factor n!.
    ("src/addca/polymat.py",
     "slot_width((factorial(n) * ((m - 1) * span) ** n).bit_length() + 1)",
     "slot_width((((m - 1) * span) ** n).bit_length() + 1)",
     "tests/test_polymat.py"),
    # The Berkowitz slot over Z without the sign bit of its balanced digits.
    ("src/addca/polymat.py",
     "slot_width((factorial(n) * ((m - 1) * span) ** n).bit_length() + 1)",
     "slot_width((factorial(n) * ((m - 1) * span) ** n).bit_length())",
     "tests/test_polymat.py"),
    # The step kernel's slot without its factor k, the nonzero offsets.
    ("src/addca/lca.py",
     "width = (len(offsets) * rank * top * top).bit_length()",
     "width = (rank * top * top).bit_length()",
     "tests/test_additive_ca.py"),
    # The step kernel's slot without its factor n, the components of a cell.
    ("src/addca/lca.py",
     "width = (len(offsets) * rank * top * top).bit_length()",
     "width = (len(offsets) * top * top).bit_length()",
     "tests/test_additive_ca.py"),
    # The step kernel's groups one offset short: the last offset of each
    # full group is never applied, which only rules of many offsets show.
    ("src/addca/lca.py",
     "run = offsets[start:start + size]",
     "run = offsets[start:start + size - 1]",
     "tests/test_additive_ca.py"),
    # The step kernel's blocks one bit short.  With k >= 2 nonzero offsets
    # the factor k leaves the top bit of every block zero in a cell's
    # product, so the overlap shows only on rules with one nonzero offset.
    ("src/addca/lca.py",
     "    block = rank * width\n",
     "    block = rank * width - 1\n",
     "tests/test_lca.py"),
    # The step kernel in one group: each cell shifts its whole product once
    # per offset, quadratic in the offsets, which the time guard catches.
    ("src/addca/lca.py",
     "GROUP_BITS = 2048",
     "GROUP_BITS = 2048 << 20",
     "tests/test_lca.py"),
    # Surjective when det A(X) is nonzero mod some p | m, not every one.
    ("src/addca/lca.py",
     "surjective = all(count > 0 for count in monomial_counts.values())",
     "surjective = any(count > 0 for count in monomial_counts.values())",
     "tests/test_lca.py"),
    # Injective read as surjective: det A(X) with any monomial mod p.
    ("src/addca/lca.py",
     "injective = all(count == 1 for count in monomial_counts.values())",
     "injective = all(count >= 1 for count in monomial_counts.values())",
     "tests/test_additive_ca.py"),
    # A transitivity obstruction G_p of degree 1 ignored.
    ("src/addca/lca.py",
     "if len(gcd) > 1:",
     "if len(gcd) > 2:",
     "tests/test_lca.py"),
    # decide_surjective satisfied by one prime of m.
    ("src/addca/lca.py",
     "return all(not det.reduce_mod_prime(p).is_zero() for p in rule.modulus.primes)",
     "return any(not det.reduce_mod_prime(p).is_zero() for p in rule.modulus.primes)",
     "tests/test_lca.py"),
    # Integrality tested mod the smallest prime of m only.
    ("src/addca/laurent.py",
     "for p in self.modulus.primes:",
     "for p in self.modulus.primes[:1]:",
     "tests/test_laurent.py"),
    # Trailing zeros of an F_p[t] remainder trimmed one at a time.
    ("src/addca/lca.py",
     "while a and a[-1] == 0:",
     "if a and a[-1] == 0:",
     "tests/test_lca.py"),
    # The x-slice gcd G_p returned without being made monic.
    ("src/addca/lca.py",
     "return [(c * inv) % p for c in a]",
     "return a",
     "tests/test_lca.py"),
    # The x-slice gcd after one Euclid step.
    ("src/addca/lca.py",
     "    while b:\n        a, b = b, _fp_rem(a, b, p)",
     "    if b:\n        a, b = b, _fp_rem(a, b, p)",
     "tests/test_cli_golden.py"),
    # Reduction mod p that keeps the coefficients mod m.
    ("src/addca/laurent.py",
     "values = [c % p for c in self.coeffs]",
     "values = list(self.coeffs)",
     "tests/test_laurent.py"),
    # Reduction mod p that keeps the coefficients of a sparse polynomial.
    ("src/addca/laurent.py",
     "dict(zip(self.exps, values))",
     "dict(zip(self.exps, self.coeffs))",
     "tests/test_laurent.py"),
    # Every monomial c x^e read as a constant.
    ("src/addca/laurent.py",
     "return not self.coeffs or (self.low == 0 and len(self.coeffs) == 1)",
     "return not self.coeffs or len(self.coeffs) == 1",
     "tests/test_laurent.py"),
    # A(X) mirrored, x <-> 1/x: the offset columns zipped first offset first.
    ("src/addca/lca.py",
     "for mat in reversed(rule.matrices)]",
     "for mat in rule.matrices]",
     "tests/test_lca.py"),
    # The integrality test skips a_(n-1), the coefficient of t^(n-1).
    ("src/addca/power_semigroup.py",
     "for index in range(poly.degree):",
     "for index in range(poly.degree - 1):",
     "tests/test_power_semigroup.py"),
    # The dense span one slot short: the top exponent falls outside the pack.
    ("src/addca/polymat.py",
     "span = max([a.low + a._span() for a in entries]) - lo",
     "span = max([a.low + a._span() for a in entries]) - lo - 1",
     "tests/test_polymat.py"),
    # The Berkowitz unpack offset half of what balances a slot's digits.
    ("src/addca/polymat.py",
     "half = 1 << bits - 1",
     "half = 1 << bits - 2",
     "tests/test_polymat.py"),
    # main prints the text lines whatever --format says.
    ("src/addca/cli.py",
     'print(json.dumps(payload, indent=2) if args.format == "json" else "\\n".join(lines))',
     'print("\\n".join(lines))',
     "tests/test_cli_golden.py"),
    # orbit's exhausted budget exits 0, as if the power set's shape were found.
    ("src/addca/cli.py",
     'return 3, {"rule": _describe(document), "finite": True,',
     'return 0, {"rule": _describe(document), "finite": True,',
     "tests/test_cli.py"),
)

# (file, old, new, why no output changes)
EQUIVALENT = (
    ("src/addca/laurent.py",
     "_DENSE_SPAN_PER_TERM = 4",
     "_DENSE_SPAN_PER_TERM = 8",
     "it changes only which exact path runs: a polynomial's storage form, the"
     " product and the char_poly route"),
)


def _pytest(tree: Path, test_file: str) -> int:
    # No bytecode is cached: a .pyc is checked by source size and mtime only,
    # which an edit of the same length within the same second keeps.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "specs", "scripts", "perfbench"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        # A test file that fails unmutated would report every mutant killed.
        for test_file in sorted({mutant[3] for mutant in MUTANTS}):
            if _pytest(tree, test_file):
                print(f"{test_file} fails on the unmutated tree")
                return 1
        for path, old, new, test_file in MUTANTS:
            text = (tree / path).read_text(encoding="utf-8")
            if text.count(old) != 1:
                outcome = "stale"
            else:
                (tree / path).write_text(text.replace(old, new), encoding="utf-8")
                outcome = "killed" if _pytest(tree, test_file) else "survived"
                (tree / path).write_text(text, encoding="utf-8")
            failed += outcome != "killed"
            print(f"{outcome:10}  {path}: {new!r}  ({test_file})")
        for path, old, new, reason in EQUIVALENT:
            stale = (tree / path).read_text(encoding="utf-8").count(old) != 1
            failed += stale
            print(f"{'stale' if stale else 'equivalent':10}  {path}: {new!r}  ({reason})")
    print(f"{len(MUTANTS) + len(EQUIVALENT) - failed} of {len(MUTANTS) + len(EQUIVALENT)} "
          f"mutants killed or equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
