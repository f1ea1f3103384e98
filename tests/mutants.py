"""Mutation checks: each entry breaks the package in one known way, and named tests must catch it.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, as the suite does, and nothing else.  pytest does not
collect this file (its name does not start with ``test_``), so the
Tier-1 command never runs it.

For each entry the script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` to a temporary directory,
replaces one exact piece of source text in the copy (it must occur
there exactly once), and runs pytest on the entry's tests in that copy.  Every one of them must fail.
First the unmutated copy runs every named test, and all must pass, so
that a failure is the mutation's doing.  The repository itself is only
read.  Exit status 0 when every mutation is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # exact source text, found exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids that must all fail


CHOW = "src/schubcalc/chow.py"
CHOW_TESTS = "tests/test_chow.py::"
CLI_TESTS = "tests/test_cli.py::"
CORE_TESTS = "tests/test_core.py::"
PROPS = "tests/test_properties.py::"
SCHUR = "src/schubcalc/schur.py"
SEARCH_TESTS = "tests/test_search.py::"
NAIVE = "tests/test_schur_oracle.py::TestAgainstNaiveReference::"
KNOWN = "tests/test_schur_oracle.py::TestKnownExpansions::"

MUTANTS = (
    Mutant(
        "LR walk: lattice bound loosened by one in row 3 (verify_thm_md cannot see it)",
        CHOW,
        "min(left, lattice, room[r] - room[r + 1])",
        "min(left, lattice + (r == 3), room[r] - room[r + 1])",
        (
            CHOW_TESTS + "TestLrCoefficient::test_symmetry_random",
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            PROPS + "test_coefficients_count_fillings",
            PROPS + "test_multiply_matches_box_truncated_oracle",
            "tests/test_schur_oracle.py::TestAgainstTableauRoute::test_every_pair_in_small_grassmannians",
        ),
    ),
    Mutant(
        "LR walk: shares pushed largest first, so the smallest is taken first",
        CHOW,
        "for x in range(max(0, left - room[r + 1]),\n"
        "                                     min(left, lattice, room[r] - room[r + 1]) + 1)]",
        "for x in reversed(range(max(0, left - room[r + 1]),\n"
        "                                     min(left, lattice, room[r] - room[r + 1]) + 1))]",
        (
            CHOW_TESTS + "TestLrVanishing::test_existence_stops_at_the_first_strip",
        ),
    ),
    Mutant(
        "LR walk: yields no chain at all (verify_thm_md cannot see it)",
        CHOW,
        "            yield chain",
        "            yield from ()",
        (  # fast tests only: every nonzero pair a test walks is then exhausted
            CHOW_TESTS + "TestMultiply::test_pieri_in_small_grassmannian",
            CHOW_TESTS + "TestLrCoefficient::test_pieri_square",
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestPoincarePairing::test_dual_pairs",
        ),
    ),
    Mutant(
        "_lr_vanishes: outer one column too wide",
        CHOW,
        "return next(_lr_walk(lam, mu, (ctx.cols,) * ctx.rows), None) is None",
        "return next(_lr_walk(lam, mu, (ctx.cols + 1,) * ctx.rows), None) is None",
        (
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestLrVanishing::test_tableau_route_never_calls_the_containment_predicate",
            PROPS + "test_lr_vanishing_matches_product_and_bruhat_test",
            CLI_TESTS + "TestVanishes::test_cross_validate",
            SEARCH_TESTS + "TestVerifyThmMd::test_passes[2-6]",
        ),
    ),
    Mutant(
        "_lr_vanishes: rows-merged witness taken at rows - 1",
        CHOW,
        "a.count(0) + b.count(0) >= ctx.rows",
        "a.count(0) + b.count(0) >= ctx.rows - 1",
        (
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestLrVanishing::test_tableau_route_never_calls_the_containment_predicate",
            PROPS + "test_lr_vanishing_matches_product_and_bruhat_test",
            CLI_TESTS + "TestVanishes::test_cross_validate",
            SEARCH_TESTS + "TestVerifyThmMd::test_passes[2-6]",
        ),
    ),
    Mutant(
        "_lr_vanishes: hook witness fires in a box with one row or one column",
        CHOW,
        "if rows > 1 and ctx.cols > 1 and sum(a)",
        "if sum(a)",
        (
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestLrVanishing::test_edge_boxes_vanish_at_weight_n_plus_1",
            PROPS + "test_lr_vanishing_matches_product_and_bruhat_test",
        ),
    ),
    Mutant(
        "_lr_vanishes: hook witness also answers Theorem md's pair",
        CHOW,
        " and (1,) * rows not in (a, b):",
        ":",
        (
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestLrVanishing::test_hook_witness_is_an_lr_tableau",
            CLI_TESTS + "TestVanishes::test_cross_validate",
            SEARCH_TESTS + "TestVerifyThmMd::test_passes[2-6]",
            SEARCH_TESTS + "TestVerifyThmMd::test_walks_only_the_hook_pairs[2-6-6]",
        ),
    ),
    Mutant(
        "_lr_vanishes: hook witness answers every pair heavier than n+1 too",
        CHOW,
        "sum(a) + sum(b) == ctx.n + 1",
        "sum(a) + sum(b) >= ctx.n + 1",
        (
            CHOW_TESTS + "TestLrVanishing::test_matches_product_and_bruhat_test_through_n7",
            CHOW_TESTS + "TestLrVanishing::test_tableau_route_never_calls_the_containment_predicate",
            PROPS + "test_lr_vanishing_matches_product_and_bruhat_test",
        ),
    ),
    Mutant(
        "multiply: walk one column narrower than lam_1 + mu_1",
        CHOW,
        "(lam[0] + mu[0],) * len(lam)",
        "(lam[0] + mu[0] - 1,) * len(lam)",
        (
            PROPS + "test_multiply_matches_box_truncated_oracle",
            CLI_TESTS + "TestProduct::test_pieri_text",
            "tests/test_schur_oracle.py::TestAgainstTableauRoute::test_every_pair_in_small_grassmannians",
        ),
    ),
    Mutant(
        "multiply: column cut one too wide",
        CHOW,
        "if nu[0] <= cols:",
        "if nu[0] <= cols + 1:",
        (
            CHOW_TESTS + "TestMultiply::test_hyperplane_times_point_vanishes",
            CHOW_TESTS + "TestMultiply::test_degree_overflow_vanishes",
            CHOW_TESTS + "TestPoincarePairing::test_dual_pairs",
            PROPS + "test_multiply_matches_box_truncated_oracle",
            CLI_TESTS + "TestProduct::test_vanishing_product",
        ),
    ),
    Mutant(
        "dual_symbol: n+1-i instead of n+2-i",
        "src/schubcalc/core.py",
        "return tuple(ctx.n + 2 - i for i in reversed(s))",
        "return tuple(ctx.n + 1 - i for i in reversed(s))",
        (
            CORE_TESTS + "TestDuality::test_dual_symbol_values",
            CHOW_TESTS + "TestVanishingCriterion::test_hyperplane_point_pair",
            CLI_TESTS + "TestVanishes::test_hyperplane_point_pair",
            PROPS + "test_symbol_partition_dual_round_trips",
        ),
    ),
    Mutant(
        "_box_layers: weight cap one too high (hi - w + 1)",
        "src/schubcalc/core.py",
        "range(min(cap, top - w), least - 1, -1)",
        "range(min(cap, top - w + 1), least - 1, -1)",
        (
            CORE_TESTS + "TestBoxLayer::test_walk_matches_brute_force_in_every_window",
            SEARCH_TESTS + "TestVerifyThmMd::test_passes[3-8]",
        ),
    ),
    Mutant(
        "_box_layers: zero completion emitted one weight below lo",
        "src/schubcalc/core.py",
        "if w >= lo:",
        "if w >= lo - 1:",
        (
            CORE_TESTS + "TestBoxLayer::test_walk_matches_brute_force_in_every_window",
            CORE_TESTS + "TestBoxLayer::test_matches_weight_filter_of_full_box",
            CORE_TESTS + "TestBoxLayer::test_sizes_sum_to_binomial",
        ),
    ),
    Mutant(
        "_layer_sizes: one factor of the Gaussian binomial too few",
        "src/schubcalc/core.py",
        "for i in range(1, min(short, hi) + 1):",
        "for i in range(1, min(short, hi)):",
        (
            CORE_TESTS + "TestBoxLayer::test_layer_sizes_count_the_layers",
            SEARCH_TESTS + "TestOneShellScan::test_pair_count_matches_built_layers_at_every_bound",
            SEARCH_TESTS + "TestScanLimit::test_oversized_scan_is_refused_by_name",
        ),
    ),
    Mutant(
        "_check_scan_size: closed-form bound (t + 3)**2 // 4",
        "src/schubcalc/search.py",
        "(t + 2) ** 2 // 4",
        "(t + 3) ** 2 // 4",
        (
            SEARCH_TESTS + "TestScanLimit::test_closed_form_refusal_is_a_lower_bound",
        ),
    ),
    Mutant(
        "_kostka_row: rejects nrows >= nvars instead of nrows > nvars",
        SCHUR,
        "if nrows > nvars:",
        "if nrows >= nvars:",
        (
            "tests/test_schur_oracle.py::test_drawn_shapes_match_naive_reference",
        ),
    ),
    Mutant(
        "lr_oracle: sorting sign dropped, every term kept with a plus sign",
        SCHUR,
        "-coeff if pos & 1 else coeff",
        "coeff",
        (
            NAIVE + "test_small_boxes",
            NAIVE + "test_three_row_shapes",
            NAIVE + "test_four_row_shapes",
        ),
    ),
    Mutant(
        "lr_oracle: repeated-exponent skip removed, so zero alternants add terms",
        SCHUR,
        "if pos < i and placed[pos] == x:",
        "if False:",
        (
            NAIVE + "test_small_boxes",
            NAIVE + "test_three_row_shapes",
            NAIVE + "test_four_row_shapes",
        ),
    ),
    Mutant(
        "_monomials: every hook length one too long",
        SCHUR,
        "hooks *= part - j + heights[j] - i - 1",
        "hooks *= part - j + heights[j] - i",
        (
            "tests/test_schur_oracle.py::TestMonomialCount::test_hook_content_count_matches_kostka_rows",
        ),
    ),
    Mutant(
        "lr_oracle: trailing zeros of each term left in place",
        SCHUR,
        "nu = nu[:nu.index(0)]",
        "nu = nu",
        (
            KNOWN + "test_square_of_s1",
            KNOWN + "test_s21_times_s1",
            NAIVE + "test_small_boxes",
            NAIVE + "test_three_row_shapes",
            NAIVE + "test_four_row_shapes",
        ),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):  # the suite reads both
        shutil.copy2(ROOT / name, dest / name)


def _failing(copy: Path, tests) -> tuple[int, set[str], str]:
    """Run ``tests`` in ``copy``: pytest's exit status, the ids that failed, and its output."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rfE", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=900,
    )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def _mutated(m: Mutant) -> str:
    """The text of ``m.path`` with the mutation applied, read from the repository."""
    text = (ROOT / m.path).read_text()
    found = text.count(m.old)
    if found != 1 or not m.tests:
        raise SystemExit(f"{m.name}: the source text occurs {found} times in {m.path} "
                         f"and {len(m.tests)} tests are named; need once and at least one")
    return text.replace(m.old, m.new)


def main() -> int:
    named = sorted({t for m in MUTANTS for t in m.tests})
    mutated = [_mutated(m) for m in MUTANTS]
    with tempfile.TemporaryDirectory(prefix="schubcalc-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        code, failed, out = _failing(base, named)
        if code != 0:
            print(out)
            print(f"unmutated copy: pytest exited {code}; failed: {sorted(failed)}")
            return 1
        print(f"unmutated copy: {len(named)} named tests pass")
        missed = 0
        for i, (m, text) in enumerate(zip(MUTANTS, mutated)):
            copy = Path(tmp) / f"mutant{i}"
            _copy(copy)
            (copy / m.path).write_text(text)
            _, failed, _ = _failing(copy, m.tests)
            survivors = [t for t in m.tests if t not in failed]
            if survivors:
                missed += 1
                print(f"MISSED  {m.name}: still passing: {', '.join(survivors)}")
            else:
                print(f"caught  {m.name} ({len(m.tests)} tests fail)")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutations caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
