"""Mutation checks: each mutant breaks one rule of the library, and the tests
named with it must fail.

Run from the repository root (stdlib and pytest only; pytest does not
collect this file):

    python tests/mutants.py

Each entry is (name, file, old text, new text, test ids).  The old text must
occur exactly once in its file, so a change that moves or rewrites the code
must update the entry.  The script first runs every id on an unmutated copy
of `src/`, `tests/`, `perfbench/`, `README.md` and `pyproject.toml`, where
they must pass.  Then, per entry, it edits a fresh copy and runs the
entry's ids: the mutant is killed if they fail.  It prints one line per
mutant and last `killed k/n in t s`, with its wall time t in seconds, and
exits 1 unless every mutant is killed (a survivor is reported, never
skipped), or 2 if an old text is not found once or the unmutated ids fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    ("witness search without the skip pairs",
     "src/deepnest/configurations.py",
     "for d in (1, 2) for i in range(5))",
     "for d in (1,) for i in range(5))",
     ["tests/test_table_proof.py::test_every_excluded_table_has_a_witness"]),
    ("perturbations ten times wider than the corner bound",
     "src/deepnest/configurations.py",
     "a, b = rng.randint(-7, 7), rng.randint(-7, 7)",
     "a, b = rng.randint(-70, 70), rng.randint(-70, 70)",
     ["tests/test_table_proof.py::"
      "test_no_perturbation_changes_a_base_template_sign"]),
    ("an event turn with its fixed sign flipped",
     "src/deepnest/conics.py",
     '("16", "14", +1, ',
     '("16", "14", -1, ',
     ["tests/test_event_order.py::"
      "test_each_turn_is_the_raw_turn_of_the_cremona_pencil"]),
    ("case 2 quadrants T2 and T3 swapped",
     "src/deepnest/configurations.py",
     '{(True, True): "T4", (True, False): "T3",\n'
     '                    (False, True): "T2", (False, False): "T1"}',
     '{(True, True): "T4", (True, False): "T2",\n'
     '                    (False, True): "T3", (False, False): "T1"}',
     ["tests/test_classifier_oracle.py::"
      "test_sign_table_classifier_matches_the_point_oracle"]),
    ("a position cycle read in the wrong direction",
     "src/deepnest/configurations.py",
     "(2, 6): -1,",
     "(2, 6): +1,",
     ["tests/test_configurations.py::test_sequences_match_reference"]),
    ("a library ValueError escapes the command line",
     "src/deepnest/cli.py",
     "except (ValueError, OSError) as exc:",
     "except OSError as exc:",
     ["tests/test_cli.py::test_lemma3_collinear_config_exits_2"]),
    ("the parity-class memo ignores the mode",
     "src/deepnest/cases.py",
     "sols = _solve_scenario(scn, mode)",
     'sols = _solve_scenario(scn, "uniform")',
     ["tests/test_cases.py::test_parity_class_memo_matches_the_per_call_path"]),
    ("perturbations ten times wider than the zero search covers",
     "src/deepnest/configurations.py",
     "a, b = rng.randint(-7, 7), rng.randint(-7, 7)",
     "a, b = rng.randint(-70, 70), rng.randint(-70, 70)",
     ["tests/test_table_proof.py::"
      "test_no_perturbation_changes_a_template_kind"]),
    ("beta = 1 put in the beta = 0 class",
     "src/deepnest/cases.py",
     "BETA_ZERO if beta == 0",
     "BETA_ZERO if beta <= 1",
     ["tests/test_cases.py::test_parity_class_memo_matches_the_per_call_path"]),
    ("pair-table residuals without their parity test",
     "src/deepnest/orientations.py",
     "if lam % 2:",
     "if lam % 1:",
     ["tests/test_cases.py::"
      "test_case_residuals_refuse_an_odd_empty_imbalance",
      "tests/test_orientations.py::test_orevkov_rejects_odd_empty_imbalance"]),
    # an lru_cache of size 0 keeps cache_clear, so the count fails, not
    # the attribute
    ("the parity-class memo without its cache",
     "src/deepnest/cases.py",
     "@cache\ndef _parity_class",
     '@__import__("functools").lru_cache(maxsize=0)\ndef _parity_class',
     ["tests/test_cases.py::test_each_parity_class_is_filtered_once"]),
    ("the with-o1-jumps shape with its inner imbalance negated",
     "src/deepnest/cases.py",
     "WITH_O1_JUMPS: (None, (1, -1), (None,), -1, 1),",
     "WITH_O1_JUMPS: (None, (1, -1), (None,), -1, -1),",
     ["tests/test_cases.py::test_jump_scenario_solutions",
      "tests/test_census_oracle.py::test_feasible_against_the_whole_census"]),
    # no-jumps-odd-gamma has no solution with either eps4, so only the
    # pattern count of the slope proof sees a sign range shrink
    ("no-jumps-odd-gamma without eps4 = -1",
     "src/deepnest/cases.py",
     "NO_JUMPS_ODD_GAMMA: (1, (1, -1), (1, -1), 1, 0),",
     "NO_JUMPS_ODD_GAMMA: (1, (1, -1), (1,), 1, 0),",
     ["tests/test_cases.py::test_only_beta_zero_has_an_identity_flat_in_n"]),
    # every pattern count stays 16, so only the census residuals see it
    ("no-jumps-odd-gamma with eps4 = +-2",
     "src/deepnest/cases.py",
     "NO_JUMPS_ODD_GAMMA: (1, (1, -1), (1, -1), 1, 0),",
     "NO_JUMPS_ODD_GAMMA: (1, (1, -1), (2, -2), 1, 0),",
     ["tests/test_cases.py::"
      "test_each_odd_gamma_pattern_has_its_census_residual_and_slope"]),
    ("a kernel pair minor with one term's sign flipped",
     "src/deepnest/geometry.py",
     "bd0, bd1, bd2 = by * dz - bz * dy,",
     "bd0, bd1, bd2 = by * dz + bz * dy,",
     ["tests/test_geometry.py::test_orientation_table_is_the_sign_of_det3"]),
    ("witness edge plans without the second triangle's edges",
     "src/deepnest/configurations.py",
     "for ta, tb in ((t1, t2), (t2, t1))",
     "for ta, tb in ((t1, t2),)",
     ["tests/test_table_proof.py::"
      "test_edge_plans_find_the_reference_witness"]),
    ("case 3 reads a wrong slot",
     "src/deepnest/configurations.py",
     "slot(4, 3, 5))",
     "slot(4, 3, 6))",
     ["tests/test_classifier_oracle.py::"
      "test_sign_table_classifier_matches_the_point_oracle"]),
    ("a swapped triple reads the unswapped sign",
     "src/deepnest/geometry.py",
     "_SLOTS = {t: i for i, (a, b, c) in enumerate(TABLE_KEYS)",
     "_SLOTS = {t: i % 20 for i, (a, b, c) in enumerate(TABLE_KEYS)",
     ["tests/test_geometry.py::test_orientation_table_is_the_sign_of_det3"]),
    # a collinear 4, 5, 6 then passes the hull, and the classifier, whose
    # witness search has no zero test, can return a verdict for it
    ("the hull's collinearity test without [456]",
     "src/deepnest/geometry.py",
     "triple_signs = signs[10:20]",
     "triple_signs = signs[10:19]",
     ["tests/test_table_proof.py::"
      "test_edge_plans_find_the_reference_witness"]),
    # the rows and the verdict are the parity class's, so only the call
    # budgets see the extra prohibition
    ("theorem1 builds a prohibition beside its parity class",
     "src/deepnest/cases.py",
     'results, survivors = _parity_class(NO_JUMPS_ODD_GAMMA, "uniform")',
     'results, survivors = _prohibit(1, 25, (), "uniform") and '
     '_parity_class(NO_JUMPS_ODD_GAMMA, "uniform")',
     ["tests/test_reachability.py::"
      "test_each_command_keeps_its_call_budgets"]),
    # in-process callers read main's return value, so only a fresh
    # interpreter sees the exit status lost
    ("the entry point drops main's exit status",
     "src/deepnest/cli.py",
     "sys.exit(main())",
     "main()",
     ["tests/test_package.py::"
      "test_the_entry_point_exits_with_the_status_main_returns"]),
    # "1_+" then reads as a count with no sign in both notations
    ("a count token without its sign suffix",
     "src/deepnest/schemes.py",
     'digits, _, sign = tok.partition("_")',
     'digits, sign = tok.partition("_")[0], ""',
     ["tests/test_reader_oracles.py::"
      "test_token_edge_cases_read_as_the_oracle_does"]),
)


def copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dst / name)


def passes(root: Path, ids: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *ids], cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    started = time.monotonic()
    for name, path, old, _, _ in MUTANTS:
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            print(f"error: {name}: old text occurs {found} times in {path}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp, "clean")
        copy_tree(clean)
        ids = sorted({i for *_, ids in MUTANTS for i in ids})
        if not passes(clean, ids):
            print("error: the mutants' tests fail on the unmutated tree")
            return 2
        killed = 0
        for n, (name, path, old, new, ids) in enumerate(MUTANTS):
            root = Path(tmp, f"mutant-{n}")
            copy_tree(root)
            target = root / path
            target.write_text(target.read_text().replace(old, new))
            survived = passes(root, ids)
            killed += not survived
            print(f"{'SURVIVED' if survived else 'killed  '} {name}")
            shutil.rmtree(root)
    print(f"killed {killed}/{len(MUTANTS)} in "
          f"{time.monotonic() - started:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
