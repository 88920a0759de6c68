"""Mutation checks: each mutant breaks one rule of the library, and the tests
named with it must fail.

Run from the repository root (stdlib and pytest only; pytest does not
collect this file):

    python tests/mutants.py

Each entry is (name, file, old text, new text, test ids).  The old text must
occur exactly once in its file, so a change that moves or rewrites the code
must update the entry.  The script first runs every id on an unmutated copy
of `src/`, `tests/` and `pyproject.toml`, where they must pass.  Then, per
entry, it edits a fresh copy and runs the entry's ids: the mutant is killed
if they fail.  It prints one line per mutant and `killed k/n`, and exits 1
unless every mutant is killed (a survivor is reported, never skipped), or 2
if an old text is not found once or the unmutated ids fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
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
)


def copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def passes(root: Path, ids: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *ids], cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
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
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
