"""Every library function earns its place, and each command runs each stage
once: the ledger of what no command runs, and the call budgets.

A fresh interpreter sets `sys.setprofile` before it imports `deepnest`, so
calls made at import time count, and runs every argv of the digest corpus
(`tests/test_cli_corpus.py`).  It records
each library code object entered and, per argv, the exit status and the
number of calls to each library function, keyed by file and first line
(Python 3.10 has no `co_qualname`).  One such run, cached, serves every
test here.

Every function and method defined in `src/deepnest/*.py` (found with
`ast`, nested ones named `outer.<locals>.inner`) that no argv enters must
be an entry of `NEVER_RUN`, and every entry must be such a function.  Each
entry gives one reason, of one of three kinds, and each reason is checked:

* `bench:<module.name>`: the benchmark calls it.  The name is one of
  `TRACED` in `perfbench/tracer.py`, or `perfbench/workloads.py` reads the
  name or its class.  Both files are read as text; nothing is imported
  from them, so the entry fails once the benchmark stops naming it.
* `helper:<entry>`: only another entry calls it.  The named entry must be
  in the ledger, and its body must name this function (its class, for
  `__init__`).
* `test:<file>::<name>`: a tier-1 test reads it, and that test function
  must exist.

A function that no command reaches any more fails the first test until it
is moved out of `src/` or listed here, with its reason, in the same change.
An entry whose function a command runs again, or whose reason stops
holding, fails too; retire it by deleting its line.

The per-argv counts are held to `BUDGETS`: each pipeline stage that no
memo guards runs at most once per argv, `geometry.chart_rep` at most six
times (one sign vector of six points), a `theorem1` argv never enters
`cases._prohibit`, and an argv that exits 0 never enters
`schemes._syntax_error`.  Memoized functions are not budgeted: one process
runs every argv, so a memo hit of one argv enters no frame.  Call counts
are exact and deterministic, where the time a profiler books is not.

Run as a script, `PYTHONPATH=src python tests/test_reachability.py`
prints the never-run functions with their reasons, marks any that the
ledger does not list, then prints per budget the most calls that one argv
makes and that argv, and exits 1 if the ledger and the trace differ or a
budget does not hold.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deepnest"
PERFBENCH = ROOT / "perfbench"

NEVER_RUN = {
    # the package's __dir__ serves dir(deepnest)
    "__init__.__dir__": "test:tests/test_package.py::test_public_names_are_unchanged",
    "cases.SignCase.as_tuple": "test:tests/test_acceptance.py::test_criterion_02",
    "cases.Scenario._make": "test:tests/test_cases.py::test_make_and_replace_validate_as_the_constructor_does",
    "cases.deep_nest_scheme": "bench:cases.deep_nest_scheme",
    "cases.beta_zero_contradiction": "test:tests/test_acceptance.py::test_criterion_07",
    "configurations.sigma_shift": "bench:configurations.sigma_shift",
    "configurations.verify_witness": "bench:configurations.verify_witness",
    "configurations.classify_configuration": "bench:configurations.classify_configuration",
    "configurations.perturb_configuration": "bench:configurations.perturb_configuration",
    "configurations.sample_configuration": "bench:configurations.sample_configuration",
    "configurations.configuration_kind": "bench:configurations.configuration_kind",
    "conics.conic_matrix2": "helper:conics.polar_line",
    "conics.polar_line": "bench:conics.polar_line",
    "conics._raw_pair": "helper:conics.conic_through_5",
    "conics.conic_through_5": "bench:conics.conic_through_5",
    "conics.CremonaMap.__init__": "helper:conics.cremona",
    "conics.CremonaMap.point": "bench:conics.CremonaMap.point",
    "conics.cremona": "bench:conics.cremona",
    "geometry.det3": "helper:conics.conic_through_5",
    "geometry.sign": "helper:geometry.chart_orient",
    "geometry.chart_orient": "helper:configurations.verify_witness",
    "geometry._half": "helper:geometry.circle_less",
    "geometry.circle_less": "helper:geometry.circle_sort.<locals>.cmp",
    "geometry.circle_sort": "bench:geometry.circle_sort",
    "geometry.circle_sort.<locals>.cmp": "helper:geometry.circle_sort",
    "geometry._raw_cross": "helper:conics.conic_through_5",
    "schemes._Hashed.__hash__": "test:tests/test_schemes.py::test_a_tree_hashes_as_its_plain_tuple",
    "schemes.tree_hash": "test:tests/test_schemes.py::test_a_tree_hashes_as_its_plain_tuple",
}

# (which argv, library function, most calls per argv); the memoized
# `cases._parity_class`, `_solve_scenario` and `_no_jump_magnitudes` have
# none
BUDGETS = (
    # each pipeline stage runs at most once per command
    *(("every argv", name, 1) for name in (
        "geometry.orientation_signs",
        "geometry.orientation_table",
        "geometry._hull_cycle",
        "configurations._classify_signs",
        "configurations.find_witness",
        "configurations.reducible_cubic_sequence",
        "conics.conic_pencil_events",
        "schemes.read_scheme",
        "schemes.classify_deep_nest",
        "bezout.parse_trace",
        "cases._prohibit",
    )),
    # one chart representative per point of the one sign vector
    ("every argv", "geometry.chart_rep", 6),
    # theorem1 reads its one parity class, with no prohibition per row
    ("theorem1", "cases._prohibit", 0),
    # an error text is built only for a rule that fails
    ("exit 0", "schemes._syntax_error", 0),
)

# which argv -> whether a run (argv text, exit status) is one of them
SCOPES = {
    "every argv": lambda text, status: True,
    "theorem1": lambda text, status: "theorem1" in text.split(),
    "exit 0": lambda text, status: status == 0,
}

# runs the digest corpus with a profiler set before deepnest is imported,
# and prints JSON: [file stem, first line] of every src/deepnest code object
# entered, and per argv, [argv text, exit status, [[file stem, first line,
# calls] of each src/deepnest code object it entered]], the argv text with
# file paths as bare names and long texts as their corpus placeholders;
# argv: the repository root.  Calls made before the first argv (imports)
# count only as entered.
PROBE = """
import json, pathlib, sys, tempfile
from collections import Counter
root = pathlib.Path(sys.argv[1])
src = str(root / "src" / "deepnest") + "/"
counts, runs = Counter(), []
imports = counts

def profile(frame, event, arg):
    if event == "call":
        counts[frame.f_code] += 1

def traced(main, tmp):
    def run(argv):
        global counts
        counts, status = Counter(), None
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
            raise
        finally:
            text = " ".join(short.get(a) or a.replace(tmp + "/", "")
                            for a in argv)
            runs.append((text, status, counts))
        return status
    return run

sys.setprofile(profile)
sys.path.insert(0, str(root / "tests"))
import test_cli_corpus as corpus
short = {text: key for key, text in corpus.PLACEHOLDERS.items()}
with tempfile.TemporaryDirectory() as tmp:
    corpus.main = traced(corpus.main, tmp)
    corpus.corpus_digests(pathlib.Path(tmp))
sys.setprofile(None)

def ours(counter):
    out = Counter()
    for code, n in counter.items():
        if code.co_filename.startswith(src):
            out[pathlib.Path(code.co_filename).stem, code.co_firstlineno] += n
    return out

runs = [(text, status, ours(c)) for text, status, c in runs]
entered = set(ours(imports)).union(*(c for *_, c in runs))
print(json.dumps({"entered": sorted(entered),
                  "runs": [[text, status, [[*k, n] for k, n in c.items()]]
                           for text, status, c in runs]}))
"""


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """qualname -> def node of every function and method in a module."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[prefix + child.name] = child
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def library() -> dict[str, ast.AST]:
    """`module.qualname` -> def node, over src/deepnest/*.py."""
    return {f"{path.stem}.{name}": node
            for path in sorted(SRC.glob("*.py"))
            for name, node in _functions(ast.parse(path.read_text())).items()}


def _first_line(node) -> int:
    # a code object starts at its first decorator
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


@functools.cache
def trace() -> tuple[set, list]:
    """One probe run: the (file stem, first line) of every library code
    object entered, and per argv (argv text, exit status, {(file stem,
    first line): calls})."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, str(ROOT)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    return ({tuple(e) for e in out["entered"]},
            [(text, status, {(stem, line): n for stem, line, n in calls})
             for text, status, calls in out["runs"]])


def never_run() -> set[str]:
    """The library functions that no corpus argv enters."""
    entered, _ = trace()
    return {name for name, node in library().items()
            if (name.partition(".")[0], _first_line(node)) not in entered}


def _names(node) -> set[str]:
    """The identifiers and attribute names that a tree reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def bench_names() -> tuple[set[str], set[str]]:
    """(`module.name` of each TRACED entry, names that workloads.py reads)."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED"
                          for t in node.targets))
    return ({f"{module}.{name}" for module, names in traced.items()
             for name in names},
            _names(ast.parse((PERFBENCH / "workloads.py").read_text())))


def reason_problems() -> list[str]:
    """The "entry: reason" line of each entry whose reason does not hold."""
    functions = library()
    traced, workload_names = bench_names()
    problems = []
    for entry, reason in NEVER_RUN.items():
        kind, _, target = reason.partition(":")
        if kind == "bench":
            held = target == entry and (
                target in traced
                or target.split(".")[1] in workload_names)
        elif kind == "helper":
            short = entry.split(".")[-1]
            if short == "__init__":
                short = entry.split(".")[-2]
            held = (target in NEVER_RUN and target != entry
                    and target in functions
                    and short in _names(functions[target]))
        elif kind == "test":
            path, _, name = target.partition("::")
            held = (ROOT / path).is_file() and any(
                isinstance(node, ast.FunctionDef) and node.name == name
                for node in ast.parse((ROOT / path).read_text()).body)
        else:
            held = False
        if not held:
            problems.append(f"{entry}: {reason}")
    # a chain of helpers ends at a bench or test reason
    for entry in NEVER_RUN:
        seen = [entry]
        while NEVER_RUN.get(seen[-1], "").startswith("helper:"):
            seen.append(NEVER_RUN[seen[-1]].partition(":")[2])
            if seen[-1] in seen[:-1]:
                problems.append("helper cycle: " + " -> ".join(seen))
                break
    return problems


def budget_rows() -> list[tuple]:
    """Per budget: (which argv, function, most calls allowed, most calls
    that one such argv makes, the first argv that makes them); the calls
    are None for a name that is no library function, and the argv None
    when no argv is in scope."""
    functions = library()
    _, runs = trace()
    rows = []
    for scope, name, limit in BUDGETS:
        node = functions.get(name)
        key = node and (name.partition(".")[0], _first_line(node))
        scoped = [(calls.get(key, 0), text) for text, status, calls in runs
                  if SCOPES[scope](text, status)]
        most, text = max(scoped, key=lambda r: r[0], default=(0, None))
        rows.append((scope, name, limit, node and most, text))
    return rows


def budget_problems(rows) -> list[str]:
    """The budgets that an argv breaks, or that hold vacuously."""
    problems = []
    for scope, name, limit, most, text in rows:
        if most is None:
            problems.append(f"{name}: not a library function")
        elif text is None:
            problems.append(f"{scope}: no argv of the corpus")
        elif most > limit:
            problems.append(f"{name}: {scope} allows {limit} calls, "
                            f"{text} makes {most}")
    return problems


def test_the_functions_no_command_runs_are_the_ledger():
    unreached = never_run()
    assert {"not in the ledger": sorted(unreached - NEVER_RUN.keys()),
            "run by a command": sorted(NEVER_RUN.keys() - unreached)} \
        == {"not in the ledger": [], "run by a command": []}


def test_every_reason_holds():
    assert reason_problems() == []


def test_each_command_keeps_its_call_budgets():
    assert budget_problems(budget_rows()) == []


def main() -> int:
    unreached = never_run()
    width = max(map(len, unreached | NEVER_RUN.keys()))
    for name in sorted(unreached | NEVER_RUN.keys()):
        if name not in unreached:
            reason = "RUN BY A COMMAND: retire this entry"
        else:
            reason = NEVER_RUN.get(name, "NOT IN THE LEDGER")
        print(f"{name:<{width}}  {reason}")
    problems = reason_problems()
    for problem in problems:
        print(f"reason does not hold: {problem}")
    print(f"{len(unreached)} of {len(library())} library functions are run "
          f"by no command; the ledger lists {len(NEVER_RUN)}")
    rows = budget_rows()
    print("\ncall budgets: the most calls one argv makes, and that argv")
    width = max(len(name) for _, name, *_ in rows)
    for scope, name, limit, most, text in rows:
        print(f"{name:<{width}}  {most} of at most {limit} on {scope}: {text}")
    breaches = budget_problems(rows)
    for problem in breaches:
        print(f"budget does not hold: {problem}")
    return int(unreached != NEVER_RUN.keys() or bool(problems)
               or bool(breaches))


if __name__ == "__main__":
    sys.exit(main())
