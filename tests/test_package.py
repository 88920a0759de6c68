"""The package's public names, and the modules each command loads.

`import deepnest` loads no submodule: every exported name imports its
module on first use.  A command loads only the modules it runs: schemes for
plain `parse`, orientations too for signed `parse` and `check-*`, cases too
for `solve`, `prohibit` and `theorem*`, bezout alone for `audit` and the
six-point geometry alone for `lemma3`; a usage error loads none of them.
No command loads `dataclasses` or `inspect`, because the records are
NamedTuples, nor `fractions` or `decimal`, because the kernel and the
stored configurations are integer triples.
Each check starts a fresh interpreter, because this test process has long
imported everything.  The module entry point exits with the status that
`main` returns, and the console script `deepnest` is that `main`.  Every
function that the benchmark's span tracer patches by name (`TRACED` in
perfbench/tracer.py) is defined where it says.

The package exports its seven modules and the functions that the
benchmark's workloads read; records, errors, constants and the other
functions are public in their modules alone.  The README's Library section
documents each exported function on a line of its own, and each name of a
module on that module's line.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import deepnest
from chart import perfbench_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CLI = {"deepnest.cli"}
SCHEMES = CLI | {"deepnest.schemes"}
ORIENTATIONS = SCHEMES | {"deepnest.orientations"}
CASES = ORIENTATIONS | {"deepnest.cases"}
GEOMETRY = CLI | {"deepnest.geometry", "deepnest.conics",
                  "deepnest.configurations"}
SIGNED = "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>"

# imports deepnest, runs `deepnest ARGV` if given, and prints the exit
# status (argparse exits by SystemExit) and the deepnest modules then loaded,
# with dataclasses, inspect, fractions and decimal if any of them is
PROBE = """
import contextlib, io, json, sys
import deepnest
code = None
if sys.argv[1:]:
    from deepnest.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("deepnest.")
                               or m in ("dataclasses", "inspect",
                                        "fractions", "decimal"))]))
"""

# deepnest.__all__: the seven modules and the functions that the
# benchmark's workloads read as `dn.<name>`
PUBLIC_NAMES = [
    "audit", "bezout", "cases", "check_orevkov", "check_rokhlin_mishachev",
    "classify_configuration", "classify_deep_nest", "configurations",
    "conics", "deep_nest_scheme", "geometry", "make_scenario",
    "orevkov_filter", "orientations", "parse_scheme", "parse_signed",
    "parse_trace", "print_scheme", "prohibit", "reducible_cubic_sequence",
    "sample_configuration", "schemes", "solve_scenario", "theorem1_report",
    "theorem2_report",
]

# records, errors, constants and other functions that the package once
# exported too: each is public in its module alone
MODULE_NAMES = {
    **dict.fromkeys(("DeepNestProfile", "InadmissibleSchemeError",
                     "RealScheme", "SchemeSyntaxError", "is_m_curve"),
                    "schemes"),
    **dict.fromkeys(("OrientationParityError", "OrientationStats",
                     "SignedScheme", "chain_imbalance_magnitudes",
                     "chain_imbalance_set", "compute_stats", "print_signed",
                     "rm_rhs"), "orientations"),
    **dict.fromkeys(("BETA_ZERO", "NO_JUMPS_EVEN_GAMMA", "NO_JUMPS_ODD_GAMMA",
                     "SCENARIO_KINDS", "WITH_O1_JUMPS",
                     "InfeasibleOrientationError", "ProhibitReport",
                     "Scenario", "SignCase", "beta_zero_contradiction",
                     "emit_complex_scheme"), "cases"),
    **dict.fromkeys(("BASE_CONFIGURATIONS", "REFERENCE_SEQUENCES",
                     "Classification"), "configurations"),
    **dict.fromkeys(("AuxCurveTrace", "BudgetReport", "InvalidTraceError",
                     "load_trace"), "bezout"),
}


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=GOLDEN, env=env,
                          capture_output=True, text=True, timeout=60)


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    done = fresh("-c", PROBE, *argv)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, set(modules)


def test_import_loads_no_submodule():
    assert loaded_by() == (None, set())


@pytest.mark.parametrize("argv, modules", [
    (["parse", "--scheme", "<J + 1<4 + 1<22>>>"], SCHEMES),
    (["parse", "--scheme", SIGNED], ORIENTATIONS),
    (["check-rm", "--scheme", SIGNED], ORIENTATIONS),
    (["check-orevkov", "--scheme", SIGNED], ORIENTATIONS),
    (["solve", "--scenario", "with-o1-jumps"], CASES),
    (["prohibit", "--scheme", "<J + 1<3 + 1<23>>>"], CASES),
    (["theorem1"], CASES),
    (["theorem2", "--beta", "12"], CASES),
], ids=["parse", "parse-signed", "check-rm", "check-orevkov", "solve",
        "prohibit", "theorem1", "theorem2"])
def test_orientation_commands_load_only_the_orientation_stack(argv, modules):
    assert loaded_by("--json", *argv) == (0, modules)


def test_audit_loads_bezout_and_no_geometry():
    assert loaded_by("--json", "audit", "--trace", "trace.json") == (
        0, CLI | {"deepnest.bezout"})


def test_lemma3_loads_the_geometry_stack():
    assert loaded_by("--json", "lemma3", "--case", "1", "--samples", "1") == (
        0, GEOMETRY)


def test_lemma3_rejects_missing_case_before_loading_geometry():
    assert loaded_by("--json", "lemma3") == (2, CLI)


def test_usage_error_loads_no_stack():
    assert loaded_by("--json", "solve", "--scenario",
                     "no-such-scenario") == (2, CLI)


def test_the_entry_point_exits_with_the_status_main_returns():
    assert fresh("-m", "deepnest.cli", "--json", "theorem1").returncode == 0
    done = fresh("-m", "deepnest.cli", "--json", "theorem2", "--beta", "3")
    assert done.returncode == 2
    assert done.stderr.startswith("deepnest: error: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_the_console_script_is_the_entry_points_main():
    # read as text: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert ('\n[project.scripts]\ndeepnest = "deepnest.cli:main"\n\n'
            in pyproject)


def test_cli_scenario_choices_match_the_library():
    from deepnest import cases, cli
    assert cli.SCENARIO_KINDS == cases.SCENARIO_KINDS


def test_every_traced_name_resolves():
    # the benchmark's span tracer patches these functions by name
    tracer = perfbench_module("tracer")
    missing = []
    for module, names in tracer.TRACED.items():
        home = importlib.import_module(f"deepnest.{module}")
        for name in names:
            # a dotted name is a method, defined on its class
            owner, _, attr = name.rpartition(".")
            fn = vars(getattr(home, owner) if owner else home).get(attr)
            if not (callable(fn) and fn.__module__ == home.__name__):
                missing.append(f"{module}.{name}")
    assert missing == []


def test_public_names_are_unchanged():
    assert sorted(deepnest.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(deepnest))


@pytest.mark.parametrize("name", sorted([*PUBLIC_NAMES, *MODULE_NAMES]))
def test_each_public_name_resolves_and_stays_bound(name):
    module = MODULE_NAMES.get(name)
    if module is None:
        value = getattr(deepnest, name)
        # bound in the package namespace, so the next lookup is a dict hit
        assert vars(deepnest)[name] is value
    else:
        assert hasattr(importlib.import_module(f"deepnest.{module}"), name)
        assert not hasattr(deepnest, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from deepnest import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(deepnest, "no_such_name")
    with pytest.raises(ImportError):
        exec("from deepnest import no_such_name", {})


def test_readme_library_snippet_runs_in_a_fresh_interpreter():
    snippet = re.search(r"```python\n(.*?)```", library_section(),
                        re.S).group(1)
    done = fresh("-c", snippet)
    assert done.returncode == 0, done.stderr


def library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library\n")
    return readme[start:readme.index("\n## ", start + 1)]


def test_the_readme_documents_every_public_name():
    library = library_section()
    # one line per exported function, one table row per module (and cli)
    functions = re.findall(r"^- `(\w+)\(", library, re.M)
    modules = re.findall(r"^\| `(\w+)`", library, re.M)
    assert sorted({*functions, *modules} - {"cli"}) == sorted(deepnest.__all__)
    # each name public in its module alone is named on its module's line
    lines = {m: line for m, line in re.findall(
        r"^- `deepnest\.(\w+)`:(.*)$", library, re.M)}
    assert [name for name, module in MODULE_NAMES.items()
            if f"`{name}`" not in lines.get(module, "")] == []


def test_every_name_the_benchmark_reads_is_exported():
    # read as text, as the ledger reads it: nothing is imported from it
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(
        encoding="utf-8")
    read = set(re.findall(r"\bdn\.(\w+)", workloads))
    assert read and read <= set(deepnest.__all__)
