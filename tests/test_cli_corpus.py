"""Byte-identical command-line output over one fixed corpus of argv.

``tests/golden/cli-digests.json`` holds one SHA-256 digest of the JSON
list [exit status, stdout, stderr] per argv, keyed by the argv text.  It is
the one digest corpus: every command's exit status and report is pinned
here, and CI runs the installed console script only to check that it is
installed.  It covers:

* the README examples, with and without ``--json``: each ``deepnest``
  line of the README's ``sh`` blocks, read from README.md itself;
* ``theorem2 --beta B`` for B = -1..27, and ``theorem1`` with a few
  ``--known`` lists;
* ``prohibit`` at every beta 0..26 in both modes;
* ``solve`` for every kind and mode: with no size, with ``--beta 0..26``
  and with a few ``--gamma`` values;
* ``lemma3 --case K`` with its default sample count and seed, and with
  ``--seed S --samples 40`` for S = 0..4;
* ``lemma3 --config`` for each of the 28 stored templates (the three base
  configurations, ``caseK.json``, and the 25 excluded patterns, each in a
  file named after it);
* degenerate ``lemma3 --config`` files (a point on J, a collinear triple,
  a repeated point, the zero triple, labels 2..6 out of pencil order) and
  malformed ones;
* ``parse`` of inadmissible schemes, each with its witness oval, and
  ``check-rm --mode paper``, which reads the literal pair convention;
* the malformed argv of the cli-cold benchmark workload;
* the paths a command reaches that none of the above runs
  (``more_paths``): signed ``parse`` with its item errors, each rule of
  the scheme reader, a nest with empty ovals outside it, identical
  containers merged, ``theorem2`` sizes that do not add up to 26,
  ``lemma3 --config`` with ``--case``, with a valid configuration whose
  verdict is MISMATCH and with three configurations relabelled so that the
  classifier reads them at relabel shift 4, each rule of the trace reader
  and the two crossing floors of ``audit``;
* the edges of the command line (also in ``more_paths``): ``--known`` and
  ``--beta`` texts that are no decimal list, ``lemma3 --case K --samples
  200``, ``--samples`` out of range, and the 1501-deep nest, plain and
  signed, at degrees whose depth bound it meets and exceeds.

Every input file is written into a fresh directory and its path is masked
as the file's name, an argv too long to print is given by its key in
``PLACEHOLDERS``, and the human form's ``elapsed`` line is masked.  An
argparse usage error (SystemExit) keeps its exit status, but its stderr is
masked: that text is argparse's, and its wording differs between Python
versions.  Regenerate the file only when a report is meant to change:
``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import re
import shlex
import tempfile

from deepnest.cli import SCENARIO_KINDS, main
from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    EXCLUSION_TEMPLATES,
    reducible_cubic_sequence,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "cli-digests.json"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)

SIGNED = "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>"
ELAPSED = re.compile(r"^  elapsed: .*$", re.M)

README_POINTS = [[2, -1, -10], [3, -3, -10], [1, 0, 1], [1, 0, -1],
                 [0, 1, 1], [0, 1, -1]]


def _points(*points) -> str:
    return json.dumps([{"label": k, "point": p}
                       for k, p in enumerate(points, start=1)])


def _sigma(points) -> str:
    """The six points of labels 1..6 relabelled by sigma, which takes label
    x to x + 1 on 2..6: label 2 gets the point of label 6."""
    return _points(*(points[i] for i in (0, 5, 1, 2, 3, 4)))


def _with(index: int, value) -> list:
    points = [list(p) for p in README_POINTS]
    points[index] = value
    return points


# lemma3 --config inputs: name -> file text
CONFIGS = {
    "points.json": (GOLDEN / "points.json").read_text(encoding="utf-8"),
    "on-j.json": _points(*_with(3, [1, 0, 0])),
    "collinear.json": _points([0, 0, 1], [10, -1, 1], [10, 1, 1], [10, 3, 1],
                              [1, 10, 1], [-10, 10, 1]),
    "pencil-collinear.json": _points([0, 0, 1], [1, 0, 1], [1, 1, 1],
                                     [0, 1, 1], [-2, 0, 1], [1, -1, 1]),
    # the README points with labels 3 and 4 swapped: the pencil at 1 meets
    # 2..6 as 2, 4, 3, 5, 6
    "not-consecutive.json": _points(*(README_POINTS[i]
                                      for i in (0, 1, 3, 2, 4, 5))),
    "repeated.json": _points(*_with(4, README_POINTS[2])),
    "repeated-scaled.json": _points(*_with(4, [-2, 0, -2])),
    "zero.json": _points(*_with(2, [0, 0, 0])),
    "object.json": json.dumps({"1": [0, 0, 1]}),
    "five.json": _points(*README_POINTS[:5]),
    "seven.json": _points(*README_POINTS, [7, 7, 1]),
    "no-point.json": json.dumps([{"label": k} for k in range(1, 7)]),
    "extra-key.json": json.dumps(
        [{"label": k, "point": p, "name": "x"}
         for k, p in enumerate(README_POINTS, start=1)]),
    "string-label.json": json.dumps(
        [{"label": str(k), "point": p}
         for k, p in enumerate(README_POINTS, start=1)]),
    "bool-label.json": json.dumps(
        [{"label": k if k > 1 else True, "point": p}
         for k, p in enumerate(README_POINTS, start=1)]),
    "two-coordinates.json": _points(*_with(1, [3, -3])),
    "float-coordinate.json": _points(*_with(1, [3.0, -3, -10])),
    "bool-coordinate.json": _points(*_with(1, [True, -3, -10])),
    "duplicate-label.json": json.dumps(
        [{"label": min(k, 5), "point": p}
         for k, p in enumerate(README_POINTS, start=1)]),
    "labels-0-5.json": json.dumps(
        [{"label": k, "point": p} for k, p in enumerate(README_POINTS)]),
    # a valid case 2 configuration whose event sequence is not the
    # reference's: one of the 60 mismatches among the 200 configurations of
    # `test_position_cycles.random_valid_configurations(random.Random(7), 200)`
    "mismatch.json": _points([632, -431, -1], [386, -75, -1], [597, -501, 1],
                             [833, -176, -1], [492, -626, -1],
                             [260, 387, -1]),
    "not-json.json": "[{\"label\": 1, ",
    "empty.json": "",
    "deep.json": "[" * 100_000 + "]" * 100_000,
}
# the 28 stored templates, each in a file named after its kind
TEMPLATES = {**{f"case{k}": cfg for k, cfg in BASE_CONFIGURATIONS.items()},
             **EXCLUSION_TEMPLATES}
CONFIGS.update({f"{kind}.json": json.dumps([{"label": k, "point": p}
                                            for k, p in cfg.items()])
                for kind, cfg in TEMPLATES.items()})
# the README points, case 3's base points and an excluded pattern,
# relabelled: the classifier reads each from its table at relabel shift 4
RELABELLED = {
    "sigma-points.json": _sigma(README_POINTS),
    "sigma-case3.json": _sigma([BASE_CONFIGURATIONS[3][k]
                                for k in range(1, 7)]),
    "sigma-quadrangle-A-T1.json": _sigma(
        [EXCLUSION_TEMPLATES["quadrangle-A-T1"][k] for k in range(1, 7)]),
}
CONFIGS.update(RELABELLED)

_LONE = json.loads((GOLDEN / "trace.json").read_text(encoding="utf-8"))
_LONE["visits"][0] = {"oval": "lone", "role": "median", "node": True}


def _trace(**fields) -> str:
    """A degree-1 trace with two visits inside the inner nest oval, with
    `fields` put in or replaced."""
    return json.dumps({"degree": 1,
                       "visits": [{"oval": "a", "role": "inner"},
                                  {"oval": "b", "role": "inner"}],
                       "arcs": [{}, {}], **fields})


_INNER = {"oval": "a", "role": "inner"}
TRACES = {
    "trace.json": (GOLDEN / "trace.json").read_text(encoding="utf-8"),
    "unpaired-node.json": json.dumps(_LONE),
    # an odd degree with no crossing: both floors of two crossings apply;
    # with a median visit only the outer oval's does
    "inner-floors.json": _trace(extras=[{"count": 3, "tag": "tangency"}]),
    "median-floor.json": _trace(visits=[_INNER,
                                        {"oval": "b", "role": "median"}]),
    # one per rule of parse_trace, in its order, then load_trace's own
    "trace-list.json": "[]",
    "trace-key.json": _trace(colour="red"),
    "trace-degree.json": _trace(degree=0),
    "trace-no-visits.json": _trace(visits=[], arcs=[]),
    "visit-list.json": _trace(visits=[[], _INNER]),
    "visit-key.json": _trace(visits=[{**_INNER, "colour": "red"}, _INNER]),
    "visit-oval.json": _trace(visits=[{**_INNER, "oval": True}, _INNER]),
    "visit-role.json": _trace(visits=[{**_INNER, "role": "outer"}, _INNER]),
    "visit-node.json": _trace(visits=[{**_INNER, "node": 1}, _INNER]),
    "arcs-object.json": _trace(arcs={}),
    "arcs-short.json": _trace(arcs=[{}]),
    "arc-list.json": _trace(arcs=[{}, []]),
    "arc-key.json": _trace(arcs=[{}, {"colour": "red"}]),
    "arc-negative.json": _trace(arcs=[{"jCrossings": -1}, {}]),
    "extras-object.json": _trace(extras={}),
    "extra-list.json": _trace(extras=[[]]),
    "trace-extra-key.json": _trace(extras=[{"count": 1, "tag": "t", "x": 0}]),
    "extra-negative.json": _trace(extras=[{"count": -1, "tag": "t"}]),
    "extra-untagged.json": _trace(extras=[{"count": 1, "tag": " "}]),
    "two-roles.json": _trace(visits=[_INNER, {**_INNER, "role": "median"}]),
    "trace-not-json.json": "{\"degree\": ",
    "trace-deep.json": "[" * 100_000 + "]" * 100_000,
}


# schemes that `classify_deep_nest` refuses, one per rule
INADMISSIBLE = ["<J + 1<1<1<5>>>>", "<J + 2<1<5>>>", "<J + 1<5> + 1<1<5>>>",
                "<J + 1<1<5> + 1<6>>>", "<J + 1<2<5>>>",
                "<J + 1<1<1> + 1<2<1>>>>"]

# argv texts too long to print, by the key that stands for each in the
# corpus, the digest keys and the reachability probe: the 1501-deep nest
# (1500 containers around one oval), beyond degree 9's depth bound, within
# degree 3003's and beyond degree 2999's, and the same nest signed, whose
# innermost 2_- keeps the empty-oval imbalance even
PLACEHOLDERS = {
    "DEEP": "<J + " + "1<" * 1500 + "1" + ">" * 1500 + ">",
    "SIGNED_DEEP": "<J + " + "1_+<" * 1500 + "2_-" + ">" * 1500 + ">",
}


def _nest(beta: int) -> str:
    """The depth-3 nest with beta ovals beside the inner container."""
    return {0: "<J + 1<1<26>>>", 26: "<J + 1<27>>"}.get(
        beta, f"<J + 1<{beta} + 1<{26 - beta}>>>")


def readme_blocks(language: str) -> list[str]:
    """The text of each README code block fenced as `language`, in order."""
    return [body for lang, body in FENCED.findall(README.read_text(
        encoding="utf-8")) if lang == language]


def readme_examples() -> list[list[str]]:
    """The argv of each `deepnest` line of the README's sh blocks: a shown
    prompt `$ ` is dropped and a trailing comment cut."""
    examples = []
    for block in readme_blocks("sh"):
        for line in block.splitlines():
            line = line.removeprefix("$ ")
            if line.startswith("deepnest "):
                examples.append(shlex.split(line, comments=True)[1:])
    return examples


def corpus() -> list[list[str]]:
    """Every corpus argv, with each file argument given by its bare name
    and each long text by its key in PLACEHOLDERS."""
    readme = readme_examples()
    runs = [["--json", *argv] for argv in readme] + readme
    # theorem2 --beta 12 is a README example, and the sweep holds the
    # malformed odd betas
    runs += [["--json", "theorem2", "--beta", str(b)] for b in range(-1, 28)
             if b != 12]
    runs += [["--json", "theorem1", "--known", known]
             for known in ("1,3,5,7", "", "25", "0,26", "27", "1,x")]
    runs += [["--json", "prohibit", "--scheme", _nest(b), "--mode", mode]
             for b in range(27) for mode in ("paper", "uniform")]
    for kind in SCENARIO_KINDS:
        for mode in ("paper", "uniform"):
            solve = ["--json", "solve", "--scenario", kind, "--mode", mode]
            runs.append(solve)
            runs += [[*solve, "--beta", str(b)] for b in range(27)]
            runs += [[*solve, "--gamma", str(g)]
                     for g in (-1, 0, 1, 13, 24, 25, 26, 27)]
    runs += [["--json", "lemma3", "--case", str(k)] for k in (1, 2, 3)]
    runs += [["--json", "lemma3", "--case", str(k), "--seed", str(s),
              "--samples", "40"] for k in (1, 2, 3) for s in range(5)]
    runs += [["--json", "lemma3", "--config", name] for name in CONFIGS
             if name not in ("points.json", "mismatch.json", *RELABELLED)]
    runs += [["--json", "lemma3", "--config", "missing.json"],
             ["--json", "audit", "--trace", "unpaired-node.json"]]
    runs += [["--json", "parse", "--scheme", text] for text in INADMISSIBLE]
    runs += [["--json", "check-rm", "--mode", "paper", "--scheme", text]
             for text in (SIGNED, "<J + 1_+<2_+> + 1_-<3_+>>")]
    runs += [["--json", *argv] for argv in (
        ["parse", "--scheme", "<J + 1<4 + 1<2"],
        ["solve", "--scenario", "no-such-scenario"],
        ["check-orevkov", "--scheme", "<J + 1_-<3_+ + 8_- + 1_-<10_+ + 4_->>>"],
        ["prohibit", "--scheme", "<J + 1<5 + 1<7>>>"],
        ["lemma3", "--seed", "3"],
        ["lemma3"],
        ["lemma3", "--case", "4"],
        ["check-rm", "--degree", "8", "--scheme", "<1_+<3_+ + 2_->>"],
        ["parse", "--scheme", "DEEP"],
        ["lemma3", "--case", "2", "--samples", "-3"],
        ["lemma3", "--case", "1", "--samples", "0"],
        ["parse", "--degree", "0", "--scheme", "<1>"],
        ["parse", "--degree", "-2", "--scheme", "<1>"],
        ["parse", "--degree", "-3", "--scheme", "<J + 1>"],
    )]
    runs += more_paths()
    return runs


def more_paths() -> list[list[str]]:
    """Paths that a command reaches and the argv above do not run: the
    signed `parse` and its item errors, every rule of the scheme reader,
    a nest with empty ovals outside it, identical containers merged,
    theorem2 with sizes that do not add up, lemma3 --config with --case,
    with a valid configuration whose sequence is a MISMATCH and with the
    relabelled configurations, and every rule of the trace reader, with the
    floors of `audit`; then the edges of the command line: integer texts
    that are no decimal list, `--samples` at 200 and out of range, and the
    1501-deep nest at degrees whose depth bound it meets and exceeds."""
    runs = [["--json", "parse", "--scheme", text] for text in (
        SIGNED,
        "<J + 0 + 1_+<0>>",             # a bare 0, an oval holding nothing
        "<J + 1_-<3_+ + 9>>",           # a signed count without its sign
        "<J + 2_-<3_+>>",               # a signed container of count 2
        "J + 1>",                       # no '<'
        "<J + 01>",                     # a leading zero
        "<J + + 1>",                    # no item
        "<1<J>>",                       # J inside an oval
        "<J + J>",                      # J twice
        "<J + 1> 2",                    # trailing input
        "<1>",                          # no J at odd degree
        "<J + 0 + 1<0>>",               # plain: a bare 0, "1<0>"
        "<J + 2 + 1<3 + 1<21>>>",       # empty ovals outside the nest
        "<J + 1<2> + 1<2> + 24>",       # identical containers, merged
    )]
    runs += [
        ["--json", "parse", "--degree", "8", "--scheme", "<J + 1>"],
        ["--json", "prohibit", "--scheme", "<J + 2 + 1<3 + 1<21>>>"],
        ["--json", "prohibit", "--scheme", "<J + 1_+<3 + 1<23>>>"],
        ["--json", "prohibit", "--scheme", "<J + 28>"],
        ["--json", "theorem2", "--beta", "12", "--gamma", "13"],
        ["--json", "theorem2", "--beta", "12", "--gamma", "27"],
        ["--json", "lemma3", "--config", "points.json", "--case", "1"],
        ["--json", "lemma3", "--config", "mismatch.json"],
    ]
    runs += [["--json", "lemma3", "--config", name] for name in RELABELLED]
    runs += [["--json", "audit", "--trace", "missing.json"]]
    runs += [["--json", "audit", "--trace", name] for name in TRACES
             if name not in ("trace.json", "unpaired-node.json")]
    runs += [["--json", *argv] for argv in (
        ["theorem1", "--known", "100"],
        ["theorem1", "--known", "1,,3"],
        ["theorem2", "--beta", "1_0"],
        ["lemma3", "--config", "points.json", "--samples", "-3"],
        *(["lemma3", "--case", str(k), "--samples", "200"]
          for k in (1, 2, 3)),
        ["lemma3", "--case", "1", "--samples", "10001"],
        ["lemma3", "--case", "1", "--samples", "10000000000000000000"],
        ["parse", "--degree", "3003", "--scheme", "DEEP"],
        ["parse", "--degree", "2999", "--scheme", "DEEP"],
        ["check-rm", "--degree", "3003", "--scheme", "SIGNED_DEEP"],
        ["check-orevkov", "--degree", "3003", "--scheme", "SIGNED_DEEP"],
    )]
    return runs


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            return main(argv), stdout.getvalue(), stderr.getvalue()
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), "USAGE"


def corpus_digests(workdir: pathlib.Path) -> dict[str, str]:
    """Run every corpus argv through `main`; argv text -> digest."""
    assert not CONFIGS.keys() & TRACES.keys()
    files = {**CONFIGS, **TRACES}
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    paths = {name: str(workdir / name) for name in [*files, "missing.json"]}
    values = {**PLACEHOLDERS, **paths}
    out = {}
    for argv in corpus():
        code, *texts = _run([values.get(a, a) for a in argv])
        for name in set(argv) & set(paths):
            texts = [t.replace(paths[name], name) for t in texts]
        texts = [ELAPSED.sub("  elapsed: ELAPSED", t) for t in texts]
        blob = json.dumps([code, *texts]).encode()
        out[" ".join(argv)] = hashlib.sha256(blob).hexdigest()
    return out


def test_the_relabelled_configurations_are_read_at_shift_4(tmp_path, capsys):
    """The library reads each at shift 4, and both verdicts of `lemma3
    --config` report that shift and the region, the excluded pattern the
    region it failed in."""
    regions = {"sigma-points.json": "T4", "sigma-case3.json": "T3",
               "sigma-quadrangle-A-T1.json": "T1"}
    assert regions.keys() == RELABELLED.keys()
    for name, text in RELABELLED.items():
        cfg = {e["label"]: tuple(e["point"]) for e in json.loads(text)}
        assert reducible_cubic_sequence(cfg).classification.relabel_shift == 4
        path = tmp_path / name
        path.write_text(text)
        assert main(["--json", "lemma3", "--config", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["relabelShift"], results["region"]) == (
            4, regions[name])


def test_cli_reports_match_their_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == len(corpus()) == 555
    assert corpus_digests(tmp_path) == expected


def test_the_readme_shows_what_the_commands_print(capsys, monkeypatch):
    """The README's one shown report (its `$ deepnest` block) is what that
    command prints, elapsed line aside, and its two JSON examples are the
    input files its commands read."""
    [shown] = [b for b in readme_blocks("sh") if b.startswith("$ ")]
    command, report = shown.split("\n", 1)
    assert main(shlex.split(command)[2:]) == 0
    assert (ELAPSED.sub("", capsys.readouterr().out)
            == ELAPSED.sub("", report))
    monkeypatch.chdir(GOLDEN)
    assert [json.loads(b) for b in readme_blocks("json")] == [
        json.loads(pathlib.Path(name).read_text(encoding="utf-8"))
        for name in ("points.json", "trace.json")]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(pathlib.Path(tmp))
    old = json.loads(DIGESTS.read_text())
    changed = sorted(k for k in digests.keys() & old.keys()
                     if digests[k] != old[k])
    print(f"{len(digests.keys() - old.keys())} added, "
          f"{len(old.keys() - digests.keys())} removed, "
          f"{len(changed)} changed")
    for key in changed:
        print(f"changed: {key}")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
