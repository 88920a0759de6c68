"""Command-line interface: verdicts, exit codes, JSON report stability."""

from __future__ import annotations

import contextlib
import io
import json

import hypothesis as hyp
import hypothesis.strategies as hys
import pytest

from deepnest.cli import main

CUBIC_TRACE = {
    "degree": 3,
    "visits": [
        {"oval": "1", "role": "inner", "node": True},
        {"oval": "2", "role": "median"},
        {"oval": "3", "role": "median"},
        {"oval": "4", "role": "median"},
        {"oval": "1", "role": "inner", "node": True},
        {"oval": "5", "role": "median"},
        {"oval": "6", "role": "median"},
    ],
    "arcs": [{"jCrossings": 0}, {"jCrossings": 1}, {"jCrossings": 1},
             {"jCrossings": 0}, {"jCrossings": 0}, {"jCrossings": 1},
             {"jCrossings": 0}],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_parse_real_scheme(capsys):
    code, rep = run_json(capsys, "parse", "--scheme", "<J + 1<4 + 1<22>>>")
    assert code == 0
    assert rep["schema"] == "deepnest-report/1"
    assert rep["verdicts"] == ["OK"]
    assert rep["results"]["canonical"] == "<J + 1<4 + 1<22>>>"
    assert rep["results"]["profile"] == {
        "alpha": 0, "beta": 4, "gamma": 22, "nestDepth": 3}
    assert rep["results"]["mCurve"] is True
    assert rep["timing"] is None


def test_parse_inadmissible_is_a_verdict_not_an_error(capsys):
    code, rep = run_json(capsys, "parse", "--scheme", "<J + 1<1<1<25>>>>")
    assert code == 0
    assert rep["verdicts"] == ["INADMISSIBLE"]
    assert "depth 3" in rep["results"]["inadmissible"]
    assert rep["results"]["profile"] is None


def test_parse_signed_scheme(capsys):
    code, rep = run_json(capsys, "parse", "--scheme",
                         "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>")
    assert code == 0
    assert rep["results"]["kind"] == "signed"
    assert rep["verdicts"] == ["OK"]


def test_syntax_error_exits_2(capsys):
    code = main(["parse", "--scheme", "<J + "])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err.lower()


def test_check_rm(capsys):
    code, rep = run_json(capsys, "check-rm", "--scheme",
                         "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>")
    assert code == 0
    assert rep["results"]["residual"] == 0
    assert rep["verdicts"] == ["CONSISTENT"]
    code, rep = run_json(capsys, "check-rm", "--scheme", "<J + 14_+ + 14_->")
    assert code == 0
    assert rep["results"]["residual"] == -8
    assert rep["verdicts"] == ["INCONSISTENT"]


def test_check_orevkov(capsys):
    code, rep = run_json(capsys, "check-orevkov", "--scheme",
                         "<J + 1_-<4_+ + 0_- + 1_-<11_+ + 11_->>>")
    assert code == 0
    assert rep["results"]["residuals"] == [0, 0]
    assert rep["results"]["stats"]["pairTable"]["outerMinus"]["emptyPlus"] == 26
    assert rep["verdicts"] == ["CONSISTENT"]
    # an odd empty-sign imbalance is a malformed input, not a verdict
    assert main(["check-orevkov", "--scheme", "<J + 3_+ + 2_->"]) == 2
    capsys.readouterr()


def test_solve_subcommand(capsys):
    code, rep = run_json(capsys, "solve", "--scenario", "with-o1-jumps")
    assert code == 0
    assert rep["verdicts"] == ["SURVIVORS"]
    survivors = {(c["eps1"], c["eps2"], c["eps3"], c["n"])
                 for c in rep["results"]["survivors"]}
    assert survivors == {(-1, -1, 1, 6), (1, 1, -1, 4)}
    assert len(rep["results"]["solutions"]) == 4
    code, rep = run_json(capsys, "solve", "--scenario", "no-jumps-odd-gamma")
    assert rep["verdicts"] == ["NO_SOLUTIONS"]
    code, rep = run_json(capsys, "solve", "--scenario", "beta-zero")
    assert rep["verdicts"] == ["NO_SOLUTIONS"]


def test_solve_modes_share_survivors(capsys):
    _, uniform = run_json(capsys, "solve", "--scenario", "with-o1-jumps",
                          "--mode", "uniform")
    _, paper = run_json(capsys, "solve", "--scenario", "with-o1-jumps",
                        "--mode", "paper")
    key = lambda rep: {(c["eps1"], c["eps2"], c["eps3"], c["n"])
                       for c in rep["results"]["survivors"]}
    assert key(uniform) == key(paper)
    assert uniform["results"]["solutions"] != paper["results"]["solutions"]


def test_prohibit_subcommand(capsys):
    code, rep = run_json(capsys, "prohibit", "--scheme", "<J + 1<3 + 1<23>>>")
    assert code == 0
    assert rep["verdicts"] == ["PROHIBITED"]
    assert rep["results"]["flags"]["new"] is False
    code, rep = run_json(capsys, "prohibit", "--scheme", "<J + 1<5 + 1<21>>>",
                         "--known", "1,3,25")
    assert rep["verdicts"] == ["PROHIBITED"]
    assert rep["results"]["flags"]["new"] is True
    code, rep = run_json(capsys, "prohibit", "--scheme", "<J + 1<12 + 1<14>>>")
    assert rep["verdicts"] == ["OPEN"]
    assert rep["results"]["feasible"]
    code, rep = run_json(capsys, "prohibit", "--scheme", "<J + 1<2 + 1<24>>>")
    assert rep["verdicts"] == ["OPEN"]
    assert rep["results"]["flags"]["realSchemeForbidden"] is True
    assert main(["prohibit", "--scheme", "<J + 27>"]) == 2
    capsys.readouterr()


def test_theorem1_subcommand(capsys):
    code, rep = run_json(capsys, "theorem1")
    assert code == 0
    assert rep["verdicts"] == ["ALL_PROHIBITED"]
    rows = rep["results"]["rows"]
    assert len(rows) == 13
    assert sum(r["new"] for r in rows) == 10


def test_theorem2_subcommand(capsys):
    code, rep = run_json(capsys, "theorem2", "--beta", "12")
    assert code == 0
    assert rep["verdicts"] == ["CANDIDATES_VERIFIED"]
    schemes = {s["scheme"] for s in rep["results"]["schemes"]}
    assert "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>" in schemes
    assert all(s["rmResidual"] == 0 for s in rep["results"]["schemes"])
    assert main(["theorem2", "--beta", "3"]) == 2
    capsys.readouterr()


def test_lemma3_sampling(capsys):
    code, rep = run_json(capsys, "lemma3", "--case", "2",
                         "--samples", "3", "--seed", "1")
    assert code == 0
    assert rep["verdicts"] == ["MATCHES"]
    assert rep["results"]["matchesPaper"] is True
    assert len(rep["results"]["perSample"]) == 3
    assert len(rep["results"]["sequence"]) == 5
    assert main(["lemma3"]) == 2   # needs --case or --config
    capsys.readouterr()


def test_lemma3_config_file(tmp_path, capsys):
    from deepnest.configurations import BASE_CONFIGURATIONS, EXCLUSION_TEMPLATES

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        [{"label": k, "point": list(v)}
         for k, v in BASE_CONFIGURATIONS[2].items()]))
    code, rep = run_json(capsys, "lemma3", "--config", str(path))
    assert code == 0
    assert rep["verdicts"] == ["MATCHES"]
    assert rep["results"]["case"] == 2

    path.write_text(json.dumps(
        [{"label": k, "point": list(v)}
         for k, v in EXCLUSION_TEMPLATES["convex-23465"].items()]))
    code, rep = run_json(capsys, "lemma3", "--config", str(path))
    assert code == 0
    assert rep["verdicts"] == ["CONTRADICTION"]
    assert rep["results"]["witness"] == "345|456=[45]"

    path.write_text("[]")
    assert main(["lemma3", "--config", str(path)]) == 2
    capsys.readouterr()


def test_lemma3_collinear_config_exits_2(tmp_path, capsys):
    # points 1, 2, 3 on one line: the pencil at 1 cannot order 2..6
    pts = {1: (0, 0), 2: (1, 1), 3: (3, 3), 4: (5, -2), 5: (-4, 7), 6: (2, 9)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        [{"label": k, "point": [x, y, 1]} for k, (x, y) in pts.items()]))
    assert main(["--json", "lemma3", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deepnest: error: invalid configuration:")
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_lemma3_rejects_samples_below_1(capsys, samples):
    assert main(["--json", "lemma3", "--case", "2", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""   # no vacuous MATCHES report
    assert captured.err.startswith("deepnest: error: --samples must be at least 1")


def test_audit_subcommand(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(CUBIC_TRACE))
    code, rep = run_json(capsys, "audit", "--trace", str(path))
    assert code == 0
    assert rep["verdicts"] == ["SATURATED"]
    assert rep["results"]["total"] == rep["results"]["bound"] == 27
    assert rep["results"]["perOval"]["1"] == 4

    path.write_text(json.dumps(dict(CUBIC_TRACE, degree=2)))
    code, rep = run_json(capsys, "audit", "--trace", str(path))
    assert code == 0   # a violation is a finding, not a usage error
    assert rep["verdicts"] == ["VIOLATION"]

    path.write_text("{broken")
    assert main(["audit", "--trace", str(path)]) == 2
    capsys.readouterr()


def test_json_reports_are_byte_stable(capsys):
    probes = [
        ("parse", "--scheme", "<J + 1<12 + 1<14>>>"),
        ("solve", "--scenario", "with-o1-jumps"),
        ("theorem1",),
        ("lemma3", "--case", "1", "--samples", "2", "--seed", "0"),
    ]
    for argv in probes:
        _, first = run(capsys, "--json", *argv)
        _, second = run(capsys, "--json", *argv)
        assert first == second, argv


def test_human_output_mentions_verdict_and_timing(capsys):
    code, out = run(capsys, "theorem1")
    assert code == 0
    assert "ALL_PROHIBITED" in out
    assert "elapsed:" in out


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse"])                 # missing --scheme
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenario", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["solve", "--scenario", "with-o1-jumps", "--beta", "5",
                 "--gamma", "5"]) == 2  # sizes must total 26
    capsys.readouterr()


def assert_input_error(capsys, argv):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""   # no report
    assert captured.err.startswith("deepnest: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["--scenario", "no-jumps-even-gamma", "--beta", "-4"],
    ["--scenario", "with-o1-jumps", "--beta", "1000"],
    ["--scenario", "no-jumps-odd-gamma", "--gamma", "-3"],
])
def test_solve_rejects_sizes_out_of_range(capsys, argv):
    assert_input_error(capsys, ["solve", *argv])


def test_check_rm_rejects_even_degree(capsys):
    assert_input_error(
        capsys, ["check-rm", "--degree", "8", "--scheme", "<1_+<3_+ + 2_->>"])


@pytest.mark.parametrize("degree, scheme", [
    # schemes that parse at the given degree: J only in odd degree
    ("0", "<1_+<2_+ + 2_->>"),
    ("-3", "<J + 1_+<2_+ + 2_->>"),
])
@pytest.mark.parametrize("command", ["parse", "check-rm", "check-orevkov"])
def test_degree_below_1_exits_2(capsys, command, degree, scheme):
    assert_input_error(capsys, [command, "--scheme", scheme,
                                "--degree", degree])


SIZES = hys.one_of(hys.none(), hys.integers(-60, 60))


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(hys.sampled_from(["with-o1-jumps", "no-jumps-even-gamma",
                             "no-jumps-odd-gamma", "beta-zero", "no-such"]),
           SIZES, SIZES, hys.sampled_from(["paper", "uniform"]))
def test_solve_argv_fuzz(kind, beta, gamma, mode):
    argv = ["--json", "solve", "--scenario", kind, "--mode", mode]
    for flag, value in (("--beta", beta), ("--gamma", gamma)):
        if value is not None:
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the unknown kind
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return
    scenario = json.loads(out.getvalue())["results"]["scenario"]
    sizes = (scenario["beta"], scenario["gamma"])
    if sizes != (None, None) or beta is not None or gamma is not None:
        assert all(v in range(27) for v in sizes)
        assert sum(sizes) == 26


def test_check_rm_paper_mode_needs_a_two_oval_nest(capsys):
    assert_input_error(capsys, ["check-rm", "--mode", "paper", "--scheme",
                                "<J + 1_+<2_+> + 1_-<3_+>>"])


def nest(depth: int, oval: str) -> str:
    return "<J + " + f"{oval}<" * depth + oval + ">" * depth + ">"


@pytest.mark.parametrize("scheme", [nest(1500, "1"), nest(1500, "1_+")],
                         ids=["unsigned", "signed"])
@pytest.mark.parametrize("command",
                         ["parse", "check-rm", "check-orevkov", "prohibit"])
def test_deep_nest_exits_2(capsys, command, scheme):
    assert_input_error(capsys, [command, "--scheme", scheme])


def test_parse_depth_beyond_half_the_degree_exits_2(capsys):
    code, rep = run_json(capsys, "parse", "--scheme", nest(3, "1"))
    assert code == 0
    assert rep["verdicts"] == ["INADMISSIBLE"]   # depth 4 fits degree 9
    assert_input_error(capsys, ["parse", "--scheme", nest(4, "1")])
    code, rep = run_json(capsys, "parse", "--degree", "11",
                         "--scheme", nest(4, "1"))
    assert code == 0


def run_quietly(argv):
    """(exit code, stdout, stderr) of one main() call; any other exception
    escapes to the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_quietly(["--json", *argv])
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["schema"] == "deepnest-report/1"
    else:
        assert out == "" and err


SCHEME_TEXT = hys.one_of(
    hys.lists(hys.sampled_from(["<", ">", "J", " + ", "+", " ", "0", "1", "3",
                                "12", "26", "1_+", "3_-", "0_+", "2_", "x"]),
              max_size=16).map("".join),
    hys.builds(nest, hys.integers(0, 1500),
               hys.sampled_from(["1", "2", "1_+", "1_-", "0_+"])),
    hys.sampled_from(["<J + 1<4 + 1<22>>>", "<J + 1<12 + 1<14>>>",
                      "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>",
                      "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>",
                      "<J + 14_+ + 14_->", "<1_+<3_+ + 2_->>"]),
)


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(hys.sampled_from(["parse", "check-rm", "check-orevkov",
                             "prohibit"]),
           SCHEME_TEXT, hys.one_of(hys.none(), hys.integers(-2, 12)),
           hys.sampled_from(["paper", "uniform"]),
           hys.sampled_from(["1,3,25", "", "5", "1,,3", "x", "-7,99"]))
def test_scheme_argv_fuzz(command, scheme, degree, mode, known):
    argv = [command, "--scheme", scheme]
    if command == "prohibit":
        argv += ["--mode", mode, "--known", known]
    elif degree is not None:
        argv += ["--degree", str(degree)]
    if command == "check-rm":
        argv += ["--mode", mode]
    assert_contract(argv)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(hys.integers(-60, 60), SIZES)
def test_theorem2_argv_fuzz(beta, gamma):
    argv = ["theorem2", "--beta", str(beta)]
    if gamma is not None:
        argv += ["--gamma", str(gamma)]
    assert_contract(argv)


JSON_KEYS = hys.sampled_from(["label", "point", "degree", "visits", "arcs",
                              "extras", "oval", "role", "node", "jCrossings",
                              "count", "tag", ""])
JSON_VALUES = hys.recursive(
    hys.none() | hys.booleans() | hys.integers(-3, 9)
    | hys.sampled_from([0.5, "1", "inner", "median", "x", ""]),
    lambda inner: hys.lists(inner, max_size=7)
    | hys.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=8)
SMALL = hys.integers(-3, 3)
CONFIGS = hys.builds(
    lambda labels, points: [{"label": label, "point": point}
                            for label, point in zip(labels, points)],
    hys.permutations(range(1, 7)),
    hys.lists(hys.lists(SMALL, min_size=3, max_size=3), min_size=6,
              max_size=6))
VISITS = hys.fixed_dictionaries(
    {"oval": hys.sampled_from(["1", "2", 3]),
     "role": hys.sampled_from(["inner", "median", "outer"]) | JSON_VALUES,
     "node": hys.booleans()})
EXTRAS = hys.fixed_dictionaries(
    {"count": hys.integers(-1, 3), "tag": hys.sampled_from(["", "a"])})
TRACES = hys.builds(
    lambda degree, steps, extras: {
        "degree": degree, "visits": [visit for visit, _ in steps],
        "arcs": [{"jCrossings": j} for _, j in steps], "extras": extras},
    hys.integers(-1, 4), hys.lists(hys.tuples(VISITS, hys.integers(-1, 2)),
                                   max_size=6),
    hys.lists(EXTRAS, max_size=2) | JSON_VALUES)


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(hys.tuples(hys.just(("lemma3", "--config")), CONFIGS | JSON_VALUES)
           | hys.tuples(hys.just(("audit", "--trace")), TRACES | JSON_VALUES),
           hys.sampled_from(["json", "json", "text", "missing"]))
def test_json_file_argv_fuzz(tmp_path_factory, command_data, form):
    command, data = command_data
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    if form == "missing":
        path = path.with_name("no-such-file.json")
    else:
        path.write_text(json.dumps(data) if form == "json" else repr(data),
                        encoding="utf-8")
    assert_contract([*command, str(path)])
