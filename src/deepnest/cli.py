"""Command-line interface.

Every subcommand assembles one report object:

    {schema, command, inputs, results, verdicts, timing}

With --json the report is printed as stable JSON (timing is null so output
is byte-for-byte reproducible); otherwise a human-readable summary is
printed.  Exit status 0 covers every mathematical outcome, including
PROHIBITED and VIOLATION verdicts.

Malformed input takes one path.  Every library error class derives from
ValueError, so main() turns any ValueError or OSError into one
"deepnest: error: ..." line on stderr and exit status 2 (argparse usage
errors exit 2 too).  A handler catches an error only to turn it into a
verdict (parse reports INADMISSIBLE) or to prefix it with what only the
command line knows (--known, a --config point or configuration).  Every
integer option, and each --known item, is read by one decimal reader
(`integer`): ASCII digits with an optional sign, nothing else.  Plain
and signed schemes share one grammar and one reader (a signed count carries
a sign suffix).  It rejects a nest deeper than degree // 2, since a line
through the innermost oval meets each oval of the nest twice (Bezout), and
reads any shallower nest without recursion, whatever the degree.

Each handler imports only the modules it runs: plain `parse` loads schemes,
signed `parse` and `check-*` add orientations, `solve`, `prohibit` and
`theorem*` add cases, `lemma3` loads the six-point geometry and `audit`
bezout.  A usage error, or an error found before a handler's import, loads
none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from . import cases, orientations

SCHEMA = "deepnest-report/1"

# cases.SCENARIO_KINDS, spelled out so that argparse can check --scenario
# (and report a usage error) before any stack loads
SCENARIO_KINDS = ("with-o1-jumps", "no-jumps-even-gamma",
                  "no-jumps-odd-gamma", "beta-zero")

_MODES = {"paper": "literal", "uniform": "uniform"}


def integer(text: str) -> int:
    """A decimal integer: ASCII digits with an optional sign.  int() alone
    also takes underscores, surrounding blanks and other scripts' digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _mode(arg: str) -> str:
    return _MODES[arg]


def _degree(args) -> int:
    if args.degree < 1:
        raise ValueError(f"--degree must be at least 1, got {args.degree}")
    return args.degree


def _case_dict(c: cases.SignCase) -> dict[str, Any]:
    out = c._asdict()
    if c.eps4 is None:
        del out["eps4"]
    return out


def _feasible_dict(f: cases.FeasibleScheme) -> dict[str, Any]:
    return {"case": _case_dict(f.case), "scheme": f.scheme,
            "rmResidual": f.rm_residual,
            "orevkovResiduals": list(f.orevkov_residuals)}


def _stats_dict(st: orientations.OrientationStats) -> dict[str, Any]:
    return {
        "allPlus": st.all_plus, "allMinus": st.all_minus,
        "emptyPlus": st.empty_plus, "emptyMinus": st.empty_minus,
        "nonEmptyPlus": st.nonempty_plus(),
        "nonEmptyMinus": st.nonempty_minus(),
        "pairPlus": st.pair_plus, "pairMinus": st.pair_minus,
        "pairTable": {
            "outerPlus": {"emptyPlus": st.pairs(1, 1),
                          "emptyMinus": st.pairs(1, -1)},
            "outerMinus": {"emptyPlus": st.pairs(-1, 1),
                           "emptyMinus": st.pairs(-1, -1)},
        },
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, results, verdicts)

def _cmd_parse(args) -> tuple[dict, dict, list[str]]:
    inputs = {"scheme": args.scheme, "degree": args.degree}
    degree = _degree(args)
    if "_" in args.scheme:
        from . import orientations
        signed = orientations.parse_signed(args.scheme, degree)
        results: dict[str, Any] = {
            "kind": "signed",
            "canonical": orientations.print_signed(signed),
            "ovals": signed.oval_count(),
            "components": signed.component_count(),
        }
        return inputs, results, ["OK"]
    from . import schemes
    s = schemes.parse_scheme(args.scheme, degree)
    results = {
        "kind": "real",
        "canonical": schemes.print_scheme(s),
        "ovals": s.oval_count(),
        "components": s.component_count(),
        "mCurve": schemes.is_m_curve(s),
    }
    verdicts = ["OK"]
    try:
        profile = schemes.classify_deep_nest(s)
    except schemes.InadmissibleSchemeError as exc:
        results["profile"] = None
        results["inadmissible"] = str(exc)
        verdicts = ["INADMISSIBLE"]
    else:
        results["profile"] = None if profile is None else {
            "alpha": profile.alpha, "beta": profile.beta,
            "gamma": profile.gamma, "nestDepth": profile.nest_depth,
        }
    return inputs, results, verdicts


def _cmd_check_rm(args) -> tuple[dict, dict, list[str]]:
    inputs = {"scheme": args.scheme, "degree": args.degree,
              "mode": args.mode}
    from . import orientations
    s = orientations.parse_signed(args.scheme, _degree(args))
    rhs = orientations.rm_rhs(s.degree, s.component_count())
    st = orientations.compute_stats(s, _mode(args.mode))
    residual = orientations.check_rokhlin_mishachev(s, _mode(args.mode),
                                                    stats=st)
    results = {"stats": _stats_dict(st), "lhs": residual + rhs, "rhs": rhs,
               "residual": residual}
    return inputs, results, ["CONSISTENT" if residual == 0 else "INCONSISTENT"]


def _cmd_check_orevkov(args) -> tuple[dict, dict, list[str]]:
    inputs = {"scheme": args.scheme, "degree": args.degree}
    from . import orientations
    s = orientations.parse_signed(args.scheme, _degree(args))
    st = orientations.compute_stats(s, "uniform")
    r1, r2 = orientations.check_orevkov(s, stats=st)
    results = {"stats": _stats_dict(st), "residuals": [r1, r2]}
    ok = r1 == 0 and r2 == 0
    return inputs, results, ["CONSISTENT" if ok else "INCONSISTENT"]


def _cmd_solve(args) -> tuple[dict, dict, list[str]]:
    inputs = {"scenario": args.scenario, "mode": args.mode,
              "beta": args.beta, "gamma": args.gamma}
    from . import cases
    scn = cases.make_scenario(args.scenario, args.beta, args.gamma)
    sols = cases.solve_scenario(scn, _mode(args.mode))
    survivors = cases.orevkov_filter(sols)
    results = {
        "scenario": {"kind": scn.kind, "beta": scn.beta, "gamma": scn.gamma},
        "solutions": [_case_dict(c) for c in sols],
        "survivors": [_case_dict(c) for c in survivors],
    }
    if survivors:
        verdict = "SURVIVORS"
    elif sols:
        verdict = "ELIMINATED"
    else:
        verdict = "NO_SOLUTIONS"
    return inputs, results, [verdict]


def _parse_known(text: str) -> tuple[int, ...]:
    from . import cases
    try:
        known = tuple(map(integer, text.split(","))) if text else ()
    except ValueError as exc:
        raise ValueError(f"--known must be a comma list of integers: {exc}")
    if any(b not in range(cases.TOTAL_EMPTIES + 1) for b in known):
        raise ValueError(
            f"--known entries must lie in 0..{cases.TOTAL_EMPTIES}")
    return known


def _cmd_prohibit(args) -> tuple[dict, dict, list[str]]:
    known = _parse_known(args.known)
    inputs = {"scheme": args.scheme, "known": list(known),
              "mode": args.mode}
    from . import cases, schemes
    s = schemes.parse_scheme(args.scheme, cases.DEGREE)
    rep = cases.prohibit(s, known, _mode(args.mode))
    results = {
        "scheme": rep.scheme, "beta": rep.beta, "gamma": rep.gamma,
        "scenarios": [
            {"kind": r.scenario.kind,
             "solutions": [_case_dict(c) for c in r.solutions],
             "survivors": [_case_dict(c) for c in r.survivors]}
            for r in rep.results
        ],
        "feasible": [_feasible_dict(f) for f in rep.feasible],
        "flags": {"new": rep.new,
                  "realSchemeForbidden": rep.real_scheme_forbidden},
    }
    return inputs, results, [rep.verdict]


def _cmd_theorem1(args) -> tuple[dict, dict, list[str]]:
    known = _parse_known(args.known)
    inputs = {"known": list(known)}
    from . import cases
    rows = cases.theorem1_report(known)
    results = {
        "rows": [{"beta": r.beta, "gamma": r.gamma, "verdict": r.verdict,
                  "new": r.new, "solutionCount": r.solution_count}
                 for r in rows],
        "prohibited": sum(r.verdict == "PROHIBITED" for r in rows),
        "new": sum(r.new for r in rows),
    }
    all_done = all(r.verdict == "PROHIBITED" for r in rows)
    return inputs, results, ["ALL_PROHIBITED" if all_done else "INCOMPLETE"]


def _cmd_theorem2(args) -> tuple[dict, dict, list[str]]:
    inputs = {"beta": args.beta, "gamma": args.gamma}
    from . import cases
    row = cases.theorem2_report(args.beta, args.gamma)
    results = {
        "beta": row.beta, "gamma": row.gamma,
        "schemes": [_feasible_dict(f) for f in row.schemes],
        "skipped": [_case_dict(c) for c in row.skipped],
    }
    clean = row.schemes and all(
        f.rm_residual == 0 and f.orevkov_residuals == (0, 0)
        for f in row.schemes)
    return inputs, results, ["CANDIDATES_VERIFIED" if clean
                             else "RESIDUAL_FAILURE"]


def _is_int(v) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _load_config(path: str) -> dict[int, tuple[int, int, int]]:
    from .geometry import normalize
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError("configuration nests too deeply to read") from exc
    if not isinstance(data, list) or len(data) != 6:
        raise ValueError("configuration must be an array of 6 labeled points")
    cfg: dict[int, tuple[int, int, int]] = {}
    for entry in data:
        if (not isinstance(entry, dict)
                or set(entry) != {"label", "point"}
                or not _is_int(entry["label"])):
            raise ValueError("each entry must be {label, point}")
        label = entry["label"]
        pt = entry["point"]
        if (not isinstance(pt, list) or len(pt) != 3
                or not all(_is_int(v) for v in pt)):
            raise ValueError(f"point {label} must be 3 integers")
        if label in cfg:
            raise ValueError(f"duplicate label {label}")
        try:
            cfg[label] = normalize(*pt)
        except ValueError as exc:
            raise ValueError(f"point {label}: {exc}") from exc
    if set(cfg) != {1, 2, 3, 4, 5, 6}:
        raise ValueError("labels must be 1..6")
    return cfg


def _sequence_json(events) -> list[list[str]]:
    return [[label, digits] for label, digits in events]


def _cmd_lemma3(args) -> tuple[dict, dict, list[str]]:
    if args.config is not None:
        if (args.case, args.samples, args.seed) != (None, None, None):
            raise ValueError("--config takes no --case, --samples or --seed")
    elif args.case is None:
        raise ValueError("lemma3 needs --case (or --config FILE)")
    elif args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    from . import configurations
    if args.config is not None:
        inputs = {"config": args.config}
        cfg = _load_config(args.config)
        try:
            rep = configurations.reducible_cubic_sequence(cfg)
        except ValueError as exc:
            raise ValueError(f"invalid configuration: {exc}") from exc
        cl = rep.classification
        if not cl.is_valid:
            results = {
                "classification": "contradiction",
                "case": None,
                "witness": cl.witness.text,
                "matchesPaper": False,
            }
            return inputs, results, ["CONTRADICTION"]
        results = {
            "classification": "case",
            "case": cl.case,
            "sequence": _sequence_json(rep.events),
            "reference": _sequence_json(
                configurations.REFERENCE_SEQUENCES[cl.case]),
            "matchesPaper": bool(rep.matches_reference),
        }
        return inputs, results, ["MATCHES" if rep.matches_reference
                                 else "MISMATCH"]

    samples = 20 if args.samples is None else args.samples
    seed = 0 if args.seed is None else args.seed
    inputs = {"case": args.case, "samples": samples, "seed": seed}
    # every sample the seed could draw has its template's orientation table
    # (tests/test_table_proof.py), so each reports the template's sequence
    rep = configurations.reducible_cubic_sequence(
        configurations.BASE_CONFIGURATIONS[args.case])
    ok = bool(rep.matches_reference)
    results = {
        "case": args.case,
        "sequence": _sequence_json(
            configurations.REFERENCE_SEQUENCES[args.case]),
        "perSample": [{"relabelShift": rep.classification.relabel_shift,
                       "matches": ok}] * samples,
        "matchesPaper": ok,
    }
    return inputs, results, ["MATCHES" if ok else "MISMATCH"]


def _cmd_audit(args) -> tuple[dict, dict, list[str]]:
    from . import bezout
    inputs = {"trace": args.trace}
    trace = bezout.load_trace(args.trace)
    rep = bezout.audit(trace)
    results = {
        "degree": trace.degree,
        "perOval": dict(sorted(rep.per_oval.items())),
        "o1Crossings": rep.o1_crossings,
        "o2Crossings": rep.o2_crossings,
        "jCrossings": rep.j_crossings,
        "extras": rep.extras_total,
        "total": rep.total,
        "bound": rep.bound,
    }
    return inputs, results, [rep.verdict]


# ---------------------------------------------------------------------------
# rendering

def _human(report: dict[str, Any], out) -> None:
    print(f"{report['command']}: {' '.join(report['verdicts'])}", file=out)
    results = report["results"]
    for key, value in results.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"  {key}:", file=out)
            for item in value:
                print(f"    {json.dumps(item)}", file=out)
        elif isinstance(value, (dict, list)):
            print(f"  {key}: {json.dumps(value)}", file=out)
        else:
            print(f"  {key}: {value}", file=out)
    timing = report.get("timing")
    if timing is not None:
        print(f"  elapsed: {timing['seconds']}s", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepnest",
        description="Verification tools for deep-nest prohibition arguments "
                    "in degree 9.")
    parser.add_argument("--json", action="store_true",
                        help="print a stable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and canonicalize a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--degree", type=integer, default=9)

    p = sub.add_parser("check-rm",
                       help="signed-pair identity on a signed scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--degree", type=integer, default=9)
    p.add_argument("--mode", choices=sorted(_MODES), default="uniform")

    p = sub.add_parser("check-orevkov",
                       help="pair-table identities on a signed scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--degree", type=integer, default=9)

    p = sub.add_parser("solve", help="sign cases passing the identity")
    p.add_argument("--scenario", required=True,
                   choices=SCENARIO_KINDS)
    p.add_argument("--mode", choices=sorted(_MODES), default="uniform")
    p.add_argument("--beta", type=integer)
    p.add_argument("--gamma", type=integer)

    p = sub.add_parser("prohibit", help="full prohibition argument")
    p.add_argument("--scheme", required=True)
    p.add_argument("--known", default="1,3,25",
                   help="comma list of betas already settled")
    p.add_argument("--mode", choices=sorted(_MODES), default="uniform")

    p = sub.add_parser("theorem1", help="prohibition table over odd beta")
    p.add_argument("--known", default="1,3,25")

    p = sub.add_parser("theorem2",
                       help="surviving signed schemes at an even beta")
    p.add_argument("--beta", type=integer, required=True)
    p.add_argument("--gamma", type=integer)

    p = sub.add_parser("lemma3",
                       help="six-point configurations and their conic-pencil "
                            "event sequences")
    p.add_argument("--case", type=integer, choices=(1, 2, 3))
    p.add_argument("--samples", type=integer, help="with --case (default 20)")
    p.add_argument("--seed", type=integer,
                   help="with --case (default 0); recorded in the report, it "
                        "changes no result: every sample has its template's "
                        "orientation table")
    p.add_argument("--config", help="JSON file with 6 labeled points "
                                    "(takes no --case, --samples or --seed)")

    p = sub.add_parser("audit", help="intersection-budget audit of a trace")
    p.add_argument("--trace", required=True)

    return parser


_HANDLERS = {
    "parse": _cmd_parse,
    "check-rm": _cmd_check_rm,
    "check-orevkov": _cmd_check_orevkov,
    "solve": _cmd_solve,
    "prohibit": _cmd_prohibit,
    "theorem1": _cmd_theorem1,
    "theorem2": _cmd_theorem2,
    "lemma3": _cmd_lemma3,
    "audit": _cmd_audit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, results, verdicts = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"deepnest: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
        "timing": None if args.json else {"seconds": round(elapsed, 3)},
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _human(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
