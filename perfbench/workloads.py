"""The four workloads: seeded input generators, the call each operation
makes, and the check of its answer against `oracle`.

An operation is plain data (a tuple, or a dict for CLI runs), so a seed's
operation list can be compared and printed.  A workload builds a pool of
operations from its seed once, during set-up, and the timed loop cycles
through that pool.  Calls go through module attributes (``dn.prohibit``,
``configurations.sigma_shift``) so that a tracer patching those attributes
sees every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import deepnest as dn
from deepnest import configurations, orientations

import oracle

MODES = ("uniform", "literal")


class Workload:
    """A seeded pool of operations (`ops`), `run(op)` returning a comparable
    answer, and `check(op, answer)` returning a problem or None."""

    name = ""
    ops: list
    warmup = 1


def _stratified(rng, values):
    """Endless draws that use every value once per pass, in shuffled order.
    Costs depend on these values, so the cost mix is the same for every
    seed and only the order and the other inputs change."""
    while True:
        batch = list(values)
        rng.shuffle(batch)
        yield from batch


def _valid_betas(kind: str) -> tuple[int, ...]:
    """The median counts a scenario accepts."""
    if kind == "beta-zero":
        return (0,)
    if kind == "no-jumps-even-gamma":
        return oracle.EVEN_BETAS
    if kind == "no-jumps-odd-gamma":
        return oracle.ODD_BETAS
    return tuple(range(1, oracle.TOTAL_EMPTIES))


def _random_nest(rng, even_imbalance: bool = False):
    while True:
        e1, e2 = rng.choice((1, -1)), rng.choice((1, -1))
        a, b, c, d = (rng.randint(0, 14) for _ in range(4))
        if a + b and c + d and (not even_imbalance or (a - b + c - d) % 2 == 0):
            return e1, a, b, e2, c, d


def _known(rng) -> tuple[int, ...]:
    if rng.random() < 0.5:
        return (1, 3, 25)
    return tuple(sorted(rng.sample(oracle.ODD_BETAS, rng.randint(0, 4))))


# ---------------------------------------------------------------------------
# orientation-tables: library calls over the orientation stack and bezout

class OrientationTables(Workload):
    name = "orientation-tables"
    # one slot per call the README's "Library" section shows
    SLOTS = ("theorem1", "theorem2", "prohibit", "solve", "check",
             "roundtrip", "audit")
    POOL_CYCLES = 100

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        emitted = sorted(oracle.consistent_nests())
        theorem2_betas = _stratified(rng, oracle.EVEN_BETAS)
        prohibit_betas = _stratified(rng, range(1, oracle.TOTAL_EMPTIES))
        solve_betas = {kind: _stratified(rng, _valid_betas(kind))
                       for kind in oracle.SCENARIO_KINDS}
        self.ops = []
        solves = checks = 0
        for _ in range(self.POOL_CYCLES):
            for slot in self.SLOTS:
                if slot == "theorem1":
                    op = (slot, _known(rng))
                elif slot == "theorem2":
                    op = (slot, next(theorem2_betas))
                elif slot == "prohibit":
                    op = (slot, next(prohibit_betas), rng.choice(MODES))
                elif slot == "solve":
                    # scenario kind, mode and whether beta is pinned rotate
                    # so that the cost mix is the same for every seed
                    kind = oracle.SCENARIO_KINDS[solves % 4]
                    beta = next(solve_betas[kind]) if solves // 8 % 3 else None
                    op = (slot, kind, beta, MODES[solves // 4 % 2])
                    solves += 1
                elif slot == "check":
                    # emitted schemes and random signed nests in turn
                    text = (rng.choice(emitted) if checks % 2 == 0 else
                            oracle.signed_nest(*_random_nest(rng)))
                    op = (slot, text, rng.choice(MODES))
                    checks += 1
                elif slot == "roundtrip":
                    profile = (rng.randint(0, 3), rng.randint(0, 12),
                               rng.randint(1, 12))
                    op = ((slot,) + oracle.deep_nest_text(rng, *profile)
                          + (profile,))
                else:
                    op = (slot, oracle.random_trace(rng))
                self.ops.append(op)
        self.warmup = len(self.SLOTS) * 2

    @staticmethod
    def run(op):
        kind = op[0]
        if kind == "theorem1":
            return tuple((r.beta, r.gamma, r.verdict, r.new)
                         for r in dn.theorem1_report(op[1]))
        if kind == "theorem2":
            return tuple((f.scheme, f.rm_residual, f.orevkov_residuals)
                         for f in dn.theorem2_report(op[1]).schemes)
        if kind == "prohibit":
            return dn.prohibit(dn.deep_nest_scheme(op[1]), mode=op[2]).verdict
        if kind == "solve":
            sols = dn.solve_scenario(dn.make_scenario(op[1], op[2]), op[3])
            key = lambda c: (c.eps1, c.eps2, c.eps3, c.eps4, c.n)
            return (tuple(map(key, sols)),
                    tuple(map(key, dn.orevkov_filter(sols))))
        if kind == "check":
            s = dn.parse_signed(op[1], oracle.DEGREE)
            rm = dn.check_rokhlin_mishachev(s, op[2])
            try:
                return rm, dn.check_orevkov(s)
            except orientations.OrientationParityError:
                return rm, None
        if kind == "roundtrip":
            s = dn.parse_scheme(op[1], oracle.DEGREE)
            text = dn.print_scheme(s)
            p = dn.classify_deep_nest(s)
            return (text, dn.parse_scheme(text, oracle.DEGREE) == s,
                    (p.alpha, p.beta, p.gamma))
        r = dn.audit(dn.parse_trace(op[1]))
        return r.o1_crossings, r.o2_crossings, r.total, r.verdict

    @staticmethod
    def check(op, got):
        kind = op[0]
        if kind == "theorem1":
            want = tuple(oracle.theorem1_rows(op[1]))
        elif kind == "theorem2":
            problem = oracle.theorem2_problem(op[1], [g[0] for g in got])
            if problem:
                return f"{op!r}: {problem}"
            got = [g[1:] for g in got]
            want = [(0, (0, 0))] * len(got)
        elif kind == "prohibit":
            want = oracle.prohibit_verdict(op[1])
        elif kind == "solve":
            want = oracle.solve(op[1], op[2], op[3])
        elif kind == "check":
            want = oracle.nest_census(*oracle.parse_nest(op[1]), mode=op[2])
        elif kind == "roundtrip":
            want = (op[2], True, op[3])
        else:
            want = oracle.audit_answer(op[1])
        return None if got == want else f"{op!r}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# lemma3: the six-point configuration stack

class Lemma3Valid(Workload):
    """sample_configuration("caseK") -> sigma_shift by k ->
    reducible_cubic_sequence, as `deepnest lemma3 --case K` does per sample."""

    name = "lemma3-valid"
    # 7 samples of each (case, shift) pair
    POOL = 105

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        # every (case, shift) pair equally often: case 1 costs more when
        # shifted, so a random shift would make the cost mix seed-dependent
        self.ops = [("valid", 1 + k % 3, rng.getrandbits(32), k // 3 % 5)
                    for k in range(self.POOL)]
        self.warmup = 6

    @staticmethod
    def run(op):
        _, case, sample_seed, shift = op
        cfg = dn.sample_configuration(f"case{case}", random.Random(sample_seed))
        rep = dn.reducible_cubic_sequence(configurations.sigma_shift(cfg, shift))
        cl = rep.classification
        return cl.case, cl.relabel_shift, rep.matches_reference, rep.events

    @staticmethod
    def check(op, got):
        _, case, _, shift = op
        # case 1's hull pattern is invariant under the relabeling sigma
        want = (case, 0 if case == 1 else -shift % 5, True)
        if got[:3] != want or not oracle.cyclic_equal(
                got[3], oracle.REFERENCE_SEQUENCES[case]):
            return f"{op!r}: got {got!r}"
        return None


class Lemma3Excluded(Workload):
    """sample_configuration(kind) -> classify_configuration ->
    verify_witness over the excluded patterns."""

    name = "lemma3-excluded"
    POOL_CYCLES = 20

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        kinds = sorted(configurations.EXCLUSION_TEMPLATES)
        self.ops = [("excluded", kind, rng.getrandbits(32))
                    for _ in range(self.POOL_CYCLES) for kind in kinds]
        self.warmup = len(kinds)

    @staticmethod
    def run(op):
        cfg = dn.sample_configuration(op[1], random.Random(op[2]))
        cl = dn.classify_configuration(cfg)
        w = cl.witness
        verified = w is not None and configurations.verify_witness(cfg, w)
        return (cfg, configurations.configuration_kind(cl),
                w and w.triangles, verified)

    @staticmethod
    def check(op, got):
        cfg, kind, triangles, verified = got
        if kind != op[1] or not verified:
            return f"{op!r}: kind {kind}, witness verified {verified}"
        if not oracle.triangles_disjoint(cfg, *triangles):
            return f"{op!r}: witness {triangles} overlaps"
        return None


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m deepnest.cli --json ...` process per operation

def _config_json(cfg) -> str:
    return json.dumps([{"label": k, "point": list(cfg[k])} for k in sorted(cfg)])


def _collinear_config(rng) -> str:
    """Points 1, 2, 3 on one line, so the pencil at 1 is degenerate."""
    x, y = rng.randint(-9, 9), rng.randint(-9, 9)
    dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1)))
    pts = {1: (x, y), 2: (x + dx, y + dy), 3: (x + 3 * dx, y + 3 * dy)}
    while len(pts) < 6:
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        if p not in pts.values():
            pts[len(pts) + 1] = p
    return json.dumps([{"label": k, "point": [px, py, 1]}
                       for k, (px, py) in pts.items()])


DEEP_SCHEME = "<J + " + "1<" * 1500 + "1" + ">" * 1500 + ">"

# Malformed argv, each expected to exit 2 without a traceback.
MALFORMED = (
    "theorem2-odd-beta",
    "parse-truncated",
    "solve-unknown-scenario",
    "audit-unpaired-node",
    "check-orevkov-odd-imbalance",
    "prohibit-not-m-curve",
    "lemma3-no-case",
)

# Malformed argv that hit the open contract breaks listed in ROADMAP.md
# (open item 2).  They fail today, so they are kept out of the timed mix,
# whose operations must all succeed, and are instead probed once per run
# after the window: each run reports which of them still fail, so a fix
# shows up there.
OPEN_DEFECTS = (
    ("check-rm-even-degree", "check-rm --degree 8 leaks ValueError from rm_rhs"),
    ("lemma3-collinear", "lemma3 --config with collinear points leaks "
                         "InvalidConfigurationError"),
    ("parse-too-deep", "a 1500-deep scheme hits RecursionError"),
    ("lemma3-negative-samples", "lemma3 --samples -3 is a vacuous pass"),
    ("parse-bad-degree", "parse --degree 0 / -3 is accepted"),
)


class CliCold(Workload):
    name = "cli-cold"
    SLOTS = ("parse", "check-rm", "check-orevkov", "solve", "prohibit",
             "theorem1", "theorem2", "lemma3-config", "lemma3-case", "audit",
             "malformed", "malformed")
    # 108 operations, about what one window runs
    POOL_CYCLES = 9

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.ops = []
        self.traced = False    # run through clitrace.py, keeping spans
        self.spans: list[str] = []
        bad = 0
        for cycle in range(self.POOL_CYCLES):
            for slot in self.SLOTS:
                if slot == "malformed":
                    slot = MALFORMED[bad % len(MALFORMED)]
                    bad += 1
                    op = self._malformed(slot, rng)
                    op["expect"] = {"code": 2}
                else:
                    op = self._valid(slot, rng, cycle)
                op["slot"] = slot
                self.ops.append(op)
        self.defect_probes = []
        for slot, defect in OPEN_DEFECTS:
            op = self._malformed(slot, rng)
            op.update(slot=slot, defect=defect, expect={"code": 2})
            self.defect_probes.append(op)
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.warmup = 2

    def _file(self, text: str) -> str:
        path = os.path.join(self.workdir, f"in{len(self.files)}.json")
        self.files[os.path.basename(path)] = text
        return path

    def _valid(self, slot, rng, cycle: int) -> dict:
        """A well-formed command.  The lemma3 slots alternate their costlier
        and cheaper forms by cycle, so that the slowest tenth of the pool is
        the same mix for every seed."""
        if slot == "parse":
            profile = (rng.randint(0, 3), rng.randint(0, 12), rng.randint(1, 12))
            text, canonical = oracle.deep_nest_text(rng, *profile)
            return {"argv": ["parse", "--scheme", text],
                    "expect": {"verdicts": ["OK"], "canonical": canonical,
                               "profile": list(profile)}}
        if slot in ("check-rm", "check-orevkov"):
            if rng.random() < 0.5:
                text = rng.choice(sorted(oracle.consistent_nests()))
            else:
                text = oracle.signed_nest(*_random_nest(rng, True))
            mode = rng.choice(("paper", "uniform"))
            rm, orv = oracle.nest_census(
                *oracle.parse_nest(text),
                mode="literal" if mode == "paper" and slot == "check-rm"
                else "uniform")
            if slot == "check-rm":
                return {"argv": ["check-rm", "--scheme", text, "--mode", mode],
                        "expect": {"verdicts": ["CONSISTENT" if rm == 0
                                                else "INCONSISTENT"],
                                   "residual": rm}}
            return {"argv": ["check-orevkov", "--scheme", text],
                    "expect": {"verdicts": ["CONSISTENT" if orv == (0, 0)
                                            else "INCONSISTENT"],
                               "residuals": list(orv)}}
        if slot == "solve":
            kind = rng.choice(oracle.SCENARIO_KINDS)
            beta = (rng.choice(_valid_betas(kind)) if rng.random() < 0.7
                    else None)
            mode = rng.choice(("paper", "uniform"))
            sols, surv = oracle.solve(
                kind, beta, "literal" if mode == "paper" else "uniform")
            argv = ["solve", "--scenario", kind, "--mode", mode]
            if beta is not None:
                argv += ["--beta", str(beta)]
            return {"argv": argv,
                    "expect": {"verdicts": [oracle.solve_verdict(
                        kind, beta, "literal" if mode == "paper" else "uniform")],
                        "counts": [len(sols), len(surv)]}}
        if slot == "prohibit":
            beta = rng.randint(1, 25)
            return {"argv": ["prohibit", "--scheme",
                             f"<J + 1<{beta} + 1<{26 - beta}>>>",
                             "--mode", rng.choice(("paper", "uniform"))],
                    "expect": {"verdicts": [oracle.prohibit_verdict(beta)]}}
        if slot == "theorem1":
            known = _known(rng)
            return {"argv": ["theorem1", "--known", ",".join(map(str, known))],
                    "expect": {"verdicts": ["ALL_PROHIBITED"],
                               "new": sum(r[3] for r in
                                          oracle.theorem1_rows(known))}}
        if slot == "theorem2":
            beta = rng.choice(oracle.EVEN_BETAS)
            return {"argv": ["theorem2", "--beta", str(beta)],
                    "expect": {"verdicts": ["RESIDUAL_FAILURE" if beta == 2
                                            else "CANDIDATES_VERIFIED"],
                               "theorem2": beta}}
        if slot == "lemma3-config":
            if cycle % 2:
                case = rng.randint(1, 3)
                kind = f"case{case}"
                expect = {"verdicts": ["MATCHES"], "case": case}
            else:
                kind = rng.choice(sorted(configurations.EXCLUSION_TEMPLATES))
                expect = {"verdicts": ["CONTRADICTION"], "witness": True}
            cfg = dn.sample_configuration(kind, random.Random(rng.getrandbits(32)))
            path = self._file(_config_json(cfg))
            expect["config"] = {str(k): list(v) for k, v in cfg.items()}
            return {"argv": ["lemma3", "--config", path], "expect": expect}
        if slot == "lemma3-case":
            case, samples = rng.randint(1, 3), 1 + cycle % 2
            return {"argv": ["lemma3", "--case", str(case), "--samples",
                             str(samples), "--seed", str(rng.randint(0, 999))],
                    "expect": {"verdicts": ["MATCHES"], "case": case,
                               "samples": samples}}
        trace = oracle.random_trace(rng)
        _, _, total, verdict = oracle.audit_answer(trace)
        return {"argv": ["audit", "--trace", self._file(json.dumps(trace))],
                "expect": {"verdicts": [verdict], "total": total}}

    def _malformed(self, slot, rng) -> dict:
        if slot == "theorem2-odd-beta":
            return {"argv": ["theorem2", "--beta", str(rng.choice(oracle.ODD_BETAS))]}
        if slot == "parse-truncated":
            text, _ = oracle.deep_nest_text(rng, 0, rng.randint(1, 9), 3)
            return {"argv": ["parse", "--scheme", text[:rng.randint(1, len(text) - 1)]]}
        if slot == "check-rm-even-degree":
            a, b = rng.randint(1, 9), rng.randint(0, 9)
            return {"argv": ["check-rm", "--degree", "8", "--scheme",
                             f"<1_+<{a}_+ + {b}_->>"]}
        if slot == "lemma3-collinear":
            return {"argv": ["lemma3", "--config",
                             self._file(_collinear_config(rng))]}
        if slot == "parse-too-deep":
            return {"argv": ["parse", "--scheme", DEEP_SCHEME]}
        if slot == "lemma3-negative-samples":
            return {"argv": ["lemma3", "--case", str(rng.randint(1, 3)),
                             "--samples", str(-rng.randint(1, 5))]}
        if slot == "parse-bad-degree":
            degree = rng.choice((0, -2, -3))
            return {"argv": ["parse", "--degree", str(degree), "--scheme",
                             "<J + 1>" if degree % 2 else "<1>"]}
        if slot == "solve-unknown-scenario":
            return {"argv": ["solve", "--scenario", "no-such-scenario"]}
        if slot == "audit-unpaired-node":
            trace = oracle.random_trace(rng)
            trace["visits"][0] = {"oval": "lone", "role": "median", "node": True}
            return {"argv": ["audit", "--trace", self._file(json.dumps(trace))]}
        if slot == "check-orevkov-odd-imbalance":
            e1, a, b, e2, c, d = _random_nest(rng)
            if (a - b + c - d) % 2 == 0:
                a += 1
            return {"argv": ["check-orevkov", "--scheme",
                             oracle.signed_nest(e1, a, b, e2, c, d)]}
        if slot == "prohibit-not-m-curve":
            beta = rng.randint(1, 20)
            return {"argv": ["prohibit", "--scheme",
                             f"<J + 1<{beta} + 1<{rng.randint(1, 24 - beta)}>>>"]}
        return {"argv": ["lemma3", "--seed", str(rng.randint(0, 9))]}

    def run(self, op):
        cmd = [sys.executable, "-m", "deepnest.cli"]
        if self.traced:
            path = os.path.join(self.workdir, f"spans{len(self.spans)}.json")
            self.spans.append(path)
            cmd = [sys.executable, os.path.join("perfbench", "clitrace.py"), path]
        done = subprocess.run(cmd + ["--json"] + op["argv"], capture_output=True,
                              text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    @staticmethod
    def check(op, got):
        code, out, err = got
        expect = op["expect"]
        want_code = expect.get("code", 0)
        if code != want_code or "Traceback" in err:
            tail = err.strip().splitlines()[-1:] or [""]
            return (f"{op['slot']}: exit {code} (want {want_code}) "
                    f"{tail[0][:120]}")
        if want_code != 0:
            return None
        rep = json.loads(out)
        res = rep["results"]
        problems = []
        if rep["verdicts"] != expect["verdicts"]:
            problems.append(f"verdicts {rep['verdicts']}")
        for key in ("canonical", "residual", "residuals", "new", "total",
                    "case"):
            if key in expect and res.get(key) != expect[key]:
                problems.append(f"{key} {res.get(key)!r}")
        if "profile" in expect:
            p = res.get("profile") or {}
            if [p.get("alpha"), p.get("beta"), p.get("gamma")] != expect["profile"]:
                problems.append(f"profile {p}")
        if "counts" in expect and [len(res["solutions"]),
                                   len(res["survivors"])] != expect["counts"]:
            problems.append("solution counts")
        if "theorem2" in expect:
            problem = oracle.theorem2_problem(
                expect["theorem2"], [f["scheme"] for f in res["schemes"]])
            if problem:
                problems.append(problem)
        if "case" in expect and expect["verdicts"] == ["MATCHES"]:
            if not oracle.cyclic_equal(
                    [tuple(e) for e in res["sequence"]],
                    oracle.REFERENCE_SEQUENCES[expect["case"]]):
                problems.append("sequence")
        if "samples" in expect and len(res["perSample"]) != expect["samples"]:
            problems.append("sample count")
        if expect.get("witness"):
            text = res.get("witness") or ""
            cfg = {int(k): v for k, v in expect["config"].items()}
            t1, t2 = text[:3], text[4:7]
            if not (t1.isdigit() and t2.isdigit() and oracle.triangles_disjoint(
                    cfg, tuple(map(int, t1)), tuple(map(int, t2)))):
                problems.append(f"witness {text!r}")
        return f"{op['slot']}: {', '.join(problems)}" if problems else None


WORKLOADS = {w.name: w for w in (OrientationTables, Lemma3Valid,
                                 Lemma3Excluded, CliCold)}
