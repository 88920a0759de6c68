"""Self-checks of the benchmark itself (not of deepnest).

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks that a seed fixes the operation list,
that the oracle rejects wrong answers, and that traced self times add up.
"""

import os
import shutil
import sys
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# the CLI check starts `python -m deepnest.cli` in a child process
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
os.chdir(ROOT)

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_tmp", "selfcheck")


def build(name: str, seed: int):
    return workloads.WORKLOADS[name](seed, WORKDIR)


class SelfCheck(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_same_seed_same_operations(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                self.assertEqual(build(name, 7).ops, build(name, 7).ops)

    def test_other_seed_other_operations(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                self.assertNotEqual(build(name, 7).ops, build(name, 8).ops)

    def test_oracle_flags_wrong_answers(self):
        wrong = {
            "theorem1": lambda got: got[:-1] + ((25, 1, "OPEN", True),),
            "theorem2": lambda got: got[1:],
            "prohibit": lambda got: "PROHIBITED" if got == "OPEN" else "OPEN",
            "solve": lambda got: (got[0] + ((1, 1, 1, None, 99),), got[1]),
            "check": lambda got: (got[0] + 2, got[1]),
            "roundtrip": lambda got: (got[0] + " ", True, got[2]),
            "audit": lambda got: got[:2] + (got[2] + 1, got[3]),
            "valid": lambda got: (got[0] % 3 + 1,) + got[1:],
            "excluded": lambda got: (got[0], "case1") + got[2:],
        }
        for name in ("orientation-tables", "lemma3-valid", "lemma3-excluded"):
            wl = build(name, 7)
            seen = set()
            for op in wl.ops:
                kind = op[0]
                if kind in seen:
                    continue
                seen.add(kind)
                with self.subTest(name=name, kind=kind):
                    got = wl.run(op)
                    self.assertIsNone(wl.check(op, got))
                    self.assertIsNotNone(wl.check(op, wrong[kind](got)))
            self.assertTrue(seen)

    def test_oracle_flags_wrong_cli_answers(self):
        wl = build("cli-cold", 7)
        op = next(op for op in wl.ops if op["slot"] == "theorem1")
        code, out, err = wl.run(op)
        self.assertIsNone(wl.check(op, (code, out, err)))
        self.assertIsNotNone(wl.check(
            op, (code, out.replace("ALL_PROHIBITED", "INCOMPLETE"), err)))
        self.assertIsNotNone(wl.check(op, (2, "", "deepnest: error: x")))
        bad = next(op for op in wl.ops if op["slot"] == "theorem2-odd-beta")
        self.assertIsNone(wl.check(bad, (2, "", "deepnest: error: x")))
        self.assertIsNotNone(wl.check(bad, (1, "", "Traceback (most recent")))
        self.assertIsNotNone(wl.check(bad, (0, out, "")))

    def test_self_times_add_up_to_the_operation(self):
        wl = build("lemma3-valid", 7)
        t = tracer.Tracer()
        root = t.span(tracer.ROOT, wl.run)
        t.install()
        try:
            t0 = time.perf_counter_ns()
            got = root(wl.ops[0])
            wall = time.perf_counter_ns() - t0
        finally:
            t.uninstall()
        self.assertIsNone(wl.check(wl.ops[0], got))
        # the layers' self times, wrappers included, against the wall time
        # taken outside the tracer: the rest is the benchmark's own calls
        # (sigma_shift, random.Random) and the root span's bookkeeping
        layers_ns = sum(tracer.self_times(t.spans)[1:])
        self.assertLessEqual(layers_ns, wall)
        self.assertGreater(layers_ns, 0.9 * wall)
        layers = child.layer_metrics(tracer.summarize(t.spans), 1, 1.0)
        self.assertEqual(layers["conics.conic_through_5.calls"], 5)
        self.assertGreater(layers["geometry._hull_cycle.calls"], 0)
        self.assertEqual(layers["cases.prohibit.calls"], 0)

if __name__ == "__main__":
    unittest.main()
