"""One workload in a fresh interpreter: set up, run the timed loop, check.

    python perfbench/child.py WORKLOAD SEED SECONDS TRACE STARTED [--setup-only]

STARTED is the launcher's time.monotonic() taken just before it started this
process; the clock is system-wide, so setup_s spans interpreter start, the
package import, input generation and warm-up.  The loop is closed with one
client: the next operation starts when the previous one has returned.
Answers are checked after the loop, so checking does not dilute the window;
inside it a repeated operation is only compared with its first answer.

Between operations the loop runs reference chunks (reference.py), about
one twentieth of the time measured, and each operation's time is scaled by
the factor of the chunks run nearest to it, so every time reported is at
the reference host speed.  Latency percentiles are taken over every timed
run of the window.  On cli-cold, the argv that hit known open defects
are run once after the window, outside the counts (see open_defects).
Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import collections
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array

import reference
import tracer


RAISED = object()   # marks an answer that is an exception's last line


class Outcomes:
    """Per pool slot: the first answer, how often the slot ran, and how
    often a later run answered differently.  Memory stays bounded by the
    pool size however long the window."""

    def __init__(self):
        self.first: dict[int, object] = {}
        self.runs: collections.Counter = collections.Counter()
        self.changed: collections.Counter = collections.Counter()

    def add(self, slot: int, answer) -> None:
        self.runs[slot] += 1
        if slot not in self.first:
            self.first[slot] = answer
        elif answer != self.first[slot]:
            self.changed[slot] += 1

    def problems(self, wl) -> list[tuple[int, int, str]]:
        """(slot, failed runs, problem) for each slot that answered wrong."""
        out = []
        for slot, answer in self.first.items():
            if isinstance(answer, tuple) and answer[:1] == (RAISED,):
                problem = answer[1]
            else:
                problem = wl.check(wl.ops[slot], answer)
            if problem:
                out.append((slot, self.runs[slot], problem))
            elif self.changed[slot]:
                out.append((slot, self.changed[slot],
                            f"slot {slot}: answer changed between runs"))
        return out


class Timing:
    """The timed runs of one window: how many, the time spent inside them
    raw and at reference speed, and each run's latency at reference speed."""

    def __init__(self, raw: array, factors, next_index: int):
        self.ops = len(raw)
        self.next = next_index   # pool index after the window
        self.latencies = array("d", (x * f for x, f in zip(raw, factors)))
        self.raw_s = math.fsum(raw)
        self.scaled_s = math.fsum(self.latencies)

    def factor(self) -> float:
        return self.scaled_s / self.raw_s


def _call(run, op):
    try:
        return run(op)
    except Exception:
        lines = traceback.format_exc().strip().splitlines()
        return RAISED, lines[-1]


def warm_up(wl, outcomes: Outcomes) -> int:
    """Run the first `wl.warmup` pool operations untimed."""
    for slot in range(wl.warmup):
        outcomes.add(slot, _call(wl.run, wl.ops[slot]))
    return wl.warmup


def window(wl, run, outcomes: Outcomes, seconds: float, start: int,
           limit: int = 0) -> Timing:
    """Run pool operations from `start` until `seconds` pass (or `limit`
    operations), with reference chunks in between."""
    clock = time.perf_counter
    meter, raw = reference.Meter(), array("d")
    deadline = clock() + seconds
    while True:
        slot = (start + len(raw)) % len(wl.ops)
        t0 = clock()
        answer = _call(run, wl.ops[slot])
        t1 = clock()
        outcomes.add(slot, answer)
        raw.append(t1 - t0)
        meter.mark(t1 - t0)
        if clock() >= deadline or len(raw) == limit:
            break
    return Timing(raw, meter.factors(), start + len(raw))


def layer_metrics(summary: dict, ops: int, factor: float) -> dict[str, float]:
    """Per-operation calls, self time (at reference speed) and error counts
    per traced function."""
    out = {}
    for name in tracer.FUNCTIONS:
        calls, self_ns, raised = summary.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_ms"] = self_ns * factor / 1e6 / ops
        if name in tracer.ERRORS:
            out[f"{name}.errors"] = raised / ops
    sampled = summary.get("configurations.sample_configuration", (0,))[0]
    perturbed = summary.get("configurations.perturb_configuration", (0,))[0]
    out["configurations.sample_accept_ratio"] = (
        sampled / perturbed if perturbed else 0.0)
    return out


def traced_window(wl, outcomes: Outcomes, seconds: float, start: int,
                  out_dir: str, tag: str):
    """The traced pass: at most one pass over the pool, timed apart from the
    untraced window.  Returns its Timing and the per-layer metrics."""
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{tag}.json")
    if wl.name == "cli-cold":
        # the CLI runs in child processes, each writing its own spans
        wl.traced = True
        timing = window(wl, wl.run, outcomes, seconds, start, len(wl.ops))
        spans = []
        for op_id, path in enumerate(wl.spans):
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)["spans"]
            base = len(spans)
            for s in part:
                s[tracer.PARENT] += base if s[tracer.PARENT] >= 0 else 0
                s[tracer.OP] = op_id
            spans.extend(part)
    else:
        t = tracer.Tracer()
        root = t.span(tracer.ROOT, wl.run)

        def run(op):
            t.op_id += 1
            return root(op)

        t.install()
        try:
            timing = window(wl, run, outcomes, seconds, start, len(wl.ops))
        finally:
            t.uninstall()
        spans = t.spans
    tracer.dump(spans, spans_path)
    return timing, layer_metrics(tracer.summarize(spans), timing.ops,
                                 timing.factor())


def open_defects(wl) -> list[str]:
    """Run each known-defect probe once, untimed and uncounted, after the
    window: the open defects that still fail, with how they fail."""
    wl.traced = False
    out = []
    for op in getattr(wl, "defect_probes", ()):
        problem = wl.check(op, _call(wl.run, op))
        if problem:
            out.append(f"{op['defect']} ({problem})")
    return out


def main() -> None:
    name, seed, seconds, trace, started = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    started = float(started)

    import workloads

    workdir = os.path.join(".perfbench_tmp", f"{name}-{seed}")
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        outcomes = Outcomes()
        index = warm_up(wl, outcomes)
        setup_s = time.monotonic() - started
        if "--setup-only" in sys.argv:
            print(json.dumps({"setup_s": setup_s}))
            return
        result = {}
        if trace:
            timing = window(wl, wl.run, outcomes, seconds / 2, index)
            traced, layers = traced_window(
                wl, outcomes, seconds / 2, timing.next, ".perfbench_out",
                f"{name}-{seed}")
            layers["trace.overhead_ratio"] = (
                (traced.ops / traced.scaled_s) /
                (timing.ops / timing.scaled_s))
            layers["trace.ops"] = traced.ops
            result["layers"] = layers
        else:
            timing = window(wl, wl.run, outcomes, seconds, index)
        problems = outcomes.problems(wl)
        usage = resource.RUSAGE_CHILDREN if name == "cli-cold" \
            else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        result["open_defects"] = open_defects(wl)
        deciles = statistics.quantiles(timing.latencies, n=10) \
            if timing.ops > 1 else list(timing.latencies) * 9
        result.update({
            "attempted": sum(outcomes.runs.values()),
            "failed": sum(count for _, count, _ in problems),
            "problems": sorted({p for _, _, p in problems}),
            "window_ops": timing.ops,
            "raw_s": timing.raw_s,
            "scaled_s": timing.scaled_s,
            "p50_s": statistics.median(timing.latencies),
            "p90_s": deciles[8],
            "peak_rss_mb": peak_rss_mb,
        })
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
