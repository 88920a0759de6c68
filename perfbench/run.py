"""Benchmark for deepnest: seeded closed-loop workloads, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each workload runs in a fresh interpreter
(perfbench/child.py) with one client and one operation in flight; every
answer is checked against perfbench/oracle.py.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time is scaled to a reference host speed (reference.py), read from a
fixed loop timed in among the operations.  With --trace 0 the metrics are
the end-to-end ones: setup_s (median of several fresh set-ups),
throughput_ops_s (operations per second spent in them), latency_p50_ms and
latency_p90_ms (over every timed run of the window), ok_ratio
(1 - failed / attempted) and peak_rss_mb.  With --trace 1 they are the
per-layer ones: per-operation calls, self time and errors of each traced
deepnest function, the sampler's accept ratio, the tracing overhead, and the
cold-start split (bare interpreter, per-module import self time).  The
traced run writes its spans to .perfbench_out/.

`correct` is false when any answer is wrong.  On cli-cold the malformed
argv that hit the open defects in workloads.OPEN_DEFECTS are probed once
per run outside the timed window; each one that still fails is printed on
an "open defect" line above the JSON and is not counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
import tracer

WORKLOADS = ("orientation-tables", "lemma3-valid", "lemma3-excluded",
             "cli-cold")
SETUP_RUNS = 9          # fresh set-ups per run; setup_s is their median
COLD_START_RUNS = 5     # interpreter and import probes in a traced run
CHILD_TIMEOUT = 170


def child(root: str, env: dict, args, setup_only: bool = False) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, os.path.join("perfbench", "child.py"),
           args.workload, str(args.seed), str(args.seconds), str(args.trace),
           repr(started)] + (["--setup-only"] if setup_only else [])
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        sys.exit(f"perfbench: workload process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_s(root: str, env: dict, args) -> float:
    """One fresh set-up at reference speed."""
    result, factor = reference.around(
        lambda: child(root, env, args, setup_only=True))
    return result["setup_s"] * factor


def _probe(cmd, root, env) -> tuple[float, str, float]:
    """Run one process: its wall time in ms, its stderr, and the factor
    read just before and after it."""
    def start():
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return (time.perf_counter() - t0) * 1e3, done.stderr

    (ms, stderr), factor = reference.around(start)
    return ms, stderr, factor


def cold_start(root: str, env: dict) -> dict[str, float]:
    """Median bare-interpreter start and `-X importtime` self times, at
    reference speed."""
    samples: dict[str, list[float]] = {}
    importing = [sys.executable, "-X", "importtime", "-c", "import deepnest.cli"]
    _probe(importing, root, env)  # compile byte code once
    for _ in range(COLD_START_RUNS):
        ms, _, factor = _probe([sys.executable, "-c", "pass"], root, env)
        samples.setdefault("process.interpreter_ms", []).append(ms * factor)
        _, report, factor = _probe(importing, root, env)
        self_us: dict[str, int] = {}
        for line in report.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            self_us[name.strip()] = int(own)
        samples.setdefault("import.total_ms", []).append(
            sum(self_us.values()) * factor / 1e3)
        for mod in tracer.TRACED:
            samples.setdefault(f"import.deepnest.{mod}.self_ms", []).append(
                self_us.get(f"deepnest.{mod}", 0) * factor / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "deepnest", "__init__.py")):
        sys.exit(f"perfbench: no deepnest sources under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    try:
        setups = [] if args.trace else [
            setup_s(root, env, args) for _ in range(SETUP_RUNS)]
        run = child(root, env, args)
        cold = cold_start(root, env) if args.trace else {}
    finally:
        try:  # each workload process removes its own input directory
            os.rmdir(os.path.join(root, ".perfbench_tmp"))
        except OSError:
            pass

    attempted, failed = run["attempted"], run["failed"]
    n = run["window_ops"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"closed loop, 1 client  {n} ops in {run['raw_s']:.2f} s, "
          f"{run['scaled_s']:.2f} s at reference speed")
    notes = {}
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in {**run["layers"], **cold}.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_ops_s": {"value": n / run["scaled_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": run["p50_s"] * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": run["p90_s"] * 1e3, "unit": "ms"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh set-ups",
            "throughput_ops_s": f"raw {n / run['raw_s']:.4f}",
            "latency_p50_ms": f"n={n} timed runs",
            "latency_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond p90",
            "ok_ratio": f"failed_ratio {failed / attempted:.4f} = "
                        f"{failed}/{attempted} attempted",
        }
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:12.4f} {m['unit']:8} "
              f"{notes.get(name, '')}")
    for problem in run["problems"]:
        print(f"  failed: {problem}")
    for defect in run["open_defects"]:
        print(f"  open defect: {defect}")
    print(json.dumps({"correct": not run["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".errors")):
        return "count/op"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    main()
