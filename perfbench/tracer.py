"""Span tracer that wraps deepnest's layer functions from outside the package.

Each wrapped call records a span [name, start_ns, end_ns, parent, op, raised]
in memory.  A function is patched under every name that points to it in any
loaded deepnest module (``conics.circle_sort``, ``configurations.circle_sort``,
the package's re-exports, ...), so the binding a caller looks up at call time
is always the wrapper.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> functions whose spans give the per-layer metrics
TRACED = {
    "schemes": ("parse_scheme", "classify_deep_nest", "print_scheme"),
    "orientations": ("parse_signed", "compute_stats",
                     "check_rokhlin_mishachev", "check_orevkov",
                     "chain_imbalance_magnitudes"),
    "cases": ("theorem1_report", "theorem2_report", "prohibit",
              "solve_scenario", "orevkov_filter", "emit_complex_scheme"),
    "geometry": ("_hull_cycle", "circle_sort"),
    "conics": ("cremona", "CremonaMap.point", "conic_pencil_events",
               "conic_through_5", "polar_line"),
    "configurations": ("sample_configuration", "perturb_configuration",
                       "classify_configuration", "find_witness",
                       "reducible_cubic_sequence"),
    "bezout": ("parse_trace", "audit"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
# functions whose raised exceptions are reported: degenerate rejections,
# sampler give-ups and infeasible sign cases
ERRORS = ("configurations.classify_configuration",
          "configurations.sample_configuration",
          "cases.emit_complex_scheme")
ROOT = "op"

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span called `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every traced function of the already imported package."""
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "deepnest" or name.startswith("deepnest.")]
        for modname, names in TRACED.items():
            module = sys.modules.get(f"deepnest.{modname}")
            if module is None:
                continue
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    home = getattr(module, cls_name)
                    owners = [home]
                else:
                    home, attr, owners = module, qualname, loaded
                original = vars(home)[attr]
                wrapper = self.span(f"{modname}.{qualname}", original)
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._undo.append((owner, name, original))
                            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()



def dump(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op",
                              "raised"], "spans": spans},
                  fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Per span: its duration minus the time its direct children cover.

    Calls are synchronous, so a span's children run one after another
    inside it and their durations add up to the time they cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans) -> dict[str, list]:
    """name -> [calls, self_ns, raised] over all spans."""
    out: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s[NAME], [0, 0, 0])
        entry[0] += 1
        entry[1] += own
        entry[2] += s[RAISED]
    return out
