"""Host speed, read from a fixed pure-Python chunk timed between operations.

The benchmark runs on shared machines whose speed moves by a third or more
in phases of about a tenth of a second, and stays slow for minutes at a
time.  Raw times follow the host as much as the program.  So the benchmark
times a reference chunk, code that never changes and calls nothing in
deepnest, in among the operations it measures, and scales each measured
stretch of time by

    factor = NOMINAL_S / (median time of the chunks run nearest to it)

A time read while the host runs at a third below its usual speed is scaled
down by that third.  A change to deepnest moves the operations' times and
not the chunk's, so it shows in full.
"""

from __future__ import annotations

import statistics
import time
from array import array
from fractions import Fraction

# A round figure near the chunk's median time on the machine the baseline
# was measured on (Python 3.11.7, shared 2-vCPU Intel Xeon VM at 2.1 GHz),
# where it moved between 0.12 and 0.28 ms with the host.  It only sets the
# scale: scaled times read as times on that machine at that speed.
NOMINAL_S = 0.0002
# chunk time run per unit of measured time
SHARE = 0.05
# chunks on each side of a stretch's end that give its factor
NEIGHBOURS = 4


def _chunk():
    """Exact rational arithmetic and small containers, like deepnest's own
    work, so that the chunk slows down with the host as deepnest does."""
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i, i + 2) * Fraction(3, i + 5)
    table: dict = {}
    for i in range(120):
        key = (i % 37, i % 11)
        table[key] = table.get(key, ()) + (i,)
    return acc, sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))


class Meter:
    """Reference chunks run in among measured stretches of time."""

    def __init__(self):
        self.chunks = array("d")
        self.marks = array("q")  # per stretch: chunks run before its end
        self.measured_s = 0.0
        self.spent = 0.0
        self._run(NEIGHBOURS)

    def _run(self, n: int) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            _chunk()
            t = time.perf_counter() - t0
            self.chunks.append(t)
            self.spent += t

    def mark(self, seconds: float) -> None:
        """A measured stretch of `seconds` has just ended.  Run chunks until
        they add up to SHARE of all measured time."""
        self.marks.append(len(self.chunks))
        self.measured_s += seconds
        while self.spent < SHARE * self.measured_s:
            self._run(1)

    def factors(self):
        """Per stretch, in order: NOMINAL_S over the median time of the
        2 * NEIGHBOURS chunks nearest to its end."""
        self._run(self.marks[-1] + NEIGHBOURS - len(self.chunks))
        last = len(self.chunks) - 2 * NEIGHBOURS
        for m in self.marks:
            lo = min(max(m - NEIGHBOURS, 0), last)
            yield NOMINAL_S / statistics.median(
                self.chunks[lo:lo + 2 * NEIGHBOURS])


def around(fn):
    """Call fn(); return its result and the factor read just before and
    just after it.  For stretches that cannot be interleaved, such as the
    start of a fresh process."""
    meter = Meter()
    result = fn()
    meter.mark(0.0)
    return result, next(meter.factors())
