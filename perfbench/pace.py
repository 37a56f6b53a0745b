"""Host pace: a fixed reference computation timed all through a run.

The benchmark shares a few cores of a host whose speed moves by up to
a factor of 1.9 for tens of seconds at a time, longer than one run, so
raw times of the same code on the same inputs differ that much from
run to run.  A Pacer times a fixed computation of the benchmark's own
between operations, every PROBE_INTERVAL_S.  A raw time is then scaled
by NOMINAL_S / (the median reference time of the NEAREST probes to
it): it reads as seconds on a host that runs the reference in
NOMINAL_S.  The program never runs inside a probe, so no change to it
moves the reference.

`reference` (fraction-free elimination on a fixed integer matrix) is
short Python integer steps, which is what most of the program does,
and such operations follow its speed closely.  Long-integer products,
as in the largest probes of line-probe, slow down only about 0.6 times
as much in log scale; `mixed` adds such products and follows the host
at about 0.8 of `reference`, in between.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.05
NEAREST = 9
NOMINAL_S = 0.001
BURST = 5


def _reference_matrix() -> list:
    """A fixed 8 x 8 matrix of 60-bit integers from a linear congruential
    sequence, so that the reference is the same in every run."""
    x, rows = 12345, []
    for _ in range(8):
        row = []
        for _ in range(8):
            x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
            row.append((x >> 4) - (1 << 59))
        rows.append(row)
    return rows


REFERENCE = _reference_matrix()


def _wide_integers() -> list:
    """Four fixed 3000-bit integers from the same kind of sequence."""
    x, out = 54321, []
    for _ in range(4):
        value = 0
        for _ in range(50):
            x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
            value = (value << 60) | (x >> 4)
        out.append(value - (1 << 2999))
    return out


WIDE = _wide_integers()


def reference(reps: int = 10) -> int:
    """Bareiss determinant of REFERENCE, reps times; about a millisecond
    at ten."""
    for _ in range(reps):
        work = [list(row) for row in REFERENCE]
        n, prev = len(work), 1
        for c in range(n - 1):
            pivot = work[c][c]
            for i in range(c + 1, n):
                row = work[i]
                for k in range(c + 1, n):
                    row[k] = (row[k] * pivot - row[c] * work[c][k]) // prev
            prev = pivot
    return work[-1][-1]


def mixed() -> int:
    """Half reference(), half products and quotients of fixed 3000-bit
    integers, the long multiplications that dominate Bareiss on large
    entries; about 0.7 ms."""
    acc = reference(5)
    for a in WIDE:
        for b in WIDE:
            acc ^= (a * b) // (b >> 1000 | 1)
    return acc


class Pacer:
    """Probe times in time order: `at` holds each probe's midpoint and
    `took` its duration.  `computation` is the reference it times."""

    def __init__(self, computation=reference):
        self.computation = computation
        self.at = []
        self.took = []
        self.last = float("-inf")

    def probe(self) -> None:
        t0 = perf_counter()
        self.computation()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Probe if PROBE_INTERVAL_S has passed since the last probe.
        One probe at a time: a probe straight after another runs up to
        a third faster, its code and data still cached, so probes in a
        row would not time the same thing as probes between operations."""
        if perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.probe()

    def burst(self) -> None:
        """A few probes at once, around work timed as one block."""
        for _ in range(BURST):
            self.probe()

    def reference_s(self, t0: float, t1: float) -> float:
        """Median reference time of the NEAREST probes closest to
        [t0, t1], or of all probes inside it if there are more."""
        at = self.at
        lo = bisect.bisect_left(at, t0)
        hi = bisect.bisect_right(at, t1)
        picked = self.took[lo:hi]
        while len(picked) < NEAREST and (lo > 0 or hi < len(at)):
            if hi >= len(at) or (lo > 0 and t0 - at[lo - 1] <= at[hi] - t1):
                lo -= 1
                picked.append(self.took[lo])
            else:
                picked.append(self.took[hi])
                hi += 1
        if not picked:
            raise ValueError("no probe was made")
        return statistics.median(picked)

    def paced(self, t0: float, t1: float) -> float:
        """Raw time t1 - t0 in seconds at the nominal pace."""
        return (t1 - t0) * NOMINAL_S / self.reference_s(t0, t1)

    def summary(self) -> dict:
        took = sorted(self.took)
        return {
            "probes": len(took),
            "reference_min_s": took[0],
            "reference_p50_s": statistics.median(took),
            "reference_max_s": took[-1],
        }
