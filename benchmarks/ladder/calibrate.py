"""How fast the machine is right now, so that times can be stated at one speed.

The sandbox this benchmark runs in changes speed by itself, within a run
and from one run to the next. Over two hundred seconds of nothing but
``set_oriented`` passes, the median of six passes moved over a range of
45 % (quartiles 8 % apart); on ``frontend`` the median of thirty passes
moved over 33 %. A fixed kernel of plain Python timed next to each pass
moved with them (correlation 0.82 and 0.86 pass by pass), and dividing by
it left quartiles 3.2 % and 3.3 % apart. Unrestated, ten runs of one
workload had quartiles up to 20 % apart, and no bound the contract allows
would hold from one set of runs to the next.

So every run times this kernel between its passes and blocks, outside the
timed region, and states its times at the speed at which the kernel takes
``REFERENCE_S``: the untraced run pass by pass, by the kernel timings next
to each pass; the traced run as a whole. The kernel is part of the
benchmark and shares no code with the engine: a change to the engine
cannot move it.
"""

from __future__ import annotations

import time
from statistics import median

clock = time.perf_counter

#: The kernel's time on the reference machine (a little under what it takes here).
REFERENCE_S = 0.010
#: Between passes and blocks the kernel is timed at most this often.
GAP_S = 0.4
_KERNELS_PER_SAMPLE = 4
#: The machine's speed at a moment is the median kernel time this close to it.
_WINDOW_S = 2.5
_FEWEST_IN_WINDOW = 8


def kernel() -> float:
    """The engine's kind of work in miniature: build tuples, group them in
    a dict, sort each group by a key function, filter and sum."""
    table = [(i, i % 89, float(i % 13), f"k{i % 257}") for i in range(20000)]
    groups: dict[int, list[tuple]] = {}
    for row in table:
        bucket = groups.get(row[1])
        if bucket is None:
            groups[row[1]] = bucket = []
        bucket.append(row)
    total = 0.0
    for rows in groups.values():
        rows.sort(key=lambda r: r[3])
        total += sum(r[2] for r in rows if r[0] % 3)
    return total


class Machine:
    """Kernel timings taken during one run, each with the time it was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self, min_gap_s: float = 0.0) -> None:
        """Time the kernel, unless it was timed less than ``min_gap_s`` ago."""
        if clock() - self._last < min_gap_s:
            return
        for _ in range(_KERNELS_PER_SAMPLE):
            started = clock()
            kernel()
            ended = clock()
            self.samples.append((ended, ended - started))
        self._last = clock()

    def kernel_s(self) -> float:
        return median(seconds for _, seconds in self.samples)

    def slowdown(self) -> float:
        """This machine's time for a piece of work over the reference
        machine's, over the whole run: divide a time by it, multiply a rate."""
        return self.kernel_s() / REFERENCE_S

    def slowdown_near(self, moment: float) -> float:
        """The same around ``moment``: the speed changes within a run too,
        so each pass is restated by the kernel timings next to it."""
        near = [s for at, s in self.samples if abs(at - moment) <= _WINDOW_S]
        if len(near) < _FEWEST_IN_WINDOW:
            return self.slowdown()
        return median(near) / REFERENCE_S
