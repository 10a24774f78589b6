"""Speed probe: how fast the benchmark's CPU runs interpreter work right now.

On a shared host, other tenants slow the CPU the jobs run on by up to 2x, in
phases that last from under a second to minutes.  The probe runs beside the
jobs, on the same CPU: every ``period`` seconds it wakes, times a fixed
chunk of interpreter work in its own CPU time, and writes that time to its
standard output as one native double.  It exits when the reader goes away.

    python3 perfbench/probe.py PERIOD_S

The chunk makes scattered reads and replacements in a pool of objects larger
than the CPU's private caches, then does interval arithmetic on a few
objects, so that it slows as the jobs do both when a neighbour competes for
execution units and when it competes for cache.  It does not use certbound,
so that a change to the program cannot change the probe.
"""

from __future__ import annotations

import math
import struct
import sys
import time
from dataclasses import dataclass

POOL_SIZE = 1 << 17  # about 10 MB of objects
STEPS = 50  # size of one chunk


@dataclass(frozen=True, slots=True)
class Iv:
    """A bare interval with checked, outward-rounded endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def __add__(self, other: "Iv") -> "Iv":
        return Iv(math.nextafter(self.lo + other.lo, -math.inf), math.nextafter(self.hi + other.hi, math.inf))

    def __mul__(self, other: "Iv") -> "Iv":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Iv(math.nextafter(min(p), -math.inf), math.nextafter(max(p), math.inf))


def main(period: float) -> None:
    pool = [Iv(i / POOL_SIZE, i / POOL_SIZE + 1.0) for i in range(POOL_SIZE)]
    mask, at = POOL_SIZE - 1, 0
    x, y = Iv(0.1, 0.2), Iv(-0.3, 0.5)
    out = sys.stdout.buffer
    while True:
        time.sleep(period)
        start = time.thread_time()
        acc, keep = Iv(0.0, 0.0), {}
        for i in range(STEPS):
            k = (at + i * 7919) & mask
            a, b = pool[k], pool[(k * 31 + 1) & mask]
            acc = a * x + b
            pool[k] = Iv(b.lo, a.hi)
        for i in range(STEPS):
            acc = Iv(0.0, 1.0) + x * y
            keep[i & 63] = acc
        at = (at + STEPS * 7919) & mask
        try:
            out.write(struct.pack("d", time.thread_time() - start))
            out.flush()
        except (BrokenPipeError, OSError):
            return


if __name__ == "__main__":
    main(float(sys.argv[1]))
