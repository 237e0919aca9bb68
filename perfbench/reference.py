"""A fixed reference workload that measures how fast the host is running.

The speed of a shared machine swings by half or more within seconds and
drifts over minutes.  After every round the benchmark times
:func:`reference_round`, a fixed pure-Python job shaped like the
simulator's inner loop (a heap of tuples, small objects, string
allocation, dict updates keyed by tuples), and divides the round's rate
by the host speed the reference measured.  A tight arithmetic loop does
not slow down with the simulator; this one does.  See "Noise" in
``README.md`` for the measurements.

The reference runs in a child process of its own, between rounds while
the benchmark waits for it, with the cyclic garbage collector off (it
creates no cycles).  So neither a change to the program nor the objects
the program leaves alive change its speed, and its memory does not count
in the benchmark process's peak.
"""

from __future__ import annotations

import gc
import heapq
import random
import subprocess
import sys
import time

#: operations per reference round (about 0.3 s on the host below)
OPS = 100_000
#: reference rounds per second of the nominal host: about the median
#: rate on the 2-core x86-64 VM (Intel Xeon, 2.0 GHz) the benchmark was
#: written on.  Scaled rates read as if measured on a host this fast.
NOMINAL_HZ = 3.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: object, value: object) -> None:
        self.key = key
        self.value = value


def reference_round() -> float:
    """Wall seconds of one reference round."""
    rng = random.Random(1)
    heap: list = []
    table: dict = {}
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(OPS):
            heapq.heappush(heap, (rng.random(), i, _Cell(i, str(i))))
            table[i % 5000, i % 7] = _Cell(i, heap[0])
            if len(heap) > 16384:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Reference rounds timed on request in a child process.

    Use as a context manager: leaving it stops the child and waits for it.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def measure(self) -> float:
        """The host's speed now, relative to the nominal host: the rate
        of one reference round over ``NOMINAL_HZ``."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return 1.0 / (float(self._child.stdout.readline()) * NOMINAL_HZ)

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc: object) -> None:
        # killed, not sent end-of-file: sweep workers forked from the
        # benchmark hold copies of the child's stdin
        self._child.kill()
        self._child.wait()
        self._child.stdin.close()
        self._child.stdout.close()


if __name__ == "__main__":
    # child side: one round per line read, its wall seconds per line written
    for _ in sys.stdin:
        print(repr(reference_round()), flush=True)
