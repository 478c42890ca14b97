"""A fixed pure-Python reference loop that tracks the host's speed.

The reference host is a virtual machine whose processors it shares with
other tenants.  Its single-thread speed drifts by up to 1.6x over minutes,
while CPU time stays equal to wall time: the process is not descheduled, its
processor simply runs slower.  cptower is pure Python, so the same drift
moves every timing the benchmark takes.

``chunk_s`` times one fixed chunk of interpreter work (integer arithmetic,
list indexing and a branch, the mix of the search's inner loop) that never
touches cptower.  The benchmark runs chunks between operations and scales
its timings by ``scale``: the factor that brings the chunk's median time to
``NOMINAL_CHUNK_S``.  A scaled timing is the time the operation would take
on a host where one chunk takes ``NOMINAL_CHUNK_S``, so a change to cptower
moves it and a change in host speed largely does not.
"""

from __future__ import annotations

import gc
import statistics
import time

# Chunk time on the reference host (Python 3.11.7, x86_64) at its usual
# speed; a constant, so scaled figures stay comparable between runs.
NOMINAL_CHUNK_S = 0.0025
# A chunk runs once this much operation time has passed since the last one,
# so that chunks add about 3% to a pass.
CHUNK_EVERY_S = 0.05

_TABLE = [(i * 7919) % 1009 for i in range(256)]
_ROUNDS = 8000


def chunk_s() -> float:
    """Seconds one reference chunk takes now.  The garbage collector is
    paused so that the chunk never pays for cptower's objects."""
    table = _TABLE
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(_ROUNDS):
            v = table[i & 255] * (i % 13) - table[(i * 5) & 255]
            if v & 1:
                acc += v
            else:
                acc -= v >> 1
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


def scale(chunks: list[float]) -> float:
    """The factor that converts timings taken beside ``chunks`` to the
    reference speed."""
    return NOMINAL_CHUNK_S / statistics.median(chunks)


class Pacer:
    """Runs a reference chunk once ``CHUNK_EVERY_S`` of operation time has
    passed since the last one, and keeps every chunk's time."""

    def __init__(self):
        self.chunks: list[float] = []
        self._since = 0.0

    def after(self, operation_s: float) -> None:
        self._since += operation_s
        if self._since >= CHUNK_EVERY_S:
            self._since = 0.0
            self.chunks.append(chunk_s())
