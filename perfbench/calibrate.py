"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host other tenants slow this process down, by up to a factor of
two, without any sign in the steal counters.  The slowdown changes from one
fraction of a second to the next, differs between the two CPUs, and comes
in phases that last minutes.  Such a phase moves every timing of a run, so
it decides which runs are fast rather than the program does.

Each session (``session.py``) therefore times :func:`reference_loop` in
the process that does the work: a few loops before and after its cells,
and one between two cells whenever :data:`INTERVAL_S` has passed since the
last, in the pool workers too.  The session's slowdown is the mean loop
time over :data:`NOMINAL_S`, and ``run.py`` divides the session's times by
it.  The loop uses only the standard library and never changes, so a
change to the program under test cannot move it: a faster program still
reads faster, while a slower host reads about the same.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Time of one :func:`reference_loop` on an idle 2-vCPU Intel Xeon VM at
#: 2.1 GHz (Python 3.11).  Scaled times read as that machine's.
NOMINAL_S = 0.0165
#: Timed loops before and after a session's cells.
REPS = 5
#: A loop is timed before a cell once this much time passed since the last.
INTERVAL_S = 0.2


def reference_loop(rounds: int = 16000) -> int:
    """A small event loop of heap, tuple and dict work, like the simulator's."""
    heap = [(i * 7 % 13, i, (i, i + 1)) for i in range(64)]
    heapq.heapify(heap)
    seen = {}
    total = 0
    for step in range(rounds):
        due, ident, message = heapq.heappop(heap)
        key = (message[0] % 17, message[1] % 11)
        seen[key] = seen.get(key, 0) + 1
        total += len(seen) + sum(message)
        heapq.heappush(heap, (due + step * 31 % 7 + 1, ident, (message[1], message[0] + step % 5)))
        if step % 64 == 0:
            total += min(sorted(seen.values())[-3:])
    return total


def timed_loop() -> float:
    """Wall time of one :func:`reference_loop`, in seconds."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def sample(reps: int = REPS) -> list:
    """Wall times of ``reps`` reference loops, in seconds."""
    return [timed_loop() for _ in range(reps)]


def slowdown(times) -> float:
    """The host's slowdown over the idle reference machine (1.0: as fast)."""
    return statistics.fmean(times) / NOMINAL_S
