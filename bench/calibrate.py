"""How fast the machine runs right now, for scaling the stage times.

Two effects of a shared host are measured.  ``stolen_s`` reads how long the
host has kept this machine's CPUs from running although they had work (the
kernel's steal time); a stage's wall time less the steal during it is the
time it would have taken had its CPU not been taken away.  ``reference_work``
is fixed work that ``stage.py`` runs in every stage process right before and
right after the stage's command; its CPU time shows how fast a CPU runs
while it does run (a busy sibling hyperthread or a lower clock slows it).

The work is pure Python (float text formatting and parsing, integer
arithmetic, dict and list churn, the kind of work start-up and the text
formats do).  It needs only ``os``, ``random`` and ``time``, so it cannot
hide an import the program stops making, and it keeps every object small,
so it leaves the allocator as it found it.  It runs none of the program
under test, so its time moves only with the machine.
"""

import os
import random
import time

ROWS = 4000
COUNT = 400_000


def stolen_s() -> float:
    """Steal time of all CPUs since boot, in seconds; 0 where the kernel reports none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def mark() -> tuple[float, float]:
    """(``time.perf_counter`` reading, ``stolen_s``) of this moment."""
    return time.perf_counter(), stolen_s()


def reference_work() -> float:
    """CPU seconds of this thread the fixed work took."""
    start = time.thread_time()
    rng = random.Random(0)
    total = 0.0
    for _ in range(ROWS):
        row = " ".join(repr(rng.random()) for _ in range(6))
        total += sum(float(v) for v in row.split())
    table: dict[int, int] = {}
    for i in range(COUNT):
        table[i % 1021] = table.get(i % 1021, 0) + i % 7
    assert total > 0 and len(table) == 1021
    return time.thread_time() - start
