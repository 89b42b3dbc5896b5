"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: in one minute the same
pass of the same code can take 2.0 s and in the next 3.0 s, with the
process never descheduled (its CPU time moves with its wall time).  A
regression bound on raw seconds would then fire on the neighbours' load.

:func:`calibrate` times a short fixed pure-Python kernel that does the
kind of work the simulator does — dictionary updates at random keys, tuple
allocation, a sort — and depends on nothing in the repository, so no
change to the program can change it.  The benchmark calibrates before
each unit's run and after the last one, and scales the pass's timings by
:data:`REFERENCE_S` over the pass's median calibration: the figures read
as seconds on a host where the kernel takes :data:`REFERENCE_S`.  Across
seven runs of a workload, this cut the spread of run medians from 20% to
about 5% on ``fleet`` and from 8% to 2-3% on ``registry``.
"""

import random
import time

#: Kernel size: about 0.04 s on a 2-vCPU x86-64 cloud host.
ITEMS = 30_000

#: Seconds the kernel takes on the reference host; timings are scaled to
#: it.  The value is the kernel's median on the host the benchmark was
#: defined on, so the scaled figures stay close to that host's seconds.
REFERENCE_S = 0.042


def calibrate() -> float:
    """Seconds this host takes for the fixed kernel right now."""
    rng = random.Random(20170408)
    table = {}
    pairs = []
    start = time.perf_counter()
    for i in range(ITEMS):
        key = rng.randrange(1 << 20)
        table[key] = table.get(key, 0) + 1
        pairs.append((key, i))
    pairs.sort()
    elapsed = time.perf_counter() - start
    if sum(table.values()) != ITEMS:
        raise RuntimeError("calibration kernel miscounted")
    return elapsed
