"""Host speed probe, for scaling measured times to a calm host.

On a shared 2-CPU Xeon host the same pass over a workload took 1.6 s in one
minute and 3.6 s in the next, and slow spells lasted long enough to cover a
whole run; medians and best-of-passes inside a run could not hide them. A
fixed pure-Python job (building random program terms, much like futsim's own
work: small frozen objects, recursion, string building) slowed by the same
factor, within about 5% while the speed held. So every timed command sits
between two runs of this probe, and its time is scaled by REF_S over the
probe's mean time around it: the result reads in seconds of a host on which
the probe takes REF_S. The probe runs no futsim code, so a change to futsim
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import time

from corpus import random_draw

REF_S = 0.010  # about the probe's time on a calm 2-CPU Xeon host
PROBE_DRAWS = 100


def probe() -> float:
    """Seconds this host takes for the fixed probe job right now."""
    start = time.perf_counter()
    shapes, values = random.Random(0), random.Random(0)
    for _ in range(PROBE_DRAWS):
        random_draw(shapes, values, 10, 5)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two probes, in seconds of the calm host."""
    return seconds * REF_S / ((before + after) / 2)
