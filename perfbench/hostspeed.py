"""Host-speed normalisation of the benchmark's times.

The benchmark runs on shared hosts whose CPU speed drifts: on a 2-vCPU
guest, a fixed pure-Python task ran 1.3 to 2 times slower from one minute or
one hour to the next, with both wall and CPU time rising, so no in-process
timer avoids it.  Every interval the benchmark reports is therefore timed
next to a fixed reference task and scaled by ``REFERENCE_S / r``, where ``r``
is the mean of the reference times measured just before and just after the
interval.  A normalised time reads as the seconds the interval would take
on a host where the reference task takes ``REFERENCE_S``.

The reference task uses nothing of triadaudit, so a change to the program
cannot move it.  It mixes what the workloads spend their time on: hashing,
seeding ``random.Random``, float maths, small-object construction with
validation, method calls, sorting and JSON encoding.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from time import perf_counter

REFERENCE_S = 0.02
_ROUNDS = 1000


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        if not (x > 0 and y > 0 and z > 0):
            raise ValueError("coordinates must be positive")
        self.x, self.y, self.z = x, y, z

    def score(self):
        return abs(math.log(self.x * self.z / self.y))


def reference_s() -> float:
    """Run the reference task once and return its wall time."""
    t0 = perf_counter()
    acc, seen = 0.0, {}
    for i in range(_ROUNDS):
        rng = random.Random(int.from_bytes(hashlib.sha256(b"ref%d" % i).digest()[:8], "big"))
        points = [_Point(*(math.exp(rng.uniform(-2.0, 2.0)) for _ in range(3))) for _ in range(3)]
        scores = sorted(p.score() for p in points)
        acc += scores[1]
        seen[i & 63] = (scores[0], len(points))
    json.dumps(seen)
    return perf_counter() - t0


class Clock:
    """Normalises intervals to the reference host speed.

    The reference task runs once when the clock is made and once after
    every interval, so consecutive intervals share a reference reading.
    """

    def __init__(self):
        self.refs = [reference_s()]

    def normalise(self, raw: float) -> float:
        """Scale ``raw``, the length of an interval that has just ended."""
        self.refs.append(reference_s())
        return raw * REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2.0)
