"""Host-speed probe: a fixed pure-Python loop timed between measurements.

Used by the worker to scale pass times and by run.py to scale set-up
samples; see README.md, "Reference seconds".
"""

import statistics
import time


class HostProbe:
    """Host speed, sampled between calls with a fixed pure-Python loop.

    On a shared host the same work runs up to 50% slower while other tenants
    load it, for seconds or minutes at a time; the probe slows down with it.
    The pass is cut into segments at every call into the program (`mark`),
    and each segment's time is scaled by REF_S over the probe time measured
    at its two ends.  The result is in reference seconds: seconds on a host
    where the probe takes REF_S.  Probe time is kept out of every segment.
    """

    LOOP = 50_000
    REPEATS = 3
    REF_S = 0.003

    def __init__(self):
        self.speeds: list[float] = []     # median probe time at each mark
        self.raw = 0.0                    # measured seconds since start()
        self.ref = 0.0                    # the same in reference seconds

    def sample(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.LOOP):
                acc += i * i
            times.append(time.perf_counter() - t0)
        self.speeds.append(statistics.median(times))
        return self.speeds[-1]

    def start(self) -> None:
        self.raw = self.ref = 0.0
        self._last = self.sample()
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        segment = time.perf_counter() - self._t0
        now = self.sample()
        self.raw += segment
        self.ref += segment * self.REF_S / (0.5 * (self._last + now))
        self._last = now
        self._t0 = time.perf_counter()
