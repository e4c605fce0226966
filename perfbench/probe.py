"""Host-speed probe: a fixed piece of pure-Python work, timed between requests.

On a shared host the same code runs up to a quarter slower or faster from
one minute to the next, and a 20-second run cannot average that drift away.
Every run therefore times this probe between requests, on the same CPU as
the program, and scales its times by ``REFERENCE_S / median(probe times)``:
the metrics read as milliseconds (or requests per second) at the probe's
reference speed. The probe is benchmark code only, so no change to the
program can move it; the raw numbers and the factor are printed too.
"""

from __future__ import annotations

import time

#: Median probe time on the host the bounds were set on (Intel Xeon, 2 vCPUs).
REFERENCE_S = 0.008

_TABLE = {i: i for i in range(5000)}


def probe() -> float:
    """CPU seconds taken by one fixed interpreter-bound loop (about 8 ms).

    CPU time, not wall time: a probe that shares its CPU with a busy
    program process still measures the speed of the CPU, not its share.
    """
    table = _TABLE
    t0 = time.thread_time()
    total = 0
    for i in range(60000):
        total += table[i % 5000]
    return time.thread_time() - t0


class Probes:
    """Probe times of one pass, spread evenly over it.

    ``tick`` is called between requests and probes at most once per
    ``interval`` seconds. Probes are never bunched at the start or end of a
    pass: a few probes in a row see only the host speed of that moment.
    """

    def __init__(self, interval: float):
        self.times: list[float] = []
        self.interval = interval
        self._next = 0.0

    def tick(self) -> float:
        """One probe when the interval has passed; returns the time taken."""
        now = time.perf_counter()
        if now < self._next:
            return 0.0
        self.times.append(probe())
        self._next = time.perf_counter() + self.interval
        return time.perf_counter() - now
