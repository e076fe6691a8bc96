"""Machine-speed probe.

On a shared VM the host's other tenants change how fast the same work
runs: back-to-back passes of one check-suite list took 9.98 s to 14.94 s
within three minutes, and the processes' CPU time tracked their wall
time (ratio 0.98), so the variation is the machine's speed, not waiting.

The probe is a fixed piece of Python work (dictionary inserts, tuple
allocation, a sort) that does not depend on the program under test. The
benchmark runs it between requests, never during one, and scales each
measured time by ``REF_S / m``, where ``m`` is the median of the
``window`` probes taken nearest to the measurement on each side: seconds
on the machine at the speed where the probe takes ``REF_S``. The
machine's speed switches between modes within seconds (the probe itself
reads about 23 ms or 36 ms for stretches of a few samples), so the
nearer the probes, the better they match. A change to the program leaves
the probe alone, so it moves the scaled times exactly as it moves the
raw ones.
"""

import bisect
import time

from .stats import median

# Probe time the scaled metrics are expressed at (about this VM's median).
REF_S = 0.035

N = 40000


def probe():
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(N):
        key = (i * 2654435761) % 1000003
        table[key] = (i, key & 255)
        acc += len(table) & 7
    ordered = sorted(table.items(), key=lambda kv: kv[1][1])
    acc += ordered[0][0]
    return time.perf_counter() - t0


class Speed:
    """Probe samples of one run, with the time each was taken."""

    def __init__(self, window):
        self.window = window
        self.times, self.samples = [], []
        self.spent = 0.0

    def sample(self, times=1):
        for _ in range(times):
            at = time.perf_counter()
            s = probe()
            self.times.append(at)
            self.samples.append(s)
            self.spent += s

    def factor(self, at=None):
        """Multiplier from seconds measured at ``at`` (default: over the
        whole run) to reference seconds."""
        if at is None:
            return REF_S / median(self.samples)
        i = bisect.bisect_left(self.times, at)
        near = self.samples[max(0, i - self.window):i + self.window]
        return REF_S / median(near or self.samples)
