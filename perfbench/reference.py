"""A fixed reference loop that tracks the machine's speed.

On a shared virtual machine the same pass over the same inputs, in one
process, runs up to 40% slower for tens of seconds at a time, and that
drift, not the library, sets the spread between runs.  The benchmark
therefore times this loop, which is its own code and never changes with
the library, after each set-up sample and, on the census and
small_words workloads, around the passes.  It reports those times in
*reference seconds*: the median measured time scaled by ``REFERENCE_S``
over the median time of the loop in the same stretch of the run.  On a
machine where the loop takes ``REFERENCE_S`` a reference second is a
second.

One run of the loop takes about 30 ms, and over so short a time the
machine's speed varies by 20% either way; a pass of seconds averages
that out.  So the loop is run several times at each point and the
median is taken over all the runs of a stretch, not per pass.

The loop works in the library's two styles, Python integers in dicts
and lists and int64 numpy arrays reduced modulo a prime, on data that
fit in cache.  Passes that run through 40 to 85 MB of data (alexander,
verify) did not follow its speed, so their times are not scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the loop's time, in seconds, at the reference speed: about its time on
# the 2-vCPU Xeon (2.1 GHz) where the README's figures were taken
REFERENCE_S = 0.03
_PRIME = 2147483647


class Reference:
    """The loop's times over one stretch of a run."""

    def __init__(self):
        self.times = []
        self._poly = {e: (e * 7919) % 101 - 50 for e in range(-30, 30)}
        # kept small: the loop adds about 1 MB to the peak memory of a run
        self._mats = (np.arange(50 * 24 * 24, dtype=np.int64)
                      * 48271 % _PRIME).reshape(50, 24, 24)

    def _loop(self):
        p = {0: 1}
        for _ in range(5):
            out = {}
            for e1, c1 in p.items():
                for e2, c2 in self._poly.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            p = {e: c % 1000003 for e, c in out.items() if c}
        s = 0
        for i in range(100000):
            s += i * i % 7
        for _ in range(6):
            m = self._mats.copy()
            for k in range(m.shape[1] - 1):
                f = m[:, k + 1:, k] * 12345 % _PRIME
                m[:, k + 1:, k:] = (m[:, k + 1:, k:]
                                    - f[:, :, None] * m[:, k, k:][:, None, :]) % _PRIME

    def sample(self, runs=5):
        """Time ``runs`` runs of the loop now."""
        for _ in range(runs):
            t0 = time.perf_counter()
            self._loop()
            self.times.append(time.perf_counter() - t0)

    def scale(self, seconds):
        """``seconds`` in reference seconds, by the loop's median time."""
        return seconds * REFERENCE_S / statistics.median(self.times)
