"""Host-speed calibration: a fixed loop timed beside the program.

On a shared host the speed of a core drifts by tens of percent within a
minute, and the program slows down together with a fixed loop timed next to
it.  The benchmark therefore times a fixed loop of its own between the
program's calls, outside the timed regions, and scales each time it reports
to a host on which one loop takes the loop's reference time, using the loops
timed just before and just after that time (:class:`Timeline`).  The loop is
the benchmark's own code, so no change to the program can move it; the raw,
unscaled figures are printed beside the scaled ones.

Two loops exist because the host drifts in two ways that do not move
together: core speed and memory bandwidth.  The ``cpu`` loop (an in-place
sort and scatter-add on 1.5 MB, plus Python arithmetic) tracks work that
lives in a core's caches; the ``memory`` loop adds a pass over two 8 MB
arrays and tracks work that streams large arrays.  Measured on a 2-core
host, in 15-20 second blocks of one process: scaling by the ``cpu`` loop took
the spread of window times from 0.14-0.28 down to 0.03-0.04 for
``static-unconstrained`` and ``queueing``, where the ``memory`` loop reached
only 0.06-0.12; on ``static-proximity`` the ``memory`` loop took it from 0.09
to 0.04-0.05, where the ``cpu`` loop made it worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Duration of one loop on the reference host (seconds), per kind.
REFERENCE_S = {"cpu": 1.0e-3, "memory": 2.0e-3}
#: Share of the timed calls' time spent probing, and how much of their time
#: (seconds) may pass between two groups of probes.
PROBE_SHARE = 0.03
PROBE_EVERY_S = 0.2
#: Elements of the cached arrays (1.5 MB in all, within a core's L2).
_SIZE = 65536
#: Elements of each streamed array of the ``memory`` loop (8 MB).
_STREAM = 1 << 20


class Calibration:
    """Times one kind of fixed loop and keeps every sample."""

    def __init__(self, kind: str = "cpu") -> None:
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown calibration kind {kind!r}")
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        rng = np.random.default_rng(20170529)
        self._values = rng.random(_SIZE)
        self._index = rng.integers(0, _SIZE, size=_SIZE)
        self._counts = np.zeros(_SIZE)
        self._work = np.empty(_SIZE)
        if kind == "memory":
            self._left = np.ones(_STREAM)
            self._right = np.ones(_STREAM)
        self.samples: list[float] = []

    def _loop(self) -> None:
        # In place throughout: an allocation would time the allocator and
        # the kernel's page faults, which the program's own memory moves.
        self._work[:] = self._values
        self._work.sort()
        np.add.at(self._counts, self._index, 1.0)
        total = 0
        for i in range(3000):
            total += i * i
        if self.kind == "memory":
            np.add(self._left, self._right, out=self._left)
            np.multiply(self._left, 0.5, out=self._left)

    def probe(self) -> float:
        """Time one loop.

        The loop runs once untimed first, to bring its data and code back
        into the caches the program's own work evicted.
        """
        self._loop()
        start = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def run(self, seconds: float) -> float:
        """Probe for about ``seconds`` (at least once); return the median probe."""
        end = time.perf_counter() + seconds
        group = [self.probe()]
        while time.perf_counter() < end:
            group.append(self.probe())
        return statistics.median(group)


class Timeline:
    """Times of the program's calls, with groups of probes between them.

    :meth:`add` records one timed call.  Once the calls since the last
    group add up to :data:`PROBE_EVERY_S`, a new group probes the host for
    :data:`PROBE_SHARE` of that time.  :meth:`scaled` scales each call by
    the mean of the groups on either side of it.
    """

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal
        self.times: list[float] = []
        self._group_of: list[int] = []
        self._groups = [cal.run(0.0)]
        self._pending = 0.0

    def add(self, elapsed: float) -> None:
        self.times.append(elapsed)
        self._group_of.append(len(self._groups) - 1)
        self._pending += elapsed
        if self._pending >= PROBE_EVERY_S:
            self._close()

    def _close(self) -> None:
        self._groups.append(self.cal.run(PROBE_SHARE * self._pending))
        self._pending = 0.0

    def scaled(self) -> list[float]:
        """Every time so far, scaled to the reference host."""
        if self._group_of and self._group_of[-1] == len(self._groups) - 1:
            self._close()
        ref = 2.0 * self.cal.reference_s
        return [
            t * ref / (self._groups[g] + self._groups[g + 1])
            for t, g in zip(self.times, self._group_of)
        ]
