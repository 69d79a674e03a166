"""Times corrected for the host's speed at the moment they were measured.

The benchmark shares a few cores of a busy host, whose speed drifts by a
third over minutes as other work comes and goes. A fixed pure-Python probe,
timed again and again while the measured work runs, slows down in step with
smtkit's code, so a measured time is scaled by the probe's time on the
reference machine over its median time during the work. The probe is the
benchmark's own code: a change to smtkit does not change it.

Two ways to take the probes: `Stretches` for a loop in the benchmark's own
code (the translate phase probes between stretches of decoding), and
`Interrupts` for a call the benchmark cannot break into (the pipeline call
is interrupted by a timer signal, and the probe runs in the signal handler).
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

# median time of one probe() on the reference machine (README.md)
REFERENCE_PROBE_S = 0.016
# decode time between two probes in the translate phase
STRETCH_S = 0.2
# wall time between two probes during a pipeline call
INTERRUPT_S = 0.5


def probe() -> float:
    """Seconds taken by a fixed mix of what smtkit does: tuple keys, dict
    look-ups and updates, a bounded heap and float arithmetic."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection here would scan smtkit's objects
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(14000):
        key = (i % 97, i % 13)
        score = table.get(key, 0.0) + (i % 7) * 0.25 - 0.5
        table[key] = score
        heapq.heappush(heap, (score, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def to_reference(probes: list[float]) -> float:
    """Factor from a time measured while the probe took `probes` to the
    time the reference machine would take."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class Stretches:
    """Adds up timed work, probing once before it and after every STRETCH_S."""

    def __init__(self):
        self.raw_s = 0.0
        self.probes = [probe()]
        self._stretch = 0.0

    def add(self, seconds: float) -> None:
        self.raw_s += seconds
        self._stretch += seconds
        if self._stretch >= STRETCH_S:
            self.probes.append(probe())
            self._stretch = 0.0


class Interrupts:
    """Probes every INTERRUPT_S of wall time inside the `with` block.

    `probe_s` is the time the probes took, to be taken off the block's time.
    """

    def __init__(self):
        self.probes: list[float] = []

    @property
    def probe_s(self) -> float:
        return sum(self.probes)

    def _on_timer(self, signum, frame) -> None:
        self.probes.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERRUPT_S, INTERRUPT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:  # a block shorter than INTERRUPT_S
            self.probes.append(probe())
