"""A clock that runs at the machine's speed, for rates that survive a noisy host.

On a shared virtual machine the same interpreter work can take half as long
again from one second to the next: the virtual CPU's share of its physical
core changes with what else runs there, and neither wall time nor process
CPU time shows it. A fixed pure-Python pass over the same loop ranged
0.18-0.29 s within one minute on a 2-vCPU host, and the elastic trace's
jobs per second ranged 2,500-4,200 over five consecutive runs.

:class:`SpeedClock` samples the machine's speed while the program runs:
every :data:`PERIOD_S` of wall time a ``SIGALRM`` handler, run by the
interpreter in the main thread between bytecodes, makes two
:func:`reference_call` and times the second, a fixed mix of the heap, dict and sort work the
schedulers do. :meth:`SpeedClock.reference_s` turns a wall interval into
reference seconds: the interval minus the handler's own time, scaled by
the mean speed the calls inside it saw, where speed is
:data:`NOMINAL_CALL_S` over the call's time. The call's time is bimodal on
a shared host, about 0.4 or 0.65 ms as the physical core is shared or not,
switching every second or so; the mean speed weighs the two states by the
time spent in each, where a median would jump from one to the other. A rate over reference seconds
is the rate the program would reach on a machine that makes one reference
call in :data:`NOMINAL_CALL_S`; a change to the program moves it as it
moves the wall-clock rate, and a slow spell on the host mostly does not.

The module imports nothing but the standard library, so starting the
clock before ``import repro`` does not pre-import NumPy into the set-up
time it measures.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time

__all__ = ["CLOCK", "NOMINAL_CALL_S", "PERIOD_S", "SpeedClock", "reference_call"]

#: Wall time between two samples; one sample costs about 2 % of it.
PERIOD_S = 0.05
#: One reference call on the nominal machine: about its median on a 2-vCPU
#: x86-64 virtual machine with Python 3.11.
NOMINAL_CALL_S = 6.0e-4
#: Fewest reference calls a conversion averages over; a shorter interval
#: borrows the calls nearest to it.
MIN_CALLS = 5

# A table far larger than the small dicts in the call, so the call also
# pays for lookups that miss the fastest caches.
_TABLE = {(i * 2654435761) % (1 << 32): i for i in range(1 << 15)}
_KEYS = sorted(_TABLE)[::53]


def reference_call() -> int:
    """A fixed piece of interpreter work: heap, dict, lookup and sort."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i % 31] = counts.get(i % 31, 0) + i
    while heap:
        heapq.heappop(heap)
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    rows = [(key % 1000, total) for key in _KEYS]
    rows.sort()
    return total + len(counts)


class SpeedClock:
    """Samples the machine's speed while running; converts wall intervals.

    Use it as a context manager around the code whose intervals are later
    converted; it may be entered again, and keeps every sample it took.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._costs: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The first call brings the reference's code and data back into the
        # caches the program just used, so the timed second call measures
        # the machine, not how much the program evicted. The collector is
        # held off: a collection of the program's objects triggered by the
        # reference's allocations is the program's cost, not the machine's.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_call()
        t1 = time.perf_counter()
        reference_call()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self._starts.append(t0)
        self._durations.append(t2 - t1)
        self._costs.append(t2 - t0)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _calls(self, start: float, end: float) -> tuple[list[float], float]:
        """Durations of the timed calls that speak for ``[start, end]``, and
        the wall time the sampling inside it took."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        inside = sum(self._costs[lo:hi])
        if hi - lo < MIN_CALLS:
            mid = bisect.bisect_left(self._starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_CALLS // 2, len(self._starts) - MIN_CALLS))
            hi = min(len(self._starts), lo + MIN_CALLS)
        if hi <= lo:
            raise RuntimeError("the speed clock took no samples: was it running?")
        return self._durations[lo:hi], inside

    def speed(self, start: float, end: float) -> float:
        """Mean machine speed over ``[start, end]``; 1.0 is the nominal machine."""
        durations, _ = self._calls(start, end)
        return sum(NOMINAL_CALL_S / d for d in durations) / len(durations)

    def reference_s(self, start: float, end: float) -> float:
        """The program time in the wall interval ``[start, end]`` (two
        ``time.perf_counter()`` readings), in reference seconds."""
        _, inside = self._calls(start, end)
        return max(end - start - inside, 0.0) * self.speed(start, end)


#: The benchmark's one clock: ``run.py`` runs it, the workloads convert with it.
CLOCK = SpeedClock()
