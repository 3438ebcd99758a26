"""Discrete-event simulation core.

A tiny, dependency-free event engine: a binary-heap event queue with stable
FIFO ordering for simultaneous events, and a monotonic clock guard. The
scheduler kernel (:mod:`repro.scheduler.malleable`) drives all simulation
from this queue; keeping it generic also lets tests exercise the DES
invariants in isolation.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..errors import SchedulingError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.Enum):
    """What an event represents; dispatch is on this tag."""

    JOB_SUBMIT = "job_submit"
    JOB_END = "job_end"
    JOB_RELEASE = "job_release"
    CARBON_TICK = "carbon_tick"
    NODE_FAIL = "node_fail"
    NODE_REPAIR = "node_repair"
    SIM_END = "sim_end"
    MARKER = "marker"


class Event(NamedTuple):
    """One scheduled occurrence. Payload interpretation depends on ``kind``.

    A named tuple rather than a frozen dataclass: a simulation makes one
    per job start, end and submission, and a tuple costs a fifth as much
    to build. The queue never compares two events (the push counter
    breaks time ties first).
    """

    time_s: float
    kind: EventKind
    payload: Any = None


@dataclass
class EventQueue:
    """Time-ordered event queue with deterministic tie-breaking.

    Events at equal times pop in push order (FIFO), which makes simulations
    reproducible regardless of payload types.
    """

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _counter: int = 0
    _last_popped_s: float = float("-inf")

    def push(self, event: Event) -> None:
        """Queue an event; it must not be earlier than the last popped time."""
        if event.time_s < self._last_popped_s:
            raise SchedulingError(
                f"event at t={event.time_s} scheduled before current time "
                f"t={self._last_popped_s}"
            )
        heapq.heappush(self._heap, (event.time_s, self._counter, event))
        self._counter += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        time_s, _, event = heapq.heappop(self._heap)
        self._last_popped_s = time_s
        return event

    def peek_time(self) -> float | None:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def now_s(self) -> float:
        """Simulation time of the most recently popped event."""
        return self._last_popped_s

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the pending events.

        Payloads are stored as-is, so checkpointable simulations must only
        push JSON-representable payloads (ids and tuples of primitives, not
        rich objects). Entries are emitted in (time, push-order) order, which
        is itself a valid binary heap, so restore needs no re-heapify.
        """
        entries = sorted(
            ((t, c, e.kind.value, e.payload) for t, c, e in self._heap),
            key=lambda x: (x[0], x[1]),
        )
        return {
            "entries": [list(entry) for entry in entries],
            "counter": self._counter,
            "last_popped_s": self._last_popped_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore pending events from :meth:`state_dict` output.

        List payloads are normalised back to tuples (JSON round-trips tuples
        as lists), so ``(job_id, generation)`` payloads compare equal across
        a checkpoint boundary.
        """
        heap: list[tuple[float, int, Event]] = []
        for time_s, counter, kind, payload in state["entries"]:
            if isinstance(payload, list):
                payload = tuple(payload)
            heap.append((time_s, counter, Event(time_s, EventKind(kind), payload)))
        self._heap = heap
        self._counter = int(state["counter"])
        self._last_popped_s = float(state["last_popped_s"])
