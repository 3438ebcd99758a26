"""In-memory spans and call counters for the traced benchmark run.

The traced run wraps the program's entry points from here, never from
inside ``src/``: :meth:`Tracer.patch_span` and :meth:`Tracer.patch_count`
replace one attribute of a class or module for the duration of the run and
put the original back afterwards. Spans nest through a stack, so the
wrapper around ``save_checkpoint`` called inside a timed ``pipeline.run``
becomes that run's child and the layer's self time is the parent's
duration minus its children's. Asynchronous work (one service request
interleaved with others) is recorded with :meth:`Tracer.record`, outside
the stack, and tied together by a request id instead.

A boundary that cannot be found raises :class:`BoundaryMissing`, and the
traced run fails a boundary whose :meth:`Tracer.calls` is zero, so a
refactor that moves one fails loudly instead of reporting 0.

Spans are recorded and written in wall time; :meth:`Tracer.length` and
the sums built on it read them in the reference seconds of ``speed.py``'s
clock, so layer times survive a slow spell on the host as rates do.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from speed import CLOCK

__all__ = ["BoundaryMissing", "NullTracer", "Tracer"]

_NAME, _START, _END, _PARENT, _REQ = range(5)


class BoundaryMissing(RuntimeError):
    """A layer boundary the traced run wraps no longer exists."""


class NullTracer:
    """Tracing off: the same calls as :class:`Tracer`, recording nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, req: int | None = None) -> Iterator[None]:
        yield

    def record(self, name: str, start: float, end: float, req: int | None = None) -> None:
        pass

    def calls(self, name: str) -> int:
        return 0

    def unpatch(self) -> None:
        pass


class Tracer:
    """Spans ``[name, start, end, parent, req]`` and named call counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, req: int | None = None) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, req]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, req: int | None = None) -> None:
        """Add a finished span that was not timed through the stack."""
        self.spans.append([name, start, end, None, req])

    def calls(self, name: str) -> int:
        """Calls seen at a boundary: spans of that name plus counted calls."""
        return self.counts.get(name, 0) + sum(1 for s in self.spans if s[_NAME] == name)

    # -- wrapping entry points -----------------------------------------------

    def patch_span(self, owner: Any, attr: str, name: str, req_of: Callable | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``req_of(*args, **kwargs)`` may map a call to the request id its
        span carries.
        """
        original = self._lookup(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            req = req_of(*args, **kwargs) if req_of is not None else None
            with tracer.span(name, req):
                return original(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def patch_count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot paths)."""
        original = self._lookup(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def unpatch(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._restore:
            self._restore.pop()()

    @staticmethod
    def _lookup(owner: Any, attr: str) -> Callable:
        original = getattr(owner, attr, None)
        if not callable(original):
            where = getattr(owner, "__qualname__", getattr(owner, "__name__", repr(owner)))
            raise BoundaryMissing(f"layer boundary {where}.{attr} not found")
        return original

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, wrapper)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    # -- reading -------------------------------------------------------------

    def total(self, name: str, under: str | None = None) -> float:
        """Summed time of ``name`` spans, nested repeats counted once.

        With ``under``, only spans inside a span named ``under`` count.
        """
        total = 0.0
        for span in self.spans:
            if span[_NAME] != name:
                continue
            ancestors = self._ancestor_names(span)
            if name in ancestors or (under is not None and under not in ancestors):
                continue
            total += self.length(span)
        return total

    def self_time(self, name: str) -> float:
        """Summed time of ``name`` spans minus the time of their children."""
        children: dict[int, float] = {}
        for span in self.spans:
            parent = span[_PARENT]
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + self.length(span)
        return sum(
            self.length(span) - children.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span[_NAME] == name
        )

    def length(self, span: list[Any]) -> float:
        """A span's duration in reference seconds."""
        return CLOCK.reference_s(span[_START], span[_END])

    def _ancestor_names(self, span: list[Any]) -> set[str]:
        names = set()
        parent = span[_PARENT]
        while parent is not None:
            names.add(self.spans[parent][_NAME])
            parent = self.spans[parent][_PARENT]
        return names

    def write_jsonl(self, path: Path, origin: float, header: dict) -> None:
        """Write ``header``, then every span as one JSON line, times relative
        to ``origin``, then the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for index, (name, start, end, parent, req) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "req": req,
                        }
                    )
                    + "\n"
                )
            for name in sorted(self.counts):
                out.write(json.dumps({"counter": name, "calls": self.counts[name]}) + "\n")
