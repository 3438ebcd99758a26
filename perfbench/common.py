"""Shared pieces of the benchmark: results, statistics, machine state."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Measurement:
    """What one workload pass measured and checked.

    ``ops``/``failed`` count operations; an operation fails when any of its
    correctness checks fails. ``work_s`` is the cost the trace overhead is
    taken over (the same work in the traced and the untraced pass).
    ``checksum`` digests the program's outputs, so the two passes can be
    compared. ``throughput`` is the workload's end-to-end rate over
    reference seconds (``speed.py``) and ``raw_throughput`` the same rate
    over wall seconds; ``named`` holds the issue-named user-visible metrics
    as ``{name: (value, unit)}`` and ``layer`` the per-layer values that
    need no trace.
    """

    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checksum: str = ""
    work_s: float = 0.0
    throughput: float = 0.0
    raw_throughput: float = 0.0
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)

    def check(self, label: str, checks: dict[str, bool]) -> None:
        """Count one operation; it fails if any named check is false."""
        self.ops += 1
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: {', '.join(bad)}")


#: Workload seeds a run cycles through. One seed's trace can cost a fifth
#: more per job than another's, so the scheduler workloads report jobs per
#: second over several seeds' traces rather than one seed's.
SUB_SEEDS = 3


def sub_seeds(seed: int) -> tuple[int, ...]:
    """The workload seeds a run with ``--seed seed`` cycles through."""
    return tuple(SUB_SEEDS * seed + k for k in range(SUB_SEEDS))


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    return float(np.percentile(values, q))


def repeat_for(budget_s: float, once: Callable[[int], None]) -> int:
    """Call ``once(i)`` until another call as long as the last would overrun
    ``budget_s``.

    At least one call is made. Returns the number of calls.
    """
    start = time.perf_counter()
    calls = 0
    last = 0.0
    while calls == 0 or time.perf_counter() - start + last <= budget_s:
        t0 = time.perf_counter()
        once(calls)
        last = time.perf_counter() - t0
        calls += 1
    return calls


def digest(*parts: bytes | str) -> str:
    """SHA-256 over the given parts, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def machine_state() -> dict:
    """Versions and load next to every result: numbers mean little without them."""
    commit = None
    try:
        toplevel, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    else:
        # Only this checkout's own repository, not one that encloses it.
        if Path(toplevel).resolve() == ROOT:
            commit = head
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
