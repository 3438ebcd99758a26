"""Carbon-aware malleable scheduling: grow/shrink jobs against the grid.

The paper's §2 regime analysis says a facility on today's UK grid sits in
the scope-2-dominated regime (CI > 100 gCO₂/kWh) for part of every day and
near the balanced band the rest of it. A scheduler that can *reshape* work
in time and space exploits that structure three ways:

1. **Temporal shifting** — jobs declaring start slack are released into the
   greenest forecast window inside their slack (``ForecastIndex`` queries).
2. **Shrink on high carbon** — elastic jobs shrink to their minimum shape
   while CI > the high boundary, shedding power *and* node-seconds (the
   scaling overheads mean narrow allocations are more node-second
   efficient), then grow back when the grid cleans up.
3. **Frequency co-optimisation** — jobs starting in a high-CI period run at
   the 2.0 GHz energy-saving point; in a near-clean grid they run fast to
   retire embodied carbon sooner (:meth:`FrequencyPolicy.setting_for_ci`).

Execution uses a progress-based work model: a job is a unit of work
completed at rate ``1 / (T_preferred · stretch(alloc))``, so reallocations
mid-flight re-time the completion exactly. Every reallocation bumps a
generation counter carried in the end-event payload, which invalidates
stale end events — the standard DES trick that keeps replay (and
checkpoint/resume) bit-identical.

All simulation state lives in JSON-able ``state_dict`` snapshots: the event
queue (payloads are ids and tuples, never objects), the node pool, the
trace builder, run-state vectors and the RNG bit-generator state. Killing a
simulation mid-trace, reloading the snapshot and running to completion
produces byte-identical results to an uninterrupted run.

The regime boundaries default to the paper's 30/100 gCO₂/kWh (the same
values as ``repro.core.regimes``; kept as literals here so the scheduler
substrate does not import the core layer, which imports it back).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ..errors import SchedulingError
from ..facility.failures import FaultConfig
from ..grid.forecast import ForecastFeed, ForecastIndex
from ..node.pstates import FrequencySetting
from ..telemetry.series import TimeSeries
from ..units import JOULES_PER_KWH
from ..workload.jobs import Job, JobRecord
from .accounting import (
    FaultAccounting,
    PowerTrace,
    SimulationResult,
    TraceBuilder,
    trace_emissions_tco2e,
)
from .backfill import (
    BackfillScheduler,
    ExecutionEnvironment,
    ResolvedExecution,
    StaticEnvironment,
    validate_jobs,
)
from .engine import Event, EventKind, EventQueue
from .partition import NodePool
from .shapes import JobShape

__all__ = [
    "CarbonAwareEnvironment",
    "ElasticRecord",
    "MalleableSimulationResult",
    "MalleableSimulation",
    "MalleableScheduler",
    "RigidMalleableComparison",
    "compare_rigid_malleable",
]

PAPER_LOW_CI_G_PER_KWH = 30.0
PAPER_HIGH_CI_G_PER_KWH = 100.0

#: Frequency settings by value, the form run state and records keep them in.
_SETTINGS = {setting.value: setting for setting in FrequencySetting}


@dataclass
class CarbonAwareEnvironment:
    """Resolves execution with the frequency chosen against the current CI.

    Wraps a :class:`StaticEnvironment` the same way demand response does:
    the carbon-aware setting is forced through ``frequency_override`` so the
    inner environment's per-(app, setting) memoisation still applies.
    """

    inner: StaticEnvironment
    low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH
    high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH

    def resolve_at_ci(
        self, job: Job, time_s: float, ci_g_per_kwh: float
    ) -> ResolvedExecution:
        """Execution parameters for ``job`` starting now at the given CI."""
        setting = self.inner.policy.setting_for_ci(
            job,
            self.inner.cpu,
            self.inner.mode,
            ci_g_per_kwh,
            self.low_g_per_kwh,
            self.high_g_per_kwh,
        )
        return self.inner.resolve(replace(job, frequency_override=setting), time_s)

    def state_index(self, time_s: float) -> int:
        """The inner environment's token: plain resolution is carbon-blind."""
        return self.inner.state_index(time_s)

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        """Plain (carbon-blind) resolution, used while the feed is degraded."""
        return self.inner.resolve(job, time_s)


@dataclass(frozen=True)
class ElasticRecord:
    """A placed job's realised schedule under malleable execution.

    Unlike :class:`~repro.workload.jobs.JobRecord`, the allocation varies
    over the job's life, so integrated ``node_seconds`` is recorded
    directly rather than derived from a fixed width. ``node_power_w`` is
    the per-node busy power resolved at the attempt's start.
    """

    job_id: int
    submit_time_s: float
    start_time_s: float
    end_time_s: float
    setting: str
    effective_ghz: float
    node_seconds: float
    node_power_w: float
    truncated: bool
    interrupted: bool = False

    @property
    def energy_j(self) -> float:
        """Busy energy of the attempt, joules."""
        return self.node_power_w * self.node_seconds

    @property
    def runtime_s(self) -> float:
        """Realised wall time, seconds."""
        return self.end_time_s - self.start_time_s

    @property
    def wait_s(self) -> float:
        """Queue wait, seconds."""
        return self.start_time_s - self.submit_time_s


def _drop_started(waiting: deque[Job], window: list[Job], started: list[Job]) -> None:
    """Take the candidates a backfill pass started out of the queue.

    ``window`` is the scan that followed the head at the front of
    ``waiting``. Only that prefix is rebuilt, so a pass costs the backfill
    depth rather than the queue length, and a pass that started nothing
    costs nothing here.
    """
    if not started:
        return
    head = waiting.popleft()
    for _ in window:
        waiting.popleft()
    started_ids = {job.job_id for job in started}
    waiting.extendleft(reversed([job for job in window if job.job_id not in started_ids]))
    waiting.appendleft(head)


class _RecordRow(NamedTuple):
    """An :class:`ElasticRecord` as the kernel holds it until a result is
    asked for: cheaper to make than the frozen record, and its own
    checkpoint form."""

    job_id: int
    submit_time_s: float
    start_time_s: float
    end_time_s: float
    setting: str
    effective_ghz: float
    node_seconds: float
    node_power_w: float
    truncated: bool
    interrupted: bool


def _row_from_list(raw: list) -> _RecordRow:
    return _RecordRow(
        job_id=int(raw[0]),
        submit_time_s=float(raw[1]),
        start_time_s=float(raw[2]),
        end_time_s=float(raw[3]),
        setting=str(raw[4]),
        effective_ghz=float(raw[5]),
        node_seconds=float(raw[6]),
        node_power_w=float(raw[7]),
        truncated=bool(raw[8]),
        interrupted=bool(raw[9]),
    )


@dataclass(slots=True)
class _ElasticRun:
    """Book-keeping for one in-flight (possibly reshaped) job."""

    job_id: int
    alloc: int
    progress: float
    last_update_s: float
    generation: int
    start_s: float
    preferred_runtime_s: float
    node_power_w: float
    setting: str
    effective_ghz: float
    node_seconds: float
    priority: float


def _run_to_list(run: _ElasticRun) -> list:
    return [
        run.job_id,
        run.alloc,
        run.progress,
        run.last_update_s,
        run.generation,
        run.start_s,
        run.preferred_runtime_s,
        run.node_power_w,
        run.setting,
        run.effective_ghz,
        run.node_seconds,
        run.priority,
    ]


def _run_from_list(raw: list) -> _ElasticRun:
    return _ElasticRun(
        job_id=int(raw[0]),
        alloc=int(raw[1]),
        progress=float(raw[2]),
        last_update_s=float(raw[3]),
        generation=int(raw[4]),
        start_s=float(raw[5]),
        preferred_runtime_s=float(raw[6]),
        node_power_w=float(raw[7]),
        setting=str(raw[8]),
        effective_ghz=float(raw[9]),
        node_seconds=float(raw[10]),
        priority=float(raw[11]),
    )


@dataclass(frozen=True)
class MalleableSimulationResult:
    """Everything a malleable run produced, plus reshape/shift counters."""

    n_nodes: int
    t_start_s: float
    t_end_s: float
    records: list[ElasticRecord]
    n_jobs: int
    n_completed: int
    n_running_at_end: int
    n_queued_at_end: int
    n_shifted: int
    n_shrinks: int
    n_grows: int
    trace: PowerTrace
    faults: FaultAccounting = field(default_factory=FaultAccounting)

    def reconciles(self, rel_tol: float = 1e-6) -> bool:
        """Conservation identities of the run.

        Job conservation — submitted == completed + terminally-failed +
        running-at-horizon + still-queued — plus node-hour conservation:
        the trace's busy integral must equal delivered plus wasted record
        node-seconds, the wasted column must match the interrupted records,
        and busy plus drained capacity must fit inside the facility's
        node-seconds over the span. Float identities use a relative
        tolerance (both sides sum the same rectangle areas in different
        groupings).
        """
        jobs_ok = self.n_jobs == (
            self.n_completed
            + self.faults.n_failed_terminal
            + self.n_running_at_end
            + self.n_queued_at_end
        )
        delivered = sum(r.node_seconds for r in self.records if not r.interrupted)
        wasted = sum(r.node_seconds for r in self.records if r.interrupted)
        busy = self.trace.node_seconds()
        span = self.t_end_s - self.t_start_s
        abs_tol = 1e-6 * max(1.0, span)
        hours_ok = math.isclose(
            delivered + wasted, busy, rel_tol=rel_tol, abs_tol=abs_tol
        )
        wasted_ok = math.isclose(
            wasted, self.faults.wasted_node_seconds, rel_tol=rel_tol, abs_tol=abs_tol
        )
        capacity = self.n_nodes * span
        capacity_ok = (
            busy + self.faults.drained_node_seconds <= capacity * (1 + rel_tol) + abs_tol
        )
        return jobs_ok and hours_ok and wasted_ok and capacity_ok

    def total_energy_kwh(self) -> float:
        """Busy-node energy integrated over the span, kWh."""
        return self.trace.energy_j() / JOULES_PER_KWH

    def emissions_tco2e(self, ci: TimeSeries) -> float:
        """Scope-2 emissions of the run against a carbon-intensity series."""
        return trace_emissions_tco2e(self.trace, ci)

    def mean_utilisation(self) -> float:
        """Time-weighted mean node utilisation over the span."""
        return self.trace.mean_busy_nodes() / self.n_nodes

    def _stretches(self, tau_s: float) -> np.ndarray:
        completed = [r for r in self.records if not r.interrupted]
        if not completed:
            return np.empty(0, dtype=float)
        waits_s = np.array([r.wait_s for r in completed], dtype=float)
        runs_s = np.array([r.runtime_s for r in completed], dtype=float)
        return np.maximum(1.0, (waits_s + runs_s) / np.maximum(runs_s, tau_s))

    def mean_bounded_stretch(self, tau_s: float = 600.0) -> float:
        """Mean bounded slowdown of placed jobs (1.0 when none ran)."""
        stretches = self._stretches(tau_s)
        if len(stretches) == 0:
            return 1.0
        return float(np.mean(stretches))

    def p95_bounded_stretch(self, tau_s: float = 600.0) -> float:
        """95th-percentile bounded slowdown of placed jobs (1.0 when none ran)."""
        stretches = self._stretches(tau_s)
        if len(stretches) == 0:
            return 1.0
        return float(np.quantile(stretches, 0.95))


class MalleableSimulation:
    """One checkpointable malleable-scheduling run over a fixed job set.

    The job list is *not* part of the checkpoint (it can be regenerated
    from its seed); everything else — queue, pool, waiting order, run
    states, records, trace, counters, RNG — round-trips through
    :meth:`state_dict` / :meth:`load_state_dict` bit-identically.

    A scheduler without a forecast (``scheduler.forecast is None``) makes
    this rigid EASY backfill, the kernel behind
    :class:`~repro.scheduler.backfill.BackfillScheduler`: no carbon ticks,
    forecast lookups or submit-time shifting, every job runs at its
    ``n_nodes`` under plain ``environment.resolve``, admission needs that
    width to fit, and a killed job restarts from zero whatever the fault
    config's checkpoint interval says. Jobs still running at the horizon
    are then reported in start order rather than job-id order.
    """

    def __init__(
        self,
        scheduler: "MalleableScheduler",
        jobs: list[Job],
        t_end_s: float,
        t_start_s: float = 0.0,
    ) -> None:
        if t_end_s <= t_start_s:
            raise SchedulingError("t_end_s must exceed t_start_s")
        self.scheduler = scheduler
        self.t_start_s = t_start_s
        self.t_end_s = t_end_s
        self._rigid = scheduler.forecast is None
        available = scheduler.n_nodes - scheduler.offline_nodes
        validate_jobs(
            jobs, available, scheduler.offline_nodes, elastic=not self._rigid
        )
        self._jobs = {job.job_id: job for job in jobs}
        if len(self._jobs) != len(jobs):
            raise SchedulingError("job ids must be unique")
        # Shapes only for jobs that may be reshaped; every other job runs at
        # its n_nodes with stretch exactly 1.
        self._shapes = {} if self._rigid else {
            job.job_id: JobShape.from_job(job) for job in jobs if job.is_elastic
        }

        self._pool = NodePool(available)
        self._queue = EventQueue()
        self._waiting: deque[Job] = deque()
        self._running: dict[int, _ElasticRun] = {}
        # Running jobs ordered by (predicted end, job id), the reservation's
        # walk order, kept with insort; _end_key holds each job's entry key.
        # A running job's estimate changes only when _reallocate reshapes
        # it, and that reinserts the entry, so every key equals a fresh
        # _end_estimate_s of its run.
        self._by_end: list[tuple[float, int]] = []
        self._end_key: dict[int, float] = {}
        # Backfill runtime probes, job id -> (token, unstretched runtime).
        # The token is (environment state, planning CI or None when
        # degraded), and the state alone in a rigid run, which plans
        # against no CI: the resolved runtime depends on nothing else. A
        # pure cache, popped when a job starts and never checkpointed.
        self._probes: dict[int, tuple[Hashable, float]] = {}
        self._records: list[_RecordRow] = []
        self._trace = TraceBuilder(t_start_s)
        self._rng = np.random.default_rng(scheduler.seed)
        self._busy_power_w = 0.0
        self._done = False

        self.n_jobs = 0
        self._n_submits_remaining = 0
        self._n_pending_release = 0
        self._n_completed = 0
        self.n_shifted = 0
        self.n_shrinks = 0
        self.n_grows = 0

        # Fault-injection state. The fault RNG is a *separate* seeded
        # stream, never drawn when faults are off, so fault-free runs stay
        # byte-identical to the pre-fault scheduler.
        faults = scheduler.fault_config
        self._fault_rng = np.random.default_rng(faults.seed) if faults else None
        self._fault_gen = 0
        self._drained_integral = 0.0
        self._last_drain_change_s = t_start_s
        self._attempts: dict[int, int] = {}
        self._retained: dict[int, float] = {}
        self._next_gen: dict[int, int] = {}
        self._n_failures = 0
        self._n_job_kills = 0
        self._n_retries = 0
        self._n_failed_terminal = 0
        self._wasted_node_seconds = 0.0
        self._wasted_energy_j = 0.0
        self._n_degraded_ticks = 0
        self._n_degraded_starts = 0

        # (submit time, job id) order by two stable sorts, with no key tuple
        # per job for the garbage collector to track.
        by_submit = sorted(jobs, key=attrgetter("job_id"))
        by_submit.sort(key=attrgetter("submit_time_s"))
        for job in by_submit:
            if job.submit_time_s < t_end_s:
                self._queue.push(
                    Event(job.submit_time_s, EventKind.JOB_SUBMIT, job.job_id)
                )
                self.n_jobs += 1
        self._n_submits_remaining = self.n_jobs
        self._queue.push(Event(t_end_s, EventKind.SIM_END))
        first_tick_s = t_start_s + scheduler.carbon_tick_interval_s
        if not self._rigid and first_tick_s < t_end_s:
            self._queue.push(Event(first_tick_s, EventKind.CARBON_TICK))
        if faults is not None:
            self._schedule_next_failure(t_start_s)
        self._record_trace(t_start_s)

    # -- event handling ------------------------------------------------------

    def _record_trace(self, time_s: float) -> None:
        self._trace.append(time_s, self._busy_power_w, self._pool.busy)

    def _advance(self, run: _ElasticRun, now_s: float) -> None:
        """Bring a run's progress and node-second account up to ``now_s``."""
        dt_s = now_s - run.last_update_s
        if dt_s > 0:
            shape = self._shapes.get(run.job_id)
            if shape is None:
                rate = 1.0 / run.preferred_runtime_s
            else:
                rate = shape.rate_per_s(run.alloc, run.preferred_runtime_s)
            run.progress = min(1.0, run.progress + dt_s * rate)
            run.node_seconds += dt_s * run.alloc
            run.last_update_s = now_s

    def _end_estimate_s(self, run: _ElasticRun) -> float:
        remaining = max(0.0, 1.0 - run.progress)
        shape = self._shapes.get(run.job_id)
        if shape is None:
            # Never reshaped, so this is its end event's time, bit for bit.
            return run.last_update_s + run.preferred_runtime_s * remaining
        rate = shape.rate_per_s(run.alloc, run.preferred_runtime_s)
        return run.last_update_s + remaining / rate

    def _insert_end(self, job_id: int, end_s: float) -> None:
        self._end_key[job_id] = end_s
        insort(self._by_end, (end_s, job_id))

    def _remove_end(self, job_id: int) -> None:
        entry = (self._end_key.pop(job_id), job_id)
        del self._by_end[bisect_left(self._by_end, entry)]

    def _release(self, run: _ElasticRun, now_s: float) -> None:
        """Take a stopped run off the machine: nodes, power and end entry."""
        self._remove_end(run.job_id)
        del self._running[run.job_id]
        self._pool.release(run.alloc)
        self._busy_power_w -= run.node_power_w * run.alloc
        if abs(self._busy_power_w) < 1e-6:
            self._busy_power_w = 0.0
        self._record_trace(now_s)

    # -- fault injection -----------------------------------------------------

    def _integrate_drain(self, now_s: float) -> None:
        """Accumulate drained node-seconds up to ``now_s`` (call before changes)."""
        self._drained_integral += self._pool.drained * (
            now_s - self._last_drain_change_s
        )
        self._last_drain_change_s = now_s

    def _schedule_next_failure(self, now_s: float) -> None:
        """Resample the fleet's next failure (exponentials are memoryless).

        Bumping the generation invalidates any pending NODE_FAIL event —
        the fleet's failure rate changed, so the old draw is stale.
        """
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        self._fault_gen += 1
        up = self._pool.up_nodes
        if up <= 0:
            return
        t = now_s + float(self._fault_rng.exponential(faults.mtbf_s / up))
        if t < self.t_end_s:
            self._queue.push(Event(t, EventKind.NODE_FAIL, self._fault_gen))

    def _kill_run(self, run: _ElasticRun, now_s: float) -> None:
        """A node failure hit this job: charge the burn, requeue or drop."""
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        if now_s > run.start_s:
            # The whole attempt's burn is charged as wasted: the restart's
            # own occupancy is accounted by its own record, and checkpoint
            # retention shows up as *less* re-execution, not reclaimed burn.
            self._finish_run(run, now_s, truncated=False, interrupted=True)
            self._wasted_node_seconds += run.node_seconds
            self._wasted_energy_j += run.node_power_w * run.node_seconds
        self._release(run, now_s)
        # End events of this attempt (generations <= current) must never
        # finish a requeued attempt, so the next attempt starts above them.
        self._next_gen[run.job_id] = run.generation + 1
        if faults.checkpoint_interval_s > 0 and not self._rigid:
            ckpt_frac = faults.checkpoint_interval_s / run.preferred_runtime_s
            overhead_frac = faults.checkpoint_overhead_s / run.preferred_runtime_s
            kept = math.floor(run.progress / ckpt_frac) * ckpt_frac - overhead_frac
            if kept > 0.0:
                self._retained[run.job_id] = min(kept, run.progress)
        self._n_job_kills += 1
        attempt = self._attempts.get(run.job_id, 0) + 1
        self._attempts[run.job_id] = attempt
        if attempt > faults.max_retries:
            self._n_failed_terminal += 1
            self._retained.pop(run.job_id, None)
            return
        self._n_retries += 1
        delay = faults.backoff_s(attempt, float(self._fault_rng.random()))
        self._queue.push(Event(now_s + delay, EventKind.JOB_RELEASE, run.job_id))
        self._n_pending_release += 1

    def _on_node_fail(self, generation: int, now_s: float) -> None:
        if generation != self._fault_gen:
            return  # stale: the fleet's rates changed since this was drawn
        faults = self.scheduler.fault_config
        assert faults is not None and self._fault_rng is not None
        up = self._pool.up_nodes
        if up <= 0:
            return
        self._n_failures += 1
        # One uniform draw picks the failed node *and* the victim: a
        # position in [0, up) lands either inside the busy prefix
        # (cumulative allocations in job-id order) or in the idle tail.
        position = float(self._fault_rng.random()) * up
        if position < self._pool.busy:
            cumulative = 0
            for run in sorted(self._running.values(), key=lambda r: r.job_id):
                cumulative += run.alloc
                if position < cumulative:
                    self._kill_run(run, now_s)
                    break
        self._integrate_drain(now_s)
        self._pool.drain(1)
        repair_t = now_s + float(self._fault_rng.exponential(faults.mttr_s))
        if repair_t < self.t_end_s:
            self._queue.push(Event(repair_t, EventKind.NODE_REPAIR))
        self._schedule_next_failure(now_s)

    def _on_node_repair(self, now_s: float) -> None:
        self._integrate_drain(now_s)
        self._pool.restore(1)
        self._schedule_next_failure(now_s)

    # -- forecast-feed degradation --------------------------------------------

    def _planning_ci(self, now_s: float) -> float | None:
        """The CI the scheduler *sees*: held at the feed's last refresh.

        ``None`` without a forecast: there is nothing to plan against.
        """
        forecast = self.scheduler.forecast
        if forecast is None:
            return None
        feed = self.scheduler.feed
        if feed is None:
            return forecast.ci_at(now_s)
        return feed.ci_at(now_s)

    def _degraded(self, now_s: float) -> bool:
        """Whether feed staleness has passed the degradation threshold."""
        feed = self.scheduler.feed
        return feed is not None and feed.is_stale(now_s, self.scheduler.stale_after_s)

    def _choose_alloc(self, shape: JobShape, ci_g_per_kwh: float | None) -> int:
        """Target allocation under the current carbon regime.

        High-carbon periods get the narrowest legal shape; otherwise — and
        always when there is no CI to plan against (``None``: the forecast
        feed is too stale to trust, the rigid-placement fallback) — the
        preferred one, capped at the in-service pool so an oversize
        preference still admits (validation guarantees the minimum fits a
        healthy machine).
        """
        if ci_g_per_kwh is not None and ci_g_per_kwh > self.scheduler.high_g_per_kwh:
            target = shape.min_nodes
        else:
            target = shape.preferred_nodes
        return max(shape.min_nodes, min(target, self._pool.up_nodes))

    def _squeeze(self, shape: JobShape, ci_g_per_kwh: float | None, free: int) -> int:
        """A shaped job's allocation with ``free`` nodes free, 0 if none.

        Its regime target, narrowed toward its minimum shape if that is what
        fits (an unshaped job needs exactly its ``n_nodes``).
        """
        if shape.min_nodes > free:
            return 0
        return min(self._choose_alloc(shape, ci_g_per_kwh), free)

    def _resolve(
        self, job: Job, now_s: float, ci_g_per_kwh: float | None
    ) -> ResolvedExecution:
        environment = self.scheduler.environment
        if ci_g_per_kwh is None:
            # No forecast, or a feed too stale to trust: static frequency
            # policy (carbon-blind).
            return environment.resolve(job, now_s)
        assert isinstance(environment, CarbonAwareEnvironment)
        return environment.resolve_at_ci(job, now_s, ci_g_per_kwh)

    def _start_job(
        self,
        job: Job,
        alloc: int,
        now_s: float,
        ci_g_per_kwh: float | None,
        degraded: bool = False,
    ) -> None:
        resolved = self._resolve(job, now_s, ci_g_per_kwh)
        if degraded:
            self._n_degraded_starts += 1
        shape = self._shapes.get(job.job_id)
        stretch = 1.0 if shape is None else shape.stretch(alloc)
        self._probes.pop(job.job_id, None)
        self._pool.allocate(alloc)
        self._busy_power_w += resolved.node_power_w * alloc
        progress0 = self._retained.pop(job.job_id, 0.0)
        generation0 = self._next_gen.get(job.job_id, 0)
        run = _ElasticRun(
            job_id=job.job_id,
            alloc=alloc,
            progress=progress0,
            last_update_s=now_s,
            generation=generation0,
            start_s=now_s,
            preferred_runtime_s=resolved.runtime_s,
            node_power_w=resolved.node_power_w,
            setting=resolved.setting.value,
            effective_ghz=resolved.effective_ghz,
            node_seconds=0.0,
            # Only reshapes read the priority, so a rigid run draws none.
            priority=0.0 if self._rigid else float(self._rng.random()),
        )
        self._running[job.job_id] = run
        end_s = now_s + resolved.runtime_s * stretch * (1.0 - progress0)
        self._insert_end(
            job.job_id, end_s if shape is None else self._end_estimate_s(run)
        )
        self._record_trace(now_s)
        if end_s <= self.t_end_s:
            self._queue.push(
                Event(end_s, EventKind.JOB_END, (job.job_id, generation0))
            )

    def _reallocate(self, run: _ElasticRun, new_alloc: int, now_s: float) -> None:
        self._remove_end(run.job_id)
        self._advance(run, now_s)
        delta = new_alloc - run.alloc
        if delta > 0:
            self._pool.allocate(delta)
            self.n_grows += 1
        else:
            self._pool.release(-delta)
            self.n_shrinks += 1
        self._busy_power_w += run.node_power_w * delta
        if abs(self._busy_power_w) < 1e-6:
            self._busy_power_w = 0.0
        run.alloc = new_alloc
        run.generation += 1
        self._insert_end(run.job_id, self._end_estimate_s(run))
        self._record_trace(now_s)
        end_s = self._end_key[run.job_id]
        if end_s <= self.t_end_s:
            self._queue.push(
                Event(end_s, EventKind.JOB_END, (run.job_id, run.generation))
            )

    def _finish_run(
        self, run: _ElasticRun, end_s: float, truncated: bool, interrupted: bool = False
    ) -> None:
        self._advance(run, end_s)
        self._records.append(
            _RecordRow(
                run.job_id,
                self._jobs[run.job_id].submit_time_s,
                run.start_s,
                end_s,
                run.setting,
                run.effective_ghz,
                run.node_seconds,
                run.node_power_w,
                truncated,
                interrupted,
            )
        )

    def _on_submit(self, job: Job, now_s: float) -> None:
        self._n_submits_remaining -= 1
        index = self.scheduler.forecast
        if index is not None and job.shift_slack_s > 0 and not self._degraded(now_s):
            latest_s = min(now_s + job.shift_slack_s, self.t_end_s)
            if latest_s > now_s:
                duration_s = job.reference_runtime_s
                window = index.greenest_window(duration_s, now_s, latest_s)
                now_mean = index.window_mean(now_s, now_s + duration_s)
                if window.t_start_s > now_s and window.mean_ci_g_per_kwh < now_mean:
                    self._queue.push(
                        Event(window.t_start_s, EventKind.JOB_RELEASE, job.job_id)
                    )
                    self._n_pending_release += 1
                    self.n_shifted += 1
                    return
        self._waiting.append(job)

    def _on_end(self, payload: tuple, now_s: float) -> None:
        job_id, generation = payload
        run = self._running.get(job_id)
        if run is None or run.generation != generation:
            return  # stale end event from before a reallocation
        self._finish_run(run, now_s, truncated=False)
        self._release(run, now_s)
        self._n_completed += 1

    def _reshape_order(self) -> list[tuple[_ElasticRun, JobShape]]:
        """Shaped runs in deterministic reshape order: oldest first, seeded
        tie-break."""
        shapes = self._shapes
        runs = sorted(
            (run for run in self._running.values() if run.job_id in shapes),
            key=lambda r: (r.start_s, r.priority, r.job_id),
        )
        return [(run, shapes[run.job_id]) for run in runs]

    def _on_tick(self, now_s: float) -> None:
        sched = self.scheduler
        degraded = self._degraded(now_s)
        if degraded:
            self._n_degraded_ticks += 1
        ci = None if degraded else self._planning_ci(now_s)
        if ci is not None and ci > sched.high_g_per_kwh:
            for run, shape in self._reshape_order():
                if shape.is_elastic and run.alloc > shape.min_nodes:
                    self._reallocate(run, shape.min_nodes, now_s)
        else:
            # Degraded ticks fall back to rigid intent: grow every elastic
            # job back toward its preferred shape (also the clean-recovery
            # path once the feed returns).
            for run, shape in self._reshape_order():
                if not shape.is_elastic or run.alloc >= shape.preferred_nodes:
                    continue
                target = min(shape.preferred_nodes, run.alloc + self._pool.free)
                if target > run.alloc:
                    self._reallocate(run, target, now_s)
        next_tick_s = now_s + sched.carbon_tick_interval_s
        work_left = (
            self._running
            or self._waiting
            or self._n_pending_release > 0
            or self._n_submits_remaining > 0
        )
        if work_left and next_tick_s < self.t_end_s:
            self._queue.push(Event(next_tick_s, EventKind.CARBON_TICK))

    def _reservation(self, need: int, now_s: float) -> tuple[float, int]:
        """EASY reservation under predicted (progress-model) end times."""
        if self._pool.fits(need):
            return now_s, self._pool.free - need
        available = self._pool.free
        for end_s, job_id in self._by_end:
            available += self._running[job_id].alloc
            if available >= need:
                return end_s, available - need
        if self.scheduler.fault_config is not None:
            # Drained capacity can temporarily block a head that passed
            # admission; let backfill run freely until a repair lands.
            return float("inf"), 0
        raise SchedulingError(
            f"job needing {need} nodes can never be scheduled on "
            f"{self._pool.n_nodes} nodes"
        )

    def _schedule_pass(self, now_s: float) -> None:
        degraded = False
        ci: float | None = None
        if not self._rigid:
            degraded = self._degraded(now_s)
            ci = None if degraded else self._planning_ci(now_s)
        waiting = self._waiting
        pool = self._pool
        shapes = self._shapes
        # FCFS phase: start queue heads while they fit.
        while waiting:
            job = waiting[0]
            if shapes and job.job_id in shapes:
                alloc = self._squeeze(shapes[job.job_id], ci, pool.free)
            else:
                alloc = job.n_nodes if job.n_nodes <= pool.free else 0
            if alloc == 0:
                break
            self._start_job(waiting.popleft(), alloc, now_s, ci, degraded)
        # With no node free no candidate fits, so the backfill phase could
        # start nothing.
        free = pool.free
        if not waiting or free == 0:
            return
        # EASY backfill phase: reserve for the head, fill around it.
        head = waiting[0]
        if shapes and head.job_id in shapes:
            head_need = self._choose_alloc(shapes[head.job_id], ci)
        else:
            head_need = head.n_nodes
        shadow_s, spare = self._reservation(head_need, now_s)
        window = list(islice(waiting, 1, 1 + self.scheduler.backfill_depth))
        started: list[Job] = []
        token = self.scheduler.environment.state_index(now_s)
        if not self._rigid:
            token = (token, ci)
        probes = self._probes
        for job in window:
            if shapes and job.job_id in shapes:
                shape = shapes[job.job_id]
                alloc = self._squeeze(shape, ci, free)
                if alloc == 0:
                    continue
                stretch = shape.stretch(alloc)
            elif job.n_nodes > free:
                continue
            else:
                alloc = job.n_nodes
                stretch = 1.0
            probe = probes.get(job.job_id)
            if probe is not None and probe[0] == token:
                runtime_s = probe[1]
            else:
                runtime_s = self._resolve(job, now_s, ci).runtime_s
                probes[job.job_id] = (token, runtime_s)
            runtime_s *= stretch
            ends_before_shadow = now_s + runtime_s <= shadow_s
            within_spare = alloc <= spare
            if ends_before_shadow or within_spare:
                self._start_job(job, alloc, now_s, ci, degraded)
                started.append(job)
                free -= alloc
                if within_spare and not ends_before_shadow:
                    spare -= alloc
        _drop_started(waiting, window, started)

    def _finalize(self) -> None:
        runs = list(self._running.values())  # start order
        if not self._rigid:
            runs.sort(key=lambda r: r.job_id)
        for run in runs:
            self._finish_run(run, self.t_end_s, truncated=True)
        self._integrate_drain(self.t_end_s)
        self._done = True

    # -- driving -------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the simulation has reached its end event."""
        return self._done

    def step(self) -> bool:
        """Process one event; returns False once the simulation has ended."""
        if self._done:
            return False
        now_s, kind, payload = self._queue.pop()
        if kind is EventKind.SIM_END:
            self._finalize()
            return False
        if kind is EventKind.JOB_SUBMIT:
            self._on_submit(self._jobs[payload], now_s)
        elif kind is EventKind.JOB_END:
            self._on_end(payload, now_s)
        elif kind is EventKind.JOB_RELEASE:
            self._n_pending_release -= 1
            self._waiting.append(self._jobs[payload])
        elif kind is EventKind.CARBON_TICK:
            self._on_tick(now_s)
        elif kind is EventKind.NODE_FAIL:
            self._on_node_fail(payload, now_s)
        elif kind is EventKind.NODE_REPAIR:
            self._on_node_repair(now_s)
        self._schedule_pass(now_s)
        return True

    def run_to_completion(self) -> MalleableSimulationResult:
        """Drive the event loop to the end and assemble the result."""
        while self.step():
            pass
        return self.result()

    def result(self) -> MalleableSimulationResult:
        """The finished run's result (only valid once ``done``)."""
        if not self._done:
            raise SchedulingError("simulation has not finished")
        return MalleableSimulationResult(
            n_nodes=self.scheduler.n_nodes,
            t_start_s=self.t_start_s,
            t_end_s=self.t_end_s,
            records=[ElasticRecord(*row) for row in self._records],
            n_jobs=self.n_jobs,
            n_completed=self._n_completed,
            n_running_at_end=len(self._running),
            n_queued_at_end=len(self._waiting) + self._n_pending_release,
            n_shifted=self.n_shifted,
            n_shrinks=self.n_shrinks,
            n_grows=self.n_grows,
            trace=self._trace.build(self.t_end_s),
            faults=self._fault_accounting(),
        )

    def rigid_result(self) -> SimulationResult:
        """The finished run's result as rigid :class:`JobRecord` s.

        Only a run without a forecast has them: every record ran at its
        job's ``n_nodes`` throughout.
        """
        if not self._rigid:
            raise SchedulingError("only a run without a forecast is rigid")
        if not self._done:
            raise SchedulingError("simulation has not finished")
        jobs = self._jobs
        records = [
            JobRecord(
                job=jobs[row.job_id],
                start_time_s=row.start_time_s,
                end_time_s=row.end_time_s,
                setting=_SETTINGS[row.setting],
                effective_ghz=row.effective_ghz,
                node_power_w=row.node_power_w,
                interrupted=row.interrupted,
            )
            for row in self._records
        ]
        return SimulationResult(
            n_nodes=self.scheduler.n_nodes,
            t_start_s=self.t_start_s,
            t_end_s=self.t_end_s,
            records=records,
            n_unstarted=len(self._waiting) + self._n_pending_release,
            trace=self._trace.build(self.t_end_s),
            n_jobs=self.n_jobs,
            n_completed=self._n_completed,
            n_running_at_end=len(self._running),
            faults=self._fault_accounting(),
        )

    def _fault_accounting(self) -> FaultAccounting:
        return FaultAccounting(
            n_failures=self._n_failures,
            n_job_kills=self._n_job_kills,
            n_retries=self._n_retries,
            n_failed_terminal=self._n_failed_terminal,
            wasted_node_seconds=self._wasted_node_seconds,
            wasted_energy_j=self._wasted_energy_j,
            drained_node_seconds=self._drained_integral,
            n_degraded_ticks=self._n_degraded_ticks,
            n_degraded_starts=self._n_degraded_starts,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full JSON-able snapshot (jobs excluded — re-supply them on load)."""
        # Running jobs in start order, the order horizon truncation reports.
        running = [_run_to_list(run) for run in self._running.values()]
        return {
            "queue": self._queue.state_dict(),
            "pool": self._pool.state_dict(),
            "trace": self._trace.state_dict(),
            "waiting": [job.job_id for job in self._waiting],
            "running": running,
            "records": [list(row) for row in self._records],
            "rng": self._rng.bit_generator.state,
            "busy_power_w": self._busy_power_w,
            "done": self._done,
            "n_jobs": self.n_jobs,
            "n_submits_remaining": self._n_submits_remaining,
            "n_pending_release": self._n_pending_release,
            "n_completed": self._n_completed,
            "n_shifted": self.n_shifted,
            "n_shrinks": self.n_shrinks,
            "n_grows": self.n_grows,
            # Fault-injection state (inert all-defaults when faults are off).
            # Integer-keyed maps are stored as sorted pair lists: JSON would
            # silently stringify dict keys, breaking resume determinism.
            "fault_rng": (
                self._fault_rng.bit_generator.state
                if self._fault_rng is not None
                else None
            ),
            "fault_gen": self._fault_gen,
            "drained_integral": self._drained_integral,
            "last_drain_change_s": self._last_drain_change_s,
            "attempts": sorted(self._attempts.items()),
            "retained": sorted(self._retained.items()),
            "next_gen": sorted(self._next_gen.items()),
            "n_failures": self._n_failures,
            "n_job_kills": self._n_job_kills,
            "n_retries": self._n_retries,
            "n_failed_terminal": self._n_failed_terminal,
            "wasted_node_seconds": self._wasted_node_seconds,
            "wasted_energy_j": self._wasted_energy_j,
            "n_degraded_ticks": self._n_degraded_ticks,
            "n_degraded_starts": self._n_degraded_starts,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot over the same job set."""
        self._queue.load_state_dict(state["queue"])
        self._pool.load_state_dict(state["pool"])
        self._trace.load_state_dict(state["trace"])
        self._waiting = deque(self._jobs[int(j)] for j in state["waiting"])
        self._running = {
            run.job_id: run
            for run in (_run_from_list(raw) for raw in state["running"])
        }
        self._end_key = {
            job_id: self._end_estimate_s(run) for job_id, run in self._running.items()
        }
        self._by_end = sorted((end_s, job_id) for job_id, end_s in self._end_key.items())
        self._probes = {}
        self._records = [_row_from_list(raw) for raw in state["records"]]
        self._rng.bit_generator.state = state["rng"]
        self._busy_power_w = float(state["busy_power_w"])
        self._done = bool(state["done"])
        self.n_jobs = int(state["n_jobs"])
        self._n_submits_remaining = int(state["n_submits_remaining"])
        self._n_pending_release = int(state["n_pending_release"])
        self._n_completed = int(state["n_completed"])
        self.n_shifted = int(state["n_shifted"])
        self.n_shrinks = int(state["n_shrinks"])
        self.n_grows = int(state["n_grows"])
        fault_rng_state = state.get("fault_rng")
        if fault_rng_state is not None:
            if self._fault_rng is None:
                raise SchedulingError(
                    "checkpoint carries fault-RNG state but this scheduler "
                    "has no fault_config"
                )
            self._fault_rng.bit_generator.state = fault_rng_state
        self._fault_gen = int(state.get("fault_gen", 0))
        self._drained_integral = float(state.get("drained_integral", 0.0))
        self._last_drain_change_s = float(
            state.get("last_drain_change_s", self.t_start_s)
        )
        self._attempts = {int(k): int(v) for k, v in state.get("attempts", [])}
        self._retained = {int(k): float(v) for k, v in state.get("retained", [])}
        self._next_gen = {int(k): int(v) for k, v in state.get("next_gen", [])}
        self._n_failures = int(state.get("n_failures", 0))
        self._n_job_kills = int(state.get("n_job_kills", 0))
        self._n_retries = int(state.get("n_retries", 0))
        self._n_failed_terminal = int(state.get("n_failed_terminal", 0))
        self._wasted_node_seconds = float(state.get("wasted_node_seconds", 0.0))
        self._wasted_energy_j = float(state.get("wasted_energy_j", 0.0))
        self._n_degraded_ticks = int(state.get("n_degraded_ticks", 0))
        self._n_degraded_starts = int(state.get("n_degraded_starts", 0))


class MalleableScheduler:
    """Carbon-aware malleable scheduler over a carbon-intensity signal.

    ``ci`` is the forecast the scheduler plans against — in closed-loop
    studies pass the realised series (a perfect forecast); for skill
    studies pass a ``persistence_forecast`` / ``diurnal_template_forecast``
    product and score emissions against the realised series separately.
    ``environment`` is then a :class:`StaticEnvironment` or
    :class:`CarbonAwareEnvironment`.

    ``ci=None`` plans against nothing: the run is rigid EASY backfill under
    any :class:`~repro.scheduler.backfill.ExecutionEnvironment`, exactly as
    :class:`~repro.scheduler.backfill.BackfillScheduler` runs it (see
    :class:`MalleableSimulation`); the carbon parameters are then unused.
    """

    def __init__(
        self,
        n_nodes: int,
        environment: ExecutionEnvironment,
        ci: TimeSeries | None,
        backfill_depth: int = 100,
        offline_nodes: int = 0,
        carbon_tick_interval_s: float = 1800.0,
        low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH,
        high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH,
        seed: int = 0,
        fault_config: FaultConfig | None = None,
        feed: ForecastFeed | None = None,
        stale_after_s: float = 2.0 * 3600.0,
    ) -> None:
        if backfill_depth < 0:
            raise SchedulingError("backfill_depth must be non-negative")
        if not stale_after_s > 0:
            raise SchedulingError("stale_after_s must be positive")
        if not 0 <= offline_nodes < n_nodes:
            raise SchedulingError(
                f"offline_nodes must be in [0, {n_nodes}), got {offline_nodes}"
            )
        if carbon_tick_interval_s <= 0:
            raise SchedulingError("carbon_tick_interval_s must be positive")
        if not low_g_per_kwh < high_g_per_kwh:
            raise SchedulingError(
                "low_g_per_kwh must be below high_g_per_kwh "
                f"(got {low_g_per_kwh} >= {high_g_per_kwh})"
            )
        self.n_nodes = n_nodes
        self.forecast: ForecastIndex | None = None
        if ci is not None:
            if isinstance(environment, CarbonAwareEnvironment):
                environment = replace(
                    environment,
                    low_g_per_kwh=low_g_per_kwh,
                    high_g_per_kwh=high_g_per_kwh,
                )
            elif isinstance(environment, StaticEnvironment):
                environment = CarbonAwareEnvironment(
                    environment, low_g_per_kwh, high_g_per_kwh
                )
            else:
                raise SchedulingError(
                    "carbon-aware planning needs a StaticEnvironment or "
                    "CarbonAwareEnvironment"
                )
            self.forecast = ForecastIndex(ci)
        elif feed is not None:
            raise SchedulingError("a forecast feed needs a CI forecast")
        self.environment = environment
        self.backfill_depth = backfill_depth
        self.offline_nodes = offline_nodes
        self.carbon_tick_interval_s = carbon_tick_interval_s
        self.low_g_per_kwh = low_g_per_kwh
        self.high_g_per_kwh = high_g_per_kwh
        self.seed = seed
        self.fault_config = fault_config
        self.feed = feed
        self.stale_after_s = stale_after_s

    def simulation(
        self, jobs: list[Job], t_end_s: float, t_start_s: float = 0.0
    ) -> MalleableSimulation:
        """A stepping/checkpointable simulation over ``jobs``."""
        return MalleableSimulation(self, jobs, t_end_s, t_start_s)

    def run(
        self, jobs: list[Job], t_end_s: float, t_start_s: float = 0.0
    ) -> MalleableSimulationResult:
        """Simulate ``jobs`` to completion (convenience one-shot)."""
        return self.simulation(jobs, t_end_s, t_start_s).run_to_completion()


@dataclass(frozen=True)
class RigidMalleableComparison:
    """Side-by-side outcome of rigid EASY backfill vs malleable scheduling."""

    rigid: SimulationResult
    malleable: MalleableSimulationResult
    rigid_tco2e: float
    malleable_tco2e: float

    @property
    def emissions_saving_tco2e(self) -> float:
        """Scope-2 emissions avoided by going malleable (positive = better)."""
        return self.rigid_tco2e - self.malleable_tco2e

    @property
    def energy_saving_kwh(self) -> float:
        """Energy avoided by going malleable (positive = better)."""
        return self.rigid.total_energy_kwh() - self.malleable.total_energy_kwh()

    @property
    def stretch_penalty(self) -> float:
        """Mean bounded-slowdown increase paid for the carbon savings."""
        return (
            self.malleable.mean_bounded_stretch()
            - self.rigid.mean_bounded_stretch()
        )


def compare_rigid_malleable(
    jobs: list[Job],
    t_end_s: float,
    environment: StaticEnvironment,
    ci: TimeSeries,
    t_start_s: float = 0.0,
    n_nodes: int | None = None,
    backfill_depth: int = 100,
    offline_nodes: int = 0,
    carbon_tick_interval_s: float = 1800.0,
    low_g_per_kwh: float = PAPER_LOW_CI_G_PER_KWH,
    high_g_per_kwh: float = PAPER_HIGH_CI_G_PER_KWH,
    seed: int = 0,
    fault_config: FaultConfig | None = None,
    feed: ForecastFeed | None = None,
    stale_after_s: float = 2.0 * 3600.0,
) -> RigidMalleableComparison:
    """Run the same trace rigidly and malleably; score both against ``ci``.

    ``n_nodes`` defaults to the smallest power of two covering the widest
    job (plus offline drain), which keeps ad-hoc comparisons runnable
    without a facility config.
    """
    if n_nodes is None:
        widest = max(job.n_nodes for job in jobs)
        n_nodes = 1
        while n_nodes < widest + offline_nodes + 1:
            n_nodes *= 2
    rigid = BackfillScheduler(
        n_nodes, backfill_depth, offline_nodes, fault_config=fault_config
    ).run(jobs, t_end_s, environment, t_start_s)
    malleable = MalleableScheduler(
        n_nodes,
        environment,
        ci,
        backfill_depth=backfill_depth,
        offline_nodes=offline_nodes,
        carbon_tick_interval_s=carbon_tick_interval_s,
        low_g_per_kwh=low_g_per_kwh,
        high_g_per_kwh=high_g_per_kwh,
        seed=seed,
        fault_config=fault_config,
        feed=feed,
        stale_after_s=stale_after_s,
    ).run(jobs, t_end_s, t_start_s)
    return RigidMalleableComparison(
        rigid=rigid,
        malleable=malleable,
        rigid_tco2e=trace_emissions_tco2e(rigid.trace, ci),
        malleable_tco2e=trace_emissions_tco2e(malleable.trace, ci),
    )
