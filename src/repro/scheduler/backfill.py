"""EASY-backfill batch scheduler over the node pool.

Implements the classic EASY (Extensible Argonne Scheduling sYstem) policy the
production Slurm configuration on ARCHER2 approximates: first-come
first-served with a reservation for the queue head, plus backfill — a later
job may jump ahead if it fits in the currently free nodes and either finishes
before the head's reservation ("shadow time") or only uses nodes the head
will not need.

The scheduler is deliberately ignorant of power physics: an
:class:`ExecutionEnvironment` resolves each job's frequency setting, runtime
and per-node power at start time. The production implementation of that
protocol lives in :mod:`repro.core.campaign`, where BIOS/frequency
interventions change the environment mid-simulation; a static variant is
provided here for direct use.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import islice
from typing import Protocol

import numpy as np

from ..errors import SchedulingError
from ..facility.failures import FaultConfig
from ..node.cpu import CpuModel
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..node.pstates import FrequencySetting
from ..workload.jobs import Job, JobRecord
from .accounting import FaultAccounting, SimulationResult, TraceBuilder
from .engine import Event, EventKind, EventQueue
from .frequency_policy import FrequencyPolicy
from .partition import NodePool

__all__ = [
    "ResolvedExecution",
    "ExecutionEnvironment",
    "StaticEnvironment",
    "BackfillScheduler",
    "validate_jobs",
]


def validate_jobs(
    jobs: list[Job],
    available_nodes: int,
    offline_nodes: int = 0,
    *,
    elastic: bool = False,
) -> None:
    """Admission validation: reject any job this facility can never run.

    :class:`~repro.workload.jobs.Job` construction already rejects
    non-positive node counts, non-positive walltimes and inverted elastic
    shapes; these are re-checked here defensively, together with the
    facility-relative bound, so a million-job trace fails loudly at
    admission — naming the offending job and the allowed range — rather
    than deadlocking the queue mid-simulation. With ``elastic=True`` an
    elastic job is admissible if its *minimum* shape fits (a malleable
    scheduler can shrink it in); rigid admission requires the preferred
    ``n_nodes`` to fit.
    """
    if available_nodes <= 0:
        raise SchedulingError(
            f"facility has no schedulable nodes ({offline_nodes} offline)"
        )
    for job in jobs:
        if job.n_nodes <= 0:
            raise SchedulingError(
                f"job {job.job_id}: n_nodes must be positive, got {job.n_nodes}"
            )
        if job.reference_runtime_s <= 0:
            raise SchedulingError(
                f"job {job.job_id}: reference_runtime_s must be positive, "
                f"got {job.reference_runtime_s}"
            )
        if job.is_elastic and job.min_nodes > job.max_nodes:
            raise SchedulingError(
                f"job {job.job_id}: min_nodes {job.min_nodes} exceeds "
                f"max_nodes {job.max_nodes}"
            )
        floor = job.min_nodes if (elastic and job.is_elastic) else job.n_nodes
        if floor > available_nodes:
            raise SchedulingError(
                f"job {job.job_id} requests {floor} nodes; "
                f"facility has {available_nodes} available "
                f"({offline_nodes} offline; allowed range 1..{available_nodes})"
            )


def replace_window(waiting: deque, window: list, kept: list) -> None:
    """Put back the queue head and the unstarted part of a backfill window.

    ``window`` is the scan that followed the head; ``kept`` is the head plus
    the candidates that did not start, in queue order. Only that prefix is
    rebuilt, so a pass costs the backfill depth rather than the queue length.
    """
    if len(kept) == 1 + len(window):
        return  # nothing started
    for _ in range(1 + len(window)):
        waiting.popleft()
    waiting.extendleft(reversed(kept))


@dataclass(frozen=True)
class ResolvedExecution:
    """How a job will execute, decided at its start time."""

    setting: FrequencySetting
    effective_ghz: float
    runtime_s: float
    node_power_w: float


class ExecutionEnvironment(Protocol):
    """Resolves operating conditions for a job starting at a given time.

    ``state_index`` names the environment state in force at a time. Its
    contract: ``resolve(job, t)`` depends on ``t`` only through
    ``state_index(t)``, so two times with equal tokens resolve every job
    identically. The scheduler relies on it to probe a waiting backfill
    candidate's runtime once per state instead of once per pass.
    """

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:  # pragma: no cover
        """Return the execution parameters for ``job`` starting at ``time_s``."""
        ...

    def state_index(self, time_s: float) -> Hashable:  # pragma: no cover
        """Hashable token of the state in force at ``time_s``."""
        ...


@dataclass(frozen=True)
class StaticEnvironment:
    """Time-invariant environment: one BIOS mode, one frequency policy.

    Resolution is memoised per (application, user override): the physics
    depends only on the app's roofline and the chosen operating point, so a
    month-long simulation touches the node model once per distinct app
    rather than once per scheduling decision.
    """

    node_model: NodePowerModel
    mode: DeterminismMode = DeterminismMode.POWER
    policy: FrequencyPolicy = field(default_factory=FrequencyPolicy)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def cpu(self) -> CpuModel:
        """The CPU model execution resolves against."""
        return self.node_model.cpu

    def state_index(self, time_s: float) -> int:
        """Always ``0``: one state for the whole run."""
        return 0

    def resolve(self, job: Job, time_s: float) -> ResolvedExecution:
        key = (job.app.name, job.frequency_override)
        cached = self._cache.get(key)
        if cached is None:
            setting = self.policy.setting_for(job, self.cpu, self.mode)
            point = self.cpu.operating_point(setting, self.mode)
            profile = job.app.roofline.at(point.effective_ghz)
            power = self.node_model.busy_power_w(
                point, profile.compute_activity, profile.memory_activity
            )
            cached = (setting, point.effective_ghz, profile.time_ratio, float(power))
            self._cache[key] = cached
        setting, effective_ghz, time_ratio, power_w = cached
        return ResolvedExecution(
            setting=setting,
            effective_ghz=effective_ghz,
            runtime_s=job.reference_runtime_s * time_ratio,
            node_power_w=power_w,
        )


@dataclass
class _Running:
    """Book-keeping for an in-flight job.

    ``seq`` counts starts over the run; it breaks end-time ties in start
    order, restarts included.
    """

    job: Job
    start_s: float
    end_s: float
    resolved: ResolvedExecution
    attempt: int
    seq: int


class BackfillScheduler:
    """EASY-backfill simulator producing job records and a power trace.

    ``offline_nodes`` models the steady failure/maintenance drain
    (:class:`repro.facility.failures.FailureModel`): those nodes never host
    jobs but still draw idle power in the facility roll-up, since the
    telemetry recorder charges idle power to every non-busy node.

    ``fault_config`` switches on *dynamic* faults: seeded node failures
    drain capacity mid-run, kill the jobs they hit (the burned node-hours
    are charged as wasted energy) and requeue them with exponential
    backoff until the retry budget runs out. Rigid jobs restart from zero
    — there is no checkpoint/restart in the rigid path. With the default
    ``None`` the simulation is byte-identical to a fault-free machine.
    """

    def __init__(
        self,
        n_nodes: int,
        backfill_depth: int = 100,
        offline_nodes: int = 0,
        fault_config: FaultConfig | None = None,
    ) -> None:
        if backfill_depth < 0:
            raise SchedulingError("backfill_depth must be non-negative")
        if not 0 <= offline_nodes < n_nodes:
            raise SchedulingError(
                f"offline_nodes must be in [0, {n_nodes}), got {offline_nodes}"
            )
        self.n_nodes = n_nodes
        self.backfill_depth = backfill_depth
        self.offline_nodes = offline_nodes
        self.fault_config = fault_config

    # -- public API ---------------------------------------------------------

    def run(
        self,
        jobs: list[Job],
        t_end_s: float,
        environment: ExecutionEnvironment,
        t_start_s: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``jobs`` until ``t_end_s`` under ``environment``.

        Jobs still running at ``t_end_s`` are truncated there (their energy
        accounts only for the simulated span); jobs still waiting are
        reported as unstarted.
        """
        if t_end_s <= t_start_s:
            raise SchedulingError("t_end_s must exceed t_start_s")
        available = self.n_nodes - self.offline_nodes
        validate_jobs(jobs, available, self.offline_nodes)

        pool = NodePool(available)
        queue = EventQueue()
        waiting: deque[Job] = deque()
        running: dict[int, _Running] = {}
        # Running jobs ordered by (end time, start sequence): the order the
        # EASY reservation walks, kept incrementally instead of re-sorted.
        by_end: list[tuple[float, int, _Running]] = []
        # Backfill runtime probes, job id -> (state token, runtime). Entries
        # leave when their job starts, so only the backfill window is held.
        probes: dict[int, tuple[Hashable, float]] = {}
        n_starts = 0
        records: list[JobRecord] = []
        trace = TraceBuilder(t_start_s)
        jobs_by_id = {job.job_id: job for job in jobs}

        n_jobs = 0
        for job in sorted(jobs, key=lambda j: j.submit_time_s):
            if job.submit_time_s < t_end_s:
                queue.push(Event(job.submit_time_s, EventKind.JOB_SUBMIT, job))
                n_jobs += 1
        queue.push(Event(t_end_s, EventKind.SIM_END))

        busy_power_w = 0.0
        n_completed = 0

        # Fault-injection state. The fault RNG is only ever drawn when a
        # FaultConfig is supplied, so fault-free runs stay byte-identical
        # to the pre-fault scheduler.
        faults = self.fault_config
        fault_rng = np.random.default_rng(faults.seed) if faults else None
        fault_gen = 0
        drained_integral = 0.0
        last_drain_change_s = t_start_s
        attempts: dict[int, int] = {}
        pending_release = 0
        n_failures = 0
        n_job_kills = 0
        n_retries = 0
        n_failed_terminal = 0
        wasted_node_seconds = 0.0
        wasted_energy_j = 0.0

        def record_trace(t: float) -> None:
            trace.append(t, busy_power_w, pool.busy)

        def integrate_drain(now: float) -> None:
            nonlocal drained_integral, last_drain_change_s
            drained_integral += pool.drained * (now - last_drain_change_s)
            last_drain_change_s = now

        def schedule_next_failure(now: float) -> None:
            """Resample the fleet's next failure (memoryless, so exact)."""
            nonlocal fault_gen
            assert faults is not None and fault_rng is not None
            fault_gen += 1
            up = pool.up_nodes
            if up <= 0:
                return
            t = now + float(fault_rng.exponential(faults.mtbf_s / up))
            if t < t_end_s:
                queue.push(Event(t, EventKind.NODE_FAIL, fault_gen))

        def start_job(job: Job, now: float) -> None:
            nonlocal busy_power_w, n_starts
            resolved = environment.resolve(job, now)
            probes.pop(job.job_id, None)
            pool.allocate(job.n_nodes)
            end_s = now + resolved.runtime_s
            attempt = attempts.get(job.job_id, 0)
            run = _Running(job, now, end_s, resolved, attempt, n_starts)
            n_starts += 1
            running[job.job_id] = run
            insort(by_end, (end_s, run.seq, run))
            busy_power_w += resolved.node_power_w * job.n_nodes
            record_trace(now)
            if end_s <= t_end_s:
                queue.push(Event(end_s, EventKind.JOB_END, (job.job_id, attempt)))

        def schedule_pass(now: float) -> None:
            # FCFS phase: start queue heads while they fit.
            while waiting and pool.fits(waiting[0].n_nodes):
                start_job(waiting.popleft(), now)
            free = pool.free
            if not waiting or free == 0:
                return
            # EASY backfill phase: reserve for the head, fill around it.
            head = waiting[0]
            try:
                shadow_s, spare = self._reservation(head, pool, by_end, now)
            except SchedulingError:
                if faults is None:
                    raise
                # Drained capacity can temporarily block a head that passed
                # admission; let backfill run freely until a repair lands.
                shadow_s, spare = float("inf"), 0
            window = list(islice(waiting, 1, 1 + self.backfill_depth))
            kept = [head]
            token = environment.state_index(now)
            for cand in window:
                if cand.n_nodes > free:  # admission made every n_nodes positive
                    kept.append(cand)
                    continue
                probe = probes.get(cand.job_id)
                if probe is not None and probe[0] == token:
                    runtime = probe[1]
                else:
                    runtime = environment.resolve(cand, now).runtime_s
                    probes[cand.job_id] = (token, runtime)
                ends_before_shadow = now + runtime <= shadow_s
                within_spare = cand.n_nodes <= spare
                if ends_before_shadow or within_spare:
                    start_job(cand, now)
                    free -= cand.n_nodes
                    if within_spare and not ends_before_shadow:
                        spare -= cand.n_nodes
                else:
                    kept.append(cand)
            replace_window(waiting, window, kept)

        def stop_running(run: _Running, now: float) -> None:
            """Take ``run`` off the machine and out of the end-time order."""
            nonlocal busy_power_w
            job = run.job
            del running[job.job_id]
            del by_end[bisect_left(by_end, (run.end_s, run.seq))]
            pool.release(job.n_nodes)
            busy_power_w -= run.resolved.node_power_w * job.n_nodes
            if abs(busy_power_w) < 1e-6:
                busy_power_w = 0.0
            record_trace(now)

        def end_job(payload: tuple[int, int], now: float) -> None:
            nonlocal n_completed
            job_id, attempt = payload
            run = running.get(job_id)
            if run is None or run.attempt != attempt:
                return  # stale end event from an attempt killed by a failure
            stop_running(run, now)
            records.append(
                JobRecord(
                    job=run.job,
                    start_time_s=run.start_s,
                    end_time_s=now,
                    setting=run.resolved.setting,
                    effective_ghz=run.resolved.effective_ghz,
                    node_power_w=run.resolved.node_power_w,
                )
            )
            n_completed += 1

        def kill_victim(run: _Running, now: float) -> None:
            """A node failure hit this job: charge the burn, requeue or drop."""
            nonlocal n_job_kills, n_retries, n_failed_terminal
            nonlocal wasted_node_seconds, wasted_energy_j
            assert faults is not None and fault_rng is not None
            job = run.job
            stop_running(run, now)
            if now > run.start_s:
                records.append(
                    JobRecord(
                        job=job,
                        start_time_s=run.start_s,
                        end_time_s=now,
                        setting=run.resolved.setting,
                        effective_ghz=run.resolved.effective_ghz,
                        node_power_w=run.resolved.node_power_w,
                        interrupted=True,
                    )
                )
                burned = job.n_nodes * (now - run.start_s)
                wasted_node_seconds += burned
                wasted_energy_j += run.resolved.node_power_w * burned
            n_job_kills += 1
            attempt = attempts.get(job.job_id, 0) + 1
            attempts[job.job_id] = attempt
            if attempt > faults.max_retries:
                n_failed_terminal += 1
                return
            n_retries += 1
            delay = faults.backoff_s(attempt, float(fault_rng.random()))
            queue.push(Event(now + delay, EventKind.JOB_RELEASE, job.job_id))
            nonlocal pending_release
            pending_release += 1

        def on_node_fail(generation: int, now: float) -> None:
            nonlocal n_failures
            assert faults is not None and fault_rng is not None
            if generation != fault_gen:
                return  # stale: the fleet's rates changed since this was drawn
            up = pool.up_nodes
            if up <= 0:
                return
            n_failures += 1
            # One uniform draw picks the failed node *and* the victim: a
            # position in [0, up) lands either inside the busy prefix
            # (cumulative widths over job-id order) or in the idle tail.
            position = float(fault_rng.random()) * up
            if position < pool.busy:
                cumulative = 0
                for run in sorted(running.values(), key=lambda r: r.job.job_id):
                    cumulative += run.job.n_nodes
                    if position < cumulative:
                        kill_victim(run, now)
                        break
            integrate_drain(now)
            pool.drain(1)
            repair_t = now + float(fault_rng.exponential(faults.mttr_s))
            if repair_t < t_end_s:
                queue.push(Event(repair_t, EventKind.NODE_REPAIR))
            schedule_next_failure(now)

        def on_node_repair(now: float) -> None:
            integrate_drain(now)
            pool.restore(1)
            schedule_next_failure(now)

        record_trace(t_start_s)
        if faults is not None:
            schedule_next_failure(t_start_s)
        while queue:
            event = queue.pop()
            now = event.time_s
            if event.kind is EventKind.SIM_END:
                break
            if event.kind is EventKind.JOB_SUBMIT:
                waiting.append(event.payload)
            elif event.kind is EventKind.JOB_END:
                end_job(event.payload, now)
            elif event.kind is EventKind.JOB_RELEASE:
                pending_release -= 1
                waiting.append(jobs_by_id[event.payload])
            elif event.kind is EventKind.NODE_FAIL:
                on_node_fail(event.payload, now)
            elif event.kind is EventKind.NODE_REPAIR:
                on_node_repair(now)
            schedule_pass(now)

        # Truncate still-running jobs at the horizon.
        for run in running.values():
            records.append(
                JobRecord(
                    job=run.job,
                    start_time_s=run.start_s,
                    end_time_s=t_end_s,
                    setting=run.resolved.setting,
                    effective_ghz=run.resolved.effective_ghz,
                    node_power_w=run.resolved.node_power_w,
                )
            )
        integrate_drain(t_end_s)

        return SimulationResult(
            n_nodes=self.n_nodes,
            t_start_s=t_start_s,
            t_end_s=t_end_s,
            records=records,
            n_unstarted=len(waiting) + pending_release,
            trace=trace.build(t_end_s),
            n_jobs=n_jobs,
            n_completed=n_completed,
            n_running_at_end=len(running),
            faults=FaultAccounting(
                n_failures=n_failures,
                n_job_kills=n_job_kills,
                n_retries=n_retries,
                n_failed_terminal=n_failed_terminal,
                wasted_node_seconds=wasted_node_seconds,
                wasted_energy_j=wasted_energy_j,
                drained_node_seconds=drained_integral,
            ),
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _reservation(
        head: Job,
        pool: NodePool,
        by_end: list[tuple[float, int, _Running]],
        now: float,
    ) -> tuple[float, int]:
        """EASY reservation for the queue head.

        Returns ``(shadow_time, spare_nodes)``: the earliest time enough
        nodes will be free for the head, and how many nodes beyond the
        head's need will be free then (backfill jobs using only spare nodes
        cannot delay the head even if they run long). ``by_end`` holds the
        running jobs in (end time, start sequence) order.
        """
        if pool.fits(head.n_nodes):
            return now, pool.free - head.n_nodes
        available = pool.free
        for end_s, _, run in by_end:
            available += run.job.n_nodes
            if available >= head.n_nodes:
                return end_s, available - head.n_nodes
        raise SchedulingError(f"job {head.job_id} can never be scheduled")
