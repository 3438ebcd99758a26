"""``elastic``: a faulted carbon-aware malleable trace, then a kill and resume.

About 10k jobs on 1,024 nodes, half of them malleable, under the
``balanced`` CI scenario (it crosses 100 gCO2/kWh every day), with seeded
node faults (MTBF 4,380 h, MTTR 12 h). The trace runs through
``MalleableScheduler.run``; a second pass kills the run at mid-trace,
writes a JSON snapshot, restores it into a fresh simulation and runs to
completion. This uses the scheduler layer differently from ``campaign``:
carbon-aware reshaping, fault requeues, and ``state_dict`` writes and reads
alongside event processing. A run cycles through the seeds of
``common.sub_seeds`` (job stream, CI series, faults and scheduler) and
reports jobs per second over all its traces; the first trace of a run is
the one killed and resumed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Measurement, digest, median, repeat_for, sub_seeds
from repro.facility.failures import FailureModel, FaultConfig
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.node import build_node_model
from repro.scheduler import MalleableScheduler, StaticEnvironment
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix
from speed import CLOCK
from tracing import NullTracer, Tracer

REQUIRED = (
    "workload.generate",
    "scheduler.malleable_run",
    "scheduler.resolve",
    "scheduler.step",
    "scheduler.snapshot",
    "scheduler.restore",
)

N_JOBS = 10_000
N_NODES = 1024
MTBF_HOURS = 4380.0
MTTR_HOURS = 12.0
#: The trace spans about 13 days; the CI series must outlast it.
CI_HORIZON_S = 40 * SECONDS_PER_DAY
#: The faulted trace takes about 2.6 events per job, so this is mid-trace.
KILL_AFTER_STEPS = 5 * N_JOBS // 4


@dataclass(frozen=True)
class Inputs:
    seeds: tuple[int, ...]
    stream: JobStreamConfig
    environment: StaticEnvironment
    cis: tuple
    faults: tuple[FaultConfig, ...]
    snapshot_path: Path


def build_inputs(seed: int, seconds: float, workdir: Path) -> Inputs:
    """Stream parameters, node model, and a CI series and fault model per
    workload seed of ``seed``."""
    stream = JobStreamConfig(
        n_facility_nodes=N_NODES,
        offered_load=0.95,
        mean_runtime_s=SECONDS_PER_HOUR,
        max_job_nodes=N_NODES // 4,
        malleable_fraction=0.5,
        shift_slack_mean_s=2 * SECONDS_PER_HOUR,
    )
    seeds = sub_seeds(seed)
    ci_model = CarbonIntensityModel.from_scenario("balanced")
    cis = tuple(
        ci_model.series(0.0, CI_HORIZON_S, 1800.0, np.random.default_rng([s, 1])) for s in seeds
    )
    model = FailureModel(mtbf_hours=MTBF_HOURS, mttr_hours=MTTR_HOURS)
    faults = tuple(FaultConfig(model=model, seed=s) for s in seeds)
    environment = StaticEnvironment(node_model=build_node_model())
    return Inputs(seeds, stream, environment, cis, faults, workdir / "elastic-snapshot.json")


def instrument(tracer: Tracer) -> None:
    """Wrap the generator, the malleable scheduler and its resolve/step/restore."""
    from repro.scheduler.malleable import MalleableSimulation

    tracer.patch_span(JobStreamGenerator, "generate", "workload.generate")
    tracer.patch_span(MalleableScheduler, "run", "scheduler.malleable_run")
    tracer.patch_count(StaticEnvironment, "resolve", "scheduler.resolve")
    tracer.patch_count(MalleableSimulation, "step", "scheduler.step")
    tracer.patch_span(MalleableSimulation, "load_state_dict", "scheduler.restore")


def _trace_bytes(result) -> bytes:
    trace = result.trace
    return trace.times_s.tobytes() + trace.busy_power_w.tobytes() + trace.busy_nodes.tobytes()


def run(inputs: Inputs, budget_s: float, tracer: Tracer | NullTracer) -> Measurement:
    """Generate and schedule faulted traces for ``budget_s``, cycling through
    the workload seeds; the first time, also kill and resume and compare."""
    if tracer.enabled:
        instrument(tracer)
    out = Measurement()
    jobs_done: list[int] = []
    ref_s: list[float] = []
    wall_s: list[float] = []
    checksums: dict[int, set[str]] = {}
    # Counts from the first workload seed, which every pass runs.
    first: dict[str, float] = {}

    def once(i: int) -> None:
        k = i % len(inputs.seeds)
        seed = inputs.seeds[k]
        resolves_before = tracer.calls("scheduler.resolve")
        steps_before = tracer.calls("scheduler.step")
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, 0])
        jobs = JobStreamGenerator(archer2_mix(), inputs.stream, rng).generate(N_JOBS)
        t_end_s = jobs[-1].submit_time_s + 6 * SECONDS_PER_HOUR
        scheduler = MalleableScheduler(
            N_NODES, inputs.environment, inputs.cis[k], seed=seed, fault_config=inputs.faults[k]
        )
        full = scheduler.run(jobs, t_end_s)
        t1 = time.perf_counter()
        jobs_done.append(len(jobs))
        ref_s.append(CLOCK.reference_s(t0, t1))
        wall_s.append(t1 - t0)
        checksum = digest(_trace_bytes(full), repr(full.records), repr(full.faults))
        checksums.setdefault(k, set()).add(checksum)
        out.check(
            f"elastic trace {i} (seed {seed})",
            {
                "reconciles": full.reconciles(),
                "faults injected": full.faults.n_job_kills > 0,
                "same output every trace of a seed": len(checksums[k]) == 1,
            },
        )
        if i == 0:
            out.checksum = checksum
            first.update(
                resolves=tracer.calls("scheduler.resolve") - resolves_before,
                steps=tracer.calls("scheduler.step") - steps_before,
                completed=full.n_completed,
                kills=full.faults.n_job_kills,
                retries=full.faults.n_retries,
            )
            checks, first["snapshot_bytes"], first["resume_s"] = _kill_and_resume(
                scheduler, jobs, t_end_s, full, inputs.snapshot_path, tracer
            )
            out.check("elastic kill and resume", checks)

    n = repeat_for(budget_s, once)
    # Every pass runs the first seed, so the trace overhead compares its runs.
    out.work_s = median(ref_s[:: len(inputs.seeds)])
    out.throughput = sum(jobs_done) / sum(ref_s)
    out.raw_throughput = sum(jobs_done) / sum(wall_s)
    out.named["jobs_per_s"] = (out.throughput, "1/s")
    out.named["resume_s"] = (first["resume_s"], "s")
    out.layer.update(
        {
            "workload.jobs": float(N_JOBS),
            "scheduler.completed": float(first["completed"]),
            "scheduler.job_kills": float(first["kills"]),
            "scheduler.retries": float(first["retries"]),
            "scheduler.completed_ratio": first["completed"] / N_JOBS,
            "scheduler.snapshot_bytes": float(first["snapshot_bytes"]),
            "scheduler.resume_s": first["resume_s"],
        }
    )
    if tracer.enabled:
        out.layer.update(
            {
                "workload.generate_s": tracer.total("workload.generate") / n,
                "scheduler.malleable_run_s": tracer.total("scheduler.malleable_run") / n,
                "scheduler.resolve_calls": float(first["resolves"]),
                "scheduler.steps": float(first["steps"]),
                "scheduler.snapshot_s": tracer.total("scheduler.snapshot"),
                "scheduler.restore_s": tracer.total("scheduler.restore"),
            }
        )
    return out


def _kill_and_resume(scheduler, jobs, t_end_s, full, path, tracer) -> tuple[dict, int, float]:
    """Kill at mid-trace, snapshot to ``path``, resume in a fresh simulation.

    Returns the checks against the uninterrupted ``full`` result, the
    snapshot's size and the time from snapshot on disk to a loaded
    simulation.
    """
    victim = scheduler.simulation(jobs, t_end_s)
    for _ in range(KILL_AFTER_STEPS):
        if not victim.step():
            break
    killed_mid_trace = not victim.done
    with tracer.span("scheduler.snapshot"):
        text = json.dumps(victim.state_dict())
        path.write_text(text)
    snapshot_bytes = len(text.encode())
    del victim, text
    t0 = time.perf_counter()
    with tracer.span("scheduler.resume"):
        state = json.loads(path.read_text())
        resumed_sim = scheduler.simulation(jobs, t_end_s)
        resumed_sim.load_state_dict(state)
    resume_s = CLOCK.reference_s(t0, time.perf_counter())
    resumed = resumed_sim.run_to_completion()
    checks = {
        "killed before the end": killed_mid_trace,
        "resumed records identical": resumed.records == full.records,
        "resumed trace bytes identical": _trace_bytes(resumed) == _trace_bytes(full),
        "resumed fault accounting identical": resumed.faults == full.faults,
        "resumed run reconciles": resumed.reconciles(),
    }
    return checks, snapshot_bytes, resume_s
