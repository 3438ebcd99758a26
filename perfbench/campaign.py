"""``campaign``: the paper's Figure 2 window through the ``repro run F2`` steps.

61 days on the 5,860-node ARCHER2 inventory with the BIOS determinism
change on day 30: generate the job stream, run rigid EASY backfill under
the intervention schedule, meter the cabinets, then blind change-point
detection and ``assess_impact``. This is the path the reproduction exists
for; scheduler and workload-generation changes show here, while the live,
engine and service code are not run. A run cycles through the campaign
seeds of ``common.sub_seeds`` and reports jobs per second over all its
reproductions.

Blind detection is checked for what the detector promises on every seed:
the streaming scan returns exactly the batch maximum-likelihood split, and
the shift it finds is a drop in the paper's saving band. How far that split
lands from the true change day is reported, not checked: on about one seed
in twenty a day-long utilisation dip in the few days before the change wins
the single-split scan and moves the split about three days early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from common import Measurement, digest, median, repeat_for, sub_seeds
from repro.analysis.changepoint import detect_single, detect_single_streaming
from repro.core.campaign import run_campaign
from repro.core.interventions import BiosDeterminismChange, InterventionSchedule
from repro.experiments.common import (
    FIG23_CHANGE_S,
    FIG23_DURATION_S,
    baseline_operating_state,
    figure_campaign_config,
)
from repro.units import SECONDS_PER_DAY
from speed import CLOCK
from tracing import NullTracer, Tracer

REQUIRED = (
    "workload.generate",
    "scheduler.rigid_run",
    "scheduler.resolve",
    "telemetry.meter",
    "analysis.detect",
    "analysis.impact",
)

#: The tier-1 F2 saving tolerance, also applied to the blind detector's shift.
SAVING_BAND = (0.04, 0.10)


@dataclass(frozen=True)
class Inputs:
    configs: tuple
    change_s: float


def build_inputs(seed: int, seconds: float, workdir) -> Inputs:
    """The F2 campaign configurations for the campaign seeds of ``seed``."""
    schedule = InterventionSchedule(
        baseline_operating_state(), [BiosDeterminismChange(time_s=FIG23_CHANGE_S)]
    )
    configs = tuple(
        figure_campaign_config(FIG23_DURATION_S, schedule, s) for s in sub_seeds(seed)
    )
    return Inputs(configs, FIG23_CHANGE_S)


def instrument(tracer: Tracer) -> None:
    """Wrap the entry points the F2 path goes through."""
    from repro.core import campaign
    from repro.core.interventions import ScheduledEnvironment
    from repro.scheduler.backfill import BackfillScheduler
    from repro.telemetry.meters import PowerMeter
    from repro.telemetry.recorder import CabinetPowerRecorder
    from repro.workload.generator import JobStreamGenerator

    tracer.patch_span(JobStreamGenerator, "generate_until", "workload.generate")
    tracer.patch_span(BackfillScheduler, "run", "scheduler.rigid_run")
    tracer.patch_count(ScheduledEnvironment, "resolve", "scheduler.resolve")
    tracer.patch_span(PowerMeter, "sample_function", "telemetry.meter")
    tracer.patch_span(CabinetPowerRecorder, "true_power_w", "telemetry.meter")
    tracer.patch_span(campaign, "assess_impact", "analysis.impact")


def run(inputs: Inputs, budget_s: float, tracer: Tracer | NullTracer) -> Measurement:
    """Reproduce F2 for ``budget_s``, cycling through the campaign seeds;
    check every reproduction."""
    if tracer.enabled:
        instrument(tracer)
    out = Measurement()
    jobs: list[int] = []
    ref_s: list[float] = []
    wall_s: list[float] = []
    checksums: dict[int, set[str]] = {}
    first: dict[str, float] = {}

    def once(i: int) -> None:
        k = i % len(inputs.configs)
        resolves_before = tracer.calls("scheduler.resolve")
        t0 = time.perf_counter()
        result = run_campaign(inputs.configs[k])
        impact = result.impacts()[0]
        with tracer.span("analysis.detect"):
            detected = detect_single_streaming(result.measured_kw)
        t1 = time.perf_counter()

        sim = result.simulation
        measured = result.measured_kw
        exact = detect_single(measured)
        jobs.append(sim.n_jobs)
        ref_s.append(CLOCK.reference_s(t0, t1))
        wall_s.append(t1 - t0)
        if i == 0:
            first.update(
                jobs=sim.n_jobs,
                samples=len(measured),
                resolves=tracer.calls("scheduler.resolve") - resolves_before,
                detect_error_days=abs(detected.time_s - inputs.change_s) / SECONDS_PER_DAY,
            )
        checksum = digest(
            measured.times_s.tobytes(),
            measured.values.tobytes(),
            sim.trace.times_s.tobytes(),
            sim.trace.busy_power_w.tobytes(),
            repr((impact.mean_before, impact.mean_after, detected.time_s)),
        )
        checksums.setdefault(k, set()).add(checksum)
        if i == 0:
            out.checksum = checksum
        out.check(
            f"F2 reproduction {i} (campaign seed {k})",
            {
                "relative saving in 4-10 %": SAVING_BAND[0] < impact.relative_saving < SAVING_BAND[1],
                "streaming detection is the exact split": detected.index == exact.index
                and detected.time_s == exact.time_s
                and abs(detected.mean_before - exact.mean_before) <= 1e-9 * abs(exact.mean_before)
                and abs(detected.mean_after - exact.mean_after) <= 1e-9 * abs(exact.mean_after),
                "detected shift is a 4-10 % drop": SAVING_BAND[0] < -detected.relative_change < SAVING_BAND[1],
                "job conservation": sim.n_jobs
                == sim.n_completed + sim.faults.n_failed_terminal + sim.n_running_at_end + sim.n_unstarted,
                "simulation reconciles": sim.reconciles(),
                "same output every reproduction of a seed": len(checksums[k]) == 1,
            },
        )

    n = repeat_for(budget_s, once)
    # Every pass runs the first seed, so the trace overhead compares its runs.
    out.work_s = median(ref_s[:: len(inputs.configs)])
    out.throughput = sum(jobs) / sum(ref_s)
    out.raw_throughput = sum(jobs) / sum(wall_s)
    out.named["jobs_per_s"] = (out.throughput, "1/s")
    # Counts from the first campaign seed, which every pass reproduces.
    out.layer["workload.jobs"] = float(first["jobs"])
    out.layer["telemetry.samples"] = float(first["samples"])
    out.layer["analysis.detect_error_days"] = first["detect_error_days"]
    if tracer.enabled:
        out.layer.update(
            {
                "workload.generate_s": tracer.total("workload.generate") / n,
                "scheduler.rigid_run_s": tracer.total("scheduler.rigid_run") / n,
                "scheduler.resolve_calls": float(first["resolves"]),
                "telemetry.meter_s": tracer.total("telemetry.meter") / n,
                "analysis.detect_s": tracer.total("analysis.detect") / n,
                "analysis.impact_s": tracer.total("analysis.impact") / n,
            }
        )
    return out
