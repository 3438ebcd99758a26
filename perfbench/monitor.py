"""``monitor``: a week of cabinet power through the supervised live pipeline.

About seven synthetic days of cabinet power at an 86 ms cadence (~7M
samples) with 0.2 % NaN dropouts and the paper's -210 kW and -480 kW steps
on days 2 and 5, plus half-hourly carbon intensity. It runs through the
supervised columnar pipeline with a checkpoint every two simulated hours;
a second pass kills the run at day 3.5, calls ``resume_from`` on the
checkpoint file and finishes. Only this workload touches ``repro.live``,
so checkpoint encoding shows here and nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Measurement, digest, median, repeat_for
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.live.events import CI_STREAM, POWER_STREAM, series_batches
from repro.live.monitor import build_monitor
from repro.live.supervisor import SupervisorConfig
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from speed import CLOCK
from tracing import NullTracer, Tracer

REQUIRED = (
    "live.build",
    "live.run",
    "live.snapshot",
    "live.encode",
    "live.load",
    "live.restore",
)

DAYS = 7.0
CADENCE_S = 0.086
LEVEL_KW = 3220.0
NOISE_KW = 32.0
#: (day, step in kW): the paper's BIOS and frequency changes.
STEPS = ((2.0, -210.0), (5.0, -480.0))
DROPOUT = 0.002
BATCH = 8192
CI_BATCH = 2
CHECKPOINT_EVERY_S = 2 * SECONDS_PER_HOUR
KILL_AT_S = 3.5 * SECONDS_PER_DAY
LEVEL_TOLERANCE = 0.01


class Killed(Exception):
    """The simulated hard kill of the monitor process."""


@dataclass(frozen=True)
class Inputs:
    power: TimeSeries
    ci: TimeSeries
    workdir: Path


def true_level_kw(time_s: float) -> float:
    """The level the synthetic power series steps through."""
    level = LEVEL_KW
    for day, step_kw in STEPS:
        if time_s >= day * SECONDS_PER_DAY:
            level += step_kw
    return level


def build_inputs(seed: int, seconds: float, workdir: Path) -> Inputs:
    """The week of power samples and half-hourly CI for ``seed``."""
    rng = np.random.default_rng([seed, 0])
    n = int(DAYS * SECONDS_PER_DAY / CADENCE_S)
    times = np.arange(n) * CADENCE_S
    values = LEVEL_KW + NOISE_KW * rng.standard_normal(n)
    for day, step_kw in STEPS:
        values[times >= day * SECONDS_PER_DAY] += step_kw
    values[rng.random(n) < DROPOUT] = np.nan
    ci = CarbonIntensityModel.from_scenario("balanced").series(
        0.0, DAYS * SECONDS_PER_DAY, 1800.0, np.random.default_rng([seed, 1])
    )
    return Inputs(TimeSeries(times, values, "cabinet-power-kw"), ci, workdir)


def instrument(tracer: Tracer) -> None:
    """Wrap the supervisor's checkpoint, encode, load and restore boundaries."""
    from repro.live import supervisor

    tracer.patch_span(supervisor.SupervisedPipeline, "checkpoint", "live.snapshot")
    tracer.patch_span(supervisor, "save_checkpoint", "live.encode")
    tracer.patch_span(supervisor, "load_checkpoint", "live.load")
    tracer.patch_span(supervisor.SupervisedPipeline, "load_checkpoint_payload", "live.restore")


def _sources(inputs: Inputs, kill_at_s: float | None = None):
    power = series_batches(POWER_STREAM, inputs.power, BATCH)
    if kill_at_s is not None:
        power = _kill_at(power, kill_at_s)
    return power, series_batches(CI_STREAM, inputs.ci, CI_BATCH)


def _kill_at(source, kill_at_s: float):
    for batch in source:
        if batch.t_start_s >= kill_at_s:
            raise Killed(f"killed at t={batch.t_start_s:.0f} s")
        yield batch


def _monitor(tracer: Tracer | NullTracer, checkpoint: Path):
    config = SupervisorConfig(checkpoint_path=checkpoint, checkpoint_every_s=CHECKPOINT_EVERY_S)
    with tracer.span("live.build"):
        return build_monitor(supervisor_config=config, columnar=True)


def _outcome(report, detector, tracker) -> tuple:
    state = report.metrics.state_dict()
    # The resumed side does not count the checkpoint it loaded.
    state.pop("checkpoints_written")
    return (report.alerts, tuple(detector.segments), tuple(tracker.transitions), state)


def run(inputs: Inputs, budget_s: float, tracer: Tracer | NullTracer) -> Measurement:
    """Replay the week uninterrupted for ``budget_s``; the first time, also
    kill and resume it and compare."""
    if tracer.enabled:
        instrument(tracer)
    out = Measurement()
    rates: list[float] = []
    raw_rates: list[float] = []
    costs: list[float] = []
    checksums: set[str] = set()
    last: dict[str, float] = {}
    full_ckpt = inputs.workdir / "monitor-full.ckpt"

    def once(i: int) -> None:
        pipeline, detector, tracker, _ = _monitor(tracer, full_ckpt)
        t0 = time.perf_counter()
        with tracer.span("live.run"):
            report = pipeline.run(*_sources(inputs))
        t1 = time.perf_counter()
        metrics = report.metrics
        ref_s = CLOCK.reference_s(t0, t1)
        costs.append(ref_s)
        rates.append(metrics.total_samples_in / ref_s)
        raw_rates.append(metrics.total_samples_in / (t1 - t0))
        full = _outcome(report, detector, tracker)
        checksum = digest(repr(full))
        checksums.add(checksum)
        out.checksum = checksum
        last.update(
            samples=metrics.total_samples_in,
            checkpoints=metrics.checkpoints_written,
            checkpoint_bytes=full_ckpt.stat().st_size,
            alerts=len(report.alerts),
            dead_lettered=metrics.total_samples_dead_lettered,
            dropped=sum(metrics.samples_dropped.values()),
        )
        out.check(
            f"monitor replay {i}",
            {
                "both steps found": len(detector.segments) >= len(STEPS) + 1,
                "step levels within 1 %": all(
                    abs(s.mean - true_level_kw((s.start_time_s + s.end_time_s) / 2))
                    <= LEVEL_TOLERANCE * true_level_kw((s.start_time_s + s.end_time_s) / 2)
                    for s in detector.segments
                ),
                "reconciles": metrics.reconciles(),
                "nothing dead-lettered": metrics.total_samples_dead_lettered == 0,
                "checkpoints written": metrics.checkpoints_written > 0,
                "same output every replay": len(checksums) == 1,
            },
        )
        if i == 0:
            checks, last["resume_s"] = _kill_and_resume(inputs, full, tracer)
            out.check("monitor kill and resume", checks)

    n = repeat_for(budget_s, once)
    out.work_s = median(costs)
    out.throughput = median(rates)
    out.raw_throughput = median(raw_rates)
    out.named["samples_per_s"] = (out.throughput, "1/s")
    out.named["resume_s"] = (last["resume_s"], "s")
    out.layer.update(
        {
            "live.samples": float(last["samples"]),
            "live.checkpoints": float(last["checkpoints"]),
            "live.checkpoint_bytes": float(last["checkpoint_bytes"]),
            "live.alerts": float(last["alerts"]),
            "live.dead_lettered": float(last["dead_lettered"]),
            "live.dropped": float(last["dropped"]),
            "live.resume_s": last["resume_s"],
        }
    )
    if tracer.enabled:
        out.layer.update(
            {
                "live.run_s": tracer.total("live.run") / n,
                "live.ingest_self_s": tracer.self_time("live.run") / n,
                "live.snapshot_s": tracer.total("live.snapshot", under="live.run") / n,
                "live.encode_s": tracer.total("live.encode", under="live.run") / n,
                "live.load_s": tracer.total("live.load"),
                "live.restore_s": tracer.total("live.restore"),
            }
        )
    return out


def _kill_and_resume(inputs: Inputs, full: tuple, tracer: Tracer | NullTracer) -> tuple[dict, float]:
    """Kill a replay at day 3.5, resume it from its last checkpoint, compare.

    Returns the checks against the uninterrupted outcome ``full`` and the
    time from checkpoint on disk to a resumed pipeline.
    """
    checkpoint = inputs.workdir / "monitor-killed.ckpt"
    victim, _, _, _ = _monitor(tracer, checkpoint)
    killed = False
    try:
        with tracer.span("live.run_killed"):
            victim.run(*_sources(inputs, KILL_AT_S))
    except Killed:
        killed = True
    del victim
    t0 = time.perf_counter()
    with tracer.span("live.resume"):
        resumed, detector, tracker, _ = _monitor(tracer, checkpoint)
        resumed.resume_from(checkpoint)
    resume_s = CLOCK.reference_s(t0, time.perf_counter())
    with tracer.span("live.run_resumed"):
        report = resumed.run(*_sources(inputs))
    checks = {
        "killed before the end": killed,
        "resumed alerts, segments and metrics identical": _outcome(report, detector, tracker) == full,
        "resumed run reconciles": report.metrics.reconciles(),
    }
    return checks, resume_s
