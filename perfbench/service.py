"""``service``: an eight-tenant request mix against one facility service.

One ``FacilityService`` over a temporary ``cache_dir`` with ``repro
serve``'s default admission settings, driven in-process (no sockets) by a
seeded open-loop Poisson schedule from 8 tenants: 40 % emissions, 25 %
classify_regime, 10 % advise, 5 % efficiency and 20 % sweep. Sweep grids
are drawn Zipf-like from 64 distinct grids, more than the 8-entry memory
LRU holds, so memory hits, disk-store hits and cold evaluations all occur;
bursts of identical sweeps exercise coalescing. This is the only workload
that runs admission, coalescing, in-loop evaluation, the engine caches and
serialisation.

Each open-loop request is timed from when it was due to when its wire
bytes exist, so a stall that delays later requests is counted against
them. A run spends 30 % of its time at the base rate (100 req/s), 15 % at
the peak rate (200 req/s), 40 % measuring capacity and 15 % bisecting a
fixed rate ladder for ``max_rps``, the highest rung that serves every
request with p99 at most 50 ms and no growing backlog. The p99 of under a
thousand requests moves by tens of percent from seed to seed at these
rates, and ``max_rps`` with it, so the gated throughput is the capacity:
requests served per second with one closed-loop client per tenant. The
default admission limits (50 req/s per tenant) would cap that at about
400 req/s, so capacity is measured through a second front end over the
same core, and so the same caches, with the limits lifted; the latencies
and ``max_rps`` are reported.
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import Measurement, digest, median, percentile
from repro.engine.runner import run_sweep
from repro.service import AdmissionController, FacilityCore, FacilityService
from repro.service.envelope import ServiceRequest, ServiceResponse
from repro.service.router import ServiceRouter
from speed import CLOCK
from tracing import NullTracer, Tracer

REQUIRED = ("service.handle", "service.dispatch", "engine.sweep", "service.serialise")

N_TENANTS = 8
MIX = (
    ("emissions", 0.40),
    ("classify_regime", 0.25),
    ("advise", 0.10),
    ("efficiency", 0.05),
    ("sweep", 0.20),
)
METHODS = tuple(method for method, _ in MIX)
N_GRIDS = 64
ZIPF_EXPONENT = 1.1
BURST_EVERY_S = 2.5
BURST_SIZE = 6
BASE_RPS = 100.0
PEAK_RPS = 200.0
#: Share of a pass spent in each phase.
BASE_SHARE, PEAK_SHARE, CAPACITY_SHARE, LADDER_SHARE = 0.3, 0.15, 0.4, 0.15
#: Rungs 2**(1/9) (8 %) apart, so 100 and 200 req/s are rungs 9 and 18.
LADDER = tuple(50.0 * 2.0 ** (k / 9.0) for k in range(46))
BASE_RUNG = 9
PEAK_RUNG = 18
LADDER_PROBES = 3
P99_LIMIT_MS = 50.0
#: Shedding codes: a ladder rung may draw them under the default admission
#: limits; such a request is missed, not wrong.
ADMISSION_CODES = ("rate-limited", "overloaded")
EMISSIONS_NODES = (1024, 2048, 4096, 5860)
EMISSIONS_UTILISATION = (0.7, 0.8, 0.9)
GRID_CI = (25.0, 65.0, 190.0, 450.0)
REGIME_CI = (10.0, 25.0, 30.0, 55.0, 99.0, 100.0, 190.0, 450.0)
EFFICIENCY_APPS = (None, "CASTEP Al Slab", "GROMACS 1400k", "VASP TiO2")


@dataclass(frozen=True)
class Inputs:
    seed: int
    base: list
    peak: list
    capacity: list
    workdir: Path


def _grid(index: int) -> dict:
    """Sweep params of grid ``index``: 96 scenarios in three chunks."""
    a, b = index % 8, index // 8
    return {
        "overrides": {
            "utilisations": [round(0.60 + 0.04 * a, 2), 0.95],
            "node_counts": [512 * (b + 1), 5860],
        },
        "chunk_size": 32,
    }


def _params(method: str, rng: np.random.Generator, zipf: np.ndarray) -> dict:
    if method == "emissions":
        return {
            "n_nodes": int(rng.choice(EMISSIONS_NODES)),
            "utilisation": float(rng.choice(EMISSIONS_UTILISATION)),
            "ci_g_per_kwh": float(rng.choice(GRID_CI)),
        }
    if method == "classify_regime":
        return {"at_ci_g_per_kwh": float(rng.choice(REGIME_CI))}
    if method == "advise":
        return {"ci_g_per_kwh": float(rng.choice(GRID_CI))}
    if method == "efficiency":
        app = EFFICIENCY_APPS[int(rng.integers(len(EFFICIENCY_APPS)))]
        return {} if app is None else {"app_name": app}
    return _grid(int(rng.choice(N_GRIDS, p=zipf)))


def schedule(seed: int, phase: int, rate: float, duration_s: float) -> list:
    """Seeded ``(offset_s, ServiceRequest)`` arrivals for one phase.

    Poisson arrivals at ``rate`` draw method, tenant and params from the
    mix; every ``BURST_EVERY_S`` a burst of identical sweeps from different
    tenants arrives at once.
    """
    rng = np.random.default_rng([seed, phase])
    zipf = 1.0 / np.arange(1, N_GRIDS + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()
    weights = np.array([w for _, w in MIX])
    arrivals = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration_s:
        method = METHODS[int(rng.choice(len(METHODS), p=weights))]
        tenant = f"tenant-{int(rng.integers(N_TENANTS))}"
        arrivals.append((t, ServiceRequest(method, _params(method, rng, zipf), tenant)))
        t += float(rng.exponential(1.0 / rate))
    for k in range(1, math.ceil(duration_s / BURST_EVERY_S)):
        params = _params("sweep", rng, zipf)
        first = int(rng.integers(N_TENANTS))
        arrivals.extend(
            (k * BURST_EVERY_S, ServiceRequest("sweep", params, f"tenant-{(first + j) % N_TENANTS}"))
            for j in range(BURST_SIZE)
        )
    arrivals.sort(key=lambda item: item[0])
    return arrivals


def build_inputs(seed: int, seconds: float, workdir: Path) -> Inputs:
    """The base- and peak-rate schedules and the capacity requests."""
    return Inputs(
        seed,
        schedule(seed, 0, BASE_RPS, BASE_SHARE * seconds),
        schedule(seed, 1, PEAK_RPS, PEAK_SHARE * seconds),
        # More requests than one loop can serve in its share of the run.
        [request for _, request in schedule(seed, 2, 600.0, CAPACITY_SHARE * seconds)],
        workdir,
    )


@dataclass
class Phase:
    """One phase: the requests issued, their latency and outcome."""

    requests: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    outstanding: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    start_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def p99_ms(self) -> float:
        return 1e3 * percentile(self.latencies_s, 99)

    def served_all(self) -> bool:
        return all(ok for ok, _, _, _ in self.responses)

    def backlog_grew(self) -> bool:
        third = max(1, len(self.outstanding) // 3)
        first = sum(self.outstanding[:third]) / third
        last = sum(self.outstanding[-third:]) / third
        return last > 2.0 * first + 2.0

    def sustained(self) -> bool:
        """The rung test: all served, p99 within the limit, no growing backlog."""
        return self.served_all() and self.p99_ms <= P99_LIMIT_MS and not self.backlog_grew()


class _Driver:
    """Runs phases against one service and keeps what the tracer needs."""

    def __init__(self, inputs: Inputs, tracer: Tracer | NullTracer) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.metas: list = []
        self.due: dict[int, float] = {}
        self.method: dict[int, str] = {}
        self.req_of_request: dict[int, int] = {}
        #: Requests numbered below this were sent by the base and peak phases.
        self.open_loop_reqs = 0
        runner = run_sweep
        if tracer.enabled:
            runner = self._timed_sweep
            tracer.patch_span(ServiceRouter, "dispatch", "service.dispatch", req_of=self._req_of)
        # A fresh store per pass: every pass starts with a cold cache.
        cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=inputs.workdir)
        core = FacilityCore(cache_dir=cache_dir, runner=runner)
        self.service = FacilityService(core=core, admission=AdmissionController())
        self.unlimited = FacilityService(
            core=core, admission=AdmissionController(rate_per_s=1e9, burst=1e9)
        )

    def _timed_sweep(self, spec, **kwargs):
        with self.tracer.span("engine.sweep"):
            result = run_sweep(spec, **kwargs)
        self.metas.append(result.meta)
        return result

    def _req_of(self, router, request) -> int | None:
        return self.req_of_request.get(id(request))

    async def _answer(
        self, phase: Phase, request: ServiceRequest, due: float, service: FacilityService
    ) -> None:
        """Send one request and record its latency from ``due``."""
        req = len(self.due)
        self.due[req] = due
        self.method[req] = request.method
        self.req_of_request[id(request)] = req
        phase.requests.append(request)
        response = await service.handle(request)
        with self.tracer.span("service.serialise", req):
            wire = response.wire_json()
        end = time.perf_counter()
        self.tracer.record("service.handle", due, end, req)
        del self.req_of_request[id(request)]
        code = None if response.ok else response.error["code"]
        phase.latencies_s.append(end - due)
        # A digest, not the bytes: keeping every payload would inflate the
        # process's peak memory with the benchmark's own bookkeeping.
        phase.responses.append((response.ok, code, response.request_key, digest(wire)))

    async def open_loop(self, arrivals: list) -> Phase:
        """Send each request when it is due, whatever the service is doing."""
        phase = Phase()
        loop = asyncio.get_running_loop()
        tasks = []
        start = time.perf_counter() + 0.005
        for offset_s, request in arrivals:
            due = start + offset_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_s.append(max(0.0, time.perf_counter() - due))
            phase.outstanding.append(len(tasks) - len(phase.responses))
            tasks.append(loop.create_task(self._answer(phase, request, due, self.service)))
        await asyncio.gather(*tasks)
        phase.elapsed_s = time.perf_counter() - start
        return phase

    async def closed_loop(self, requests: list, duration_s: float) -> Phase:
        """One client per tenant, each sending its next request on a reply."""
        pending = iter(requests)
        start = time.perf_counter()
        phase = Phase(start_s=start)
        stop = start + duration_s

        async def client() -> None:
            for request in pending:
                if time.perf_counter() >= stop:
                    return
                await self._answer(phase, request, time.perf_counter(), self.unlimited)

        await asyncio.gather(*(client() for _ in range(N_TENANTS)))
        phase.elapsed_s = time.perf_counter() - start
        return phase

    async def ladder(self, probe_s: float, lo: int, hi: int) -> tuple[int, list[Phase]]:
        """Bisect the rungs between ``lo`` (passed) and ``hi`` (missed).

        Returns the highest rung that passed, or -1.
        """
        probes = []
        for _ in range(LADDER_PROBES):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            arrivals = schedule(self.inputs.seed, 3 + mid, LADDER[mid], probe_s)
            probe = await self.open_loop(arrivals)
            probes.append(probe)
            if probe.sustained():
                lo = mid
            else:
                hi = mid
        return lo, probes


def _reference(requests: dict[str, ServiceRequest]) -> dict[str, str]:
    """Digest of the wire bytes of a direct ``ServiceRouter(FacilityCore()).dispatch``
    per request key."""
    router = ServiceRouter(FacilityCore())
    return {
        key: digest(ServiceResponse.success(router.dispatch(request), request_key=key).wire_json())
        for key, request in requests.items()
    }


def run(inputs: Inputs, budget_s: float, tracer: Tracer | NullTracer) -> Measurement:
    """Base rate, peak rate, capacity, then the ladder; check every answer."""
    out = Measurement()
    driver = _Driver(inputs, tracer)
    # A shorter pass (the traced run halves the budget) cuts the same
    # schedules to length.
    base_arrivals = [a for a in inputs.base if a[0] < BASE_SHARE * budget_s]
    peak_arrivals = [a for a in inputs.peak if a[0] < PEAK_SHARE * budget_s]

    async def main():
        cpu0 = time.process_time()
        base = await driver.open_loop(base_arrivals)
        peak = await driver.open_loop(peak_arrivals)
        cpu = time.process_time() - cpu0
        driver.open_loop_reqs = len(driver.due)
        capacity = await driver.closed_loop(inputs.capacity, CAPACITY_SHARE * budget_s)
        if peak.sustained():
            bracket = (PEAK_RUNG, len(LADDER))
        elif base.sustained():
            bracket = (BASE_RUNG, PEAK_RUNG)
        else:
            bracket = (-1, BASE_RUNG)
        top, probes = await driver.ladder(LADDER_SHARE * budget_s / LADDER_PROBES, *bracket)
        return base, peak, capacity, probes, top, cpu

    base, peak, capacity, probes, top, cpu = asyncio.run(main())
    tracer.unpatch()
    ledgers = (driver.service.metrics, driver.unlimited.metrics)

    def total(counter: str) -> float:
        return float(sum(getattr(ledger, counter) for ledger in ledgers))

    # Every answer against the direct router, per distinct request key.
    phases = (
        ("base", base, True),
        ("peak", peak, True),
        ("capacity", capacity, True),
        *(("ladder", probe, False) for probe in probes),
    )
    requests: dict[str, ServiceRequest] = {}
    for _, phase, _ in phases:
        for request in phase.requests:
            requests.setdefault(request.request_key, request)
    reference = _reference(requests)
    for label, phase, must_serve in phases:
        for ok, code, key, payload in phase.responses:
            out.check(
                f"{label} request {key[:12]}",
                {
                    "served": ok or (not must_serve and code in ADMISSION_CODES),
                    "payload equals direct dispatch": not ok or payload == reference[key],
                },
            )
    out.check("service accounting", {"metrics reconcile": all(m.reconciles() for m in ledgers)})

    fixed = base.responses + peak.responses
    out.checksum = digest(*sorted(f"{key}:{payload}" for ok, _, key, payload in fixed if ok))
    out.work_s = cpu
    capacity_served = sum(ok for ok, _, _, _ in capacity.responses)
    out.throughput = capacity_served / CLOCK.reference_s(
        capacity.start_s, capacity.start_s + capacity.elapsed_s
    )
    out.raw_throughput = capacity_served / capacity.elapsed_s
    max_rps = LADDER[top] if top >= 0 else 0.0
    out.named.update(
        {
            "capacity_rps": (out.throughput, "1/s"),
            "p50_ms": (1e3 * median(base.latencies_s), "ms"),
            "p99_ms": (base.p99_ms, "ms"),
            "p99_ms_peak": (peak.p99_ms, "ms"),
            "max_rps": (max_rps, "1/s"),
        }
    )
    served = total("total_served")
    late = base.late_s + peak.late_s
    out.layer.update(
        {
            "service.p50_ms": out.named["p50_ms"][0],
            "service.p99_ms": out.named["p99_ms"][0],
            "service.p99_ms_peak": out.named["p99_ms_peak"][0],
            "service.max_rps": max_rps,
            "service.requests": total("total_requests_in"),
            "service.served": served,
            "service.rejected": total("total_rejected"),
            "service.failed": total("total_failed"),
            "service.coalesced": total("total_coalesced"),
            "service.evaluations": total("total_evaluations"),
            "service.coalesce_ratio": total("total_coalesced") / served,
            "service.generator_late_ms": 1e3 * percentile(late, 99),
            "service.in_flight_peak": float(max(m.in_flight_peak for m in ledgers)),
        }
    )
    if tracer.enabled:
        _trace_layers(out, driver)
    return out


def _trace_layers(out: Measurement, driver: _Driver) -> None:
    tracer = driver.tracer
    by_method: dict[str, list[float]] = {method: [] for method in METHODS}
    queue_ms = []
    for span in tracer.spans:
        name, start, _, _, req = span
        if name == "service.dispatch":
            by_method[driver.method[req]].append(1e3 * tracer.length(span))
            if req < driver.open_loop_reqs:
                queue_ms.append(1e3 * (start - driver.due[req]))
    metas = driver.metas
    disk = sum(m.disk_hits for m in metas)
    computed = sum(m.computed_chunks for m in metas)
    out.layer.update(
        {
            "service.dispatch_s": tracer.total("service.dispatch"),
            "service.serialise_s": tracer.total("service.serialise"),
            "service.queue_ms_p99": percentile(queue_ms, 99),
            "engine.sweep_calls": float(len(metas)),
            "engine.sweep_s": tracer.total("engine.sweep"),
            "engine.computed_chunks": float(computed),
            "engine.memory_hit_ratio": sum(m.memory_hit for m in metas) / len(metas),
            "engine.disk_chunk_hit_ratio": disk / (disk + computed),
        }
    )
    for method, values in by_method.items():
        out.layer[f"service.dispatch_ms.{method}"] = median(values)
