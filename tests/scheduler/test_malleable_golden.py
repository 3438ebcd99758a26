"""Golden digests for the carbon-aware malleable EASY kernel.

Each case pins the SHA-256 of a small malleable run's records, power-trace
arrays, fault accounting and reshape counters, so any change to the
kernel's decisions — start order, backfill choices, reservation
tie-breaks, reshapes, kill victims — shows up as a digest mismatch rather
than as a drift in some downstream mean.

The runs cover the ways the planning inputs can change under a waiting
backfill window: a carbon-intensity series that keeps crossing both regime
boundaries (30 and 100 gCO2/kWh, so a candidate's frequency setting, and
with it its runtime, changes between passes) with seeded node failures on
top, and a forecast feed whose outages push the scheduler into and out of
degraded mode. Kill/resume at several cuts must reproduce the first
digest, and a hand-built run pins the (end time, job id) reservation
tie-break.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.facility.failures import FailureModel, FaultConfig
from repro.grid.forecast import FeedOutage, ForecastFeed, ForecastIndex
from repro.node import FrequencySetting
from repro.node.calibration import build_node_model
from repro.scheduler.backfill import StaticEnvironment
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.scheduler.malleable import MalleableScheduler
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.applications import full_catalogue
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.jobs import Job
from repro.workload.mix import archer2_mix

N_NODES = 64
T_END = 6 * SECONDS_PER_DAY
#: The CI cycles clean / balanced / dirty in two-hour blocks, so it crosses
#: 30 and 100 gCO2/kWh several times a day.
CI_BLOCK_S = 2 * SECONDS_PER_HOUR
CI_LEVELS = (20.0, 60.0, 140.0, 60.0)
#: Feed outages of five hours, each starting an hour into a clean block, so
#: the feed holds a 20 gCO2/kWh reading past the two-hour staleness
#: threshold: candidates probed at that CI before the scheduler degrades
#: must be re-probed carbon-blind once it does.
OUTAGES = tuple(
    FeedOutage(start_h * SECONDS_PER_HOUR, (start_h + 5) * SECONDS_PER_HOUR)
    for start_h in (9, 33, 57, 81, 105)
)
RESUME_CUTS = (100, 500, 1000)

#: Digests of the runs below, computed before the kernel was optimised. An
#: optimisation must leave every one unchanged; a digest moves only with a
#: deliberate change to scheduling behaviour, which must say so.
GOLDEN = {
    "carbon_faulted": "c7d4beb92138fbd7df92b8bfa01e7901acef8b15eb554a9a2dd180aad9c144be",
    "feed_outages": "a3e331e74d3fde3f8b486efd976a24d49b1d4c8a60933e54fd3062d356c33d28",
}


def result_digest(result) -> str:
    """SHA-256 over every output of a malleable run, floats bit-exact."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            (
                f"{r.job_id}|{r.submit_time_s.hex()}|{r.start_time_s.hex()}|"
                f"{r.end_time_s.hex()}|{r.setting}|{r.effective_ghz.hex()}|"
                f"{r.node_seconds.hex()}|{r.energy_j.hex()}|{r.truncated}|"
                f"{r.interrupted}\n"
            ).encode()
        )
    trace = result.trace
    for array in (trace.times_s, trace.busy_power_w, trace.busy_nodes):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(result.faults).encode())
    h.update(
        repr(
            (
                result.n_jobs,
                result.n_completed,
                result.n_running_at_end,
                result.n_queued_at_end,
                result.n_shifted,
                result.n_shrinks,
                result.n_grows,
            )
        ).encode()
    )
    return h.hexdigest()


def waited_across(result, edge_s: float) -> int:
    """Records of jobs submitted before ``edge_s`` that started after it."""
    return sum(1 for r in result.records if r.submit_time_s < edge_s < r.start_time_s)


def cycling_ci() -> TimeSeries:
    times = np.arange(0.0, 10 * SECONDS_PER_DAY, 1800.0)
    block = (times // CI_BLOCK_S).astype(int) % len(CI_LEVELS)
    return TimeSeries(times, np.asarray(CI_LEVELS)[block], "ci")


def regime_crossings(ci: TimeSeries, boundary: float) -> list[float]:
    """Breakpoints where the CI moves from one side of ``boundary`` to the other."""
    above = ci.values > boundary
    return [float(t) for t, a, b in zip(ci.times_s[1:], above[:-1], above[1:]) if a != b]


@pytest.fixture(scope="module")
def env():
    # With the post-change ARCHER2 default (2.0 GHz), crossing 30 changes
    # most jobs' setting (reset below it, 2.0 GHz above), and crossing 100
    # changes it for the jobs the static rules send back to reset.
    policy = FrequencyPolicy(default_setting=FrequencySetting.GHZ_2_0)
    return StaticEnvironment(node_model=build_node_model(), policy=policy)


@pytest.fixture(scope="module")
def ci():
    return cycling_ci()


@pytest.fixture(scope="module")
def jobs():
    config = JobStreamConfig(
        n_facility_nodes=N_NODES,
        offered_load=2.5,
        mean_runtime_s=SECONDS_PER_HOUR,
        max_job_nodes=N_NODES // 2,
        malleable_fraction=0.5,
        shift_slack_mean_s=2 * SECONDS_PER_HOUR,
    )
    gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(17))
    return gen.generate_until(T_END - SECONDS_PER_DAY)


@pytest.fixture(scope="module")
def faulted_scheduler(env, ci):
    faults = FaultConfig(model=FailureModel(mtbf_hours=150.0, mttr_hours=6.0), seed=9)
    return MalleableScheduler(N_NODES, env, ci, seed=3, fault_config=faults)


@pytest.fixture(scope="module")
def carbon_faulted_run(faulted_scheduler, jobs):
    return faulted_scheduler.run(jobs, T_END)


@pytest.fixture(scope="module")
def feed_outage_run(env, ci, jobs):
    feed = ForecastFeed(ForecastIndex(ci), outages=OUTAGES)
    scheduler = MalleableScheduler(N_NODES, env, ci, seed=4, feed=feed)
    return scheduler.run(jobs, T_END)


class TestGoldenDigests:
    def test_carbon_faulted_run_waits_across_both_boundaries(self, carbon_faulted_run, ci):
        result = carbon_faulted_run
        assert result.faults.n_job_kills > 0
        assert result.faults.n_retries > 0
        assert result.n_shrinks > 0 and result.n_grows > 0
        for boundary in (30.0, 100.0):
            edges = [t for t in regime_crossings(ci, boundary) if t < T_END]
            assert sum(waited_across(result, t) > 0 for t in edges) >= len(edges) // 2
        assert result_digest(result) == GOLDEN["carbon_faulted"]

    def test_feed_outages_degrade_ticks_and_starts(self, feed_outage_run):
        result = feed_outage_run
        assert result.faults.n_degraded_ticks > 0
        assert result.faults.n_degraded_starts > 0
        for outage in OUTAGES:
            assert waited_across(result, outage.t_start_s + 2 * SECONDS_PER_HOUR) > 0
        assert result_digest(result) == GOLDEN["feed_outages"]

    @pytest.mark.parametrize("cut", RESUME_CUTS)
    def test_kill_resume_reproduces_digest(self, faulted_scheduler, jobs, carbon_faulted_run, cut):
        sim = faulted_scheduler.simulation(jobs, T_END)
        for _ in range(cut):
            assert sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = faulted_scheduler.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        assert result_digest(resumed.run_to_completion()) == GOLDEN["carbon_faulted"]

    def test_runs_reconcile(self, carbon_faulted_run, feed_outage_run):
        for result in (carbon_faulted_run, feed_outage_run):
            assert result.reconciles()


def rigid_job(job_id: int, n_nodes: int, submit_s: float, runtime_s: float) -> Job:
    return Job(
        job_id=job_id,
        app=full_catalogue()["VASP CdTe"],
        n_nodes=n_nodes,
        submit_time_s=submit_s,
        reference_runtime_s=runtime_s,
    )


class TestReservationTieBreak:
    def test_equal_end_estimates_release_in_job_id_order(self, env):
        """Jobs 1 and 2 start together with the same runtime, so their end
        estimates tie exactly. The head (job 3) needs 24 of 32 nodes: walking
        the tie as (end, job id) frees 4 + 20 = 24 at the shadow with none to
        spare, so the long 4-node job 4 must wait for the head. Walking it in
        reverse would leave 8 spare and let job 4 backfill at once."""
        times = np.arange(0.0, 2 * SECONDS_PER_DAY, 1800.0)
        flat = TimeSeries(times, np.full(len(times), 60.0), "ci")
        jobs = [
            rigid_job(1, 20, 0.0, SECONDS_PER_HOUR),
            rigid_job(2, 8, 0.0, SECONDS_PER_HOUR),
            rigid_job(3, 24, 10.0, SECONDS_PER_HOUR),
            rigid_job(4, 4, 20.0, 4 * SECONDS_PER_HOUR),
        ]
        result = MalleableScheduler(32, env, flat).run(jobs, SECONDS_PER_DAY)
        by_id = {r.job_id: r for r in result.records}
        assert by_id[1].end_time_s == by_id[2].end_time_s  # lint: exact-float
        assert by_id[3].start_time_s == by_id[1].end_time_s  # lint: exact-float
        assert by_id[4].start_time_s == by_id[1].end_time_s  # lint: exact-float


def fresh_end_order(sim) -> list[tuple[float, int]]:
    """The reservation order recomputed from scratch: (end estimate, job id)."""
    return sorted((sim._end_estimate_s(r), r.job_id) for r in sim._running.values())


class TestEndOrderInvariant:
    def test_kept_order_matches_a_fresh_sort_after_every_step(self, faulted_scheduler, jobs):
        sim = faulted_scheduler.simulation(jobs, T_END)
        reshaped = 0
        while sim.step():
            assert sim._by_end == fresh_end_order(sim)
            reshaped = max(reshaped, sim.n_shrinks + sim.n_grows)
        assert reshaped > 0
        assert sim.result().faults.n_job_kills > 0

    @pytest.mark.parametrize("cut", RESUME_CUTS)
    def test_order_rebuilt_on_load(self, faulted_scheduler, jobs, cut):
        sim = faulted_scheduler.simulation(jobs, T_END)
        for _ in range(cut):
            assert sim.step()
        resumed = faulted_scheduler.simulation(jobs, T_END)
        resumed.load_state_dict(json.loads(json.dumps(sim.state_dict())))
        assert resumed._running
        assert resumed._by_end == fresh_end_order(resumed) == sim._by_end
