"""Golden digests for the rigid EASY-backfill kernel.

Each case pins the SHA-256 of a small run's job records, power-trace arrays
and fault accounting, so any change to the kernel's decisions — start order,
backfill choices, reservation tie-breaks, kill victims — shows up as a
digest mismatch rather than as a drift in some downstream mean.

The three runs cover the ways the environment can change under a waiting
queue: an intervention that lands while the queue is blocked, seeded node
failures that kill and requeue jobs, and demand-response stress windows
whose edges fall between backfill decisions for the same candidates.

The rigid scheduler runs on the checkpointable kernel (a scheduler with no
forecast), so the faulted run must also survive kill/resume at several cuts
with its digest unchanged, and a checkpoint interval in its fault config
must change nothing: rigid jobs restart from zero.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.interventions import (
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
)
from repro.facility.failures import FailureModel, FaultConfig
from repro.grid.events import GridStressEvent
from repro.node.calibration import build_node_model
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.demand_response import DemandResponseEnvironment
from repro.scheduler.malleable import MalleableScheduler
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix

N_NODES = 64
T_END = 8 * SECONDS_PER_DAY
CHANGE_S = 4 * SECONDS_PER_DAY
FAULTS = FaultConfig(model=FailureModel(mtbf_hours=150.0, mttr_hours=6.0), seed=7)
RESUME_CUTS = (100, 500, 1000)

#: Digests of the three runs below. An optimisation of the kernel must
#: leave every one unchanged; a digest moves only with a deliberate change
#: to scheduling behaviour, which must say so.
GOLDEN = {
    "scheduled": "d455689019af404d151d2533c28fee839e58f1057a83b4c6cb6777ac3dc994d7",
    "faulted": "ae1914a5141e22b89da2359b1463ba236ea57e1800ed202b2a5b324b9ed3c505",
    "demand_response": "0f75d42b690652635332b98254fc474fed661b196201c9ef69ac3cb11ef7170b",
}


def result_digest(result) -> str:
    """SHA-256 over every output of a rigid run, floats bit-exact."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            (
                f"{r.job.job_id}|{r.start_time_s.hex()}|{r.end_time_s.hex()}|"
                f"{r.setting.name}|{r.effective_ghz.hex()}|"
                f"{r.node_power_w.hex()}|{r.interrupted}\n"
            ).encode()
        )
    trace = result.trace
    for array in (trace.times_s, trace.busy_power_w, trace.busy_nodes):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(result.faults).encode())
    h.update(
        repr(
            (result.n_jobs, result.n_completed, result.n_running_at_end, result.n_unstarted)
        ).encode()
    )
    return h.hexdigest()


def waited_across(result, edge_s: float) -> int:
    """Records of jobs submitted before ``edge_s`` that started after it."""
    return sum(
        1
        for r in result.records
        if r.job.submit_time_s < edge_s < r.start_time_s
    )


@pytest.fixture(scope="module")
def node_model():
    return build_node_model()


def make_jobs(seed: int, offered_load: float, mean_runtime_s: float):
    config = JobStreamConfig(
        n_facility_nodes=N_NODES,
        offered_load=offered_load,
        mean_runtime_s=mean_runtime_s,
        max_job_nodes=N_NODES // 2,
        user_override_fraction=0.2,
    )
    gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(seed))
    return gen.generate_until(T_END - SECONDS_PER_DAY)


@pytest.fixture(scope="module")
def scheduled_run(node_model):
    schedule = InterventionSchedule(
        OperatingState(), [DefaultFrequencyChange(time_s=CHANGE_S)]
    )
    env = ScheduledEnvironment(node_model=node_model, schedule=schedule)
    jobs = make_jobs(seed=3, offered_load=3.0, mean_runtime_s=SECONDS_PER_HOUR)
    return BackfillScheduler(N_NODES, backfill_depth=20).run(jobs, T_END, env)


@pytest.fixture(scope="module")
def faulted_jobs():
    return make_jobs(seed=11, offered_load=2.5, mean_runtime_s=2 * SECONDS_PER_HOUR)


@pytest.fixture(scope="module")
def faulted_run(node_model, faulted_jobs):
    env = StaticEnvironment(node_model=node_model)
    return BackfillScheduler(N_NODES, fault_config=FAULTS).run(faulted_jobs, T_END, env)


@pytest.fixture(scope="module")
def stress_events():
    # A three-hour stress window every half day.
    return [
        GridStressEvent(
            start_s=day * SECONDS_PER_DAY + offset_h * SECONDS_PER_HOUR,
            duration_s=3 * SECONDS_PER_HOUR,
            severity=1.0,
            requested_reduction_kw=100.0,
        )
        for day in range(8)
        for offset_h in (7.0, 17.5)
    ]


@pytest.fixture(scope="module")
def demand_response_run(node_model, stress_events):
    env = DemandResponseEnvironment(
        inner=StaticEnvironment(node_model=node_model), events=stress_events
    )
    jobs = make_jobs(seed=5, offered_load=3.0, mean_runtime_s=SECONDS_PER_HOUR)
    return BackfillScheduler(N_NODES, backfill_depth=30).run(jobs, T_END, env)


class TestGoldenDigests:
    def test_scheduled_queue_blocked_across_intervention(self, scheduled_run):
        assert waited_across(scheduled_run, CHANGE_S) > 0
        assert result_digest(scheduled_run) == GOLDEN["scheduled"]

    def test_faulted_trace(self, faulted_run):
        assert faulted_run.faults.n_job_kills > 0
        assert faulted_run.faults.n_retries > 0
        assert result_digest(faulted_run) == GOLDEN["faulted"]

    def test_demand_response_backfill_straddles_event_edges(
        self, demand_response_run, stress_events
    ):
        edges = [e.start_s for e in stress_events] + [e.end_s for e in stress_events]
        assert all(waited_across(demand_response_run, t) > 0 for t in edges)
        assert result_digest(demand_response_run) == GOLDEN["demand_response"]

    def test_runs_reconcile(self, scheduled_run, faulted_run, demand_response_run):
        for result in (scheduled_run, faulted_run, demand_response_run):
            assert result.reconciles()


class TestRigidKernel:
    @pytest.fixture(scope="class")
    def scheduler(self, node_model):
        return MalleableScheduler(
            N_NODES, StaticEnvironment(node_model=node_model), None, fault_config=FAULTS
        )

    def resumed_digest(self, scheduler, jobs, cut: int) -> str:
        sim = scheduler.simulation(jobs, T_END)
        for _ in range(cut):
            assert sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = scheduler.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        while resumed.step():
            pass
        return result_digest(resumed.rigid_result())

    @pytest.mark.parametrize("cut", RESUME_CUTS)
    def test_kill_resume_reproduces_digest(self, scheduler, faulted_jobs, cut):
        assert self.resumed_digest(scheduler, faulted_jobs, cut) == GOLDEN["faulted"]

    def test_resume_after_the_last_start_keeps_start_order(
        self, scheduler, faulted_jobs, faulted_run
    ):
        """The jobs still running at the horizon are reported in start
        order, which a snapshot taken after every start must carry."""
        truncated = [r.job.job_id for r in faulted_run.records if r.end_time_s == T_END]
        assert truncated != sorted(truncated)
        sim = scheduler.simulation(faulted_jobs, T_END)
        n_steps = 0
        while sim.step():
            n_steps += 1
        assert self.resumed_digest(scheduler, faulted_jobs, n_steps) == GOLDEN["faulted"]

    def test_cuts_fall_between_kills(self, scheduler, faulted_jobs, faulted_run):
        """Every cut snapshots live fault state: kills before it, kills after."""
        sim = scheduler.simulation(faulted_jobs, T_END)
        kills = [0]
        for step in range(1, max(RESUME_CUTS) + 1):
            assert sim.step()
            if step in RESUME_CUTS:
                kills.append(sim.state_dict()["n_job_kills"])
        kills.append(faulted_run.faults.n_job_kills)
        assert kills == sorted(set(kills))

    def test_checkpoint_interval_leaves_rigid_jobs_restarting_from_zero(
        self, node_model, faulted_jobs
    ):
        """``compare_rigid_malleable`` (and ``repro sched --ckpt-minutes``)
        hands one fault config to both sides; only the malleable side keeps
        checkpointed progress."""
        faults = replace(FAULTS, checkpoint_interval_s=3600.0)
        env = StaticEnvironment(node_model=node_model)
        result = BackfillScheduler(N_NODES, fault_config=faults).run(
            faulted_jobs, T_END, env
        )
        assert result.faults.n_job_kills > 0
        assert result_digest(result) == GOLDEN["faulted"]
