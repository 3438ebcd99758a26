"""``ExecutionEnvironment.state_index``: the token ``resolve`` depends on.

The contract is that ``resolve(job, t)`` depends on ``t`` only through
``state_index(t)``. The rigid scheduler probes a waiting backfill
candidate's runtime once per token, so a token that stays equal across a
real state change would leave a stale runtime in a backfill decision.
"""

import pytest

from repro.core.interventions import (
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
)
from repro.grid.events import GridStressEvent
from repro.node.calibration import build_node_model
from repro.node.pstates import FrequencySetting
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.demand_response import DemandResponseEnvironment
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.scheduler.malleable import CarbonAwareEnvironment
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job

#: The environment changes state here: an intervention, or an event's end.
EDGE_S = 5000.0


@pytest.fixture(scope="module")
def node_model():
    return build_node_model()


def all_jobs() -> list[Job]:
    """One job per catalogue app, with and without a user override."""
    return [
        Job(
            job_id=i,
            app=app,
            n_nodes=4,
            submit_time_s=0.0,
            reference_runtime_s=3600.0,
            frequency_override=override,
        )
        for i, (app, override) in enumerate(
            (app, override)
            for app in full_catalogue().values()
            for override in (None, FrequencySetting.GHZ_2_25_TURBO)
        )
    ]


def resolves_alike(env, t1: float, t2: float) -> bool:
    return all(env.resolve(j, t1) == env.resolve(j, t2) for j in all_jobs())


def scheduled(node_model) -> ScheduledEnvironment:
    """2.0 GHz default until ``EDGE_S``, 2.25 GHz+turbo after."""
    schedule = InterventionSchedule(
        OperatingState(policy=FrequencyPolicy(default_setting=FrequencySetting.GHZ_2_0)),
        [DefaultFrequencyChange(time_s=EDGE_S, to_setting=FrequencySetting.GHZ_2_25_TURBO)],
    )
    return ScheduledEnvironment(node_model=node_model, schedule=schedule)


def stress_window(inner, start_s: float = 0.0) -> DemandResponseEnvironment:
    """A stress window from ``start_s`` lasting ``EDGE_S`` (default: 0 to the edge)."""
    event = GridStressEvent(
        start_s=start_s, duration_s=EDGE_S, severity=1.0, requested_reduction_kw=100.0
    )
    return DemandResponseEnvironment(inner=inner, events=[event])


class TestStateIndex:
    def test_static_is_one_state(self, node_model):
        env = StaticEnvironment(node_model=node_model)
        assert env.state_index(0.0) == env.state_index(1e9) == 0
        assert resolves_alike(env, 0.0, 1e9)

    def test_scheduled_changes_at_intervention(self, node_model):
        env = scheduled(node_model)
        assert env.state_index(0.0) == env.state_index(EDGE_S - 1.0)
        assert resolves_alike(env, 0.0, EDGE_S - 1.0)
        assert env.state_index(EDGE_S) == env.state_index(1e9)
        assert resolves_alike(env, EDGE_S, 1e9)
        assert env.state_index(EDGE_S - 1.0) != env.state_index(EDGE_S)
        assert not resolves_alike(env, EDGE_S - 1.0, EDGE_S)

    def test_demand_response_changes_at_event_edges(self, node_model):
        env = stress_window(StaticEnvironment(node_model=node_model))
        assert env.state_index(0.0) == env.state_index(EDGE_S - 1.0)
        assert resolves_alike(env, 0.0, EDGE_S - 1.0)
        assert env.state_index(EDGE_S) == env.state_index(1e9)
        assert resolves_alike(env, EDGE_S, 1e9)
        assert env.state_index(EDGE_S - 1.0) != env.state_index(EDGE_S)
        assert not resolves_alike(env, EDGE_S - 1.0, EDGE_S)
        hash(env.state_index(0.0))

    def test_demand_response_carries_inner_state(self, node_model):
        # The intervention lands outside any event: only the inner token moves.
        env = stress_window(scheduled(node_model), start_s=2 * EDGE_S)
        assert env.state_index(EDGE_S - 1.0) != env.state_index(EDGE_S)
        assert not resolves_alike(env, EDGE_S - 1.0, EDGE_S)

    def test_carbon_aware_delegates(self, node_model):
        inner = StaticEnvironment(node_model=node_model)
        env = CarbonAwareEnvironment(inner=inner)
        assert env.state_index(123.0) == inner.state_index(123.0)
        assert resolves_alike(env, 0.0, 1e9)


@pytest.mark.parametrize("kind", ["scheduled", "demand_response"])
def test_backfill_reprobes_after_state_change(node_model, kind):
    """A candidate too slow to backfill before the edge starts right after it.

    Job 0 holds 12 of 16 nodes until t = 100,000 s and the head (job 1)
    needs all 16, so the shadow time is 100,000 s with no spare nodes.
    Job 2 (CP2K, 4 nodes) is probed at t = 2 s in the slow state, where it
    would overrun the shadow. Job 3's arrival at t = 6,000 s triggers a pass
    in the fast state, where job 2 ends at 98,000 s and backfills — but only
    if its runtime is probed afresh for the new state.
    """
    if kind == "scheduled":
        env = scheduled(node_model)
    else:
        env = stress_window(StaticEnvironment(node_model=node_model))
    catalogue = full_catalogue()
    jobs = [
        Job(0, catalogue["GROMACS 1400k"], 12, 0.0, 100_000.0,
            frequency_override=FrequencySetting.GHZ_2_25_TURBO),
        Job(1, catalogue["GROMACS 1400k"], 16, 1.0, 1000.0),
        Job(2, catalogue["CP2K H2O 2048"], 4, 2.0, 92_000.0),
        Job(3, catalogue["GROMACS 1400k"], 16, 6000.0, 1000.0),
    ]
    assert env.resolve(jobs[0], 0.0).runtime_s == 100_000.0
    assert 2.0 + env.resolve(jobs[2], 2.0).runtime_s > 100_000.0
    result = BackfillScheduler(16).run(jobs, 300_000.0, env)
    starts = {r.job.job_id: r.start_time_s for r in result.records}
    assert starts[2] == 6000.0
    assert starts[1] == 100_000.0
