"""Day-in-the-life integration tests for the sharded control plane.

A mid-run traffic shift must flow end-to-end: collection →
hierarchical aggregation → the shifted tenant's KL trigger →
a multiplexed SA retune → dispatched parameter updates — and the whole
run must reproduce digest for digest.
"""

from __future__ import annotations

import random

import pytest

from repro.controlplane import (
    ControlPlaneConfig,
    MultiplexedTuner,
    ShardTopology,
    TenantProfile,
    TrafficConfig,
    TrafficShift,
    run_day_in_the_life,
)
from repro.monitor.fsd import FlowSizeDistribution
from repro.parallel import ScenarioSpec, SweepExecutor, batched_anneal
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.parameters import default_space


SHIFT_INTERVAL = 2


def small_config() -> ControlPlaneConfig:
    """2 shards x 16 agents, tenant 0 shifts at interval 2."""
    topology = ShardTopology(
        n_shards=2, agents_per_shard=16, agents_per_rack=8,
        racks_per_pod=2, n_tenants=2,
    )
    traffic = TrafficConfig(
        flows_per_agent=64,
        shifts=(
            TrafficShift(
                tenant=0,
                interval=SHIFT_INTERVAL,
                profile=TenantProfile(
                    elephant_fraction=0.40, pe_fraction=0.10
                ),
            ),
        ),
    )
    return ControlPlaneConfig(
        topology=topology,
        traffic=traffic,
        intervals=5,
        scenario=ScenarioSpec(
            workload="alltoall", duration=0.02, n_workers=4,
            stop_on_completion=True,
        ),
        batch_size=2,
        schedule=AnnealingSchedule(
            initial_temp=90.0, final_temp=50.0,
            cooling_rate=0.6, iterations_per_temp=2,
        ),
    )


def executor() -> SweepExecutor:
    return SweepExecutor(jobs=1, cache=None, strategy="inline")


@pytest.fixture(scope="module")
def day():
    """One inline day-in-the-life run shared by the read-only tests."""
    return run_day_in_the_life(small_config(), executor())


class TestDayInTheLife:
    def test_shift_fires_exactly_one_trigger(self, day):
        triggers = [t for o in day.outcomes for t in o.triggers]
        assert len(triggers) == 1
        assert triggers[0].tenant == 0
        assert triggers[0].interval == SHIFT_INTERVAL
        assert triggers[0].kl > 0.01

    def test_trigger_produces_one_retune_for_that_tenant(self, day):
        assert len(day.retunes) == 1
        retune = day.retunes[0]
        assert retune.tenant == 0
        assert retune.trigger_interval == SHIFT_INTERVAL
        assert retune.finished_interval >= SHIFT_INTERVAL
        assert retune.evaluations > 1
        retune.params.validate()

    def test_param_updates_dispatched_to_the_tenant_only(self, day):
        """Update bytes = tenant-0 agents x one ParamUpdate frame."""
        topo = day.config.topology
        assert day.param_update_bytes > 0
        tenant_agents = topo.tenant_agent_index(0).size
        assert day.param_update_bytes % tenant_agents == 0

    def test_tier_bytes_accounted_every_interval(self, day):
        topo = day.config.topology
        for outcome in day.outcomes:
            agent_rack, rack_pod, pod_global = outcome.tier_bytes
            assert agent_rack > rack_pod > pod_global > 0
            assert agent_rack % topo.n_agents == 0
            assert rack_pod % topo.n_racks == 0
            assert pod_global % topo.n_pods == 0
        assert day.agent_rack_bytes == sum(
            o.tier_bytes[0] for o in day.outcomes
        )

    def test_interval_digests_stable_until_the_shift(self, day):
        """The counter-based source repeats exactly until the shift."""
        digests = [o.digest for o in day.outcomes]
        assert digests[0] == digests[1]
        assert digests[SHIFT_INTERVAL] != digests[0]
        assert digests[SHIFT_INTERVAL] == digests[-1]

    def test_retuned_parameters_digest_stable(self, day):
        """A rerun with a fresh service reproduces every decision."""
        again = run_day_in_the_life(small_config(), executor())
        assert again.result_digest() == day.result_digest()
        assert (
            again.retunes[0].params.as_dict()
            == day.retunes[0].params.as_dict()
        )
        assert again.retunes[0].utility == day.retunes[0].utility

    def test_snapshot_is_json_safe_and_complete(self, day):
        import json

        snap = day.to_snapshot()
        json.dumps(snap)
        assert snap["agents"] == 32
        assert snap["intervals"] == 5
        assert snap["triggers"][0]["tenant"] == 0
        assert snap["retunes"][0]["tenant"] == 0
        assert snap["per_switch_report_bytes"] > 0
        assert snap["digest"] == day.result_digest()


def test_concurrent_retunes_match_batched_anneal():
    """Two tenants triggered in one interval share one union map per
    interval, and each ends exactly where ``batched_anneal`` ends on
    that tenant's scenario, RNG and bias."""
    schedule = AnnealingSchedule(
        initial_temp=90.0, final_temp=50.0,
        cooling_rate=0.6, iterations_per_temp=2,
    )
    # Hadoop, not the day's all-to-all: every all-to-all candidate
    # scores the same utility, so a walk there never leaves its start
    # and cannot tell one tenant's feedback from another's.
    scenario = ScenarioSpec(workload="hadoop", duration=0.01)
    fsds = {
        0: FlowSizeDistribution(elephant_weight=3.0, mice_weight=1.0),
        1: FlowSizeDistribution(elephant_weight=1.0, mice_weight=9.0),
    }
    shared = executor()
    map_sizes = []
    inner_map = shared.map

    def counting_map(tasks):
        map_sizes.append(len(tasks))
        return inner_map(tasks)

    shared.map = counting_map
    tuner = MultiplexedTuner(
        scenario, executor=shared, batch_size=3, schedule=schedule
    )
    for tenant, fsd in fsds.items():
        assert tuner.trigger(tenant, 0, fsd)
    interval = 0
    while tuner.active_tenants:
        tuner.step(interval)
        interval += 1
    # One seed map per trigger, then one union map per interval.
    assert map_sizes == [1, 1, 6, 6]

    retunes = {r.tenant: r for r in tuner.finished}
    assert sorted(retunes) == [0, 1]
    assert retunes[0].utility != retunes[1].utility
    for tenant, fsd in fsds.items():
        alone = batched_anneal(
            tuner.tenant_scenario(tenant),
            ImprovedAnnealer(
                default_space(),
                schedule,
                rng=random.Random(tuner.rng_seed + tenant),
            ),
            tuner.initial_params,
            batch_size=3,
            executor=executor(),
            tp_bias=fsd.dominant(),
        )
        retune = retunes[tenant]
        assert (alone.evaluations, alone.batches) == (7, 2)
        assert retune.params.as_dict() == alone.best_params.as_dict()
        assert retune.utility == alone.best_utility
        assert (retune.evaluations, retune.batches) == (
            alone.evaluations,
            alone.batches,
        )
