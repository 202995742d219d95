"""Unit tests for the sharded control plane (repro.controlplane).

Covers the tentpole invariants: topology placement arithmetic, the
counter-based traffic source's location independence, the range
collection kernel against the per-agent ``flow_columns`` →
``from_columns`` oracle, hierarchical-vs-flat bit-identity (global and
per-tenant), dedup violations, and per-tenant KL trigger independence.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import (
    ControlPlaneConfig,
    DedupViolation,
    HierarchicalAggregator,
    RangeCollector,
    ShardTopology,
    TenantProfile,
    TenantTriggerBank,
    TrafficConfig,
    TrafficShift,
    flat_global_fsd,
    fsd_digest,
)
from repro.controlplane.aggregate import (
    _ordered_sum,
    flat_agent_fsds,
    flat_tenant_fsds,
)
from repro.controlplane.shards import shard_columns
from repro.controlplane.traffic import flow_columns
from repro.monitor.fsd import FlowSizeDistribution, merge_distributions


def small_topology(**overrides):
    kwargs = dict(
        n_shards=4, agents_per_shard=16, agents_per_rack=8,
        racks_per_pod=2, n_tenants=2,
    )
    kwargs.update(overrides)
    return ShardTopology(**kwargs)


def collect_rows(topo, traffic, interval, cuts=()):
    """Per-agent ``(hist, elephant, mice)`` rows, collected range by range.

    ``cuts`` splits the fabric into contiguous agent ranges, one
    collector each; ``()`` is the whole fabric in one pass.
    """
    edges = [0, *cuts, topo.n_agents]
    batches = [
        batch
        for lo, hi in zip(edges, edges[1:])
        for batch in RangeCollector(topo, traffic, lo, hi).collect(interval)
    ]
    return tuple(
        np.concatenate([getattr(batch, lane) for batch in batches])
        for lane in ("hist", "elephant", "mice")
    )


#: Range splits of the 64-agent fabric: shard-aligned, rack-straddling,
#: and single-agent ranges at either end.
SPLITS = [(16, 32, 48), (5, 23, 41), (1,), (63,), tuple(range(1, 64))]


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


class TestTopology:
    def test_tier_sizes(self):
        topo = small_topology()
        assert topo.n_agents == 64
        assert topo.n_racks == 8
        assert topo.n_pods == 4

    def test_shard_bounds_partition_agents(self):
        topo = small_topology()
        covered = []
        for shard in range(topo.n_shards):
            lo, hi = topo.shard_bounds(shard)
            covered.extend(range(lo, hi))
        assert covered == list(range(topo.n_agents))

    def test_rack_and_pod_assignment_contiguous(self):
        topo = small_topology()
        assert topo.rack_of(0) == 0
        assert topo.rack_of(7) == 0
        assert topo.rack_of(8) == 1
        assert topo.pod_of_rack(0) == 0
        assert topo.pod_of_rack(1) == 0
        assert topo.pod_of_rack(2) == 1

    def test_reduceat_starts(self):
        topo = small_topology()
        assert topo.rack_starts().tolist() == [0, 8, 16, 24, 32, 40, 48, 56]
        assert topo.pod_starts().tolist() == [0, 2, 4, 6]

    def test_tenant_partition_is_disjoint_and_complete(self):
        topo = small_topology()
        seen = np.concatenate(
            [topo.tenant_agent_index(t) for t in range(topo.n_tenants)]
        )
        assert sorted(seen.tolist()) == list(range(topo.n_agents))
        # Tenancy is per rack, strided round-robin.
        for agent in range(topo.n_agents):
            assert topo.tenant_of_agent(agent) == (
                (agent // topo.agents_per_rack) % topo.n_tenants
            )

    def test_partial_rack_rejected(self):
        with pytest.raises(ValueError):
            small_topology(agents_per_shard=15)

    def test_partial_pod_rejected(self):
        with pytest.raises(ValueError):
            small_topology(n_shards=3, agents_per_shard=8, racks_per_pod=2)


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


class TestTraffic:
    def test_columns_location_independent(self):
        """Agent rows are identical whether generated alone or in a block."""
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=16)
        lo, hi = topo.shard_bounds(1)
        agent_ids = np.arange(lo, hi, dtype=np.int64)
        tenants = np.array(
            [topo.tenant_of_agent(int(a)) for a in agent_ids], dtype=np.int64
        )
        block = flow_columns(traffic, agent_ids, tenants, interval=0)
        per = traffic.flows_per_agent
        for i, agent in enumerate(agent_ids):
            solo = flow_columns(
                traffic,
                np.array([agent], dtype=np.int64),
                tenants[i : i + 1],
                interval=0,
            )
            sl = slice(i * per, (i + 1) * per)
            for whole, part in zip(block, solo):
                np.testing.assert_array_equal(whole[sl], part)
        # The collection kernel: one pass over the fabric vs any split.
        whole = collect_rows(topo, traffic, interval=0)
        for cuts in SPLITS:
            for a, b in zip(whole, collect_rows(topo, traffic, 0, cuts)):
                np.testing.assert_array_equal(a, b)

    def test_flow_ids_disjoint_across_agents(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        ids = []
        for shard in range(topo.n_shards):
            flow_ids, _, _ = shard_columns(topo, traffic, shard, interval=0)
            ids.append(flow_ids)
        all_ids = np.concatenate(ids)
        assert len(np.unique(all_ids)) == all_ids.size

    def test_unshifted_tenant_reproduces_exactly(self):
        """Without a shift, every interval's columns are byte-identical."""
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        first = shard_columns(topo, traffic, 0, interval=0)
        later = shard_columns(topo, traffic, 0, interval=5)
        for a, b in zip(first, later):
            np.testing.assert_array_equal(a, b)
        collector = RangeCollector(topo, traffic, 3, 29)
        for a, b in zip(collector.collect(0), collector.collect(5)):
            np.testing.assert_array_equal(a.hist, b.hist)
            np.testing.assert_array_equal(a.elephant, b.elephant)
            np.testing.assert_array_equal(a.mice, b.mice)

    def test_shift_applies_from_its_interval_on(self):
        shifted = TenantProfile(elephant_fraction=0.5, pe_fraction=0.1)
        traffic = TrafficConfig(
            shifts=(TrafficShift(tenant=0, interval=3, profile=shifted),)
        )
        assert traffic.profile_at(0, 2) == traffic.profiles[0]
        assert traffic.profile_at(0, 3) == shifted
        assert traffic.profile_at(0, 9) == shifted
        # Other tenants are untouched.
        assert traffic.profile_at(1, 9) == traffic.profiles[1]

    def test_shift_changes_only_the_shifted_tenant_rows(self):
        topo = small_topology()
        shifted = TenantProfile(elephant_fraction=0.45, pe_fraction=0.05)
        base = TrafficConfig(flows_per_agent=32)
        with_shift = replace(
            base, shifts=(TrafficShift(tenant=0, interval=1, profile=shifted),)
        )
        per = base.flows_per_agent
        for shard in range(topo.n_shards):
            lo, hi = topo.shard_bounds(shard)
            before = shard_columns(topo, base, shard, interval=1)
            after = shard_columns(topo, with_shift, shard, interval=1)
            for i in range(hi - lo):
                sl = slice(i * per, (i + 1) * per)
                same = all(
                    np.array_equal(a[sl], b[sl])
                    for a, b in zip(before, after)
                )
                if topo.tenant_of_agent(lo + i) == 0:
                    continue  # shifted tenant rows may (and do) change
                assert same, f"unshifted agent {lo + i} changed"


# ---------------------------------------------------------------------------
# Hierarchical aggregation
# ---------------------------------------------------------------------------


def run_hierarchical(topo, traffic, interval):
    agg = HierarchicalAggregator(topo)
    agg.begin_interval(interval)
    for batch in RangeCollector(topo, traffic).collect(interval):
        agg.ingest(batch)
    return agg.aggregate()


class TestHierarchicalAggregation:
    def test_global_fsd_bit_identical_to_flat_merge(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        for interval in (0, 1):
            result = run_hierarchical(topo, traffic, interval)
            flat = flat_global_fsd(topo, traffic, interval)
            assert result.digest == fsd_digest(flat)
            assert result.global_fsd.elephant_weight == flat.elephant_weight
            assert result.global_fsd.mice_weight == flat.mice_weight
            assert result.global_fsd.histogram == flat.histogram

    def test_tenant_fsds_bit_identical_to_flat_merge(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        result = run_hierarchical(topo, traffic, 0)
        flat = flat_tenant_fsds(topo, traffic, 0)
        for tenant in range(topo.n_tenants):
            assert fsd_digest(result.tenant_fsds[tenant]) == fsd_digest(
                flat[tenant]
            )

    def test_tier_mass_conservation(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        result = run_hierarchical(topo, traffic, 0)
        expected = topo.n_agents * traffic.flows_per_agent
        assert result.tracked_flows == expected
        assert int(sum(result.global_fsd.histogram)) == expected
        assert int(result.rack_hist.sum()) == expected
        assert int(result.pod_hist.sum()) == expected

    def test_duplicate_shard_report_raises(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        batch = RangeCollector(topo, traffic).collect(0)[0]
        agg.ingest(batch)
        with pytest.raises(DedupViolation):
            agg.ingest(batch)

    def test_overlapping_flow_id_ranges_raise(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        for batch in RangeCollector(topo, traffic).collect(0):
            if batch.shard_id == 1:
                # Forge shard 1's claimed range into shard 0's: the
                # TOS-dedup analogue of two switches tagging one flow.
                batch = replace(batch, flow_id_lo=1, flow_id_hi=2)
            agg.ingest(batch)
        with pytest.raises(DedupViolation):
            agg.aggregate()

    def test_missing_shard_rejected(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        agg.ingest(RangeCollector(topo, traffic).collect(0)[0])
        with pytest.raises(ValueError, match="missing"):
            agg.aggregate()

    def test_partial_range_batches_aggregate_like_whole_shards(self):
        """Ranges that cut through shards still pass dedup, same digest."""
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        for lo, hi in ((0, 5), (5, 41), (41, 64)):
            for batch in RangeCollector(topo, traffic, lo, hi).collect(0):
                agg.ingest(batch)
        assert agg.aggregate().digest == run_hierarchical(topo, traffic, 0).digest

    def test_weight_lanes_sum_left_to_right(self):
        """The global weight is merge_distributions' sum, not a better one.

        A PE-heavy lane is all fractions, so the summation order shows:
        the exactly rounded sum (``math.fsum``; builtin ``sum`` is
        compensated from CPython 3.12) differs from the left-to-right
        add the flat merge performs, and the digest pins the latter.
        """
        topo = small_topology()
        traffic = TrafficConfig(
            flows_per_agent=64, profiles=(TenantProfile(0.02, 0.90),)
        )
        _, elephant, mice = collect_rows(topo, traffic, 0)
        flat = merge_distributions(flat_agent_fsds(topo, traffic, 0))
        assert _ordered_sum(elephant) == flat.elephant_weight
        assert _ordered_sum(mice) == flat.mice_weight
        assert _ordered_sum(elephant) != math.fsum(elephant)


# ---------------------------------------------------------------------------
# The range collection kernel against the per-agent oracle
# ---------------------------------------------------------------------------


@st.composite
def profiles(draw):
    elephant = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]) | st.floats(0.0, 1.0))
    return TenantProfile(elephant, draw(st.floats(0.0, 1.0)) * (1.0 - elephant))


class TestRangeCollector:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_from_columns_on_each_agents_slice(self, data):
        """Kernel row == from_columns(flow_columns slice), bit for bit."""
        per = data.draw(st.sampled_from([1, 7, 64, 127, 128, 129, 300]))
        n_tenants = data.draw(st.integers(1, 3))
        # 30 agents: shards of 10, racks of 3, pods of 5 racks — no
        # boundary of one tier lines up with another's.
        topo = ShardTopology(
            n_shards=3, agents_per_shard=10, agents_per_rack=3,
            racks_per_pod=5, n_tenants=n_tenants,
        )
        lo = data.draw(st.integers(0, topo.n_agents - 1))
        hi = data.draw(st.integers(lo + 1, topo.n_agents))
        traffic = TrafficConfig(
            seed=data.draw(st.integers(0, 2**63 - 1)),
            flows_per_agent=per,
            tau=data.draw(st.sampled_from([4096, 100_000, 1_000_000])),
            profiles=tuple(data.draw(st.lists(profiles(), min_size=1, max_size=3))),
            shifts=tuple(
                TrafficShift(
                    tenant=data.draw(st.integers(0, n_tenants - 1)),
                    interval=data.draw(st.integers(1, 6)),
                    profile=data.draw(profiles()),
                )
                for _ in range(data.draw(st.integers(0, 3)))
            ),
        )
        collector = RangeCollector(topo, traffic, lo, hi)
        agent_ids = np.arange(lo, hi, dtype=np.int64)
        tenants = np.array(
            [topo.tenant_of_agent(int(a)) for a in agent_ids], dtype=np.int64
        )
        for interval in data.draw(
            st.lists(st.integers(0, 8), min_size=1, max_size=3)
        ):
            ids, cum, codes = flow_columns(traffic, agent_ids, tenants, interval)
            batches = collector.collect(interval)
            # The batches tile the range, one per shard it touches.
            assert batches[0].agent_lo == lo and batches[-1].agent_hi == hi
            for batch, following in zip(batches, batches[1:]):
                assert batch.agent_hi == following.agent_lo
            for batch in batches:
                shard_lo, shard_hi = topo.shard_bounds(batch.shard_id)
                assert shard_lo <= batch.agent_lo < batch.agent_hi <= shard_hi
                rows = slice((batch.agent_lo - lo) * per, (batch.agent_hi - lo) * per)
                assert batch.flow_id_lo == ids[rows].min()
                assert batch.flow_id_hi == ids[rows].max() + 1
                assert batch.tracked.tolist() == [per] * batch.n_agents
                for i in range(batch.n_agents):
                    sl = slice(rows.start + i * per, rows.start + (i + 1) * per)
                    fsd = FlowSizeDistribution.from_columns(
                        ids[sl], cum[sl], codes[sl], tau=traffic.tau
                    )
                    assert batch.elephant[i] == fsd.elephant_weight
                    assert batch.mice[i] == fsd.mice_weight
                    assert tuple(batch.hist[i].tolist()) == fsd.histogram

    def test_range_outside_the_fabric_rejected(self):
        topo = small_topology()
        for lo, hi in ((-1, 4), (4, 4), (9, 3), (0, topo.n_agents + 1)):
            with pytest.raises(ValueError):
                RangeCollector(topo, TrafficConfig(), lo, hi)


# ---------------------------------------------------------------------------
# Per-tenant KL triggers
# ---------------------------------------------------------------------------


class TestTenantTriggers:
    def shifted_traffic(self, tenant, interval):
        return TrafficConfig(
            flows_per_agent=64,
            shifts=(
                TrafficShift(
                    tenant=tenant,
                    interval=interval,
                    profile=TenantProfile(
                        elephant_fraction=0.40, pe_fraction=0.10
                    ),
                ),
            ),
        )

    def test_shift_fires_only_the_shifted_tenant(self):
        topo = small_topology()
        traffic = self.shifted_traffic(tenant=0, interval=2)
        bank = TenantTriggerBank(topo.n_tenants, theta=0.01)
        fired_by_interval = {}
        for interval in range(4):
            result = run_hierarchical(topo, traffic, interval)
            fired_by_interval[interval] = bank.observe(
                interval, result.tenant_fsds
            )
        assert fired_by_interval[0] == []   # no previous FSD yet
        assert fired_by_interval[1] == []   # steady state, KL exactly 0
        assert [t.tenant for t in fired_by_interval[2]] == [0]
        assert fired_by_interval[2][0].kl > 0.01
        assert fired_by_interval[3] == []   # shifted profile is steady now

    def test_independent_shifts_fire_independently(self):
        """Two tenants shifting at different intervals: no cross-fire."""
        topo = small_topology()
        traffic = TrafficConfig(
            flows_per_agent=64,
            shifts=(
                TrafficShift(
                    tenant=0, interval=1,
                    profile=TenantProfile(0.40, 0.10),
                ),
                TrafficShift(
                    tenant=1, interval=3,
                    profile=TenantProfile(0.35, 0.05),
                ),
            ),
        )
        bank = TenantTriggerBank(topo.n_tenants, theta=0.01)
        fired = {}
        for interval in range(5):
            result = run_hierarchical(topo, traffic, interval)
            fired[interval] = [
                t.tenant for t in bank.observe(interval, result.tenant_fsds)
            ]
        assert fired == {0: [], 1: [0], 2: [], 3: [1], 4: []}

    def test_unshifted_tenant_kl_is_exactly_zero(self):
        """The counter-based source makes steady-state KL exactly 0.0."""
        from repro.monitor.fsd import kl_divergence

        topo = small_topology()
        traffic = self.shifted_traffic(tenant=0, interval=2)
        previous = None
        for interval in range(4):
            result = run_hierarchical(topo, traffic, interval)
            if previous is not None:
                assert (
                    kl_divergence(result.tenant_fsds[1], previous) == 0.0
                )
            previous = result.tenant_fsds[1]

    def test_first_interval_never_fires(self):
        topo = small_topology()
        traffic = self.shifted_traffic(tenant=0, interval=0)
        bank = TenantTriggerBank(topo.n_tenants)
        result = run_hierarchical(topo, traffic, 0)
        assert bank.observe(0, result.tenant_fsds) == []

    def test_wrong_tenant_count_rejected(self):
        bank = TenantTriggerBank(2)
        topo = small_topology()
        traffic = TrafficConfig()
        result = run_hierarchical(topo, traffic, 0)
        with pytest.raises(ValueError):
            bank.observe(0, result.tenant_fsds[:1])

    @pytest.mark.parametrize(
        "tenant, interval",
        [(2, 2), (-1, 2), (0, 0), (0, -1), (0, 6), (0, 9)],
    )
    def test_shift_that_can_never_fire_rejected(self, tenant, interval):
        """Tenant outside the fabric, or interval outside [1, intervals):
        the day would silently run without the shift it was asked for."""
        traffic = self.shifted_traffic(tenant=tenant, interval=interval)
        with pytest.raises(ValueError, match="shift"):
            ControlPlaneConfig(
                topology=small_topology(), traffic=traffic, intervals=6
            )

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -0.01])
    def test_theta_no_trigger_can_cross_rejected(self, theta):
        """``kl > nan`` and ``kl > inf`` are never true: a bank (or a
        day) with such a theta could never fire."""
        with pytest.raises(ValueError, match="theta"):
            TenantTriggerBank(2, theta=theta)
        with pytest.raises(ValueError, match="theta"):
            ControlPlaneConfig(topology=small_topology(), theta=theta)
