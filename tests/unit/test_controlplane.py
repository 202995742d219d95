"""Unit tests for the sharded control plane (repro.controlplane).

Covers the tentpole invariants: topology placement arithmetic, the
counter-based traffic source's location independence, the range
collection kernel against the per-agent ``flow_columns`` →
``from_columns`` oracle, hierarchical-vs-flat bit-identity (global and
per-tenant, over drawn topologies and collector ranges), the array
weight fold against ``ordered_sum``, dedup violations, and per-tenant
KL trigger independence.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    flat_agent_fsds,
    flat_tenant_fsds,
    ordered_row_sums,
)
from repro.controlplane.shards import shard_columns
from repro.controlplane.traffic import flow_columns
from repro.monitor.fsd import FlowSizeDistribution, merge_distributions
from repro.monitor.states import CODE_ELEPHANT, CODE_MICE, CODE_PE
from repro.simulator.ordered import ordered_sum


def small_topology(**overrides):
    kwargs = dict(
        n_shards=4, agents_per_shard=16, agents_per_rack=8,
        racks_per_pod=2, n_tenants=2,
    )
    kwargs.update(overrides)
    return ShardTopology(**kwargs)


def collect_batches(topo, traffic, interval, cuts=()):
    """One batch per contiguous agent range; ``cuts`` splits the fabric.

    ``()`` is the whole fabric in one collector.
    """
    edges = [0, *cuts, topo.n_agents]
    return [
        RangeCollector(topo, traffic, lo, hi).collect(interval)
        for lo, hi in zip(edges, edges[1:])
    ]


def collect_rows(topo, traffic, interval, cuts=()):
    """Per-agent ``(hist, elephant, mice)`` rows, collected range by range."""
    batches = collect_batches(topo, traffic, interval, cuts)
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

    def test_tenant_without_a_rack_rejected(self):
        """One rack, two tenants: tenant 1 would own no agent, and a
        day that shifts its traffic would run without a trigger."""
        with pytest.raises(ValueError, match="n_tenants 2 exceeds the 1 racks"):
            ShardTopology(
                n_shards=1, agents_per_shard=16, agents_per_rack=16,
                racks_per_pod=1, n_tenants=2,
            )
        topo = small_topology(n_tenants=8)  # one rack each still works
        assert [topo.tenant_agent_index(t).size for t in range(8)] == [8] * 8


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", 0),
            ("tau", -5),
            ("tau", 145),        # mice would reach 72 B, PE flows start at 72
            ("tau", 1_000_000.0),
            ("tau", True),
            ("flows_per_agent", 0),
            ("flows_per_agent", -3),
            ("flows_per_agent", 2.0),
            ("profiles", ()),
        ],
    )
    def test_bad_config_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrafficConfig(**{field: value})

    def test_smallest_tau_keeps_the_size_classes_ordered(self):
        traffic = TrafficConfig(
            tau=146, flows_per_agent=2000, profiles=(TenantProfile(0.3, 0.3),)
        )
        _, cum, codes = flow_columns(
            traffic, np.array([0]), np.array([0]), interval=0
        )
        mice, pe, elephant = (
            cum[codes == code] for code in (CODE_MICE, CODE_PE, CODE_ELEPHANT)
        )
        assert mice.max() < pe.min() <= pe.max() < traffic.tau <= elephant.min()

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
        a, b = collector.collect(0), collector.collect(5)
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


def run_hierarchical(topo, traffic, interval, cuts=()):
    agg = HierarchicalAggregator(topo)
    agg.begin_interval(interval)
    for batch in collect_batches(topo, traffic, interval, cuts):
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
        batch = RangeCollector(topo, traffic, 0, 16).collect(0)
        agg.ingest(batch)
        with pytest.raises(DedupViolation, match="reported twice"):
            agg.ingest(batch)
        # A second collector over agents already reported: the same.
        with pytest.raises(DedupViolation, match="reported twice"):
            agg.ingest(RangeCollector(topo, traffic, 10, 20).collect(0))

    def test_overlapping_flow_id_ranges_raise(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        batch = RangeCollector(topo, traffic).collect(0)
        # Forge shard 1's claimed range into shard 0's: the TOS-dedup
        # analogue of two switches tagging one flow.
        forged_lo, forged_hi = batch.flow_id_lo.copy(), batch.flow_id_hi.copy()
        forged_lo[1], forged_hi[1] = 1, 2
        agg.ingest(replace(batch, flow_id_lo=forged_lo, flow_id_hi=forged_hi))
        with pytest.raises(DedupViolation, match=r"shards 1 and 0 overlap: \[1, 2\)"):
            agg.aggregate()

    def test_missing_shard_rejected(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        agg.ingest(RangeCollector(topo, traffic, 0, 16).collect(0))
        with pytest.raises(ValueError, match="48 agents missing"):
            agg.aggregate()

    def test_claims_that_do_not_tile_the_batch_raise(self):
        """A batch's shard claims must cover exactly its agents."""
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        batch = RangeCollector(topo, traffic, 5, 41).collect(0)
        gap = batch.shard_agent_lo.copy()
        gap[1] += 1
        for forged in (
            replace(batch, shard_agent_lo=gap),
            replace(batch, agent_hi=40, hist=batch.hist[:-1]),
            replace(batch, shard_agent_lo=batch.shard_agent_lo[:0]),
        ):
            agg = HierarchicalAggregator(topo)
            agg.begin_interval(0)
            with pytest.raises(DedupViolation, match="do not tile"):
                agg.ingest(forged)

    def test_batch_from_another_interval_rejected(self):
        topo = small_topology()
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(1)
        with pytest.raises(ValueError, match="interval 0 != current 1"):
            agg.ingest(RangeCollector(topo, TrafficConfig()).collect(0))

    def test_mass_that_is_not_conserved_raises(self):
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=8)
        batch = RangeCollector(topo, traffic).collect(0)
        agg = HierarchicalAggregator(topo)
        agg.begin_interval(0)
        agg.ingest(replace(batch, tracked=batch.tracked + 1))
        with pytest.raises(DedupViolation, match="histogram mass"):
            agg.aggregate()

    def test_partial_range_batches_aggregate_like_whole_shards(self):
        """Ranges that cut through shards still pass dedup, same digest."""
        topo = small_topology()
        traffic = TrafficConfig(flows_per_agent=32)
        assert (
            run_hierarchical(topo, traffic, 0, cuts=(5, 41)).digest
            == run_hierarchical(topo, traffic, 0).digest
        )

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
        assert ordered_sum(elephant.tolist()) == flat.elephant_weight
        assert ordered_sum(mice.tolist()) == flat.mice_weight
        assert ordered_sum(elephant.tolist()) != math.fsum(elephant)


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
            batch = collector.collect(interval)
            assert (batch.interval, batch.agent_lo, batch.agent_hi) == (interval, lo, hi)
            assert batch.tracked.tolist() == [per] * batch.n_agents
            # The claims tile the range, one per shard it touches.
            starts, ends = batch.shard_agent_lo, batch.shard_agent_hi
            assert starts[0] == lo and ends[-1] == hi
            assert starts[1:].tolist() == ends[:-1].tolist()
            for shard, a, b, f_lo, f_hi in zip(
                batch.shard_ids, starts, ends, batch.flow_id_lo, batch.flow_id_hi
            ):
                shard_lo, shard_hi = topo.shard_bounds(int(shard))
                assert shard_lo <= a < b <= shard_hi
                rows = slice((a - lo) * per, (b - lo) * per)
                assert f_lo == ids[rows].min()
                assert f_hi == ids[rows].max() + 1
            for i in range(batch.n_agents):
                sl = slice(i * per, (i + 1) * per)
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
# The one-pass interval: array fold, hierarchical ≡ flat, dedup checks
# ---------------------------------------------------------------------------


def bits(values):
    """Exact bytes of float64 values, so ``-0.0`` and ``+0.0`` differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


#: Floats spread over 40 decades, so large and small terms meet and the
#: summation order shows in the rounding.
mixed_floats = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0),
    st.integers(-20, 20),
    st.sampled_from([-1.0, 1.0]),
)
fold_terms = mixed_floats | st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300)


class TestOrderedRowSums:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(fold_terms, max_size=70))
    @example(values=[0.1] * 10)
    @example(values=[1e16, 1.0, -1e16, 1.0] * 4)
    @example(values=[])
    @example(values=[-0.0])
    @example(values=[-0.0] * 9)
    @example(values=[0.0] * 9)
    def test_one_row_equals_ordered_sum_bit_for_bit(self, values):
        assert bits(ordered_row_sums(values)) == bits(ordered_sum(values))
        # Padding at the end with +0.0 never changes a fold from +0.0.
        padded = values + [0.0] * 5
        assert bits(ordered_row_sums(padded)) == bits(ordered_sum(values))

    def test_the_examples_tell_pairwise_from_left_to_right(self):
        """np.sum (pairwise) and math.fsum (what builtin sum rounds
        like from 3.12) both differ from the left fold on the examples."""
        for values in ([0.1] * 10, [1e16, 1.0, -1e16, 1.0] * 4):
            assert np.sum(values) != ordered_sum(values)
        assert math.fsum([0.1] * 10) != ordered_sum([0.1] * 10)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(0, 40).flatmap(
            lambda width: st.lists(
                st.lists(fold_terms, min_size=width, max_size=width),
                max_size=6,
            ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), width))
        )
    )
    def test_row_folds_equal_ordered_sum_per_row(self, rows):
        assert ordered_row_sums(rows).shape == (rows.shape[0],)
        assert bits(ordered_row_sums(rows)) == bits(
            [ordered_sum(row.tolist()) for row in rows]
        )


@st.composite
def fabrics(draw):
    """A small fabric, a traffic mix and cuts into collector ranges.

    Rack, pod and shard boundaries are drawn independently, so the
    number of racks is often not a multiple of the number of tenants.
    """
    n_tenants = draw(st.integers(1, 3))
    agents_per_rack = draw(st.integers(1, 4))
    racks_per_pod = draw(st.integers(1, 3))
    n_pods = draw(st.integers(-(-n_tenants // racks_per_pod), 4))
    n_agents = n_pods * racks_per_pod * agents_per_rack
    n_shards = draw(st.sampled_from(
        [d for d in range(1, n_agents + 1) if n_agents % d == 0]
    ))
    topo = ShardTopology(
        n_shards=n_shards, agents_per_shard=n_agents // n_shards,
        agents_per_rack=agents_per_rack, racks_per_pod=racks_per_pod,
        n_tenants=n_tenants,
    )
    traffic = TrafficConfig(
        seed=draw(st.integers(0, 2**32)),
        flows_per_agent=draw(st.integers(1, 24)),
        tau=draw(st.sampled_from([4096, 100_000])),
        profiles=tuple(draw(st.lists(profiles(), min_size=1, max_size=3))),
    )
    cuts = draw(st.sets(st.integers(1, n_agents - 1), max_size=4)) if n_agents > 1 else set()
    return topo, traffic, tuple(sorted(cuts))


def assert_hierarchical_equals_flat(topo, traffic, cuts, interval=0):
    result = run_hierarchical(topo, traffic, interval, cuts)
    flat = flat_global_fsd(topo, traffic, interval)
    assert bits([result.global_fsd.elephant_weight, result.global_fsd.mice_weight]) == bits(
        [flat.elephant_weight, flat.mice_weight]
    )
    assert result.global_fsd.histogram == flat.histogram
    assert result.digest == fsd_digest(flat)
    flat_tenants = flat_tenant_fsds(topo, traffic, interval)
    assert len(result.tenant_fsds) == topo.n_tenants
    for tenant, fsd in enumerate(result.tenant_fsds):
        assert bits([fsd.elephant_weight, fsd.mice_weight]) == bits(
            [flat_tenants[tenant].elephant_weight, flat_tenants[tenant].mice_weight]
        )
        assert fsd.histogram == flat_tenants[tenant].histogram


class TestOnePassInterval:
    @settings(max_examples=60, deadline=None)
    @given(fabric=fabrics())
    def test_hierarchical_equals_flat_on_drawn_fabrics(self, fabric):
        assert_hierarchical_equals_flat(*fabric)

    @pytest.mark.parametrize(
        "n_tenants, cuts", [(2, ()), (3, ()), (2, (7, 11)), (3, (1, 19))]
    )
    def test_racks_not_a_multiple_of_the_tenants(self, n_tenants, cuts):
        """Five racks over two or three tenants: unequal tenant groups,
        padded at the end of the fold."""
        topo = ShardTopology(
            n_shards=5, agents_per_shard=4, agents_per_rack=4,
            racks_per_pod=5, n_tenants=n_tenants,
        )
        traffic = TrafficConfig(
            flows_per_agent=16, tau=4096, profiles=(TenantProfile(0.02, 0.9),)
        )
        assert_hierarchical_equals_flat(topo, traffic, cuts)

    @settings(max_examples=40, deadline=None)
    @given(fabric=fabrics(), data=st.data())
    def test_duplicate_missing_and_forged_batches_raise(self, fabric, data):
        topo, traffic, cuts = fabric
        batches = collect_batches(topo, traffic, 0, cuts)

        def aggregate(batches):
            agg = HierarchicalAggregator(topo)
            agg.begin_interval(0)
            for batch in batches:
                agg.ingest(batch)
            return agg.aggregate()

        aggregate(batches)  # the honest interval passes every check
        pick = data.draw(st.integers(0, len(batches) - 1))
        with pytest.raises(DedupViolation, match="reported twice"):
            aggregate(batches + [batches[pick]])
        if len(batches) > 1:
            with pytest.raises(ValueError, match="missing"):
                aggregate(batches[:pick] + batches[pick + 1 :])
        claims = [(b, c) for b in range(len(batches)) for c in range(batches[b].shard_ids.size)]
        if len(claims) > 1:
            (owner, i), (forger, j) = data.draw(
                st.lists(st.sampled_from(claims), min_size=2, max_size=2, unique=True)
            )
            # The forger claims the owner's first flow id as well.
            stolen = batches[owner].flow_id_lo[i]
            lo, hi = batches[forger].flow_id_lo.copy(), batches[forger].flow_id_hi.copy()
            lo[j], hi[j] = stolen, stolen + 1
            forged = list(batches)
            forged[forger] = replace(batches[forger], flow_id_lo=lo, flow_id_hi=hi)
            with pytest.raises(DedupViolation, match="overlap"):
                aggregate(forged)


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
