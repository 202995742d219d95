"""Batch/scalar equivalence properties for the sketch kernels.

The vectorized monitoring data plane rests on one claim: feeding a
packet stream through ``insert_batch`` (in arbitrary chunkings) leaves
every sketch register bit-identical to feeding it packet-by-packet
through the scalar rule of ``tests/scalar_monitor.py``.  These
properties drive random and adversarial (ostracism-heavy) streams
through both paths and compare full state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.cm import as_int64, insert_stacked, query_stacked, row_seeds
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig, ElasticStack
from repro.sketch.hashing import hash32_mixed, mix_seed, mod32
from repro.telemetry.registry import get_registry
from tests.scalar_monitor import (
    CountMin,
    bucket,
    hash32,
    insert_packets,
    light_bytes,
    query,
    read_heavy,
    read_heavy_arrays,
    registers,
    stored_bytes,
    unattributed_bytes,
)


def elastic_state(sketch: ElasticSketch) -> tuple:
    """Every observable register of an ElasticSketch, as a comparable."""
    return (
        *(column.tolist() for column in registers(sketch)),
        stored_bytes(sketch),
        sketch.evictions,
    )


def chunked(items, sizes):
    """Split ``items`` into chunks of the given sizes (remainder last)."""
    out, i = [], 0
    for size in sizes:
        if i >= len(items):
            break
        out.append(items[i : i + size])
        i += size
    if i < len(items):
        out.append(items[i:])
    return out


# -- hashing ----------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=64),
    seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
def test_hash32_mixed_matches_scalar(keys, seed):
    """The uint32 lanes drop every key and seed bit above 32, which
    the scalar finalizer masks off too."""
    vector = hash32_mixed(np.asarray(keys, dtype=np.int64), mix_seed(np.asarray([seed])))
    scalar = [hash32(k, seed) for k in keys]
    assert vector.tolist() == scalar


@settings(deadline=None, max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**62),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_hash32_mixed_per_key_seeds_match_scalar(pairs):
    """A seed vector hashes key ``i`` under seed ``i``, element-wise
    equal to scalar ``hash32`` (negative seeds wrap the same way)."""
    keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
    seeds = np.asarray([s for _, s in pairs], dtype=np.int64)
    expected = [hash32(k, s) for k, s in pairs]
    assert hash32_mixed(keys, mix_seed(seeds)).tolist() == expected
    masked = np.asarray([s & 0xFFFFFFFF for _, s in pairs], dtype=np.uint64)
    assert hash32_mixed(keys, mix_seed(masked)).tolist() == expected


@settings(deadline=None, max_examples=60)
@given(
    hashes=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64),
    n=st.integers(min_value=1, max_value=2**32 - 1),
)
def test_mod32_is_the_remainder(hashes, n):
    assert mod32(np.asarray(hashes, dtype=np.uint32), n).tolist() == [h % n for h in hashes]


# -- count-min --------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=200,
    ),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=16),
)
def test_cm_insert_batch_equals_sequential(inserts, chunk_sizes):
    sequential = CountMin(np.zeros((3, 64), dtype=np.int64), seed=7)
    batched, mixed = np.zeros((1, 3, 64), dtype=np.int64), row_seeds(3, seed=7)[None]
    for key, value in inserts:
        sequential.insert(key, value)
    for chunk in chunked(inserts, chunk_sizes):
        keys = np.asarray([k for k, _ in chunk], dtype=np.int64)
        vals = np.asarray([v for _, v in chunk], dtype=np.int64)
        insert_stacked(batched, mixed, 0, keys, vals)
    assert batched[0].tolist() == sequential.table.tolist()
    assert light_bytes(batched[0]) == sum(value for _, value in inserts)
    probe = np.asarray(sorted({k for k, _ in inserts}), dtype=np.int64)
    assert query_stacked(batched, mixed, 0, probe).tolist() == [
        sequential.query(int(k)) for k in probe
    ]


def test_cm_memory_models():
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=1, light_width=100, light_depth=2))
    # The modeled cost uses the paper's 4 B Tofino SRAM counters ...
    assert sketch.memory_bytes() - 13 == 100 * 2 * 4
    # ... while the process actually holds int64 cells.
    assert sketch.stack.light[sketch.slot].nbytes == 100 * 2 * 8


# -- elastic sketch ---------------------------------------------------------

_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=5_000),
    ),
    min_size=1,
    max_size=300,
)
_chunking = st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=24)


def _run_both(stream, chunk_sizes, **config):
    defaults = dict(heavy_buckets=8, light_width=128, light_depth=2, seed=11)
    defaults.update(config)
    sequential = ElasticSketch(ElasticSketchConfig(**defaults))
    batched = ElasticSketch(ElasticSketchConfig(**defaults))
    insert_packets(sequential, stream)
    for chunk in chunked(stream, chunk_sizes):
        ids = np.asarray([f for f, _ in chunk], dtype=np.int64)
        vals = np.asarray([v for _, v in chunk], dtype=np.int64)
        batched.insert_batch(ids, vals)
    return sequential, batched


@settings(deadline=None, max_examples=60)
@given(stream=_stream, chunk_sizes=_chunking)
def test_elastic_insert_batch_equals_sequential(stream, chunk_sizes):
    sequential, batched = _run_both(stream, chunk_sizes)
    assert elastic_state(batched) == elastic_state(sequential)
    assert read_heavy(batched) == read_heavy(sequential)


@settings(deadline=None, max_examples=60)
@given(
    stream=st.lists(
        # Two flows hammering a tiny heavy part with λ=1: almost every
        # collision evicts, so the slow path's ordered replay carries
        # the entire ostracism history.
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=500),
        ),
        min_size=2,
        max_size=200,
    ),
    chunk_sizes=_chunking,
)
def test_elastic_batch_ostracism_adversarial(stream, chunk_sizes):
    sequential, batched = _run_both(
        stream, chunk_sizes, heavy_buckets=1, ostracism_lambda=1.0
    )
    assert elastic_state(batched) == elastic_state(sequential)
    assert batched.evictions == sequential.evictions
    assert read_heavy(batched) == read_heavy(sequential)


@settings(deadline=None, max_examples=40)
@given(
    stream=st.lists(
        # Ids far past 2**32 and counts past 2**31 reach the hash and the
        # int64-vs-float64 ostracism compare with wide operands.
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**31),
        ),
        min_size=1,
        max_size=120,
    ),
    chunk_sizes=_chunking,
    ostracism_lambda=st.sampled_from([0.5, 1.0, 8.0]),
)
def test_elastic_batch_wide_ids_and_counts(stream, chunk_sizes, ostracism_lambda):
    sequential, batched = _run_both(
        stream, chunk_sizes, heavy_buckets=4, ostracism_lambda=ostracism_lambda
    )
    assert elastic_state(batched) == elastic_state(sequential)


def _rounds() -> float:
    return get_registry().snapshot()["counters"]["repro_sketch_batch_rounds_total"]


def test_elastic_batch_ostracism_chain_takes_one_round_per_link():
    """Each packet ostracizes the one before it: a three-link chain in
    one bucket needs three rounds and ends where sequential insertion
    does."""
    stream = [(1, 100), (2, 100), (3, 100), (4, 100)]
    sequential, batched = _run_both([], [], heavy_buckets=1, ostracism_lambda=1.0)
    insert_packets(sequential, stream)
    before = _rounds()
    batched.insert_batch(
        np.asarray([f for f, _ in stream]), np.asarray([v for _, v in stream])
    )
    assert _rounds() - before == 3
    assert batched.evictions == sequential.evictions == 3
    assert elastic_state(batched) == elastic_state(sequential)


def test_elastic_batch_zero_vote_resident_and_exact_threshold():
    """A resident seated with 0 bytes cannot be ostracized, and
    ``vote- == λ·vote+`` exactly is enough to evict."""
    stream = [(1, 0), (2, 500), (2, 500), (1, 10), (3, 80), (4, 5), (3, 1), (5, 643)]
    sequential, batched = _run_both(stream, [len(stream)], heavy_buckets=1)
    assert elastic_state(batched) == elastic_state(sequential)
    # Flow 1 survives 1000 B of votes at vote+ 0, then falls to flow 3
    # at vote- 1080 >= 8 * 10; flow 3 falls to flow 5 at vote- 5 + 643,
    # exactly 8 * 81.
    assert sequential.evictions == 2
    assert read_heavy(batched) == read_heavy(sequential)


def test_elastic_batch_read_arrays_match_dict():
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=16, seed=5))
    rng = np.random.default_rng(9)
    ids = rng.integers(0, 50, size=400).astype(np.int64)
    vals = rng.integers(1, 3000, size=400).astype(np.int64)
    sketch.insert_batch(ids, vals)
    array_ids, array_estimates = read_heavy_arrays(sketch)
    # One row per resident, each the scalar query's estimate.
    assert len(set(array_ids.tolist())) == array_ids.size
    assert read_heavy(sketch) == {f: query(sketch, f) for f in array_ids.tolist()}


def test_stacked_sketches_behave_as_alone():
    """Members of one ElasticStack insert, query and read exactly as
    unstacked twins; a member's own read-and-reset clears only its
    slice, and the stack's read serves every member at once."""
    def config(seed):
        return ElasticSketchConfig(
            heavy_buckets=8, light_width=32, ostracism_lambda=1.0, seed=seed
        )

    stacked = [ElasticSketch(config(seed)) for seed in (3, 4, 5)]
    alone = [ElasticSketch(config(seed)) for seed in (3, 4, 5)]
    rng = np.random.default_rng(11)
    batches = [
        (rng.integers(0, 40, size=300), rng.integers(1, 3000, size=300))
        for _ in stacked
    ]
    # Registers already in a sketch move into the stack with it.
    for sketch, twin, (ids, vals) in zip(stacked, alone, batches):
        sketch.insert_batch(ids[:100], vals[:100])
        twin.insert_batch(ids[:100], vals[:100])
    stack = ElasticStack(stacked)
    for sketch, twin, (ids, vals) in zip(stacked, alone, batches):
        sketch.insert_batch(ids[100:], vals[100:])
        twin.insert_batch(ids[100:], vals[100:])
    for sketch, twin in zip(stacked, alone):
        assert read_heavy(sketch) == read_heavy(twin)
        assert unattributed_bytes(sketch) == unattributed_bytes(twin)
        assert [query(sketch, f) for f in range(40)] == [query(twin, f) for f in range(40)]

    middle = stacked[1].read_and_reset_arrays()
    twin_middle = alone[1].read_and_reset_arrays()
    assert [a.tolist() for a in middle] == [a.tolist() for a in twin_middle]
    assert read_heavy(stacked[1]) == {}
    assert stacked[1].evictions == alone[1].evictions
    keys, ids, estimates, ends = stack.read_and_reset(0, 3)
    assert ends.tolist()[1] == ends.tolist()[0]   # the middle slice is empty
    lo = 0
    for member, (hi, twin) in enumerate(zip(ends.tolist(), alone)):
        if member != 1:
            twin_ids, twin_estimates = twin.read_and_reset_arrays()
            assert ids[lo:hi].tolist() == twin_ids.tolist()
            assert estimates[lo:hi].tolist() == twin_estimates.tolist()
            assert (keys[lo:hi] // 8 == member).all()
        lo = hi
    assert all(read_heavy(s) == {} and stored_bytes(s) == 0 for s in stacked)
    with pytest.raises(ValueError, match="shape"):
        ElasticStack([ElasticSketch(config(1)), ElasticSketch(ElasticSketchConfig())])
    other_lambda = ElasticSketchConfig(
        heavy_buckets=8, light_width=32, ostracism_lambda=2.0, seed=1
    )
    with pytest.raises(ValueError, match="λ"):
        ElasticStack([ElasticSketch(config(1)), ElasticSketch(other_lambda)])


# Per member: (flow, bytes) packets over few flows, zero-byte packets
# included; a member may see no packets at all.
_member_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=3_000),
    ),
    max_size=80,
)


@settings(deadline=None, max_examples=100)
@given(
    streams=st.lists(_member_stream, min_size=1, max_size=4),
    lam=st.sampled_from([0.5, 1.0, 8.0]),
    shared_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
    shape=st.sampled_from([(1, 16), (3, 13), (8, 16)]),
    split=st.booleans(),
)
def test_stack_insert_equals_lone_and_scalar_sketches(
    streams, lam, shared_seed, shape, split
):
    """One ``ElasticStack.insert`` of N members' chunks leaves every
    member exactly as N lone sketches fed the same batches and as the
    per-packet scalar insert.  Each member first flushes every full 8
    packets alone, as a capacity-8 switch buffer does mid-interval;
    its remainder rides the one stacked call, as one chunk or split in
    two at both ends of the chunk list."""
    buckets, width = shape

    def config(member):
        return ElasticSketchConfig(
            heavy_buckets=buckets,
            light_width=width,
            light_depth=2,
            ostracism_lambda=lam,
            seed=member if shared_seed is None else shared_seed,
        )

    n = len(streams)
    stacked = [ElasticSketch(config(i)) for i in range(n)]
    stack = ElasticStack(stacked)
    lone = [ElasticSketch(config(i)) for i in range(n)]
    scalar = [ElasticSketch(config(i)) for i in range(n)]
    head, tail = [], []
    for i, stream in enumerate(streams):
        ids = np.asarray([f for f, _ in stream], dtype=np.int64)
        vals = np.asarray([v for _, v in stream], dtype=np.int64)
        flushed = ids.size // 8 * 8
        for lo in range(0, flushed, 8):
            stacked[i].insert_batch(ids[lo : lo + 8], vals[lo : lo + 8])
            lone[i].insert_batch(ids[lo : lo + 8], vals[lo : lo + 8])
        lone[i].insert_batch(ids[flushed:], vals[flushed:])
        cut = (flushed + ids.size) // 2 if split else ids.size
        head.append((i, ids[flushed:cut], vals[flushed:cut]))
        tail.append((i, ids[cut:], vals[cut:]))
        insert_packets(scalar[i], stream)
    stack.insert(head + tail[::-1])
    for got, alone, reference, stream in zip(stacked, lone, scalar, streams):
        assert elastic_state(got) == elastic_state(alone) == elastic_state(reference)
        assert read_heavy(got) == read_heavy(reference)
        assert stored_bytes(got) == sum(nbytes for _, nbytes in stream)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, [3], [-1]), "nbytes"),
        ((1, [-3], [1]), "flow_id"),
        ((1, [3, 4], [1]), "shape"),
        ((2, [3], [1]), "outside"),
        ((-1, [3], [1]), "outside"),
    ],
)
def test_stack_insert_checks_every_chunk_first(bad, message):
    """A bad chunk anywhere in one call, or a slot outside the stack,
    raises before any member's registers or counters change."""
    sketches = [ElasticSketch(ElasticSketchConfig(heavy_buckets=4, seed=s)) for s in (1, 2)]
    stack = ElasticStack(sketches)
    slot, ids, vals = bad
    good = (0, np.array([1, 2]), np.array([10, 20]))
    with pytest.raises(ValueError, match=message):
        stack.insert([good, (slot, np.array(ids), np.array(vals))])
    assert all(stored_bytes(s) == 0 and read_heavy(s) == {} for s in sketches)
    assert not stack.light.any()


def test_elastic_batch_rejects_bad_input():
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=4))
    with pytest.raises(ValueError):
        sketch.insert_batch(np.asarray([1]), np.asarray([-1]))
    with pytest.raises(ValueError):
        sketch.insert_batch(np.asarray([-1]), np.asarray([1]))
    with pytest.raises(ValueError, match="shape"):
        sketch.insert_batch(np.asarray([1, 2]), np.asarray([1, 2, 3]))
    # Empty batches are a no-op, not an error.
    sketch.insert_batch(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
    assert stored_bytes(sketch) == 0


@pytest.mark.parametrize(
    "flow_ids, nbytes, name",
    [
        ([7], [1.5], "nbytes"),
        ([7], [float("nan")], "nbytes"),
        ([7.9], [2], "flow_ids"),
        ([7], [True], "nbytes"),
    ],
)
def test_elastic_batch_rejects_non_integer_arrays(flow_ids, nbytes, name):
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=4))
    with pytest.raises(ValueError, match=f"{name} must be an integer array"):
        sketch.insert_batch(np.asarray(flow_ids), np.asarray(nbytes))
    assert stored_bytes(sketch) == 0
    assert read_heavy(sketch) == {}


@pytest.mark.parametrize(
    "keys, values, name",
    [([7.9], [2], "keys"), ([7], [2.7], "values"), ([7], [float("nan")], "values")],
)
def test_cm_batch_rejects_non_integer_arrays(keys, values, name):
    table, mixed = np.zeros((1, 2, 64), dtype=np.int64), row_seeds(2, seed=1)[None]

    def insert_batch(keys, values):
        insert_stacked(table, mixed, 0, as_int64(keys, "keys"), as_int64(values, "values"))

    with pytest.raises(ValueError, match=f"{name} must be an integer array, got float64"):
        insert_batch(np.asarray(keys), np.asarray(values))
    assert light_bytes(table[0]) == 0
    # Unsigned and narrow integer arrays are integers all the same.
    insert_batch(np.asarray([7], dtype=np.uint16), np.asarray([2], dtype=np.int8))
    assert query_stacked(table, mixed, 0, np.asarray([7])).tolist() == [2]


def test_eviction_counters_split_interval_from_lifetime():
    """``evictions`` is a lifetime count that survives the register
    clear; an interval's evictions are its increment between reads."""
    sketch = ElasticSketch(
        ElasticSketchConfig(heavy_buckets=1, ostracism_lambda=1.0)
    )
    sketch.insert_batch(np.asarray([1, 2]), np.asarray([100, 100]))  # 2 evicts 1
    assert sketch.evictions == 1

    ids, _ = sketch.read_and_reset_arrays()
    assert ids.tolist() == [2]
    assert sketch.evictions == 1           # survives the clear
    assert stored_bytes(sketch) == 0

    sketch.insert_batch(np.asarray([3, 4]), np.asarray([100, 100]))  # 4 evicts 3
    assert sketch.evictions - 1 == 1       # this interval's one eviction
    sketch.read_and_reset_arrays()
    assert sketch.evictions == 2


# -- two-member edge cases: the kernel's early exits ------------------------

_EDGE_CONFIG = dict(heavy_buckets=16, light_width=32, light_depth=2, ostracism_lambda=1.0)


def _flows_in_buckets(seed):
    """Flow ids 0..4095 by the heavy bucket they hash to under ``seed``."""
    config = ElasticSketchConfig(seed=seed, **_EDGE_CONFIG)
    by_bucket = {}
    for flow in range(4096):
        by_bucket.setdefault(bucket(config, flow), []).append(flow)
    return by_bucket


def _edge_streams(case, seed):
    """``(flow, bytes)`` packets in arrival order for members hashing
    under seeds ``seed`` and ``seed + 1``."""
    buckets = [_flows_in_buckets(seed), _flows_in_buckets(seed + 1)]
    rng = np.random.default_rng(seed)
    if case == "no colliders":
        # One flow per bucket, many packets each, interleaved.
        flows = [[by_bucket[b][0] for b in range(0, 16, 2)] for by_bucket in buckets]
        return [
            [(flows[0][i % 8], int(rng.integers(1, 1500))) for i in range(64)],
            [(flows[1][(i * 3) % 8], int(rng.integers(1, 1500))) for i in range(40)],
        ]
    if case == "deep chain":
        # Every packet after the first is a new flow in the same bucket
        # with at least the resident's bytes: each one ostracizes it.
        return [
            [(flow, 100 * (i + 1)) for i, flow in enumerate(buckets[0][5][:12])],
            [(flow, 2**i) for i, flow in enumerate(buckets[1][9][:12])],
        ]
    if case == "one flow":
        return [[(7, 1000)] * 300, [(9, int(v)) for v in rng.integers(0, 1500, 200)]]
    packets = list(zip(rng.integers(0, 60, 120).tolist(), rng.integers(0, 1500, 120).tolist()))
    if case == "empty member":
        return [packets, []]
    assert case == "zero bytes"
    return [
        [(flow, 0) for flow, _ in packets],
        [(flow, nbytes if i % 2 else 0) for i, (flow, nbytes) in enumerate(packets)],
    ]


_EDGE_CASES = ["no colliders", "deep chain", "one flow", "empty member", "zero bytes"]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("case", _EDGE_CASES)
def test_stack_insert_edge_cases_equal_lone_and_scalar_sketches(case, seed):
    """Two members through one ``ElasticStack.insert`` end exactly as
    two lone sketches and the per-packet scalar insert, on the inputs
    the kernel takes its early exits on: no colliding packet (no spill,
    no Light-Part insert), a chain in which every packet ostracizes the
    one before, one flow's many packets, a member with no packets, and
    zero-byte packets."""
    streams = _edge_streams(case, seed)
    stacked = [ElasticSketch(ElasticSketchConfig(seed=seed + i, **_EDGE_CONFIG)) for i in range(2)]
    stack = ElasticStack(stacked)
    lone = [ElasticSketch(ElasticSketchConfig(seed=seed + i, **_EDGE_CONFIG)) for i in range(2)]
    scalar = [ElasticSketch(ElasticSketchConfig(seed=seed + i, **_EDGE_CONFIG)) for i in range(2)]
    chunks = []
    for i, stream in enumerate(streams):
        ids = np.asarray([f for f, _ in stream], dtype=np.int64)
        vals = np.asarray([v for _, v in stream], dtype=np.int64)
        chunks.append((i, ids, vals))
        lone[i].insert_batch(ids, vals)
        insert_packets(scalar[i], stream)
    stack.insert(chunks)
    for got, alone, reference, stream in zip(stacked, lone, scalar, streams):
        assert elastic_state(got) == elastic_state(alone) == elastic_state(reference)
        assert stored_bytes(got) == sum(nbytes for _, nbytes in stream)
    if case == "deep chain":
        assert [s.evictions for s in scalar] == [11, 11]
    if case == "no colliders":
        assert not stack.light.any()


@pytest.mark.parametrize("case", _EDGE_CASES)
def test_close_interval_equals_insert_then_read_and_reset(case):
    """``close_interval`` reads and leaves every register exactly as
    ``insert`` followed by ``read_and_reset`` does, whether or not a
    flagged resident (here left by an earlier insert) needs the spills
    it may skip."""
    streams = _edge_streams(case, 3)
    early = _edge_streams("deep chain", 3)

    def run(close):
        sketches = [ElasticSketch(ElasticSketchConfig(seed=3 + i, **_EDGE_CONFIG)) for i in range(2)]
        stack = ElasticStack(sketches)
        reads = []
        for prefix in ([], early):
            stack.insert(
                [(i, np.asarray([f for f, _ in p], dtype=np.int64),
                  np.asarray([v for _, v in p], dtype=np.int64)) for i, p in enumerate(prefix)]
            )
            if close:
                read = stack.close_interval(
                    np.asarray([f for s in streams for f, _ in s], dtype=np.int64),
                    np.asarray([v for s in streams for _, v in s], dtype=np.int64),
                    [(i, len(s)) for i, s in enumerate(streams)],
                )
            else:
                stack.insert(
                    [
                        (i, np.asarray([f for f, _ in s], dtype=np.int64),
                         np.asarray([v for _, v in s], dtype=np.int64))
                        for i, s in enumerate(streams)
                    ]
                )
                read = stack.read_and_reset(0, 2)
            reads.append([a.tolist() for a in read])
            assert all(read_heavy(s) == {} and stored_bytes(s) == 0 for s in sketches)
            assert not stack.light.any() and not stack.neg.any() and not stack.flag.any()
        return reads, [s.evictions for s in sketches]

    assert run(True) == run(False)
