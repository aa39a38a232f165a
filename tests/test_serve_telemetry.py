"""Unit tests for serving telemetry, queueing, batching, and load generation."""

import json

import pytest

from repro.serve.batching import MicroBatcher, ServiceCostModel
from repro.serve.loadgen import LoadProfile, generate_arrivals
from repro.serve.queueing import BackpressurePolicy, BoundedQueue
from repro.serve.telemetry import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    ServeTelemetry,
    ShardTelemetry,
)
from repro.service.stream import StreamMessage
from repro.types import Platform, Source


def _msg(i, text="hello", channel="c"):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a", timestamp=float(i), text=text,
    )


# -- histogram -----------------------------------------------------------------

def test_histogram_quantiles_single_sample():
    hist = LatencyHistogram()
    hist.record(0.004)
    assert hist.count == 1
    assert hist.quantile(0.5) == pytest.approx(0.004)
    assert hist.quantile(0.99) == pytest.approx(0.004)


def test_histogram_quantile_ordering():
    hist = LatencyHistogram()
    for value in (0.001,) * 90 + (0.1,) * 9 + (5.0,):
        hist.record(value)
    assert hist.quantile(0.5) < hist.quantile(0.95) <= hist.quantile(0.99)
    assert hist.quantile(1.0) == pytest.approx(5.0)
    assert hist.mean == pytest.approx((0.001 * 90 + 0.1 * 9 + 5.0) / 100)


def test_histogram_merge_matches_combined_recording():
    a, b, combined = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i, value in enumerate((0.002, 0.03, 0.4, 1.2, 0.0001)):
        (a if i % 2 else b).record(value)
        combined.record(value)
    merged = a.merge(b)
    assert merged.counts == combined.counts
    assert merged.count == combined.count
    assert merged.total == pytest.approx(combined.total)
    assert merged.as_dict() == pytest.approx(combined.as_dict())


def test_histogram_rejects_negative_and_bad_quantile():
    hist = LatencyHistogram()
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    assert hist.quantile(0.5) == 0.0  # empty


def test_histogram_bounds_cover_everything():
    assert BUCKET_BOUNDS[-1] == float("inf")
    hist = LatencyHistogram()
    hist.record(1e9)  # absurd value still lands in the catch-all
    assert sum(hist.counts) == 1


# -- bounded queue -------------------------------------------------------------

def test_queue_block_policy_grows_past_capacity():
    queue = BoundedQueue(2, BackpressurePolicy.BLOCK)
    for i in range(5):
        assert queue.offer(float(i), _msg(i))
    acct = queue.accounting
    assert len(queue) == 5 and acct.max_depth == 5
    assert acct.shed == acct.dropped == 0
    queue.drain()
    assert acct.unaccounted == 0


def test_queue_shed_newest_rejects_at_capacity():
    queue = BoundedQueue(2, BackpressurePolicy.SHED_NEWEST)
    assert queue.offer(0.0, _msg(0)) and queue.offer(1.0, _msg(1))
    assert not queue.offer(2.0, _msg(2))
    acct = queue.accounting
    assert acct.shed == 1 and acct.dropped == 0 and acct.max_depth == 2
    taken = queue.drain()
    assert [q.message.message_id for q in taken] == [0, 1]
    assert acct.unaccounted == 0


def test_queue_drop_oldest_evicts_head():
    queue = BoundedQueue(2, BackpressurePolicy.DROP_OLDEST)
    for i in range(4):
        assert queue.offer(float(i), _msg(i))
    acct = queue.accounting
    assert acct.dropped == 2 and acct.shed == 0 and len(queue) == 2
    assert [q.message.message_id for q in queue.drain()] == [2, 3]
    assert acct.unaccounted == 0


def test_queue_validates_capacity():
    with pytest.raises(ValueError):
        BoundedQueue(0, BackpressurePolicy.BLOCK)


# -- micro-batcher -------------------------------------------------------------

def _queue_with(times):
    queue = BoundedQueue(64, BackpressurePolicy.BLOCK)
    for i, t in enumerate(times):
        queue.offer(t, _msg(i))
    return queue


def test_batcher_flushes_when_full():
    batcher = MicroBatcher(batch_size=3, max_delay_seconds=10.0)
    queue = _queue_with([0.0, 1.0, 2.0])
    # Full batch: constrained by the youngest rider, not the deadline.
    assert batcher.flush_time(queue, []) == 2.0


def test_batcher_flushes_on_deadline():
    batcher = MicroBatcher(batch_size=8, max_delay_seconds=0.5)
    queue = _queue_with([1.0])
    assert batcher.flush_time(queue, []) == pytest.approx(1.5)


def test_batcher_waits_for_completing_arrival_if_sooner():
    batcher = MicroBatcher(batch_size=3, max_delay_seconds=10.0)
    queue = _queue_with([0.0, 0.1])
    # The third message arrives at 0.4 — flush then, not at the deadline.
    assert batcher.flush_time(queue, [0.4, 99.0]) == pytest.approx(0.4)
    # If it arrived after the deadline, the deadline wins.
    assert batcher.flush_time(queue, [20.0]) == pytest.approx(10.0)


def test_batcher_empty_queue_and_validation():
    batcher = MicroBatcher(batch_size=2, max_delay_seconds=1.0)
    with pytest.raises(ValueError):
        batcher.flush_time(BoundedQueue(4, BackpressurePolicy.BLOCK), [])
    with pytest.raises(ValueError):
        MicroBatcher(batch_size=0, max_delay_seconds=1.0)
    with pytest.raises(ValueError):
        MicroBatcher(batch_size=1, max_delay_seconds=0.0)


def test_cost_model_is_affine_and_validated():
    cost = ServiceCostModel(
        batch_overhead_seconds=0.01,
        per_message_seconds=0.001,
        per_char_seconds=0.0001,
    )
    assert cost.service_seconds(["ab", "c"]) == pytest.approx(
        0.01 + 2 * 0.001 + 3 * 0.0001
    )
    with pytest.raises(ValueError):
        ServiceCostModel(per_message_seconds=-1.0)
    with pytest.raises(ValueError):
        ServiceCostModel(batch_overhead_seconds=0.0, per_message_seconds=0.0)


# -- load generator ------------------------------------------------------------

def test_loadgen_is_deterministic_and_ordered():
    messages = [_msg(i) for i in range(50)]
    profile = LoadProfile(rate_per_second=100.0, seed=5)
    first = generate_arrivals(messages, profile)
    second = generate_arrivals(messages, profile)
    assert [(a.time, a.message.message_id) for a in first] == [
        (a.time, a.message.message_id) for a in second
    ]
    assert [a.message.message_id for a in first] == list(range(50))
    times = [a.time for a in first]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    different = generate_arrivals(messages, LoadProfile(rate_per_second=100.0, seed=6))
    assert [a.time for a in different] != times


def test_loadgen_bursts_arrive_simultaneously():
    messages = [_msg(i) for i in range(20)]
    profile = LoadProfile(rate_per_second=10.0, burst_every=4, burst_size=2, seed=1)
    arrivals = generate_arrivals(messages, profile)
    # After every 4 Poisson arrivals, the next 2 share their predecessor's time.
    for start in range(4, 20, 6):
        for offset in range(min(2, 19 - start)):
            assert arrivals[start + offset].time == arrivals[start - 1 + offset].time


def test_loadgen_validation_and_empty():
    with pytest.raises(ValueError):
        LoadProfile(rate_per_second=0.0)
    with pytest.raises(ValueError):
        LoadProfile(burst_every=3)  # burst_size missing
    assert generate_arrivals([], LoadProfile()) == []


# -- shard/fleet telemetry -----------------------------------------------------

def test_shard_telemetry_record_batch():
    shard = ShardTelemetry(shard_id=0)
    shard.record_batch(1.0, 1.5, waits=[0.2, 0.3], n_alerts=1)
    shard.record_batch(2.0, 2.25, waits=[0.0], n_alerts=0)
    assert shard.batches == 2
    assert shard.messages_scored == 3
    assert shard.alerts_raised == 1
    assert shard.busy_seconds == pytest.approx(0.75)
    assert shard.service_time.count == 2
    assert shard.queue_wait.count == 3


def test_fleet_telemetry_aggregates_and_serializes():
    a, b = ShardTelemetry(shard_id=0), ShardTelemetry(shard_id=1)
    a.record_batch(0.0, 1.0, waits=[0.1, 0.1], n_alerts=2)
    b.record_batch(0.5, 3.0, waits=[0.2], n_alerts=0)
    a.queue.offered = a.queue.admitted = a.queue.taken = 2
    a.queue.max_depth = 7
    b.queue.offered = 3
    b.queue.admitted = b.queue.taken = 1
    b.queue.shed = 2
    b.queue.max_depth = 4
    fleet = ServeTelemetry(shards=[a, b])
    assert fleet.messages_scored == 3
    assert fleet.makespan_seconds == pytest.approx(3.0)
    assert fleet.throughput_per_second == pytest.approx(1.0)
    snapshot = fleet.as_dict()
    assert snapshot["queue"]["offered"] == 5
    assert snapshot["queue"]["shed"] == 2
    assert snapshot["queue"]["max_depth"] == 7  # worst shard, not a sum
    assert snapshot["queue"]["unaccounted"] == 0
    assert len(snapshot["per_shard"]) == 2
    assert snapshot["service_time"]["count"] == 2
    json.dumps(snapshot)  # fully JSON-serializable


def test_empty_fleet_telemetry():
    fleet = ServeTelemetry(shards=[])
    assert fleet.makespan_seconds == 0.0
    assert fleet.throughput_per_second == 0.0
    json.dumps(fleet.as_dict())


def test_empty_fleet_merged_views_are_total():
    # All-shards-failed: the fleet total must stay well-defined on an
    # empty shard list, not raise.
    fleet = ServeTelemetry(shards=[])
    total = fleet.total()
    assert fleet.merged_accounting().offered == 0
    assert total.service_time.count == 0
    assert total.queue_wait.count == 0
    assert total.monitor.messages_processed == 0
    assert fleet.merged_score_work().as_dict()
    assert sum(total.busy_breakdown.as_dict().values()) == 0.0
    assert fleet.load_skew == 0.0
    assert fleet.messages_scored == 0
    snapshot = fleet.as_dict()
    assert snapshot["load_skew"] == 0.0
    assert snapshot["per_shard"] == []


def test_merged_fold_handles_empty_and_epochs():
    assert ServeTelemetry.merged([]).as_dict() == ServeTelemetry(
        shards=[]
    ).as_dict()
    # Epoch fold: same shard id on both sides merges into one ledger.
    early, late = ShardTelemetry(shard_id=0), ShardTelemetry(shard_id=0)
    early.record_batch(0.0, 1.0, waits=[0.1], n_alerts=0)
    late.record_batch(2.0, 3.0, waits=[0.2, 0.3], n_alerts=1)
    other = ShardTelemetry(shard_id=1)
    other.record_batch(0.0, 0.5, waits=[0.0], n_alerts=0)
    fold = ServeTelemetry.merged([
        ServeTelemetry(shards=[early]),
        ServeTelemetry(shards=[late, other]),
    ])
    assert [s.shard_id for s in fold.shards] == [0, 1]
    assert fold.shards[0].messages_scored == 3
    assert fold.messages_scored == 4


def test_load_skew_is_max_over_mean():
    a, b = ShardTelemetry(shard_id=0), ShardTelemetry(shard_id=1)
    a.messages_scored = 30
    b.messages_scored = 10
    assert ServeTelemetry(shards=[a, b]).load_skew == pytest.approx(1.5)
    balanced = ShardTelemetry(shard_id=2)
    balanced.messages_scored = 30
    assert ServeTelemetry(
        shards=[a, balanced]
    ).load_skew == pytest.approx(1.0)
    idle = ShardTelemetry(shard_id=3)
    assert ServeTelemetry(shards=[idle]).load_skew == 0.0


# -- queue-accounting merge (MonitorStats idiom) -------------------------------

def _acct(**kwargs):
    from repro.serve.queueing import QueueAccounting

    return QueueAccounting(**kwargs)


def test_queue_accounting_merge_sums_counts_and_maxes_depth():
    a = _acct(offered=5, admitted=4, shed=1, taken=4, max_depth=7)
    b = _acct(offered=3, admitted=3, dropped=1, taken=2, max_depth=4)
    merged = a.merge(b)
    assert merged.offered == 8
    assert merged.admitted == 7
    assert merged.shed == 1 and merged.dropped == 1
    assert merged.taken == 6
    assert merged.max_depth == 7  # worst shard, never a sum
    # Neither operand mutated.
    assert a.offered == 5 and b.offered == 3


def test_queue_accounting_merge_identity_and_fold():
    from repro.serve.queueing import QueueAccounting

    a = _acct(offered=5, admitted=5, taken=5, max_depth=2)
    assert a.merge(QueueAccounting()).as_dict() == a.as_dict()
    shards = [
        _acct(offered=2, admitted=2, taken=2, max_depth=1),
        _acct(offered=4, admitted=3, shed=1, taken=3, max_depth=9),
        _acct(offered=1, admitted=1, taken=1, max_depth=3),
    ]
    fleet = QueueAccounting.merged(shards)
    assert fleet.offered == 7
    assert fleet.max_depth == 9
    assert fleet.unaccounted == 0
    assert QueueAccounting.merged([]).as_dict() == QueueAccounting().as_dict()


def test_queue_accounting_populates_registry():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    _acct(offered=4, admitted=3, shed=1, taken=3, max_depth=6).populate_metrics(
        registry, shard="2"
    )
    snapshot = registry.as_dict()
    outcomes = {
        s["labels"]["outcome"]: s["value"]
        for s in snapshot["queue_messages"]["series"]
    }
    assert outcomes == {
        "offered": 4, "admitted": 3, "shed": 1, "dropped": 0,
        "requeued": 0, "taken": 3,
    }
    assert all(
        s["labels"]["shard"] == "2"
        for s in snapshot["queue_messages"]["series"]
    )
    assert snapshot["queue_max_depth"]["series"][0]["value"] == 6


# -- flush reasons -------------------------------------------------------------

def test_flush_decision_reports_reason():
    from repro.serve.batching import (
        FLUSH_ARRIVAL,
        FLUSH_DEADLINE,
        FLUSH_FULL,
        MicroBatcher,
    )

    batcher = MicroBatcher(batch_size=3, max_delay_seconds=10.0)
    assert batcher.flush_decision(_queue_with([0.0, 1.0, 2.0]), []) == (
        2.0, FLUSH_FULL
    )
    assert batcher.flush_decision(_queue_with([0.0, 0.1]), [0.4, 99.0]) == (
        0.4, FLUSH_ARRIVAL
    )
    time, reason = batcher.flush_decision(_queue_with([0.0, 0.1]), [20.0])
    assert (time, reason) == (10.0, FLUSH_DEADLINE)
    # An arrival landing exactly on the deadline is billed as a deadline
    # flush (same instant either way, matching the old min() behaviour).
    assert batcher.flush_decision(_queue_with([0.0]), [10.0]) == (
        10.0, FLUSH_DEADLINE
    )


def test_cost_breakdown_zero_totals_and_registry():
    from repro.obs import MetricsRegistry
    from repro.serve.batching import CostBreakdown

    totals = CostBreakdown().as_dict()
    assert tuple(totals) == (
        "tokenize_seconds", "score_seconds", "extract_seconds",
        "state_seconds",
    )
    assert set(totals.values()) == {0.0}
    registry = MetricsRegistry()
    CostBreakdown(
        tokenize_seconds=0.1, score_seconds=0.2
    ).populate_metrics(registry, shard="0")
    components = {
        s["labels"]["component"]: s["value"]
        for s in registry.as_dict()["busy_seconds"]["series"]
    }
    assert components == {
        "tokenize": 0.1, "score": 0.2, "extract": 0.0, "state": 0.0
    }
