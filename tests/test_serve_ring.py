"""Ring, rebalancing, hot-key splitting, and failover tests.

The elastic counterpart of ``test_serve_runtime.py``: the headline
invariant must survive topology changes.  Merged alerts — sorted by
``(timestamp, message_id, kind)`` — stay identical to single-monitor
output across a 2→4→3 rebalance schedule, a planner-driven schedule, a
hot-key split/reunify cycle, and a mid-run kill of the most loaded
shard, under ``jobs=1`` and ``jobs=N`` alike; and the queue-accounting
conservation law ``offered == taken + shed + dropped + requeued +
depth`` holds for every shard through all of it.
"""

import bisect
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.serve import (
    BackpressurePolicy,
    HashRing,
    HotKeyPolicy,
    KillSpec,
    LoadProfile,
    RebalancePlanner,
    RebalanceSchedule,
    ServeConfig,
    ServiceCostModel,
    ServingRuntime,
    ShardTelemetry,
    alert_sort_key,
    detect_hot_keys,
    salt_key,
)
from repro.serve import ring as ring_module
from repro.serve.ring import HOTTEST, PlanKind, _shard_points
from repro.serve.telemetry import ServeTelemetry
from repro.service.monitor import (
    HarassmentMonitor,
    MonitorConfig,
    TargetStateSnapshot,
)
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Source, Task
from repro.util.rng import stable_hash

CTH_TEXT = (
    "we should mass report her account until the platform bans her, "
    "twitter: targetuser99"
)
DOX_TEXT = "posting her address now: 12 elm street, phone 555-0192"


# -- fixtures ------------------------------------------------------------------

@pytest.fixture(scope="module")
def serve_models():
    history = CorpusBuilder(CorpusConfig.tiny(seed=71)).build()
    train = [d for d in history if d.platform is not Platform.BLOGS]
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in train])
    models = {
        task: LogisticRegressionClassifier(epochs=4, seed=1).fit(
            features, np.array([d.truth_for(task) for d in train])
        )
        for task in Task
    }
    return models, vectorizer


@pytest.fixture(scope="module")
def corpus_stream():
    corpus = CorpusBuilder(CorpusConfig.tiny(seed=72)).build()
    return MessageStream(
        [d for d in corpus if d.platform is not Platform.BLOGS]
    )


def _factory(serve_models, **config_kwargs):
    models, vectorizer = serve_models
    config_kwargs.setdefault("campaign_min_messages", 2)
    config = MonitorConfig(**config_kwargs)

    def make():
        return HarassmentMonitor(
            models[Task.CTH], models[Task.DOX], vectorizer, config
        )

    return make


def _msg(i, text="nothing to see", channel="c", ts=None):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a",
        timestamp=float(i) if ts is None else ts, text=text,
    )


def _baseline(factory, stream, batch_size=64):
    return sorted(factory().run(stream, batch_size=batch_size), key=alert_sort_key)


def _assert_conservation(result):
    """Every shard's ledger balances and nothing is unaccounted."""
    for shard in result.telemetry.shards:
        acct = shard.queue
        assert acct.offered == (
            acct.taken + acct.shed + acct.dropped + acct.requeued
        ), f"shard {shard.shard_id} ledger does not balance: {acct.as_dict()}"
    assert result.unaccounted == 0


# -- ring placement ------------------------------------------------------------

def test_ring_owner_is_deterministic_and_total():
    ring = HashRing.uniform(range(4))
    again = HashRing.uniform(range(4))
    keys = [f"key-{i}" for i in range(500)]
    assert [ring.owner(k) for k in keys] == [again.owner(k) for k in keys]
    owners = {ring.owner(k) for k in keys}
    assert owners == {0, 1, 2, 3}  # every shard owns a share


def test_ring_add_shard_moves_only_stolen_keys():
    keys = [f"key-{i}" for i in range(2000)]
    before = HashRing.uniform(range(4))
    after = before.add_shard(4)
    moved = [k for k in keys if before.owner(k) != after.owner(k)]
    # Consistent hashing: every moved key lands on the new shard, and
    # roughly 1/5 of the keyspace moves (vs ~4/5 under modulo).
    assert moved, "the new shard must take some keys"
    assert all(after.owner(k) == 4 for k in moved)
    assert len(moved) < len(keys) / 2


def test_ring_remove_shard_moves_only_orphaned_keys():
    keys = [f"key-{i}" for i in range(2000)]
    before = HashRing.uniform(range(4))
    after = before.remove_shard(2)
    moved = [k for k in keys if before.owner(k) != after.owner(k)]
    assert all(before.owner(k) == 2 for k in moved)
    assert {after.owner(k) for k in moved} <= {0, 1, 3}


def test_ring_steal_shifts_load():
    keys = [f"key-{i}" for i in range(2000)]
    ring = HashRing.uniform(range(2), vnodes=64)
    skewed = ring.steal(0, 1, 32)
    assert skewed.weights == {0: 32, 1: 96}
    before = sum(1 for k in keys if ring.owner(k) == 1)
    after = sum(1 for k in keys if skewed.owner(k) == 1)
    assert after > before


def test_ring_validation():
    with pytest.raises(ValueError):
        HashRing({})
    with pytest.raises(ValueError):
        HashRing({0: 0})
    with pytest.raises(ValueError):
        HashRing({-1: 4})
    ring = HashRing.uniform([0])
    with pytest.raises(ValueError):
        ring.remove_shard(0)  # never empty the ring
    with pytest.raises(ValueError):
        HashRing.uniform(range(2), vnodes=4).steal(0, 1, 4)  # would empty donor
    with pytest.raises(ValueError):
        HashRing.uniform(range(2)).add_shard(1)  # already present


# -- memoised placement vs direct per-vnode hashing -----------------------------

def _reference_points(weights, placement):
    """Every vnode hashed directly, sorted with ties broken by shard id."""
    return sorted(
        (placement("serve-ring", shard, replica), shard)
        for shard, weight in weights.items()
        for replica in range(weight)
    )


def _reference_owner(points, key, placement):
    index = bisect.bisect_right(
        [point_hash for point_hash, _ in points], placement("serve-route", key)
    )
    return points[index % len(points)][1]


_shard = st.integers(min_value=0, max_value=7)
_weight = st.integers(min_value=1, max_value=40)
_op = st.one_of(
    st.tuples(
        st.just("with_weights"),
        st.dictionaries(_shard, st.integers(min_value=0, max_value=40),
                        max_size=3),
    ),
    st.tuples(st.just("add_shard"), _shard, st.one_of(st.none(), _weight)),
    st.tuples(st.just("remove_shard"), _shard),
    st.tuples(st.just("steal"), _shard, _shard, _weight),
)


def _apply(ring, weights, op):
    """``op`` on ``ring`` and on a plain weights dict, or None if invalid."""
    kind, *args = op
    expected = dict(weights)
    if kind == "with_weights":
        (changes,) = args
        for shard, weight in changes.items():
            if weight:
                expected[shard] = weight
            else:
                expected.pop(shard, None)
        if not expected:
            return None
        return ring.with_weights(changes), expected
    if kind == "add_shard":
        shard, vnodes = args
        if shard in weights:
            return None
        expected[shard] = vnodes or max(
            1, round(sum(weights.values()) / len(weights))
        )
        return ring.add_shard(shard, vnodes), expected
    if kind == "remove_shard":
        (shard,) = args
        if shard not in weights or len(weights) == 1:
            return None
        del expected[shard]
        return ring.remove_shard(shard), expected
    donor, thief, vnodes = args
    if (
        donor == thief
        or donor not in weights
        or thief not in weights
        or weights[donor] - vnodes < 1
    ):
        return None
    expected[donor] -= vnodes
    expected[thief] += vnodes
    return ring.steal(donor, thief, vnodes), expected


@given(
    weights=st.dictionaries(_shard, _weight, min_size=1, max_size=5),
    ops=st.lists(_op, max_size=6),
    keys=st.lists(st.text(max_size=12), min_size=1, max_size=40),
    cold=st.booleans(),
    # A coarse placement hash forces ties, so the shard-id tie-break is
    # exercised; None keeps the real 64-bit hash.
    modulus=st.sampled_from([None, 8, 64]),
)
@settings(max_examples=150, deadline=None)
def test_cached_placement_matches_direct_hashing(
    weights, ops, keys, cold, modulus
):
    placement = (
        stable_hash if modulus is None
        else lambda *parts: stable_hash(*parts) % modulus
    )
    if modulus is not None or cold:
        _shard_points.cache_clear()
    try:
        with mock.patch.object(ring_module, "stable_hash", placement):
            ring = HashRing(weights)
            current = dict(weights)
            for op in [None, *ops]:
                if op is not None:
                    if cold:
                        _shard_points.cache_clear()
                    step = _apply(ring, current, op)
                    if step is None:
                        continue
                    ring, current = step
                assert ring.weights == current
                expected = _reference_points(current, placement)
                assert ring._points == expected
                assert [ring.owner(key) for key in keys] == [
                    _reference_owner(expected, key, placement) for key in keys
                ]
    finally:
        if modulus is not None:
            # Coarse points must not leak into later rings.
            _shard_points.cache_clear()


# -- hot keys ------------------------------------------------------------------

def test_detect_hot_keys_threshold_and_order():
    counts = {"a": 50, "b": 30, "c": 15, "d": 5}
    policy = HotKeyPolicy(share_threshold=0.2, fanout=4)
    hot = detect_hot_keys(counts, 100, policy)
    assert list(hot) == ["a", "b"]  # descending share
    assert hot["a"] == 0.5
    assert detect_hot_keys(counts, 100, HotKeyPolicy(0.0, 4)) == {}


def test_salt_key_is_deterministic_and_bounded():
    salted = {salt_key("k", i, 8) for i in range(200)}
    assert salted == {f"k#{j}" for j in range(8)}  # full fan, nothing else
    assert salt_key("k", 7, 8) == salt_key("k", 7, 8)


# -- planner -------------------------------------------------------------------

def _telemetry(loads, depths=None):
    shards = []
    for shard_id, scored in enumerate(loads):
        shard = ShardTelemetry(shard_id=shard_id)
        shard.messages_scored = scored
        if depths:
            shard.queue.max_depth = depths[shard_id]
        shards.append(shard)
    return ServeTelemetry(shards=shards)


def test_planner_splits_overloaded_shard():
    planner = RebalancePlanner(split_queue_depth=100)
    ring = HashRing.uniform(range(2))
    plans = planner.plan(_telemetry([500, 500], depths=[400, 10]), ring)
    assert [p.kind for p in plans] == [PlanKind.SPLIT]
    assert plans[0].shard == 0 and plans[0].peer == 2
    grown = plans[0].apply(ring)
    assert set(grown.shard_ids) == {0, 1, 2}


def test_planner_steals_from_skewed_shard():
    planner = RebalancePlanner(steal_skew=1.25)
    ring = HashRing.uniform(range(2))
    plans = planner.plan(_telemetry([900, 100]), ring)
    assert [p.kind for p in plans] == [PlanKind.STEAL]
    rebalanced = plans[0].apply(ring)
    assert rebalanced.weight(0) < rebalanced.weight(1)


def test_planner_merges_cold_shard():
    planner = RebalancePlanner(merge_utilization=0.1)
    ring = HashRing.uniform(range(3))
    plans = planner.plan(_telemetry([500, 490, 3]), ring)
    assert [p.kind for p in plans] == [PlanKind.MERGE]
    shrunk = plans[0].apply(ring)
    assert set(shrunk.shard_ids) == {0, 1}


def test_planner_is_deterministic_and_quiet_when_balanced():
    planner = RebalancePlanner()
    ring = HashRing.uniform(range(3))
    telemetry = _telemetry([400, 410, 390])
    assert planner.plan(telemetry, ring) == []
    busy = _telemetry([900, 100, 110])
    assert planner.plan(busy, ring) == planner.plan(busy, ring)


# -- schedule / kill parsing ---------------------------------------------------

def test_schedule_parse():
    explicit = RebalanceSchedule.parse("2,4,3")
    assert explicit.shard_counts == (2, 4, 3) and not explicit.planned
    assert explicit.n_epochs == 3
    auto = RebalanceSchedule.parse("auto:4")
    assert auto.planned and auto.n_epochs == 4
    with pytest.raises(ValueError):
        RebalanceSchedule.parse("2,x,3")
    with pytest.raises(ValueError):
        RebalanceSchedule(shard_counts=(2, 0))
    with pytest.raises(ValueError):
        RebalanceSchedule(planned=True, epochs=1)


def test_kill_spec_parse():
    assert KillSpec.parse("hottest").shard == HOTTEST
    assert KillSpec.parse("2", 0.25) == KillSpec(shard=2, at_fraction=0.25)
    with pytest.raises(ValueError):
        KillSpec(shard=0, at_fraction=1.0)
    with pytest.raises(ValueError):
        KillSpec(shard="coldest")


# -- target-state snapshot contract --------------------------------------------

def test_target_state_snapshot_round_trip(serve_models):
    factory = _factory(serve_models)
    monitor = factory()
    stream = [
        _msg(i, text=CTH_TEXT, channel=f"ch{i}") for i in range(6)
    ] + [_msg(10 + i, text=DOX_TEXT, channel="dox") for i in range(3)]
    monitor.run(stream, batch_size=4)
    handles = monitor.state_handles()
    assert handles, "the stream must create per-target state"
    snapshot = monitor.snapshot_target_state()
    restored = TargetStateSnapshot.from_dict(
        json.loads(json.dumps(snapshot.as_dict()))
    )
    assert restored == snapshot
    assert restored.handles() == handles


def test_extract_restore_moves_state_between_monitors(serve_models):
    factory = _factory(serve_models)
    donor, heir = factory(), factory()
    prefix = [_msg(i, text=CTH_TEXT, channel=f"ch{i}") for i in range(3)]
    suffix = [_msg(100 + i, text=CTH_TEXT, channel="late") for i in range(3)]
    # Uninterrupted run on one monitor...
    solo = factory()
    expected = [a for b in (prefix, suffix) for a in solo.process_batch(b)]
    # ...vs a mid-stream handoff through the snapshot contract.
    alerts = donor.process_batch(prefix)
    moved = donor.extract_target_state(donor.state_handles())
    assert donor.state_handles() == ()  # extraction is a move, not a copy
    heir.restore_target_state(moved)
    alerts += heir.process_batch(suffix)
    assert alerts == expected


# -- elastic equivalence -------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
def test_rebalance_schedule_preserves_alerts(
    serve_models, corpus_stream, jobs
):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    assert baseline
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        jobs=jobs,
        schedule=RebalanceSchedule.parse("2,4,3"),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert len(result.rebalances) == 2
    assert result.rebalances[0]["shards_after"] == [0, 1, 2, 3]
    assert result.rebalances[1]["shards_after"] == [0, 1, 2]
    assert tuple(result.ring.shard_ids) == (0, 1, 2)
    assert result.telemetry.total().monitor.messages_processed == len(
        corpus_stream
    )


def test_planned_schedule_preserves_alerts(serve_models, corpus_stream):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=3))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        schedule=RebalanceSchedule.parse("auto:3"),
        planner=RebalancePlanner(steal_skew=1.05, steal_fraction=0.2),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert len(result.rebalances) == 2  # one planning pass per boundary


@pytest.mark.parametrize("jobs", [1, 4])
def test_kill_hottest_shard_preserves_alerts(serve_models, corpus_stream, jobs):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=4))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        jobs=jobs,
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert result.failover is not None
    victim = result.failover["killed_shard"]
    assert victim not in result.ring.shard_ids
    assert len(result.ring.shard_ids) == 3
    # The victim's queue transferred out through the requeued bucket.
    victim_acct = next(
        s.queue for s in result.telemetry.shards if s.shard_id == victim
    )
    assert victim_acct.requeued == result.failover["requeued_messages"]


def test_kill_then_rebalance_compose(serve_models, corpus_stream):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        schedule=RebalanceSchedule.parse("2,4,3"),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    # The killed shard never rejoins the fleet in later epochs.
    victim = result.failover["killed_shard"]
    assert victim not in result.ring.shard_ids
    assert victim not in result.rebalances[-1]["shards_after"]


def test_kill_last_shard_is_rejected(serve_models):
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=1))
    with pytest.raises(ValueError):
        runtime.serve_stream(
            [_msg(i) for i in range(8)],
            LoadProfile(rate_per_second=100, seed=1),
            kill=KillSpec(shard=0, at_fraction=0.5),
        )


# -- hot-key split & reunification ---------------------------------------------

def _viral_stream():
    """One handle dominates; plenty of cold traffic around it."""
    messages = []
    for i in range(240):
        if i % 3 == 0:
            messages.append(_msg(i, text=CTH_TEXT, channel=f"ch{i % 7}"))
        else:
            messages.append(_msg(i, text=f"benign chatter {i}", channel=f"c{i % 31}"))
    return messages


def test_hot_handle_splits_and_reunifies(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    campaign = [a for a in baseline if a.kind.value == "campaign"]
    assert campaign, "the viral handle must trip stateful campaign alerts"
    config = ServeConfig(
        n_shards=4, batch_size=16, hot_key_share=0.05, hot_key_fanout=4
    )
    result = ServingRuntime(factory, config).serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3)
    )
    assert "twitter:targetuser99" in result.hot_keys
    assert result.reunify is not None
    assert result.reunify["messages"] == 80  # every hot-handle message
    assert result.reunify["alerts"] >= len(campaign)
    assert result.alerts == baseline
    _assert_conservation(result)
    # The split actually spread the hot key: its traffic is no longer
    # pinned to a single shard.
    assert result.telemetry.load_skew < 2.0


def test_hot_split_disabled_still_equivalent(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    config = ServeConfig(n_shards=4, batch_size=16, hot_key_share=0.0)
    result = ServingRuntime(factory, config).serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3)
    )
    assert result.hot_keys == {}
    assert result.reunify is None
    assert result.alerts == baseline


def test_hot_split_composes_with_kill(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    config = ServeConfig(
        n_shards=4, batch_size=16, hot_key_share=0.05, hot_key_fanout=4
    )
    result = ServingRuntime(factory, config).serve_stream(
        stream,
        LoadProfile(rate_per_second=5000, seed=3),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.4),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert result.failover is not None and result.reunify is not None


# -- conservation under lossy policies -----------------------------------------

class _SlowNullMonitor:
    """Queue-pressure stand-in: slow, scores nothing, alerts never."""

    def __init__(self):
        from repro.service.monitor import MonitorStats

        self.stats = MonitorStats()

    def process_batch(self, messages):
        self.stats.messages_processed += len(messages)
        return []


def _overload_config(policy, n_shards=2):
    return ServeConfig(
        n_shards=n_shards, batch_size=4, max_delay_seconds=0.01,
        queue_capacity=4, policy=policy,
        cost=ServiceCostModel(
            batch_overhead_seconds=0.0, per_message_seconds=1.0,
            per_char_seconds=0.0,
        ),
    )


def test_conservation_across_mid_drain_rebalance():
    runtime = ServingRuntime(
        _SlowNullMonitor, _overload_config(BackpressurePolicy.DROP_OLDEST)
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        schedule=RebalanceSchedule.parse("2,3,2"),
    )
    _assert_conservation(result)
    fleet = result.telemetry.merged_accounting()
    assert fleet.dropped > 0  # overload actually bit
    assert fleet.taken + fleet.dropped + fleet.shed + fleet.requeued == fleet.offered


def test_conservation_across_drop_oldest_shard_kill():
    runtime = ServingRuntime(
        _SlowNullMonitor, _overload_config(BackpressurePolicy.DROP_OLDEST)
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    _assert_conservation(result)
    fleet = result.telemetry.merged_accounting()
    assert fleet.dropped > 0
    assert fleet.requeued == result.failover["requeued_messages"]
    # Requeued messages were re-offered downstream: the fleet saw more
    # offers than the stream has messages, yet none went unaccounted.
    assert fleet.offered == 64 + fleet.requeued


def test_shed_newest_kill_conservation():
    runtime = ServingRuntime(
        _SlowNullMonitor, _overload_config(BackpressurePolicy.SHED_NEWEST)
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    _assert_conservation(result)
    assert result.telemetry.merged_accounting().shed > 0


# -- determinism of the elastic paths ------------------------------------------

def test_elastic_run_fully_deterministic(serve_models, corpus_stream):
    factory = _factory(serve_models)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    profile = LoadProfile(rate_per_second=5000, seed=3)
    kwargs = dict(
        schedule=RebalanceSchedule.parse("2,4,3"),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    first = runtime.serve_stream(corpus_stream, profile, jobs=1, **kwargs)
    second = runtime.serve_stream(corpus_stream, profile, jobs=4, **kwargs)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
