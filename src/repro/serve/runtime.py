"""Sharded serving runtime: ring routing, per-shard servers, merged alerts.

The runtime partitions an arrival stream across worker shards with a
:class:`~repro.serve.ring.HashRing` (seeded virtual nodes, so changing
the shard count only moves the keys on the affected arcs — the old
``stable_hash % n_shards`` rehashed nearly everything).  Routing is
*stable* and keyed on the message's primary target handle, falling back
to a platform/channel key for messages that reference no target — so
every per-target campaign and escalation decision sees exactly the
messages a single monitor would have seen for that target.  The router
runs the PII extraction (through a bounded LRU, once per distinct text)
and attaches it to the routed message, so the shard's monitor never
re-extracts.  That is the headline invariant:

    For the ``block`` policy, the merged alert stream — sorted by
    ``(timestamp, message_id, kind)`` — is identical, field for field,
    to single-monitor :meth:`HarassmentMonitor.run` output for any
    shard count, any rebalance schedule, any hot-key split, and any
    kill-and-failover sequence.

Three elastic mechanisms ride on the ring:

* **Rebalancing** — :meth:`ServingRuntime.run` accepts a
  :class:`~repro.serve.ring.RebalanceSchedule`; the stream is served in
  epochs and at each boundary the ring changes (explicit shard counts,
  or plans from a :class:`~repro.serve.ring.RebalancePlanner`), with
  per-target monitor state migrating to each handle's new owner via the
  :class:`~repro.service.monitor.TargetStateSnapshot` contract.
* **Hot-key splitting** — a routing key carrying more than
  ``hot_key_share`` of the traffic is fanned out over salted sub-keys.
  Sub-shards do the expensive scoring; messages that carry target
  handles defer their *stateful* alert pass, which replays once, in
  stream order, through a reunification monitor after the last epoch —
  so campaign windows see the split key's messages exactly as a single
  monitor would.
* **Failover** — a :class:`~repro.serve.ring.KillSpec` kills a shard
  mid-run: it finishes its in-flight batch, its queued messages are
  requeued to the surviving owners (accounted through the ``requeued``
  bucket, never lost), and its per-target state is serialized through
  the JSON snapshot round-trip and replayed into the survivors.

Each shard owns its own :class:`HarassmentMonitor` (persistent across
epochs) and consumes its :class:`~repro.serve.queueing.BoundedQueue`
through a :class:`~repro.serve.batching.MicroBatcher`.  Time is fully
simulated; shards are independent after routing, so ``run(jobs=N)`` may
simulate each epoch on a thread pool with identical results.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.obs.recorder import RunObserver
from repro.obs.trace import Tracer
from repro.score.core import Extraction, ScoredBatch, ScoreWork, extract_targets
from repro.service.monitor import (
    Alert,
    HarassmentMonitor,
    MonitorStats,
    TargetStateSnapshot,
    target_handles,
    tenant_scope,
)
from repro.service.stream import StreamMessage
from repro.serve.batching import FLUSH_DRAIN, MicroBatcher, ServiceCostModel
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.queueing import BackpressurePolicy, BoundedQueue, QueuedMessage
from repro.serve.ring import (
    HashRing,
    HotKeyPolicy,
    KillSpec,
    RebalancePlanner,
    RebalanceSchedule,
    detect_hot_keys,
    salt_key,
)
from repro.serve.telemetry import ServeTelemetry, ShardTelemetry
from repro.util.cache import LRUCache

#: Canonical merge order for alert streams; both the sharded runtime and
#: the single-monitor baseline sort by this key for comparison.
def alert_sort_key(alert: Alert) -> tuple[float, int, str]:
    return (alert.timestamp, alert.message_id, alert.kind.value)


def routing_key(
    message: StreamMessage, extraction: Extraction | None = None
) -> str:
    """Stable shard-routing key: primary target handle, else channel.

    ``extraction`` lets the router reuse a PII extraction it already
    computed — the production path in :meth:`ServingRuntime.run` passes
    it so routing never triggers a second regex pass.  Without it this
    function extracts on the spot (compat path for direct callers).

    The channel fallback is lowercased: handles are case-folded before
    dedupe (PR 5), and ``channel:Twitter:News`` vs
    ``channel:twitter:news`` must likewise be one key, not two shards'
    worth of split campaign state.

    A message carrying a gateway tenant id routes under the tenant's
    scope prefix (:func:`repro.service.monitor.tenant_scope`) — the same
    prefix the monitor keys its per-target state with, so migrated
    state always lands where the tenant's traffic routes.  Two tenants
    naming the same target are two keys, never one shared window.
    """
    if extraction is None:
        handles, _ = target_handles(message.text)
        primary = handles[0] if handles else None
    else:
        primary = extraction.primary_handle
    scope = tenant_scope(message.tenant)
    if primary is not None:
        return scope + primary
    return (
        f"{scope}channel:{message.platform.value}:{message.channel.lower()}"
    )


def shard_for(
    message: StreamMessage,
    n_shards: int,
    extraction: Extraction | None = None,
) -> int:
    """Owner of ``message`` under a uniform ``n_shards`` ring (compat).

    Builds the ring on every call (a merge of cached vnode runs); to
    route many messages, hold a :class:`HashRing` and call ``owner``.
    """
    return HashRing.uniform(range(n_shards)).owner(
        routing_key(message, extraction)
    )


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Shape of the serving fleet."""

    n_shards: int = 4
    batch_size: int = 64
    max_delay_seconds: float = 0.05
    queue_capacity: int = 512
    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    cost: ServiceCostModel = dataclasses.field(default_factory=ServiceCostModel)
    #: entries in the router's text -> extraction LRU; bounds router
    #: memory, never outputs (extraction is a pure function of the text)
    extraction_cache_size: int = 4096
    #: virtual nodes per shard on the consistent-hash ring
    ring_vnodes: int = 128
    #: traffic share at which a routing key is split (0 disables)
    hot_key_share: float = 0.02
    #: salted sub-keys a hot key fans out over
    hot_key_fanout: int = 8
    #: capture per-message completion times (simulated batch-end) in
    #: :attr:`ServeResult.completions`; off by default because it is
    #: O(messages) memory the classic serve path never reads — the
    #: gateway turns it on to measure alert-feed delivery latency
    track_completions: bool = False

    def __post_init__(self) -> None:
        # Explicit per-field validation: a config error names the
        # offending ServeConfig field, and construction has no side
        # effects (no throwaway MicroBatcher).
        for name, minimum in (
            ("n_shards", 1),
            ("batch_size", 1),
            ("queue_capacity", 1),
            ("extraction_cache_size", 1),
            ("ring_vnodes", 1),
            ("hot_key_fanout", 2),
        ):
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(
                    f"ServeConfig.{name} must be >= {minimum}, got {value}"
                )
        if not (
            math.isfinite(self.max_delay_seconds)
            and self.max_delay_seconds > 0
        ):
            raise ValueError(
                "ServeConfig.max_delay_seconds must be positive and "
                f"finite, got {self.max_delay_seconds}"
            )
        if not (0.0 <= self.hot_key_share < 1.0):
            raise ValueError(
                "ServeConfig.hot_key_share must be in [0, 1), "
                f"got {self.hot_key_share}"
            )
        if self.queue_capacity < self.batch_size:
            raise ValueError(
                "ServeConfig.queue_capacity must be >= "
                "ServeConfig.batch_size "
                f"({self.queue_capacity} < {self.batch_size})"
            )

    @property
    def hot_key_policy(self) -> HotKeyPolicy:
        return HotKeyPolicy(
            share_threshold=self.hot_key_share, fanout=self.hot_key_fanout
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "max_delay_seconds": self.max_delay_seconds,
            "queue_capacity": self.queue_capacity,
            "policy": self.policy.value,
            "cost": dataclasses.asdict(self.cost),
            "extraction_cache_size": self.extraction_cache_size,
            "ring_vnodes": self.ring_vnodes,
            "hot_key_share": self.hot_key_share,
            "hot_key_fanout": self.hot_key_fanout,
            "track_completions": self.track_completions,
        }


@dataclasses.dataclass
class ServeResult:
    """Merged output of one serving run."""

    alerts: list[Alert]
    telemetry: ServeTelemetry
    config: ServeConfig
    #: final ring topology (after every rebalance/kill)
    ring: HashRing | None = None
    #: routing key -> traffic share, for keys the router split
    hot_keys: dict[str, float] = dataclasses.field(default_factory=dict)
    #: one entry per applied epoch-boundary topology change
    rebalances: list[dict] = dataclasses.field(default_factory=list)
    #: kill/failover summary, when a KillSpec fired
    failover: dict | None = None
    #: hot-key reunification replay summary, when any key was split
    reunify: dict | None = None
    #: message_id -> simulated completion time (batch end, or reunify
    #: end for deferred hot-key messages); populated only when
    #: ``config.track_completions`` is set.  Per-message data, so it is
    #: deliberately excluded from :meth:`as_dict` snapshots.
    completions: dict[int, float] = dataclasses.field(default_factory=dict)

    @property
    def unaccounted(self) -> int:
        return sum(s.queue.unaccounted for s in self.telemetry.shards)

    def alert_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind.value] = counts.get(alert.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict[str, object]:
        return {
            "config": self.config.as_dict(),
            "alerts": {"total": len(self.alerts), "by_kind": self.alert_counts()},
            "unaccounted_messages": self.unaccounted,
            "ring": self.ring.as_dict() if self.ring is not None else None,
            "hot_keys": dict(self.hot_keys),
            "rebalances": list(self.rebalances),
            "failover": self.failover,
            "reunify": self.reunify,
            "telemetry": self.telemetry.as_dict(),
        }

    def populate_metrics(self, registry) -> None:
        """Project the run into an observability registry.

        Per-shard ledgers plus fleet gauges come from the telemetry;
        this adds the merged alert stream as a kind-labeled counter.
        """
        self.telemetry.populate_metrics(registry)
        family = registry.counter(
            "serve_alerts", help="merged alerts by kind"
        )
        for kind, count in self.alert_counts().items():
            family.labels(kind=kind).inc(count)


@dataclasses.dataclass(frozen=True, slots=True)
class _Routed:
    """One arrival after the routing pass (internal)."""

    seq: int  # stream position, for replaying deferred messages in order
    arrival: Arrival
    key: str  # effective (possibly salted) routing key
    extraction: Extraction
    fresh: bool  # extraction was fresh regex work, not a router-cache hit
    deferred: bool  # hot handle key: stateful pass replays at reunify


@dataclasses.dataclass(frozen=True, slots=True)
class _DeferredScore:
    """A hot-key message scored on a sub-shard, awaiting reunification."""

    seq: int
    message: StreamMessage
    cth_score: float
    dox_score: float
    extraction: Extraction


class ServingRuntime:
    """Drives ring-routed monitor-owning shard servers over arrivals."""

    def __init__(
        self,
        monitor_factory: Callable[[], HarassmentMonitor],
        config: ServeConfig | None = None,
    ) -> None:
        self._monitor_factory = monitor_factory
        self.config = config or ServeConfig()

    # -- one shard, one epoch ----------------------------------------------

    def _run_shard(
        self,
        shard_id: int,
        arrivals: Sequence[Arrival],
        info: dict[int, tuple[Extraction, bool, bool, str, int]] | None,
        traced: bool,
        monitor,
        stop_at: float | None = None,
    ) -> tuple[
        list[Alert],
        ShardTelemetry,
        Tracer | None,
        list[_DeferredScore],
        list[QueuedMessage],
        dict[int, float],
    ]:
        """Serve one epoch's arrivals on one shard.

        ``info`` maps message id -> (extraction, fresh, deferred, key,
        seq) as computed by the router.  ``stop_at`` kills the shard: no
        batch may *start* at or after that simulated time; whatever is
        still queued (or not yet offered) comes back as ``leftovers``
        through the queue's ``requeued`` bucket for the coordinator to
        re-offer to the surviving owners.
        """
        config = self.config
        queue = BoundedQueue(config.queue_capacity, config.policy)
        batcher = MicroBatcher(config.batch_size, config.max_delay_seconds)
        telemetry = ShardTelemetry(shard_id=shard_id, queue=queue.accounting)
        # Each shard records into its own tracer (single writer) so the
        # trace is independent of thread scheduling under jobs=N; the
        # caller absorbs the tracers in shard order.
        tracer = Tracer() if traced else None
        shard_span = (
            tracer.span("shard", shard=shard_id, arrivals=len(arrivals))
            if tracer is not None else None
        )
        alerts: list[Alert] = []
        deferred: list[_DeferredScore] = []
        completions: dict[int, float] = {}
        server_free = 0.0
        index, total = 0, len(arrivals)
        # Monitors built by the factory own a ScoringCore; test doubles
        # may not — those fall back to process_batch billed as all-miss
        # (and never defer: a core-less stand-in has no campaign state
        # to reunify).
        core = getattr(monitor, "core", None)

        def offer(arrival: Arrival) -> None:
            """Enqueue one arrival, tracing a shed/drop if it causes one."""
            acct = queue.accounting
            shed_before, dropped_before = acct.shed, acct.dropped
            queue.offer(arrival.time, arrival.message)
            if tracer is None:
                return
            if acct.shed > shed_before:
                shard_span.event("shed", arrival.time, shard=shard_id)
            elif acct.dropped > dropped_before:
                shard_span.event("dropped", arrival.time, shard=shard_id)

        def score(
            batch: Sequence[QueuedMessage], start: float, flush_reason: str
        ) -> float:
            """Process one batch at simulated ``start``; returns its end."""
            messages = [q.message for q in batch]
            batch_span = (
                shard_span.child(
                    "batch",
                    shard=shard_id,
                    batch=telemetry.batches,
                    messages=len(messages),
                    flush=flush_reason,
                )
                if tracer is not None else None
            )
            if core is not None and info is not None:
                routed = [info[m.message_id][:2] for m in messages]
                scored = core.score_messages(
                    messages, routed=routed, span=batch_span
                )
                keep = [
                    i for i, m in enumerate(messages)
                    if not info[m.message_id][2]
                ]
                if len(keep) != len(messages):
                    # Hot-key messages: the expensive scoring happened
                    # here; their stateful alert pass is deferred to the
                    # reunification replay.
                    for i, message in enumerate(messages):
                        mid = message.message_id
                        if info[mid][2]:
                            deferred.append(_DeferredScore(
                                seq=info[mid][4],
                                message=message,
                                cth_score=float(scored.cth_scores[i]),
                                dox_score=float(scored.dox_scores[i]),
                                extraction=scored.extraction(i),
                            ))
                    raised = (
                        monitor.process_scored(scored.subset(keep))
                        if keep else []
                    )
                else:
                    raised = monitor.process_scored(scored)
                # process_scored may lazily code/extract; bill afterwards
                # so the breakdown sees the full ledger.
                work = scored.work
            else:
                raised = monitor.process_batch(messages)
                work = ScoreWork.for_uncached_texts([m.text for m in messages])
            breakdown = config.cost.breakdown(work, n_alerts=len(raised))
            end = start + breakdown.total_seconds
            alerts.extend(raised)
            if config.track_completions:
                for q in batch:
                    completions[q.message.message_id] = end
            # Alert latency: enqueue -> batch end, per raised alert.
            # Deferred hot-key alerts surface in the reunification pass
            # and are deliberately absent from this histogram.
            if raised:
                enqueue_by_id = {
                    q.message.message_id: q.enqueue_time for q in batch
                }
                for alert in raised:
                    telemetry.alert_latency.record(
                        end - enqueue_by_id[alert.message_id]
                    )
            telemetry.record_batch(
                start,
                end,
                [start - q.enqueue_time for q in batch],
                len(raised),
                breakdown=breakdown,
                work=work,
            )
            if batch_span is not None:
                batch_span.close(start, end).annotate(alerts=len(raised))
                # Component sub-spans laid end to end inside the batch:
                # the Chrome/Perfetto view shows where batch time goes.
                offset = start
                for component, seconds in breakdown.as_dict().items():
                    if seconds > 0:
                        batch_span.child(
                            component.removesuffix("_seconds"),
                            start=offset,
                            end=offset + seconds,
                            shard=shard_id,
                        )
                        offset += seconds
                for alert in raised:
                    batch_span.event(
                        "alert",
                        alert.timestamp,
                        shard=shard_id,
                        kind=alert.kind.value,
                    )
            return end

        halted = False
        while index < total or len(queue):
            if index >= total:
                # Producer closed: graceful drain — flush immediately in
                # batch-size chunks instead of waiting out the deadline.
                while len(queue):
                    size = min(config.batch_size, len(queue))
                    start = max(server_free, queue.enqueue_time_at(size - 1))
                    if stop_at is not None and start >= stop_at:
                        halted = True
                        break
                    server_free = score(queue.take(size), start, FLUSH_DRAIN)
                break
            if not len(queue):
                arrival = arrivals[index]
                index += 1
                offer(arrival)
                continue
            upcoming = [
                a.time for a in arrivals[index : index + config.batch_size]
            ]
            flush_at, flush_reason = batcher.flush_decision(queue, upcoming)
            start = max(flush_at, server_free)
            if stop_at is not None and start >= stop_at:
                halted = True
                break
            # Everything arriving before the batch starts enters the queue
            # first (and may be shed/dropped under overload).
            while index < total and arrivals[index].time <= start:
                arrival = arrivals[index]
                index += 1
                offer(arrival)
            server_free = score(queue.take(config.batch_size), start, flush_reason)
        leftovers: list[QueuedMessage] = []
        if halted:
            # The shard dies at stop_at having finished its in-flight
            # batch.  Arrivals that reached it before the kill still pass
            # through the queue (so overload policies account for them),
            # then everything transfers out through the requeued bucket.
            while index < total:
                arrival = arrivals[index]
                index += 1
                offer(arrival)
            leftovers = queue.requeue_drain()
            if shard_span is not None:
                shard_span.event(
                    "killed", stop_at, shard=shard_id, requeued=len(leftovers)
                )
        # Per-epoch monitor stats: capture the delta and reset, so
        # cross-epoch ShardTelemetry.merge never double-counts.
        telemetry.monitor = monitor.stats
        monitor.stats = MonitorStats()
        if shard_span is not None:
            first = arrivals[0].time if arrivals else 0.0
            shard_span.close(first, max(server_free, first)).annotate(
                batches=telemetry.batches
            )
        return alerts, telemetry, tracer, deferred, leftovers, completions

    # -- state migration ---------------------------------------------------

    def _migrate_state(
        self,
        monitors: dict[int, object],
        old_ring: HashRing,
        new_ring: HashRing,
        dying: frozenset[int],
        serialize: bool = False,
    ) -> int:
        """Move per-target state to each handle's owner under ``new_ring``.

        A handle moves when its host is dying, or when the host owned it
        under the old ring and no longer does (state follows routing).
        ``serialize=True`` — the failover path — round-trips every
        snapshot through its JSON dict form, proving the serialization
        contract in the hot path.  Returns the number of handles moved.
        """
        moved = 0
        for shard_id in sorted(monitors):
            monitor = monitors[shard_id]
            if not hasattr(monitor, "state_handles"):
                continue  # test doubles without the migration surface
            doomed = shard_id in dying
            by_dest: dict[int, list[str]] = {}
            for handle in monitor.state_handles():
                owner = new_ring.owner(handle)
                if owner == shard_id:
                    continue
                if doomed or old_ring.owner(handle) == shard_id:
                    by_dest.setdefault(owner, []).append(handle)
            for owner in sorted(by_dest):
                snapshot = monitor.extract_target_state(by_dest[owner])
                if serialize:
                    snapshot = TargetStateSnapshot.from_dict(
                        snapshot.as_dict()
                    )
                monitors[owner].restore_target_state(snapshot)
                moved += len(by_dest[owner])
        return moved

    # -- public ------------------------------------------------------------

    def run(
        self,
        arrivals: Iterable[Arrival],
        jobs: int = 1,
        recorder: RunObserver | None = None,
        schedule: RebalanceSchedule | None = None,
        kill: KillSpec | None = None,
        planner: RebalancePlanner | None = None,
    ) -> ServeResult:
        """Route and serve ``arrivals``; returns merged, sorted output.

        ``schedule`` serves the stream in epochs with ring changes at
        each boundary (explicit shard counts, or planner-driven for
        ``RebalanceSchedule(planned=True)``); ``kill`` fails one shard
        over mid-run; ``recorder`` opts into observability (route /
        shard / batch spans, rebalance and failover events, fleet
        metrics — absorbed in deterministic order, so the trace is
        independent of ``jobs``).
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        config = self.config
        if schedule is not None and schedule.planned and planner is None:
            planner = RebalancePlanner()
        arrivals = list(arrivals)
        # -- route: one extraction pass, key counts, hot detection --------
        router_cache: LRUCache[str, Extraction] = LRUCache(
            config.extraction_cache_size
        )
        keyed: list[tuple[Arrival, str, Extraction, bool]] = []
        counts: dict[str, int] = {}
        for arrival in arrivals:
            message = arrival.message
            extraction, hit = router_cache.get_or_compute(
                message.text, extract_targets
            )
            key = routing_key(message, extraction)
            counts[key] = counts.get(key, 0) + 1
            keyed.append((arrival, key, extraction, not hit))
        hot_policy = config.hot_key_policy
        hot_shares = detect_hot_keys(counts, len(arrivals), hot_policy)
        routed: list[_Routed] = []
        for seq, (arrival, key, extraction, fresh) in enumerate(keyed):
            if key in hot_shares:
                routed.append(_Routed(
                    seq=seq,
                    arrival=arrival,
                    key=salt_key(
                        key, arrival.message.message_id, hot_policy.fanout
                    ),
                    extraction=extraction,
                    # A hot key that is a target handle carries campaign
                    # state: defer its stateful pass to reunification.
                    # Channel-fallback keys are stateless and split free.
                    fresh=fresh,
                    deferred=extraction.primary_handle is not None,
                ))
            else:
                routed.append(_Routed(
                    seq=seq, arrival=arrival, key=key,
                    extraction=extraction, fresh=fresh, deferred=False,
                ))
        n_total = len(routed)
        # -- epoch timeline ------------------------------------------------
        boundaries: list[tuple[int, str, object]] = []
        if schedule is not None and n_total:
            for epoch in range(1, schedule.n_epochs):
                cut = (n_total * epoch) // schedule.n_epochs
                if schedule.planned:
                    boundaries.append((cut, "plan", None))
                else:
                    boundaries.append(
                        (cut, "resize", schedule.shard_counts[epoch])
                    )
        if kill is not None and n_total:
            boundaries.append((int(n_total * kill.at_fraction), "kill", kill))
        # Kills sort after resizes at the same index so a coinciding
        # resize happens first and the kill sees the new topology.
        boundaries.sort(key=lambda b: (b[0], 0 if b[1] != "kill" else 1))
        initial = (
            schedule.shard_counts[0]
            if schedule is not None and not schedule.planned
            else config.n_shards
        )
        ring = HashRing.uniform(range(initial), config.ring_vnodes)
        monitors: dict[int, object] = {
            shard_id: self._monitor_factory() for shard_id in range(initial)
        }
        killed: set[int] = set()
        routed_totals: dict[int, int] = {}
        epoch_telemetries: list[ServeTelemetry] = []
        merged: list[Alert] = []
        completions_all: dict[int, float] = {}
        deferred_all: list[_DeferredScore] = []
        rebalance_log: list[dict] = []
        failover_info: dict | None = None
        traced = recorder is not None
        if recorder is not None:
            first_arrival = arrivals[0].time if arrivals else 0.0
            last_arrival = arrivals[-1].time if arrivals else 0.0
            recorder.tracer.span(
                "route",
                start=first_arrival,
                end=last_arrival,
                messages=n_total,
                hot_keys=len(hot_shares),
                extraction_cache_hits=router_cache.hits,
                extraction_cache_misses=router_cache.misses,
            )
        # carry: owner -> (arrival, extraction, fresh, deferred, key, seq)
        # entries requeued by a failover, offered at the next epoch start.
        carry: dict[int, list[tuple]] = {}
        segment_start = 0
        for cut, action, payload in [*boundaries, (n_total, "end", None)]:
            segment = routed[segment_start:cut]
            segment_start = cut
            live = list(ring.shard_ids)
            per_shard: dict[int, list[Arrival]] = {s: [] for s in live}
            info: dict[int, dict[int, tuple]] = {s: {} for s in live}
            for owner in sorted(carry):
                for arrival, extraction, fresh, deferred, key, seq in carry[owner]:
                    per_shard[owner].append(arrival)
                    info[owner][arrival.message.message_id] = (
                        extraction, fresh, deferred, key, seq
                    )
            carry = {}
            # One ring lookup per distinct key per epoch.  In perfbench's
            # serve-repeat (5,000-message epochs) ~92 % of routed messages
            # repeat a key already resolved in their epoch; in
            # gateway-rounds' ~14-message epochs, ~21 %.
            owners: dict[str, int] = {}
            for r in segment:
                owner = owners.get(r.key)
                if owner is None:
                    owner = owners[r.key] = ring.owner(r.key)
                per_shard[owner].append(r.arrival)
                info[owner][r.arrival.message.message_id] = (
                    r.extraction, r.fresh, r.deferred, r.key, r.seq
                )
            for shard_id in live:
                routed_totals[shard_id] = (
                    routed_totals.get(shard_id, 0) + len(per_shard[shard_id])
                )
            boundary_time = (
                routed[cut].arrival.time if cut < n_total
                else (routed[-1].arrival.time if routed else 0.0)
            )
            victim: int | None = None
            if action == "kill":
                spec: KillSpec = payload
                if isinstance(spec.shard, int):
                    victim = spec.shard
                else:  # hottest: most messages routed to it so far
                    victim = max(
                        live, key=lambda s: (routed_totals.get(s, 0), -s)
                    )
                if victim not in per_shard:
                    raise ValueError(
                        f"cannot kill shard {victim}: not on the ring "
                        f"(live: {live})"
                    )
                if len(live) == 1:
                    raise ValueError("cannot kill the last live shard")

            def run_one(shard_id: int):
                return self._run_shard(
                    shard_id,
                    per_shard[shard_id],
                    info[shard_id],
                    traced,
                    monitors[shard_id],
                    boundary_time if shard_id == victim else None,
                )

            if jobs == 1 or len(live) == 1:
                outcomes = [run_one(shard_id) for shard_id in live]
            else:
                with ThreadPoolExecutor(max_workers=jobs) as pool:
                    outcomes = list(pool.map(run_one, live))
            leftovers: list[QueuedMessage] = []
            epoch_shards: list[ShardTelemetry] = []
            for shard_id, outcome in zip(live, outcomes):
                (
                    shard_alerts,
                    shard_telemetry,
                    shard_tracer,
                    shard_deferred,
                    shard_left,
                    shard_completions,
                ) = outcome
                merged.extend(shard_alerts)
                epoch_shards.append(shard_telemetry)
                deferred_all.extend(shard_deferred)
                # Shards route disjoint message ids, so updating in
                # shard order is deterministic under jobs=N.
                completions_all.update(shard_completions)
                if shard_left:
                    leftovers = shard_left
                if recorder is not None and shard_tracer is not None:
                    recorder.tracer.absorb(shard_tracer)
            epoch_telemetries.append(ServeTelemetry(shards=epoch_shards))
            # -- apply the boundary action --------------------------------
            if action == "resize":
                new_ids: list[int] = []
                candidate = 0
                while len(new_ids) < payload:
                    if candidate not in killed:
                        new_ids.append(candidate)
                    candidate += 1
                new_ring = HashRing.uniform(new_ids, config.ring_vnodes)
                for shard_id in new_ids:
                    if shard_id not in monitors:
                        monitors[shard_id] = self._monitor_factory()
                dying = frozenset(set(live) - set(new_ids))
                moved = self._migrate_state(monitors, ring, new_ring, dying)
                for shard_id in dying:
                    monitors.pop(shard_id)
                rebalance_log.append({
                    "at_index": cut,
                    "time": boundary_time,
                    "kind": "resize",
                    "shards_before": live,
                    "shards_after": new_ids,
                    "migrated_handles": moved,
                })
                if recorder is not None:
                    recorder.tracer.event(
                        "rebalance", boundary_time,
                        kind="resize", before=len(live), after=len(new_ids),
                        migrated=moved,
                    )
                ring = new_ring
            elif action == "plan":
                plans = planner.plan(
                    ServeTelemetry.merged(epoch_telemetries), ring
                )
                new_ring = ring
                for plan in plans:
                    new_ring = plan.apply(new_ring)
                new_ids = list(new_ring.shard_ids)
                for shard_id in new_ids:
                    if shard_id not in monitors:
                        monitors[shard_id] = self._monitor_factory()
                dying = frozenset(set(live) - set(new_ids))
                moved = self._migrate_state(monitors, ring, new_ring, dying)
                for shard_id in dying:
                    monitors.pop(shard_id)
                rebalance_log.append({
                    "at_index": cut,
                    "time": boundary_time,
                    "kind": "plan",
                    "plans": [plan.as_dict() for plan in plans],
                    "shards_before": live,
                    "shards_after": new_ids,
                    "migrated_handles": moved,
                })
                if recorder is not None:
                    recorder.tracer.event(
                        "rebalance", boundary_time,
                        kind="plan", plans=len(plans),
                        before=len(live), after=len(new_ids), migrated=moved,
                    )
                ring = new_ring
            elif action == "kill":
                killed.add(victim)
                new_ring = ring.remove_shard(victim)
                moved = self._migrate_state(
                    monitors, ring, new_ring, frozenset({victim}),
                    serialize=True,
                )
                monitors.pop(victim)
                for queued in leftovers:
                    message = queued.message
                    extraction, fresh, deferred, key, seq = (
                        info[victim][message.message_id]
                    )
                    owner = new_ring.owner(key)
                    carry.setdefault(owner, []).append((
                        Arrival(boundary_time, message),
                        extraction, fresh, deferred, key, seq,
                    ))
                failover_info = {
                    "at_index": cut,
                    "time": boundary_time,
                    "killed_shard": victim,
                    "requeued_messages": len(leftovers),
                    "migrated_handles": moved,
                    "survivors": list(new_ring.shard_ids),
                }
                if recorder is not None:
                    recorder.tracer.event(
                        "failover", boundary_time,
                        killed=victim, requeued=len(leftovers), migrated=moved,
                    )
                ring = new_ring
        # -- hot-key reunification ----------------------------------------
        reunify_stats = MonitorStats()
        reunify_report: dict | None = None
        if deferred_all:
            # Replay in original stream order: exactly the per-target
            # sequence a single monitor saw.
            deferred_all.sort(key=lambda d: d.seq)
            reunifier = self._monitor_factory()
            scored = ScoredBatch.from_precomputed(
                [d.message for d in deferred_all],
                [d.cth_score for d in deferred_all],
                [d.dox_score for d in deferred_all],
                [d.extraction for d in deferred_all],
                core=reunifier.core,
            )
            replayed = reunifier.process_scored(scored)
            merged.extend(replayed)
            reunify_stats = reunifier.stats
            state_seconds = (
                config.cost.state_per_alert_seconds * len(replayed)
            )
            if config.track_completions:
                # Deferred messages complete only when the reunification
                # replay does — after the last epoch ends.
                reunify_end = (
                    routed[-1].arrival.time if routed else 0.0
                ) + state_seconds
                for d in deferred_all:
                    completions_all[d.message.message_id] = reunify_end
            reunify_report = {
                "messages": len(deferred_all),
                "alerts": len(replayed),
                "state_seconds": state_seconds,
            }
            if recorder is not None:
                last_time = routed[-1].arrival.time if routed else 0.0
                recorder.tracer.span(
                    "reunify",
                    start=last_time,
                    end=last_time + state_seconds,
                    messages=len(deferred_all),
                    alerts=len(replayed),
                )
        merged.sort(key=alert_sort_key)
        telemetry = ServeTelemetry.merged(epoch_telemetries)
        telemetry.reunify = reunify_stats
        result = ServeResult(
            alerts=merged,
            telemetry=telemetry,
            config=config,
            ring=ring,
            hot_keys=hot_shares,
            rebalances=rebalance_log,
            failover=failover_info,
            reunify=reunify_report,
            completions=completions_all,
        )
        if recorder is not None:
            routed_counter = recorder.metrics.counter(
                "routed_messages", help="messages routed per shard"
            )
            for shard_id in sorted(routed_totals):
                routed_counter.labels(shard=str(shard_id)).inc(
                    routed_totals[shard_id]
                )
            result.populate_metrics(recorder.metrics)
        return result

    def serve_stream(
        self,
        messages: Iterable[StreamMessage],
        profile: LoadProfile | None = None,
        jobs: int = 1,
        recorder: RunObserver | None = None,
        schedule: RebalanceSchedule | None = None,
        kill: KillSpec | None = None,
        planner: RebalancePlanner | None = None,
    ) -> ServeResult:
        """Generate arrivals for ``messages`` and serve them."""
        return self.run(
            generate_arrivals(messages, profile or LoadProfile()),
            jobs=jobs,
            recorder=recorder,
            schedule=schedule,
            kill=kill,
            planner=planner,
        )
