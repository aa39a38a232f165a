"""Serving telemetry: histograms, per-shard counters, JSON snapshots.

Everything here is simulated-time arithmetic over values the runtime
hands in — no clock reads, no randomness — so two runs of the same
configuration produce byte-identical snapshots (the serve-bench JSON
report is diffable across machines, like ``repro cache ls``).

Both classes are :class:`~repro.obs.ledger.Ledger` s: each field
declares its fold and its metric, and ``merge``/``as_dict``/
``populate_metrics`` derive from those declarations.  A
:class:`ServeTelemetry` is a keyed union of shard ledgers; its fleet
view is :meth:`ServeTelemetry.total`, the fold of every shard into one
:class:`ShardTelemetry`.

The histogram type itself lives in :mod:`repro.obs.metrics` (it is the
registry's histogram series too) and is re-exported here for
compatibility; ``populate_metrics`` projects every per-shard ledger
into the unified labeled registry ``repro obs`` reads, while
``as_dict()`` keeps the committed ``BENCH_serve.json`` schema stable.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.ledger import (
    MAX,
    MERGE,
    MIN,
    SUM,
    UNION,
    Ledger,
    Metric,
    derived,
    fold,
)
from repro.obs.metrics import BUCKET_BOUNDS, GAUGE, HISTOGRAM, LatencyHistogram
from repro.score.core import ScoreWork
from repro.service.monitor import MonitorStats
from repro.serve.batching import CostBreakdown
from repro.serve.queueing import QueueAccounting

__all__ = [
    "BUCKET_BOUNDS",
    "LatencyHistogram",
    "ServeTelemetry",
    "ShardTelemetry",
]

#: The fleet-total fields ``ServeTelemetry.as_dict`` reports.
FLEET_VIEWS = (
    "queue",
    "monitor",
    "busy_breakdown",
    "score_work",
    "service_time",
    "queue_wait",
    "alert_latency",
)


class ShardTelemetry(Ledger):
    """Everything one shard learned about itself during a run.

    Two ledgers for the same logical shard merge when a replacement
    worker takes over mid-run (the failover/rebalancing fold): counts
    and the busy breakdown sum, the time span widens to cover both, and
    the histograms merge bucket-wise.  ``shard_id`` keeps the smaller id
    so a fold over any operand order lands on the same value.
    """

    shard_id: int = fold(MIN, label="shard")
    queue: QueueAccounting = fold(MERGE, factory=QueueAccounting)
    monitor: MonitorStats = fold(MERGE, factory=MonitorStats)
    batches: int = fold(SUM, Metric("serve_batches", "micro-batches scored"))
    messages_scored: int = fold(
        SUM, Metric("serve_messages_scored", "messages scored")
    )
    alerts_raised: int = fold(
        SUM, Metric("serve_alerts_raised", "alerts raised")
    )
    busy_seconds: float = fold(SUM, default=0.0)
    #: busy_seconds split by scoring-path component (tokenize / score /
    #: extract / state); only populated when the runtime passes a
    #: :class:`~repro.serve.batching.CostBreakdown` per batch.
    busy_breakdown: CostBreakdown = fold(MERGE, factory=CostBreakdown)
    #: accumulated scoring-work ledger across this shard's batches
    score_work: ScoreWork = fold(MERGE, factory=ScoreWork)
    first_batch_start: float = fold(MIN, default=math.inf)
    last_batch_end: float = fold(MAX, default=0.0)
    service_time: LatencyHistogram = fold(MERGE, Metric(
        "service_time_seconds", "per-batch simulated service time", HISTOGRAM
    ), factory=LatencyHistogram)
    queue_wait: LatencyHistogram = fold(MERGE, Metric(
        "queue_wait_seconds", "per-message simulated queue wait", HISTOGRAM
    ), factory=LatencyHistogram)
    #: per-alert simulated latency (enqueue -> batch end of the message
    #: that raised it); alerts deferred to the hot-key reunification
    #: pass are not shard work and are absent here
    alert_latency: LatencyHistogram = fold(MERGE, Metric(
        "alert_latency_seconds",
        "per-alert simulated enqueue-to-batch-end latency",
        HISTOGRAM,
    ), factory=LatencyHistogram)

    def record_batch(
        self,
        start: float,
        end: float,
        waits: Sequence[float],
        n_alerts: int,
        breakdown: CostBreakdown | None = None,
        work: ScoreWork | None = None,
    ) -> None:
        self.batches += 1
        self.messages_scored += len(waits)
        self.alerts_raised += n_alerts
        self.busy_seconds += end - start
        if breakdown is not None:
            self.busy_breakdown.add(breakdown)
        if work is not None:
            self.score_work.add(work)
        self.first_batch_start = min(self.first_batch_start, start)
        self.last_batch_end = max(self.last_batch_end, end)
        self.service_time.record(end - start)
        for wait in waits:
            self.queue_wait.record(wait)

    def as_dict(self) -> dict[str, object]:
        data = super().as_dict()
        if not self.batches:
            # None (not inf/0.0 sentinels) for a shard that never ran a
            # batch, so the JSON snapshot stays valid and unambiguous.
            data["first_batch_start"] = data["last_batch_end"] = None
        return data


class ServeTelemetry(Ledger):
    """Fleet-wide aggregate of per-shard telemetry.

    Two partial fleet views — e.g. the per-epoch telemetry either side
    of a rebalancing event that migrated targets to replacement workers
    — merge into one: shards with the same id fold together, ordered by
    id.  ``reunify`` carries the monitor stats of the hot-key
    reunification pass (deferred stateful processing of split keys) — it
    is part of the fleet monitor totals but deliberately *not* a shard,
    so load balance metrics like :attr:`load_skew` describe only real
    workers.
    """

    shards: list[ShardTelemetry] = fold(
        UNION,
        Metric("serve_shards", "worker shard count", GAUGE),
        factory=list,
        key="shard_id",
        report_as="per_shard",
    )
    reunify: MonitorStats = fold(
        MERGE, factory=MonitorStats, labels={"shard": "reunify"}
    )

    def total(self) -> ShardTelemetry:
        """The fleet as one ledger: every shard folded in id order.

        Its monitor stats include the reunify pass, which keeps
        ``messages_processed`` equal to the stream length even when
        hot-key messages defer their stateful pass out of the shards.
        An empty fleet — every shard failed before reporting — totals
        to an empty ledger, not an error.
        """
        total = ShardTelemetry.merged(self.shards)
        total.monitor = total.monitor.merge(self.reunify)
        return total

    def merged_accounting(self) -> QueueAccounting:
        """Fleet queue ledger (counts sum, ``max_depth`` = worst shard)."""
        return self.total().queue

    def merged_score_work(self) -> ScoreWork:
        """Fleet-wide scoring-work ledger."""
        return self.total().score_work

    @derived
    def n_shards(self) -> int:
        return len(self.shards)

    @derived
    def messages_scored(self) -> int:
        return sum(s.messages_scored for s in self.shards)

    @derived(Metric(
        "makespan_seconds", "first batch start to last batch end", GAUGE
    ))
    def makespan_seconds(self) -> float:
        """Simulated span from the first batch start to the last batch end."""
        starts = [
            s.first_batch_start for s in self.shards if s.batches
        ]
        ends = [s.last_batch_end for s in self.shards if s.batches]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    @derived(Metric(
        "throughput_msgs_per_second",
        "fleet simulated throughput (the obs-diff gate metric)",
        GAUGE,
    ))
    def throughput_per_second(self) -> float:
        makespan = self.makespan_seconds
        return self.messages_scored / makespan if makespan > 0 else 0.0

    @derived(Metric(
        "serve_load_skew", "max/mean per-shard scored messages", GAUGE
    ))
    def load_skew(self) -> float:
        """Max/mean ratio of per-shard scored messages (1.0 = balanced).

        The headline balance metric for the ring: the committed serve
        baseline showed ~1.5x under modulo routing.  0.0 when the fleet
        is empty or scored nothing (an all-shards-failed edge must not
        divide by zero).
        """
        if not self.shards:
            return 0.0
        counts = [shard.messages_scored for shard in self.shards]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """Per-shard ledgers and derived values plus the fleet totals."""
        data = super().as_dict()
        total = self.total().as_dict()
        data.update((view, total[view]) for view in FLEET_VIEWS)
        return data
