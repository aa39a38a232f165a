"""Bounded per-shard ingest queues with explicit overload policies.

Every message offered to a shard is accounted for exactly once:

* ``admitted`` and eventually taken by the micro-batcher, or
* ``shed`` — rejected at admission (``shed-newest``), or
* ``dropped`` — evicted after admission to make room (``drop-oldest``), or
* ``requeued`` — pulled back out of a dying shard's queue at failover
  and re-offered to the surviving owners (each transfer shows up as a
  fresh ``offered`` on the destination queue).

``offered == taken + shed + dropped + requeued + len(queue)`` holds at
every step, which is what lets the serve report prove "zero unaccounted
messages" after a drain — even when a rebalance or shard kill moves
messages between queues mid-run.  The ``block`` policy never loses a message: admission
always succeeds and the queue grows past ``capacity`` — modelling a
producer that stalls upstream rather than discarding (the queue records
how deep the backlog got via ``max_depth``).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Deque

from repro.obs.ledger import MAX, SUM, Ledger, Metric, derived, fold
from repro.obs.metrics import GAUGE
from repro.service.stream import StreamMessage


class BackpressurePolicy(enum.Enum):
    """What a full shard queue does with the next message."""

    #: Admission always succeeds; backlog grows (producer stalls upstream).
    BLOCK = "block"
    #: Evict the oldest queued message to admit the newcomer.
    DROP_OLDEST = "drop-oldest"
    #: Reject the newcomer; queued messages keep their place.
    SHED_NEWEST = "shed-newest"


QUEUE_MESSAGES = Metric(
    "queue_messages", "messages per queue-accounting outcome"
)


class QueueAccounting(Ledger):
    """Message-conservation ledger for one shard queue.

    Fleet-wise, message counts sum; ``max_depth`` takes the worst shard
    — a sum of per-shard depth high-water marks would describe a
    backlog that never existed anywhere.
    """

    offered: int = fold(SUM, QUEUE_MESSAGES(outcome="offered"))
    admitted: int = fold(SUM, QUEUE_MESSAGES(outcome="admitted"))
    shed: int = fold(SUM, QUEUE_MESSAGES(outcome="shed"))
    dropped: int = fold(SUM, QUEUE_MESSAGES(outcome="dropped"))
    requeued: int = fold(SUM, QUEUE_MESSAGES(outcome="requeued"))
    taken: int = fold(SUM, QUEUE_MESSAGES(outcome="taken"))
    max_depth: int = fold(MAX, Metric(
        "queue_max_depth", "deepest backlog the queue reached", GAUGE
    ))

    @derived
    def unaccounted(self) -> int:
        """Messages neither in flight nor in any terminal bucket.

        Zero after a drain; the serve report asserts this.  ``requeued``
        is terminal *for this queue* — the destination queue accounts
        for the message from its own ``offered`` onward.
        """
        return (
            self.offered - self.taken - self.shed - self.dropped
            - self.requeued
        )


@dataclasses.dataclass(frozen=True, slots=True)
class QueuedMessage:
    """A message plus the simulated time it entered the shard queue."""

    enqueue_time: float
    message: StreamMessage


class BoundedQueue:
    """FIFO shard queue enforcing one :class:`BackpressurePolicy`."""

    def __init__(self, capacity: int, policy: BackpressurePolicy) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self.accounting = QueueAccounting()
        self._items: Deque[QueuedMessage] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, time: float, message: StreamMessage) -> bool:
        """Offer one message at simulated ``time``; returns admitted?"""
        acct = self.accounting
        acct.offered += 1
        if len(self._items) >= self.capacity:
            if self.policy is BackpressurePolicy.SHED_NEWEST:
                acct.shed += 1
                return False
            if self.policy is BackpressurePolicy.DROP_OLDEST:
                self._items.popleft()
                acct.dropped += 1
            # BLOCK: fall through, queue grows past capacity.
        self._items.append(QueuedMessage(time, message))
        acct.admitted += 1
        acct.max_depth = max(acct.max_depth, len(self._items))
        return True

    def enqueue_time_at(self, index: int) -> float:
        """Enqueue time of the ``index``-th oldest queued message."""
        return self._items[index].enqueue_time

    def take(self, count: int) -> list[QueuedMessage]:
        """Dequeue up to ``count`` oldest messages."""
        taken = [
            self._items.popleft() for _ in range(min(count, len(self._items)))
        ]
        self.accounting.taken += len(taken)
        return taken

    def drain(self) -> list[QueuedMessage]:
        """Dequeue everything (shutdown path)."""
        return self.take(len(self._items))

    def requeue_drain(self) -> list[QueuedMessage]:
        """Pull everything out for transfer to another queue (failover).

        Unlike :meth:`drain`, the messages are *not* counted as taken —
        they were never delivered to this shard's batcher.  They leave
        through the ``requeued`` bucket and must be re-offered to the
        queues of their new owners.
        """
        transferred = list(self._items)
        self._items.clear()
        self.accounting.requeued += len(transferred)
        return transferred
