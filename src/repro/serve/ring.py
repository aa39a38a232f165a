"""Consistent-hash ring, hot-key splitting, and rebalance planning.

Routing in :mod:`repro.serve.runtime` used to be ``stable_hash(key) %
n_shards`` — changing the shard count rehashed nearly every key, so the
fleet could never grow or shrink without forfeiting shard-local
campaign state.  The :class:`HashRing` here places ``vnodes`` seeded
virtual nodes per shard on a 64-bit ring (every point is
``stable_hash("serve-ring", shard, replica)``, so placement is a pure
function of the shard id — no wall clock, no process salt); a key is
owned by the first virtual node clockwise of ``stable_hash("serve-route",
key)``.  Adding or removing a shard only moves the keys on the arcs
that shard's own points cover, which is what makes the elastic
schedules in ``ServingRuntime.run`` cheap.  Because placement is pure,
each shard's sorted run of points is computed once while cached
(:func:`_shard_points`) and every later ring over that shard and weight
merges the cached runs instead of rehashing them.

Two more pieces live here because they are pure policy over the ring:

* **Hot keys** — a single viral target hashes all of its traffic to one
  shard no matter how the ring is balanced.  :func:`detect_hot_keys`
  finds routing keys whose traffic share crosses a threshold and
  :func:`salt_key` fans each one out over deterministic salted
  sub-keys; the runtime reunifies the split alert path afterwards
  (see ``DESIGN.md`` §14 for why that preserves the alert invariant).
* **Rebalance plans** — :class:`RebalancePlanner` turns the queue-depth
  and latency signals already in
  :class:`~repro.serve.telemetry.ShardTelemetry` into explicit
  :class:`RebalancePlan` values (split / merge / steal) that
  :meth:`RebalancePlan.apply` folds into a new ring.  Planning is
  deterministic: same telemetry, same plans.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.util.rng import stable_hash

if TYPE_CHECKING:  # telemetry imports ring for nothing; avoid the cycle
    from repro.serve.telemetry import ServeTelemetry

#: Default virtual nodes per shard.  128 points per shard keeps the
#: expected keyspace imbalance of a 4-shard ring under a few percent.
DEFAULT_VNODES = 128

#: Sentinel accepted by :class:`KillSpec` — resolve the victim to the
#: shard that scored the most messages so far when the kill fires.
HOTTEST = "hottest"


# Entries are (shard, weight) pairs: uniform rings need one per shard id
# at the configured vnode count, and each planned split or steal adds at
# most two (donor and peer), so the serve, gateway and perfbench schedules
# over shard ids 0-4 use a handful.  256 leaves room for long planned runs
# while bounding the cache (~3 MB at 128 points per run).
@functools.lru_cache(maxsize=256)
def _shard_points(shard: int, weight: int) -> tuple[tuple[int, int], ...]:
    """Sorted ``(hash, shard)`` points of ``shard``'s first ``weight`` replicas.

    A pure function of its arguments, so it is memoised: a resize, kill
    or steal rebuilds its ring from cached runs instead of rehashing.
    """
    return tuple(sorted(
        (stable_hash("serve-ring", shard, replica), shard)
        for replica in range(weight)
    ))


class HashRing:
    """Seeded-vnode consistent-hash ring over integer shard ids.

    The ring is immutable: every topology change
    (:meth:`add_shard` / :meth:`remove_shard` / :meth:`steal`) returns a
    new ring, so an epoch's routing can never be perturbed by a plan
    applied for the next one.  ``weights`` maps shard id to its virtual
    node count; unequal weights are how vnode stealing biases load away
    from a hot shard.
    """

    __slots__ = ("_weights", "_points", "_hashes")

    def __init__(self, weights: Mapping[int, int]) -> None:
        if not weights:
            raise ValueError("a hash ring needs at least one shard")
        for shard, weight in weights.items():
            if shard < 0:
                raise ValueError(f"shard ids must be >= 0, got {shard}")
            if weight < 1:
                raise ValueError(
                    f"shard {shard} needs >= 1 virtual node, got {weight}"
                )
        self._weights: dict[int, int] = dict(sorted(weights.items()))
        # Ties on the hash value are broken by shard id so the point
        # order — and therefore every owner() answer — is total.  Each
        # cached run is already sorted, so this sort is a merge of runs.
        points = sorted(itertools.chain.from_iterable(
            _shard_points(shard, weight)
            for shard, weight in self._weights.items()
        ))
        self._points: list[tuple[int, int]] = points
        self._hashes: list[int] = [point_hash for point_hash, _ in points]

    # -- lookup ------------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(self._weights)

    @property
    def weights(self) -> dict[int, int]:
        return dict(self._weights)

    def weight(self, shard: int) -> int:
        return self._weights[shard]

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, shard: int) -> bool:
        return shard in self._weights

    def owner(self, key: str) -> int:
        """Shard owning ``key``: first virtual node clockwise of its hash."""
        key_hash = stable_hash("serve-route", key)
        index = bisect.bisect_right(self._hashes, key_hash)
        return self._points[index % len(self._points)][1]

    # -- topology changes (all pure) ---------------------------------------

    @classmethod
    def uniform(
        cls, shard_ids: Iterable[int], vnodes: int = DEFAULT_VNODES
    ) -> "HashRing":
        """Equal-weight ring over ``shard_ids``."""
        return cls({shard: vnodes for shard in shard_ids})

    def with_weights(self, changes: Mapping[int, int]) -> "HashRing":
        """New ring with ``changes`` applied; weight 0 removes a shard."""
        weights = dict(self._weights)
        for shard, weight in sorted(changes.items()):
            if weight <= 0:
                weights.pop(shard, None)
            else:
                weights[shard] = weight
        return HashRing(weights)

    def add_shard(self, shard: int, vnodes: int | None = None) -> "HashRing":
        """Grow by one shard (default weight: mean of existing shards)."""
        if shard in self._weights:
            raise ValueError(f"shard {shard} is already on the ring")
        if vnodes is None:
            vnodes = max(
                1, round(sum(self._weights.values()) / len(self._weights))
            )
        return self.with_weights({shard: vnodes})

    def remove_shard(self, shard: int) -> "HashRing":
        """Shrink by one shard; its arcs fall to their ring successors."""
        if shard not in self._weights:
            raise ValueError(f"shard {shard} is not on the ring")
        if len(self._weights) == 1:
            raise ValueError("cannot remove the last shard from the ring")
        return self.with_weights({shard: 0})

    def steal(self, donor: int, thief: int, vnodes: int) -> "HashRing":
        """Move ``vnodes`` of weight from ``donor`` to ``thief``."""
        if vnodes < 1:
            raise ValueError(f"must steal >= 1 virtual node, got {vnodes}")
        for shard in (donor, thief):
            if shard not in self._weights:
                raise ValueError(f"shard {shard} is not on the ring")
        if self._weights[donor] - vnodes < 1:
            raise ValueError(
                f"shard {donor} has {self._weights[donor]} virtual nodes; "
                f"stealing {vnodes} would empty it"
            )
        return self.with_weights({
            donor: self._weights[donor] - vnodes,
            thief: self._weights[thief] + vnodes,
        })

    def as_dict(self) -> dict[str, object]:
        return {
            "shard_ids": list(self._weights),
            "weights": {str(shard): w for shard, w in self._weights.items()},
            "points": len(self._points),
        }


# -- hot keys ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HotKeyPolicy:
    """When and how wide to split a dominant routing key.

    A key is *hot* when it carries at least ``share_threshold`` of the
    routed messages; its traffic is then fanned out over ``fanout``
    salted sub-keys.  ``share_threshold=0`` disables mitigation.
    """

    share_threshold: float = 0.02
    fanout: int = 8

    def __post_init__(self) -> None:
        if not (0.0 <= self.share_threshold < 1.0):
            raise ValueError(
                "HotKeyPolicy.share_threshold must be in [0, 1), "
                f"got {self.share_threshold}"
            )
        if self.fanout < 2:
            raise ValueError(
                f"HotKeyPolicy.fanout must be >= 2, got {self.fanout}"
            )

    @property
    def enabled(self) -> bool:
        return self.share_threshold > 0.0


def detect_hot_keys(
    counts: Mapping[str, int], total: int, policy: HotKeyPolicy
) -> dict[str, float]:
    """Routing keys whose traffic share crosses the policy threshold.

    Returns ``key -> share`` ordered by descending share (key as the
    tie-break) so reports and traces are stable.
    """
    if not policy.enabled or total <= 0:
        return {}
    hot = [
        (key, count / total)
        for key, count in counts.items()
        if count / total >= policy.share_threshold
    ]
    hot.sort(key=lambda item: (-item[1], item[0]))
    return dict(hot)


def salt_key(key: str, message_id: int, fanout: int) -> str:
    """Deterministic salted sub-key for one message of a hot key."""
    return f"{key}#{stable_hash('serve-hot', key, message_id) % fanout}"


# -- rebalance plans --------------------------------------------------------


class PlanKind(enum.Enum):
    """What a rebalance plan does to the ring."""

    #: Grow the fleet: a new shard joins with half the hot shard's weight.
    SPLIT = "split"
    #: Shrink the fleet: a cold shard leaves; its arcs fall to successors.
    MERGE = "merge"
    #: Move virtual nodes from a hot shard to a cold one (fleet size fixed).
    STEAL = "steal"


@dataclasses.dataclass(frozen=True)
class RebalancePlan:
    """One explicit, auditable topology change.

    ``shard`` is the shard whose telemetry triggered the plan; ``peer``
    is the counterparty (the new shard for SPLIT, the suggested state
    destination for MERGE, the thief for STEAL).  ``vnodes`` is the
    weight that moves.  ``reason`` carries the telemetry signal for the
    report/trace.
    """

    kind: PlanKind
    shard: int
    peer: int
    vnodes: int
    reason: str = ""

    def apply(self, ring: HashRing) -> HashRing:
        """Fold this plan into ``ring`` (pure)."""
        if self.kind is PlanKind.SPLIT:
            donor_left = max(1, ring.weight(self.shard) - self.vnodes)
            return ring.with_weights(
                {self.shard: donor_left, self.peer: self.vnodes}
            )
        if self.kind is PlanKind.MERGE:
            return ring.remove_shard(self.shard)
        return ring.steal(self.shard, self.peer, self.vnodes)

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "shard": self.shard,
            "peer": self.peer,
            "vnodes": self.vnodes,
            "reason": self.reason,
        }


@dataclasses.dataclass(frozen=True)
class RebalancePlanner:
    """Deterministic telemetry → plan policy.

    Reads only signals already in :class:`ShardTelemetry`: the queue
    depth high-water mark and queue-wait p99 (overload → SPLIT), the
    per-shard message-count skew (imbalance → STEAL), and the cold-shard
    utilisation ratio (waste → MERGE).  Same telemetry in, same plans
    out — the serving simulation stays byte-deterministic with the
    planner in the loop.
    """

    #: queue depth high-water mark at which a shard asks to split
    split_queue_depth: int = 256
    #: queue-wait p99 (simulated seconds) at which a shard asks to split
    split_wait_p99_seconds: float = 0.25
    #: max/mean messages ratio at which vnode stealing kicks in
    steal_skew: float = 1.25
    #: fraction of the donor's virtual nodes a steal moves
    steal_fraction: float = 0.25
    #: messages/mean ratio below which the coldest shard merges away
    merge_utilization: float = 0.1

    def __post_init__(self) -> None:
        if self.split_queue_depth < 1:
            raise ValueError("split_queue_depth must be >= 1")
        if not (self.split_wait_p99_seconds > 0):
            raise ValueError("split_wait_p99_seconds must be positive")
        if self.steal_skew <= 1.0:
            raise ValueError("steal_skew must be > 1")
        if not (0.0 < self.steal_fraction < 1.0):
            raise ValueError("steal_fraction must be in (0, 1)")
        if not (0.0 <= self.merge_utilization < 1.0):
            raise ValueError("merge_utilization must be in [0, 1)")

    def plan(
        self, telemetry: "ServeTelemetry", ring: HashRing
    ) -> list[RebalancePlan]:
        """Plans for the next epoch, most urgent first (possibly empty)."""
        by_id = {
            shard.shard_id: shard
            for shard in telemetry.shards
            if shard.shard_id in ring
        }
        live = [by_id[shard_id] for shard_id in ring.shard_ids if shard_id in by_id]
        if not live:
            return []
        total = sum(shard.messages_scored for shard in live)
        mean = total / len(live)
        plans: list[RebalancePlan] = []
        next_id = max(ring.shard_ids) + 1
        for shard in live:
            depth = shard.queue.max_depth
            wait_p99 = shard.queue_wait.quantile(0.99)
            if depth >= self.split_queue_depth or (
                wait_p99 >= self.split_wait_p99_seconds
            ):
                plans.append(RebalancePlan(
                    kind=PlanKind.SPLIT,
                    shard=shard.shard_id,
                    peer=next_id,
                    vnodes=max(1, ring.weight(shard.shard_id) // 2),
                    reason=(
                        f"queue depth {depth}, wait p99 {wait_p99:.4f}s"
                    ),
                ))
                next_id += 1
        if plans or len(live) < 2 or mean <= 0:
            return plans
        hottest = max(live, key=lambda s: (s.messages_scored, -s.shard_id))
        coldest = min(live, key=lambda s: (s.messages_scored, s.shard_id))
        if hottest.shard_id == coldest.shard_id:
            return plans
        if coldest.messages_scored <= mean * self.merge_utilization:
            plans.append(RebalancePlan(
                kind=PlanKind.MERGE,
                shard=coldest.shard_id,
                peer=hottest.shard_id,
                vnodes=ring.weight(coldest.shard_id),
                reason=(
                    f"{coldest.messages_scored} messages vs fleet mean "
                    f"{mean:.1f}"
                ),
            ))
        elif hottest.messages_scored / mean >= self.steal_skew:
            vnodes = max(
                1, int(ring.weight(hottest.shard_id) * self.steal_fraction)
            )
            plans.append(RebalancePlan(
                kind=PlanKind.STEAL,
                shard=hottest.shard_id,
                peer=coldest.shard_id,
                vnodes=vnodes,
                reason=(
                    f"skew {hottest.messages_scored / mean:.2f}x "
                    f"(max {hottest.messages_scored} / mean {mean:.1f})"
                ),
            ))
        return plans


# -- schedules & failover ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RebalanceSchedule:
    """Explicit shard-count trajectory over equal arrival-count epochs.

    ``shard_counts=(2, 4, 3)`` serves the first third of the arrivals on
    2 shards, the middle third on 4, and the rest on 3, migrating
    per-target monitor state at each boundary.  ``planned=True``
    (``parse("auto:N")``) instead runs ``N`` equal epochs and lets a
    :class:`RebalancePlanner` decide the topology at each boundary.
    """

    shard_counts: tuple[int, ...] = ()
    planned: bool = False
    epochs: int = 0

    def __post_init__(self) -> None:
        if self.planned:
            if self.epochs < 2:
                raise ValueError(
                    f"a planned schedule needs >= 2 epochs, got {self.epochs}"
                )
            if self.shard_counts:
                raise ValueError(
                    "a planned schedule cannot also fix shard counts"
                )
            return
        if len(self.shard_counts) < 1:
            raise ValueError("a schedule needs at least one shard count")
        for count in self.shard_counts:
            if count < 1:
                raise ValueError(
                    f"shard counts must be >= 1, got {count}"
                )

    @classmethod
    def parse(cls, text: str) -> "RebalanceSchedule":
        """Parse ``"2,4,3"`` (explicit) or ``"auto:4"`` (planner-driven)."""
        text = text.strip()
        if text.startswith("auto:"):
            return cls(planned=True, epochs=int(text.removeprefix("auto:")))
        try:
            counts = tuple(int(part) for part in text.split(","))
        except ValueError as error:
            raise ValueError(
                f"cannot parse rebalance schedule {text!r}; "
                "expected e.g. '2,4,3' or 'auto:4'"
            ) from error
        return cls(shard_counts=counts)

    @property
    def n_epochs(self) -> int:
        return self.epochs if self.planned else len(self.shard_counts)


@dataclasses.dataclass(frozen=True)
class KillSpec:
    """Kill one shard partway through a run to exercise failover.

    ``shard`` is an explicit shard id or :data:`HOTTEST` (resolve to the
    shard with the most scored messages when the kill fires).  The kill
    lands after ``at_fraction`` of the arrivals have been routed: the
    victim finishes its in-flight batch, its queued messages are
    requeued to the surviving owners, and its per-target monitor state
    migrates to them.
    """

    shard: int | str = HOTTEST
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.shard, str):
            if self.shard != HOTTEST:
                raise ValueError(
                    f"KillSpec.shard must be an id or {HOTTEST!r}, "
                    f"got {self.shard!r}"
                )
        elif self.shard < 0:
            raise ValueError(
                f"KillSpec.shard must be >= 0, got {self.shard}"
            )
        if not (
            math.isfinite(self.at_fraction) and 0.0 < self.at_fraction < 1.0
        ):
            raise ValueError(
                "KillSpec.at_fraction must be in (0, 1), "
                f"got {self.at_fraction}"
            )

    @classmethod
    def parse(cls, shard: str, at_fraction: float = 0.5) -> "KillSpec":
        """Parse the CLI form: a shard id or ``"hottest"``."""
        if shard == HOTTEST:
            return cls(shard=HOTTEST, at_fraction=at_fraction)
        return cls(shard=int(shard), at_fraction=at_fraction)


__all__ = [
    "DEFAULT_VNODES",
    "HOTTEST",
    "HashRing",
    "HotKeyPolicy",
    "KillSpec",
    "PlanKind",
    "RebalancePlan",
    "RebalancePlanner",
    "RebalanceSchedule",
    "detect_hot_keys",
    "salt_key",
]
