"""Admission control: token buckets on simulated time, full accounting.

Every arrival offered to the gateway lands in exactly one bucket:

* ``admitted`` — authenticated, within quota, and both the tenant's
  token bucket and the fleet-capacity bucket had a token;
* ``rejected_auth`` — unknown tenant, missing credentials, or a wrong
  API key;
* ``rejected_quota`` — the tenant's hard lifetime message quota was
  already exhausted;
* ``throttled_tenant`` — the tenant's own token bucket was empty;
* ``throttled_fleet`` — the tenant had budget but the shared
  fleet-capacity bucket was empty.

``offered == admitted + throttled + rejected_auth + rejected_quota``
holds per tenant at every step — the same conservation discipline as
:class:`repro.serve.queueing.QueueAccounting`, and the bench report
asserts it for every tenant in every run.

Buckets refill on *simulated* arrival time (the load generator's
ingest clock), never the wall clock, so admission decisions are
byte-identical across runs and across ``jobs=1`` vs ``jobs=N`` — the
admission pass runs single-threaded before the serve fan-out.
"""

from __future__ import annotations

import math

from repro.obs.ledger import SUM, Ledger, Metric, derived, fold


class TokenBucket:
    """Classic token bucket over a simulated clock.

    Starts full.  ``burst`` is the capacity; ``burst=0`` models a
    suspended tenant (never admits).  ``refill`` enforces a monotone
    clock — simulated time running backwards is a bug upstream, not a
    condition to paper over.
    """

    __slots__ = ("rate", "burst", "tokens", "clock")

    def __init__(self, rate: float, burst: int) -> None:
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        if burst < 0:
            raise ValueError(f"burst must be >= 0, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self.tokens = float(burst)
        self.clock = 0.0

    def refill(self, time: float) -> None:
        """Advance the bucket clock to ``time``, accruing tokens."""
        if time < self.clock:
            raise ValueError(
                f"bucket clock moved backwards: {time} < {self.clock}"
            )
        self.tokens = min(
            float(self.burst), self.tokens + (time - self.clock) * self.rate
        )
        self.clock = time

    def peek(self, n: int = 1) -> bool:
        """Would ``n`` tokens be available right now (no consumption)?"""
        return self.tokens >= n

    def consume(self, n: int = 1) -> None:
        """Take ``n`` tokens; caller must have ``peek``-ed first."""
        if self.tokens < n:
            raise ValueError(
                f"consuming {n} tokens from a bucket holding {self.tokens}"
            )
        self.tokens -= n

    def as_dict(self) -> dict[str, float | int]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tokens": self.tokens,
            "clock": self.clock,
        }


GATEWAY_ARRIVALS = Metric(
    "gateway_arrivals", "arrivals per admission outcome"
)


class AdmissionAccounting(Ledger):
    """Arrival-conservation ledger for one tenant at the gateway door."""

    offered: int = fold(SUM, GATEWAY_ARRIVALS(outcome="offered"))
    admitted: int = fold(SUM, GATEWAY_ARRIVALS(outcome="admitted"))
    throttled_tenant: int = fold(
        SUM, GATEWAY_ARRIVALS(outcome="throttled_tenant")
    )
    throttled_fleet: int = fold(
        SUM, GATEWAY_ARRIVALS(outcome="throttled_fleet")
    )
    rejected_auth: int = fold(SUM, GATEWAY_ARRIVALS(outcome="rejected_auth"))
    rejected_quota: int = fold(
        SUM, GATEWAY_ARRIVALS(outcome="rejected_quota")
    )

    @derived
    def throttled(self) -> int:
        """Rate-limited arrivals, regardless of which bucket was dry."""
        return self.throttled_tenant + self.throttled_fleet

    @derived
    def unaccounted(self) -> int:
        """Arrivals in no bucket — zero always; the bench asserts it."""
        return (
            self.offered - self.admitted - self.throttled_tenant
            - self.throttled_fleet - self.rejected_auth
            - self.rejected_quota
        )
