"""Gateway telemetry: per-tenant ledgers, mergeable, snapshot-stable.

Both classes are :class:`~repro.obs.ledger.Ledger` s: each field
declares its fold and its metric, so ``merge()``, ``as_dict()`` (sorted,
so snapshots are byte-stable) and ``populate_metrics()`` into the
unified labeled registry all derive from one table.  All numbers are
simulated-time arithmetic; nothing here reads a clock.
"""

from __future__ import annotations

from repro.gateway.admission import AdmissionAccounting
from repro.obs.ledger import (
    ANY,
    KEY,
    MERGE,
    SUM,
    UNION,
    Ledger,
    Metric,
    derived,
    fold,
)
from repro.obs.metrics import GAUGE, HISTOGRAM, LatencyHistogram

GATEWAY_ALERTS = Metric(
    "gateway_alerts", "per-tenant alerts by delivery outcome"
)


class TenantTelemetry(Ledger):
    """Everything the gateway learned about one tenant's traffic.

    ``registered`` distinguishes real tenants from presented-but-unknown
    identities (intruders still get a ledger — their rejections must
    conserve too).  ``alerts_total`` counts the tenant's raw alert
    stream before the preference layer; ``alerts_delivered`` +
    ``alerts_suppressed`` partition it.  ``feed_latency`` is simulated
    arrival-to-delivery time per delivered alert.  Ledgers merge only
    for the same tenant id.
    """

    tenant: str = fold(KEY, label="tenant")
    registered: bool = fold(ANY, Metric(
        "gateway_tenant_registered", "1 if the tenant is registered", GAUGE
    ))
    admission: AdmissionAccounting = fold(
        MERGE, factory=AdmissionAccounting
    )
    alerts_total: int = fold(SUM, GATEWAY_ALERTS(outcome="total"))
    alerts_delivered: int = fold(SUM, GATEWAY_ALERTS(outcome="delivered"))
    alerts_suppressed: int = fold(SUM, GATEWAY_ALERTS(outcome="suppressed"))
    feed_evicted: int = fold(SUM, Metric(
        "gateway_feed_evicted", "alerts dropped from bounded feeds"
    ))
    feed_latency: LatencyHistogram = fold(MERGE, Metric(
        "gateway_feed_latency_seconds",
        "simulated arrival-to-delivery latency per delivered alert",
        HISTOGRAM,
    ), factory=LatencyHistogram)


class GatewayTelemetry(Ledger):
    """Gateway-wide aggregate: one ledger per presented tenant id.

    Two gateway views merge tenant by tenant; the fleet total is
    :attr:`admission`, every tenant's admission ledger folded.
    """

    tenants: dict[str, TenantTelemetry] = fold(
        UNION,
        Metric("gateway_tenants", "distinct tenant ids presented", GAUGE),
        factory=dict,
        key="tenant",
    )
    runs: int = fold(SUM, Metric(
        "gateway_runs", "handle() calls absorbed by this gateway", GAUGE
    ))

    def tenant(self, tenant: str, registered: bool) -> TenantTelemetry:
        """Get-or-create the ledger for ``tenant`` (mutating accessor)."""
        entry = self.tenants.get(tenant)
        if entry is None:
            entry = TenantTelemetry(tenant=tenant, registered=registered)
            self.tenants[tenant] = entry
        return entry

    @derived
    def conservation_ok(self) -> bool:
        """True iff every tenant's admission ledger balances exactly."""
        return all(
            self.tenants[tenant].admission.unaccounted == 0
            for tenant in sorted(self.tenants)
        )

    @derived
    def admission(self) -> AdmissionAccounting:
        """Fleet admission ledger across every presented tenant id."""
        return AdmissionAccounting.merged(
            self.tenants[tenant].admission for tenant in sorted(self.tenants)
        )
