"""Multi-tenant gateway tests: auth, admission, isolation, bench gate.

The headline invariant: each tenant's merged alert stream out of the
gateway is byte-identical to running that tenant's admitted traffic
alone through a single monitor — across shard counts {1, 2, 4}, a
2→4→3 rebalance schedule, a mid-run kill of the hottest shard, and
``jobs=1`` vs ``jobs=N``.  Around it: the admission conservation law
(``offered == admitted + throttled + rejected_auth + rejected_quota``
per tenant, always), token-bucket edge cases, the preference layer,
and the gateway-bench report + regression gate.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.gateway import (
    AdmissionAccounting,
    Gateway,
    GatewayConfig,
    GatewayTelemetry,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    compare_gateway_reports,
    derive_api_key,
    run_gateway_bench,
)
from repro.gateway.telemetry import TenantTelemetry
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.serve import (
    Arrival,
    KillSpec,
    LoadProfile,
    RebalanceSchedule,
    ServeConfig,
    ServingRuntime,
    alert_sort_key,
    generate_arrivals,
)
from repro.serve.ring import HOTTEST
from repro.service.monitor import (
    AlertKind,
    HarassmentMonitor,
    MonitorConfig,
    tenant_scope,
)
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Source, Task

CTH_TEXT = (
    "we should mass report her account until the platform bans her, "
    "twitter: targetuser99"
)

TENANTS = ("alpha", "beta", "gamma")


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


def _msg(i, text="nothing to see", channel="c", ts=None, tenant=""):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a",
        timestamp=float(i) if ts is None else ts, text=text,
        tenant=tenant,
    )


def _generous_registry(seed=5, tenants=TENANTS, overrides=None):
    overrides = overrides or {}
    return TenantRegistry(seed, [
        TenantConfig(
            tenant=tenant,
            rate_per_second=1e9,
            burst=1_000_000,
            **overrides.get(tenant, {}),
        )
        for tenant in tenants
    ])


def _generous_gateway_config():
    return GatewayConfig(
        fleet_rate_per_second=1e9, fleet_burst=1_000_000,
        feed_capacity=100_000,
    )


@pytest.fixture(scope="module")
def tenant_mix(corpus_stream):
    """A seeded 3-tenant arrival mix over a slice of the live stream."""
    messages = list(corpus_stream)[:4000]
    profile = LoadProfile(
        rate_per_second=4000.0,
        seed=11,
        tenant_weights=(("alpha", 2.0), ("beta", 1.0), ("gamma", 1.0)),
    )
    return generate_arrivals(messages, profile)


@pytest.fixture(scope="module")
def solo_baselines(serve_models, tenant_mix):
    """Per-tenant single-monitor alert streams over their own traffic."""
    factory = _factory(serve_models)
    out = {}
    for tenant in TENANTS:
        solo = [a.message for a in tenant_mix if a.tenant == tenant]
        assert solo, f"mix produced no traffic for {tenant}"
        out[tenant] = sorted(
            factory().run(solo, batch_size=64), key=alert_sort_key
        )
    return out


# -- registry & auth -----------------------------------------------------------

def test_api_keys_are_deterministic_and_seed_scoped():
    assert derive_api_key("alpha", 5) == derive_api_key("alpha", 5)
    assert derive_api_key("alpha", 5) != derive_api_key("alpha", 6)
    assert derive_api_key("alpha", 5) != derive_api_key("beta", 5)
    registry = _generous_registry()
    same = _generous_registry()
    assert registry.credentials() == same.credentials()


def test_authenticate_rejects_wrong_and_unknown():
    registry = _generous_registry()
    key = registry.credentials()["alpha"]
    assert registry.authenticate("alpha", key)
    assert not registry.authenticate("alpha", key[:-1] + "0")
    assert not registry.authenticate("beta", key)
    assert not registry.authenticate("nobody", key)
    assert "alpha" in registry and "nobody" not in registry


@pytest.mark.parametrize("presented", ["0" * 16, "ключ-é-鍵", "", "\x00"])
def test_authenticate_rejects_bad_keys_without_raising(presented):
    registry = _generous_registry()
    assert not registry.authenticate("alpha", presented)
    assert not registry.authenticate("nobody", presented)


def test_tenant_config_validation():
    with pytest.raises(ValueError):
        TenantConfig(tenant="")
    with pytest.raises(ValueError):
        TenantConfig(tenant="a|b")  # would forge scope prefixes
    with pytest.raises(ValueError):
        TenantConfig(tenant="a:b")
    with pytest.raises(ValueError):
        TenantConfig(tenant="a", rate_per_second=float("nan"))
    with pytest.raises(ValueError):
        TenantConfig(tenant="a", burst=-1)
    with pytest.raises(ValueError):
        TenantConfig(tenant="a", cth_threshold=1.5)
    with pytest.raises(ValueError):
        TenantConfig(tenant="a", message_quota=-1)


# -- token-bucket edge cases ---------------------------------------------------

def test_zero_capacity_bucket_never_admits():
    bucket = TokenBucket(rate=100.0, burst=0)
    assert not bucket.peek()
    bucket.refill(1e6)
    assert not bucket.peek()


def test_burst_exactly_at_capacity():
    bucket = TokenBucket(rate=1.0, burst=5)
    for _ in range(5):
        assert bucket.peek()
        bucket.consume()
    assert not bucket.peek()  # the (burst+1)-th simultaneous arrival


def test_refill_is_clamped_and_monotone():
    bucket = TokenBucket(rate=2.0, burst=4)
    for _ in range(4):
        bucket.consume()
    bucket.refill(1.0)
    assert bucket.tokens == pytest.approx(2.0)
    bucket.refill(100.0)  # far future: clamps at capacity
    assert bucket.tokens == pytest.approx(4.0)
    with pytest.raises(ValueError):
        bucket.refill(50.0)  # simulated time must not run backwards
    with pytest.raises(ValueError):
        TokenBucket(rate=float("inf"), burst=1)


def test_zero_capacity_tenant_is_fully_throttled(serve_models):
    registry = TenantRegistry(5, [
        TenantConfig(tenant="suspended", rate_per_second=100.0, burst=0),
    ])
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=1), _generous_gateway_config(),
    )
    arrivals = [
        Arrival(float(i), _msg(i), "suspended") for i in range(10)
    ]
    result = gateway.handle(arrivals, registry.credentials())
    ledger = result.admission["suspended"]
    assert ledger.offered == 10
    assert ledger.admitted == 0
    assert ledger.throttled_tenant == 10
    assert ledger.unaccounted == 0


def test_bucket_refills_across_epoch_boundaries(serve_models):
    """A tenant drained in one handle() round re-earns budget by the next.

    Buckets persist on the gateway and refill on simulated arrival
    time, so a rate-limited tenant admits exactly burst + rate * gap
    messages across rounds — no reset, no leakage.
    """
    registry = TenantRegistry(5, [
        TenantConfig(tenant="alpha", rate_per_second=2.0, burst=4),
    ])
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=1), _generous_gateway_config(),
    )
    # Round one: 10 simultaneous arrivals at t=0 against burst 4.
    first = gateway.handle(
        [Arrival(0.0, _msg(i), "alpha") for i in range(10)],
        registry.credentials(),
    )
    assert first.admission["alpha"].admitted == 4
    assert first.admission["alpha"].throttled_tenant == 6
    # Round two, 3 simulated seconds later: 2.0/s * 3s = 6 tokens
    # accrued, clamped at burst 4.
    second = gateway.handle(
        [Arrival(3.0, _msg(100 + i), "alpha") for i in range(10)],
        registry.credentials(),
    )
    assert second.admission["alpha"].admitted == 4
    assert second.admission["alpha"].throttled_tenant == 6
    for ledger in (*first.admission.values(), *second.admission.values()):
        assert ledger.unaccounted == 0


def test_quota_exhausts_mid_batch_and_persists(serve_models):
    registry = TenantRegistry(5, [
        TenantConfig(
            tenant="alpha", rate_per_second=1e9, burst=1_000_000,
            message_quota=5,
        ),
    ])
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=1), _generous_gateway_config(),
    )
    result = gateway.handle(
        [Arrival(float(i), _msg(i), "alpha") for i in range(8)],
        registry.credentials(),
    )
    ledger = result.admission["alpha"]
    assert ledger.admitted == 5
    assert ledger.rejected_quota == 3
    assert ledger.unaccounted == 0
    # The quota is a lifetime cap: the next round admits nothing.
    again = gateway.handle(
        [Arrival(10.0, _msg(100), "alpha")], registry.credentials()
    )
    assert again.admission["alpha"].rejected_quota == 1
    assert gateway.usage("alpha")["quota_used"] == 5


def test_throttle_decisions_identical_jobs_1_vs_n(serve_models, tenant_mix):
    """Admission happens before the shard fan-out, so jobs never changes it."""
    registry = TenantRegistry(5, [
        TenantConfig(tenant="alpha", rate_per_second=900.0, burst=32),
        TenantConfig(tenant="beta", rate_per_second=300.0, burst=8),
        TenantConfig(
            tenant="gamma", rate_per_second=500.0, burst=16,
            message_quota=200,
        ),
    ])
    outcomes = []
    for jobs in (1, 4):
        gateway = Gateway(
            registry, _factory(serve_models),
            ServeConfig(n_shards=4),
            GatewayConfig(fleet_rate_per_second=1200.0, fleet_burst=64),
        )
        result = gateway.handle(
            tenant_mix, registry.credentials(), jobs=jobs
        )
        outcomes.append(result)
    first, second = outcomes
    assert {
        tenant: first.admission[tenant].as_dict()
        for tenant in sorted(first.admission)
    } == {
        tenant: second.admission[tenant].as_dict()
        for tenant in sorted(second.admission)
    }
    assert first.alerts_by_tenant == second.alerts_by_tenant
    assert first.delivered_by_tenant == second.delivered_by_tenant


# -- admission conservation ----------------------------------------------------

def test_conservation_under_full_mix(serve_models, tenant_mix):
    """Every presented identity's ledger balances, intruders included."""
    registry = TenantRegistry(5, [
        TenantConfig(tenant="alpha", rate_per_second=800.0, burst=16),
        TenantConfig(
            tenant="beta", rate_per_second=200.0, burst=4, message_quota=50
        ),
        # gamma is deliberately NOT registered: its traffic must land
        # in rejected_auth and still conserve.
    ])
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=2),
        GatewayConfig(fleet_rate_per_second=600.0, fleet_burst=32),
    )
    result = gateway.handle(tenant_mix, registry.credentials())
    total_offered = 0
    for tenant in sorted(result.admission):
        ledger = result.admission[tenant]
        assert ledger.unaccounted == 0, tenant
        assert ledger.offered == (
            ledger.admitted + ledger.throttled + ledger.rejected_auth
            + ledger.rejected_quota
        )
        total_offered += ledger.offered
    assert total_offered == len(tenant_mix)
    assert result.admission["gamma"].rejected_auth == (
        result.admission["gamma"].offered
    )
    assert result.admission["beta"].rejected_quota > 0
    assert result.admission["alpha"].throttled > 0
    assert gateway.telemetry.conservation_ok
    assert gateway.health()["status"] == "ok"


def test_wrong_key_and_anonymous_arrivals_rejected(serve_models):
    registry = _generous_registry(tenants=("alpha",))
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=1), _generous_gateway_config(),
    )
    credentials = {"alpha": "not-the-real-key"}
    result = gateway.handle(
        [
            Arrival(0.0, _msg(0), "alpha"),
            Arrival(1.0, _msg(1), ""),  # anonymous
        ],
        credentials,
    )
    assert result.admission["alpha"].rejected_auth == 1
    assert result.admission[""].rejected_auth == 1
    assert result.admitted == 0
    # The presented-but-misauthenticated tenant is still a registered id.
    assert gateway.telemetry.tenants["alpha"].registered
    assert not gateway.telemetry.tenants[""].registered


# -- tenant state isolation ----------------------------------------------------

def test_tenant_scope_prefixes_state_keys():
    assert tenant_scope("") == ""
    assert tenant_scope("alpha") == "tenant:alpha|"


def test_monitor_state_is_tenant_scoped(serve_models):
    """Two tenants naming the same target never share campaign state."""
    factory = _factory(serve_models)
    mixed = factory()
    texts = [CTH_TEXT, CTH_TEXT, CTH_TEXT, CTH_TEXT]
    interleaved = []
    for i, text in enumerate(texts):
        tenant = "alpha" if i % 2 == 0 else "beta"
        interleaved.append(
            _msg(i, text=text, ts=float(i * 60), tenant=tenant)
        )
    mixed_alerts = mixed.run(interleaved, batch_size=2)
    # Solo runs: each tenant alone sees only its own two messages.
    expected = []
    for tenant in ("alpha", "beta"):
        solo = [m for m in interleaved if m.tenant == tenant]
        expected.extend(factory().run(solo, batch_size=2))
    assert sorted(mixed_alerts, key=alert_sort_key) == sorted(
        expected, key=alert_sort_key
    )
    # And the state tables carry the scope prefix.
    scoped = [h for h in mixed.state_handles() if h.startswith("tenant:")]
    assert scoped


def test_solo_baseline_is_stamp_neutral(serve_models, tenant_mix):
    """Stamped vs unstamped solo traffic yields identical alerts."""
    factory = _factory(serve_models)
    solo = [a.message for a in tenant_mix if a.tenant == "alpha"][:500]
    stamped = [dataclasses.replace(m, tenant="alpha") for m in solo]
    bare = [dataclasses.replace(m, tenant="") for m in solo]
    assert factory().run(stamped, batch_size=64) == factory().run(
        bare, batch_size=64
    )


@pytest.mark.parametrize(
    "shards,jobs,schedule,kill",
    [
        (1, 1, None, None),
        (2, 2, None, None),
        (4, 1, None, None),
        (4, 2, None, None),
        (4, 1, "2,4,3", None),
        (4, 2, "2,4,3", None),
        (4, 1, None, KillSpec(HOTTEST, 0.5)),
        (4, 2, None, KillSpec(HOTTEST, 0.5)),
    ],
)
def test_isolation_invariant(
    serve_models, tenant_mix, solo_baselines, shards, jobs, schedule, kill
):
    """HEADLINE: per-tenant gateway output == tenant-alone single monitor.

    Budgets are generous so every arrival is admitted — the baseline is
    then exactly the tenant's slice of the mix — and the invariant must
    survive sharding, rebalancing, and failover alike.
    """
    registry = _generous_registry()
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=shards), _generous_gateway_config(),
    )
    result = gateway.handle(
        tenant_mix,
        registry.credentials(),
        jobs=jobs,
        schedule=RebalanceSchedule.parse(schedule) if schedule else None,
        kill=kill,
    )
    assert result.admitted == len(tenant_mix)
    for tenant in TENANTS:
        assert result.alerts_by_tenant[tenant] == solo_baselines[tenant], (
            f"tenant {tenant} diverged from its solo baseline "
            f"(shards={shards}, jobs={jobs}, schedule={schedule}, "
            f"kill={kill})"
        )


def test_isolation_invariant_under_throttling(serve_models, tenant_mix):
    """With admission losses, the baseline is the admitted slice."""
    registry = TenantRegistry(5, [
        TenantConfig(tenant="alpha", rate_per_second=900.0, burst=16),
        TenantConfig(tenant="beta", rate_per_second=250.0, burst=8),
        TenantConfig(
            tenant="gamma", rate_per_second=400.0, burst=8,
            message_quota=300,
        ),
    ])
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=4),
        GatewayConfig(fleet_rate_per_second=1500.0, fleet_burst=64),
    )
    result = gateway.handle(tenant_mix, registry.credentials(), jobs=2)
    assert 0 < result.admitted < len(tenant_mix)
    factory = _factory(serve_models)
    for tenant in TENANTS:
        admitted = [
            a.message for a in result.admitted_arrivals
            if a.tenant == tenant
        ]
        baseline = sorted(
            factory().run(admitted, batch_size=64), key=alert_sort_key
        )
        assert result.alerts_by_tenant.get(tenant, []) == baseline


# -- preference layer ----------------------------------------------------------

def test_preferences_filter_delivery_not_detection(serve_models, tenant_mix):
    """Threshold/kind overrides change the feed, never the raw stream."""
    picky = {
        "alpha": {
            "cth_threshold": 0.999,
            "enabled_kinds": frozenset({AlertKind.CTH, AlertKind.DOX}),
        },
    }
    registry = _generous_registry(overrides=picky)
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=2), _generous_gateway_config(),
    )
    result = gateway.handle(tenant_mix, registry.credentials())
    plain_registry = _generous_registry()
    plain = Gateway(
        plain_registry, _factory(serve_models),
        ServeConfig(n_shards=2), _generous_gateway_config(),
    ).handle(tenant_mix, plain_registry.credentials())
    # Raw per-tenant streams are preference-independent.
    assert result.alerts_by_tenant == plain.alerts_by_tenant
    # Delivery for the picky tenant is a strict filter of its raw stream.
    raw = result.alerts_by_tenant["alpha"]
    delivered = result.delivered_by_tenant["alpha"]
    assert len(delivered) < len(raw)
    config = registry.config("alpha")
    assert delivered == [a for a in raw if config.delivers(a)]
    entry = gateway.telemetry.tenants["alpha"]
    assert entry.alerts_delivered + entry.alerts_suppressed == (
        entry.alerts_total
    )
    assert entry.alerts_suppressed > 0


# -- completions & feed latency ------------------------------------------------

def test_completions_tracked_only_when_asked(serve_models, tenant_mix):
    factory = _factory(serve_models)
    arrivals = [
        Arrival(a.time, a.message) for a in tenant_mix[:400]
    ]
    off = ServingRuntime(factory, ServeConfig(n_shards=2)).run(arrivals)
    assert off.completions == {}
    on = ServingRuntime(
        factory, ServeConfig(n_shards=2, track_completions=True)
    ).run(arrivals)
    assert len(on.completions) == len(arrivals)
    arrival_time = {a.message.message_id: a.time for a in arrivals}
    for message_id in on.completions:
        assert on.completions[message_id] >= arrival_time[message_id]
    assert off.alerts == on.alerts


def test_feed_latency_recorded_per_delivered_alert(
    serve_models, tenant_mix
):
    registry = _generous_registry()
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=2), _generous_gateway_config(),
    )
    gateway.handle(tenant_mix, registry.credentials())
    for tenant in TENANTS:
        entry = gateway.telemetry.tenants[tenant]
        assert entry.feed_latency.count == entry.alerts_delivered
        if entry.feed_latency.count:
            assert entry.feed_latency.min >= 0.0


# -- telemetry contracts -------------------------------------------------------

def test_tenant_telemetry_merge_contract():
    a = TenantTelemetry(tenant="alpha", registered=True)
    a.admission.offered = 5
    a.admission.admitted = 5
    a.alerts_total = 3
    a.alerts_delivered = 2
    a.alerts_suppressed = 1
    a.feed_latency.record(0.5)
    b = TenantTelemetry(tenant="alpha")
    b.admission.offered = 2
    b.admission.rejected_auth = 2
    merged = a.merge(b)
    assert merged.registered
    assert merged.admission.offered == 7
    assert merged.alerts_total == 3
    assert merged.feed_latency.count == 1
    assert merged.as_dict()["admission"]["unaccounted"] == 0
    with pytest.raises(ValueError):
        a.merge(TenantTelemetry(tenant="beta"))


def test_gateway_telemetry_merge_and_metrics():
    one = GatewayTelemetry(runs=1)
    one.tenant("alpha", registered=True).admission.offered = 3
    one.tenant("alpha", registered=True).admission.admitted = 3
    two = GatewayTelemetry(runs=2)
    two.tenant("alpha", registered=True).admission.offered = 1
    two.tenant("alpha", registered=True).admission.admitted = 1
    two.tenant("zeta", registered=False).admission.offered = 4
    two.tenant("zeta", registered=False).admission.rejected_auth = 4
    merged = one.merge(two)
    assert merged.runs == 3
    assert list(merged.tenants) == ["alpha", "zeta"]
    assert merged.tenants["alpha"].admission.offered == 4
    assert merged.conservation_ok
    assert merged.admission.offered == 8
    snapshot = merged.as_dict()
    assert snapshot["conservation_ok"] is True
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    merged.populate_metrics(registry)
    assert registry.as_dict()  # renders without error, non-empty


def test_admission_accounting_merge_idiom():
    a = AdmissionAccounting(offered=10, admitted=6, throttled_tenant=4)
    b = AdmissionAccounting(offered=3, rejected_auth=3)
    merged = AdmissionAccounting.merged([a, b])
    assert merged.offered == 13
    assert merged.throttled == 4
    assert merged.unaccounted == 0
    assert merged.as_dict()["throttled"] == 4


# -- routes --------------------------------------------------------------------

def test_health_usage_and_metrics_routes(serve_models, tenant_mix):
    registry = _generous_registry()
    gateway = Gateway(
        registry, _factory(serve_models),
        ServeConfig(n_shards=2), _generous_gateway_config(),
    )
    gateway.handle(tenant_mix[:500], registry.credentials())
    health = gateway.health()
    assert health["status"] == "ok"
    assert health["runs"] == 1
    assert sorted(health["feeds"]) == sorted(TENANTS)
    usage = gateway.usage("alpha")
    assert usage["admission"]["offered"] > 0
    assert usage["quota_used"] == usage["admission"]["admitted"]
    # Unknown tenants get a well-formed zero ledger, not an error.
    ghost = gateway.usage("ghost")
    assert ghost["admission"]["offered"] == 0
    assert not ghost["registered"]
    # The metrics route is a pure projection: identical for an
    # identically-driven gateway.
    twin_registry = _generous_registry()
    twin = Gateway(
        twin_registry, _factory(serve_models),
        ServeConfig(n_shards=2), _generous_gateway_config(),
    )
    twin.handle(tenant_mix[:500], twin_registry.credentials())
    assert gateway.metrics_snapshot() == twin.metrics_snapshot()


# -- loadgen tenant mix --------------------------------------------------------

def test_tenant_weights_validation():
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("a", float("nan")),))
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("a", -1.0),))
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("a", 0.0),))
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("a", float("inf")),))
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=())
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("a", 1.0), ("a", 2.0)))
    with pytest.raises(ValueError):
        LoadProfile(tenant_weights=(("", 1.0),))


def test_tenant_weights_accepts_mapping_and_normalizes():
    profile = LoadProfile(tenant_weights={"b": 1.0, "a": 3.0})
    assert profile.tenant_weights == (("a", 3.0), ("b", 1.0))
    shares = profile.tenant_shares()
    assert shares["a"] == pytest.approx(0.75)
    assert math.isclose(sum(shares.values()), 1.0)
    assert LoadProfile().tenant_shares() == {}


def test_tenant_draw_does_not_perturb_arrival_times():
    messages = [_msg(i) for i in range(200)]
    plain = generate_arrivals(messages, LoadProfile(seed=9))
    mixed = generate_arrivals(
        messages,
        LoadProfile(seed=9, tenant_weights=(("a", 1.0), ("b", 1.0))),
    )
    assert [a.time for a in plain] == [a.time for a in mixed]
    assert all(a.tenant == "" for a in plain)
    assert all(a.tenant in ("a", "b") for a in mixed)
    # Deterministic: the same profile draws the same tenants.
    again = generate_arrivals(
        messages,
        LoadProfile(seed=9, tenant_weights=(("b", 1.0), ("a", 1.0))),
    )
    assert [a.tenant for a in mixed] == [a.tenant for a in again]


def test_tenant_mix_tracks_weights():
    messages = [_msg(i) for i in range(2000)]
    arrivals = generate_arrivals(
        messages,
        LoadProfile(seed=13, tenant_weights=(("big", 9.0), ("small", 1.0))),
    )
    share = sum(a.tenant == "big" for a in arrivals) / len(arrivals)
    assert 0.85 < share < 0.95


# -- bench & gate --------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_outcome(serve_models, corpus_stream):
    factory = _factory(serve_models)
    messages = list(corpus_stream)[:3000]
    return run_gateway_bench(factory, messages, seed=7, shards=2)


def test_bench_exercises_every_admission_outcome(bench_outcome):
    report, gateway, result = bench_outcome
    fleet = report["fleet"]
    assert fleet["conservation_ok"]
    assert report["isolation"] == "ok"
    tenants = report["tenants"]
    assert tenants["intruder-x"]["admission"]["rejected_auth"] > 0
    assert tenants["tns-team-b"]["admission"]["throttled_tenant"] > 0
    assert tenants["platform-a"]["admission"]["throttled_fleet"] > 0
    assert tenants["research-c"]["admission"]["rejected_quota"] > 0
    for tenant in sorted(tenants):
        assert tenants[tenant]["admission"]["unaccounted"] == 0


def test_bench_gate_passes_against_itself_and_catches_regressions(
    bench_outcome,
):
    report, _, _ = bench_outcome
    assert compare_gateway_reports(report, report) == []
    # Throughput floor.
    inflated = {
        "fleet": dict(
            report["fleet"],
            throughput_per_second=(
                report["fleet"]["throughput_per_second"] * 2
            ),
        ),
        "tenants": report["tenants"],
    }
    failures = compare_gateway_reports(report, inflated)
    assert any(f.check == "throughput" for f in failures)
    # Conservation and isolation are hard gates.
    broken = dict(report)
    broken["fleet"] = dict(report["fleet"], conservation_ok=False)
    broken["isolation"] = "FAILED"
    failures = compare_gateway_reports(broken, report)
    assert {f.check for f in failures} >= {"conservation", "isolation"}
    # A tenant vanishing from the report is a gate failure too.
    thinned = dict(report)
    thinned["tenants"] = {
        tenant: entry
        for tenant, entry in report["tenants"].items()
        if tenant != "research-c"
    }
    failures = compare_gateway_reports(thinned, report)
    assert any(f.check == "tenants" for f in failures)
