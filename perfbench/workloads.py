"""Workload generation, timed passes and the correctness oracle.

Every input is built from the ``--seed``: CTH/DOX filter models are
fitted on a tiny history corpus at ``seed``, live traffic comes from
tiny corpora at ``seed + 1``, ``seed + 2``, ...  The program only ever
sees the generated arrivals, through its public APIs.

Workloads (all single process, no threads, ``jobs=1``):

* ``serve-fresh`` — ~50k messages from four concatenated live corpora,
  about half of them distinct texts, far more than the 4,096-entry
  caches hold; one :meth:`ServingRuntime.run` on 4 shards under the
  bursty open-loop schedule (2,000/s, 40-message bursts).
* ``serve-repeat`` — ~50k messages drawn with replacement from ~1,500
  texts, routing keys Zipf-skewed so that target handles (not only
  channels) cross the 2 % hot-key share and take the deferral path;
  served as 10 consecutive :meth:`ServingRuntime.run` calls of 5,000
  arrivals, each on a fresh runtime.
* ``gateway-rounds`` — the four-tenant mix of :mod:`repro.gateway.bench`
  over the same ~50k messages, cut into 200 closed-loop rounds; each
  round is one :meth:`Gateway.handle` (rebalance schedule ``2,4,3``,
  hottest-shard kill at 0.5) followed by a drain of every tenant's feed.

A pass runs a workload's *units* in order: one
:meth:`ServingRuntime.run` each on the serve workloads, one closed-loop
round each on gateway-rounds.  A timed pass runs the :mod:`calibration`
kernel, which tracks the host's speed, between units and outside their
timing.
``BENCHMARK.json`` lists serve-repeat and gateway-rounds
(:data:`BENCHMARKED`).  serve-fresh stays runnable by name, but it is a
single unit of ~9 s (it must be one run to overflow the caches), too
coarse for the kernel runs between units to track the host's speed
during it; its layers are all reached by gateway-rounds, which serves
the same messages.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import math
import statistics
import time
from typing import Callable, Sequence

import numpy as np

from calibration import host_factor, time_kernel
from repro.corpus.documents import Document
from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.gateway.bench import bench_profile, bench_registry
from repro.gateway.feeds import FeedPage
from repro.gateway.gateway import Gateway, GatewayConfig, GatewayResult
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.score.core import ScoreWork, ScoringCore, extract_targets
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.ring import KillSpec, RebalanceSchedule
from repro.serve.runtime import (
    ServeConfig,
    ServeResult,
    ServingRuntime,
    alert_sort_key,
    routing_key,
)
from repro.service.monitor import Alert, HarassmentMonitor
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Task

WORKLOADS = ("serve-fresh", "serve-repeat", "gateway-rounds")
#: the workloads ``BENCHMARK.json`` lists
BENCHMARKED = ("serve-repeat", "gateway-rounds")

N_SHARDS = 4
#: the gateway rounds' elasticity: resize 2 -> 4 -> 3, kill the hottest
#: shard halfway through
SCHEDULE = RebalanceSchedule.parse("2,4,3")
KILL = KillSpec.parse("hottest", 0.5)
#: timed passes per untraced run, after one untimed warm-up pass.  The
#: count is fixed, so it does not depend on the host's speed; a pass
#: takes about 3.5 s on serve-repeat, 4 s on gateway-rounds and 9 s on
#: serve-fresh on the reference host.
TIMED_PASSES = {"serve-fresh": 3, "serve-repeat": 4, "gateway-rounds": 4}
#: calibration kernel runs (~7 ms each) per timed pass, spread evenly
#: over the gaps after its units
CALIBRATION_REPS = 60
#: calibration kernel runs before and after each set-up
SETUP_CALIBRATION_REPS = 20
#: serve-repeat: Zipf exponent over routing keys, the default Zipfian
#: constant of YCSB (Cooper et al., "Benchmarking Cloud Serving Systems
#: with YCSB", SoCC 2010) for skewed key popularity
ZIPF_EXPONENT = 0.99


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMALL` the tests."""

    live_corpora: int = 4
    #: cap on live messages (``None``: every message of every corpus)
    message_limit: int | None = None
    repeat_messages: int = 50_000
    repeat_pool: int = 1_500
    #: serve-repeat: consecutive runs the messages are served in
    repeat_runs: int = 10
    rounds: int = 200
    #: entries in the router LRU and each shard's token/extraction LRU
    cache_capacity: int = 4096
    #: round samples required beyond the reported p95
    min_tail_samples: int = 10
    #: set-ups per untraced run; ``setup_s`` is their median
    setup_repeats: int = 3


FULL = Scale()
SMALL = Scale(
    live_corpora=1,
    message_limit=3_000,
    repeat_messages=3_000,
    repeat_pool=200,
    repeat_runs=2,
    rounds=20,
    cache_capacity=256,
    min_tail_samples=1,
    setup_repeats=1,
)


#: glibc, for ``malloc_trim``
_LIBC = ctypes.CDLL("libc.so.6")


class GuardError(RuntimeError):
    """A workload no longer has the traffic property it exists for."""


# -- set-up ----------------------------------------------------------------


@dataclasses.dataclass
class Models:
    cth: LogisticRegressionClassifier
    dox: LogisticRegressionClassifier
    vectorizer: HashingVectorizer

    def monitor_factory(
        self, cache_capacity: int
    ) -> Callable[[], HarassmentMonitor]:
        def factory() -> HarassmentMonitor:
            core = ScoringCore(
                self.cth,
                self.dox,
                self.vectorizer,
                token_cache_size=cache_capacity,
                extraction_cache_size=cache_capacity,
                coding_cache_size=max(1, cache_capacity // 2),
            )
            return HarassmentMonitor(
                self.cth, self.dox, self.vectorizer, core=core
            )

        return factory


def platform_documents(seed: int) -> list[Document]:
    """The tiny corpus at ``seed`` without its blog substrate.

    Blogs never enter the stream; building the corpus without them
    yields the same platform documents (each component draws from its
    own child RNG) in less time.
    """
    config = dataclasses.replace(CorpusConfig.tiny(seed), include_blogs=False)
    return [
        d for d in CorpusBuilder(config).build()
        if d.platform is not Platform.BLOGS
    ]


def fit_models(seed: int, epochs: int = 5) -> Models:
    """Fit the CTH and DOX filters on a tiny history corpus at ``seed``."""
    docs = platform_documents(seed)
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in docs])
    models = {
        task: LogisticRegressionClassifier(epochs=epochs, seed=seed).fit(
            features, np.array([d.truth_for(task) for d in docs])
        )
        for task in Task
    }
    return Models(models[Task.CTH], models[Task.DOX], vectorizer)


def live_messages(seed: int, scale: Scale) -> list[StreamMessage]:
    """Concatenated live corpora, renumbered so ids and times stay unique."""
    messages: list[StreamMessage] = []
    for k in range(scale.live_corpora):
        stream = list(MessageStream(platform_documents(seed + 1 + k)))
        shift = (
            messages[-1].timestamp + 1.0 - stream[0].timestamp
            if messages else 0.0
        )
        for message in stream:
            messages.append(dataclasses.replace(
                message,
                message_id=len(messages),
                timestamp=message.timestamp + shift,
            ))
    if scale.message_limit is not None:
        messages = messages[: scale.message_limit]
    return messages


def repeat_messages(seed: int, scale: Scale) -> list[StreamMessage]:
    """Messages drawn with replacement from a small pool of texts.

    The pool's routing keys are ranked alternately target handle,
    channel, handle, ... in a seeded order and drawn with Zipf weights,
    so the heaviest keys include target handles as well as channels.
    Timestamps are drawn uniformly over the source corpus's time span.
    """
    rng = np.random.default_rng(seed)
    source = MessageStream(platform_documents(seed + 1))
    first_by_text: dict[str, StreamMessage] = {}
    for message in source:
        first_by_text.setdefault(message.text, message)
    distinct = list(first_by_text.values())
    picked = np.sort(rng.choice(len(distinct), scale.repeat_pool, replace=False))
    groups: dict[str, list[StreamMessage]] = {}
    handle_keys: list[str] = []
    channel_keys: list[str] = []
    for index in picked:
        message = distinct[int(index)]
        extraction = extract_targets(message.text)
        key = routing_key(message, extraction)
        if key not in groups:
            groups[key] = []
            if extraction.primary_handle is None:
                channel_keys.append(key)
            else:
                handle_keys.append(key)
        groups[key].append(message)
    rng.shuffle(handle_keys)
    rng.shuffle(channel_keys)
    ranked: list[str] = []
    for pair in zip(handle_keys, channel_keys):
        ranked.extend(pair)
    shorter = min(len(handle_keys), len(channel_keys))
    ranked.extend(handle_keys[shorter:] or channel_keys[shorter:])
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_EXPONENT
    keys = rng.choice(
        len(ranked), scale.repeat_messages, p=weights / weights.sum()
    )
    times = np.sort(rng.uniform(*source.time_span(), scale.repeat_messages))
    messages: list[StreamMessage] = []
    for key_index, timestamp in zip(keys, times):
        group = groups[ranked[int(key_index)]]
        source = group[int(rng.integers(len(group)))]
        messages.append(dataclasses.replace(
            source, message_id=len(messages), timestamp=float(timestamp)
        ))
    return messages


@dataclasses.dataclass
class Workload:
    name: str
    seed: int
    scale: Scale
    monitor_factory: Callable[[], HarassmentMonitor]
    #: every arrival offered to the program, in order
    arrivals: list[Arrival]
    #: the arrivals cut into consecutive units: serve runs, or
    #: gateway-rounds' closed-loop rounds
    units: list[list[Arrival]]

    @property
    def is_gateway(self) -> bool:
        return self.name == "gateway-rounds"

    @property
    def serve_config(self) -> ServeConfig:
        return ServeConfig(
            n_shards=N_SHARDS,
            extraction_cache_size=self.scale.cache_capacity,
        )


def build_workload(name: str, seed: int, scale: Scale = FULL) -> Workload:
    """The whole set-up: corpora, model fit and the generated arrivals."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    factory = fit_models(seed).monitor_factory(scale.cache_capacity)
    if name == "gateway-rounds":
        arrivals = generate_arrivals(
            live_messages(seed, scale), bench_profile(seed)
        )
        units = scale.rounds
    else:
        messages = (
            live_messages(seed, scale) if name == "serve-fresh"
            else repeat_messages(seed, scale)
        )
        profile = LoadProfile(
            rate_per_second=2000.0, burst_every=40, burst_size=40, seed=seed
        )
        arrivals = generate_arrivals(messages, profile)
        units = 1 if name == "serve-fresh" else scale.repeat_runs
    bounds = np.linspace(0, len(arrivals), units + 1).astype(int)
    return Workload(name, seed, scale, factory, arrivals, [
        arrivals[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def timed_setup(
    name: str, seed: int, scale: Scale, repeats: int = 1
) -> tuple[Workload, float, float]:
    """Set the workload up ``repeats`` times.

    Returns the first set-up, the median set-up seconds at the
    reference host's speed (each set-up divided by the
    :func:`~calibration.host_factor` of kernel runs just before and
    after it) and the median wall seconds.  Every set-up builds the same
    inputs from the seed, so the later ones are only timed and dropped.
    """
    normalized: list[float] = []
    walls: list[float] = []
    workload = None
    for _ in range(repeats):
        gc.collect()
        samples = time_kernel(SETUP_CALIBRATION_REPS)
        start = time.perf_counter_ns()
        built = build_workload(name, seed, scale)
        wall = (time.perf_counter_ns() - start) / 1e9
        samples += time_kernel(SETUP_CALIBRATION_REPS)
        walls.append(wall)
        normalized.append(wall / host_factor(samples))
        workload = workload or built
        del built
    return workload, statistics.median(normalized), statistics.median(walls)


# -- timed passes ----------------------------------------------------------


@dataclasses.dataclass
class Round:
    result: GatewayResult
    pages: dict[str, FeedPage]


@dataclasses.dataclass
class Pass:
    """One execution of a workload against a fresh runtime or gateway."""

    offered: int
    #: wall time of each of the workload's units, in order
    unit_ns: list[int]
    #: calibration kernel times, taken between units
    calibration_ns: list[int]
    #: serve workloads: one result per run
    serve: list[ServeResult] | None = None
    #: gateway-rounds: every round, and the gateway after the last one
    rounds: list[Round] | None = None
    gateway: Gateway | None = None

    @property
    def wall_ns(self) -> int:
        return sum(self.unit_ns)

    @property
    def host_factor(self) -> float:
        return host_factor(self.calibration_ns)

    def serve_results(self) -> list[ServeResult]:
        if self.serve is not None:
            return self.serve
        return [r.result.serve for r in self.rounds]


def run_pass(workload: Workload, calibrate: bool = False) -> Pass:
    """Run the workload once; only the program's calls are timed.  With
    ``calibrate``, the calibration kernel runs between units."""
    clock = time.perf_counter_ns
    units = len(workload.units)
    total = CALIBRATION_REPS if calibrate else 0
    # Kernel runs after unit i: ``total`` spread evenly.
    reps = [
        (i + 1) * total // units - i * total // units for i in range(units)
    ]
    unit_ns: list[int] = []
    calibration_ns: list[int] = []
    if not workload.is_gateway:
        results: list[ServeResult] = []
        for unit, after in zip(workload.units, reps):
            start = clock()
            runtime = ServingRuntime(
                workload.monitor_factory, workload.serve_config
            )
            results.append(runtime.run(unit))
            unit_ns.append(clock() - start)
            calibration_ns += time_kernel(after)
        return Pass(
            len(workload.arrivals), unit_ns, calibration_ns, serve=results
        )
    registry = bench_registry(workload.seed)
    gateway = Gateway(
        registry,
        workload.monitor_factory,
        workload.serve_config,
        GatewayConfig(fleet_rate_per_second=900.0, fleet_burst=64),
    )
    credentials = registry.credentials()
    tenants = registry.tenant_ids()
    cursors = dict.fromkeys(tenants, 0)
    rounds: list[Round] = []
    for chunk, after in zip(workload.units, reps):
        start = clock()
        result = gateway.handle(chunk, credentials, schedule=SCHEDULE, kill=KILL)
        pages: dict[str, FeedPage] = {}
        for tenant in tenants:
            page = gateway.read_feed(tenant, cursors[tenant])
            cursors[tenant] = page.cursor
            pages[tenant] = page
        unit_ns.append(clock() - start)
        rounds.append(Round(result, pages))
        calibration_ns += time_kernel(after)
    return Pass(
        len(workload.arrivals), unit_ns, calibration_ns,
        rounds=rounds, gateway=gateway,
    )


def reset_peak_rss() -> None:
    """Lower this process's resident high-water mark to its live heap.

    Memory that the set-ups freed but malloc still holds is returned to
    the system first, so the mark starts from the live data rather than
    from how the set-ups happened to fragment the heap (that left 5 %
    between runs of the same workload).
    """
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def peak_rss_mb() -> float:
    """This process's resident high-water mark (``VmHWM``, in KiB)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_passes(workload: Workload) -> tuple[list[Pass], float]:
    """One warm-up pass, then the workload's :data:`TIMED_PASSES`.

    The pass count is fixed, so it does not depend on the host's speed,
    and the warm-up pass keeps the cold start out of the timed passes.
    Each pass starts from a collected heap, so garbage left by the
    previous pass is not billed to the next one.  Also returns the peak
    RSS of the warm-up pass, with the high-water mark reset after
    set-up: later passes run while the benchmark still holds earlier
    results for the oracle.  Every returned pass is checked; the first
    is the warm-up, which runs no calibration kernel.
    """
    gc.collect()
    reset_peak_rss()
    passes = [run_pass(workload)]
    rss = peak_rss_mb()
    for _ in range(TIMED_PASSES[workload.name]):
        gc.collect()
        passes.append(run_pass(workload, calibrate=True))
    return passes, rss


# -- correctness oracle ----------------------------------------------------


def _alert_key(alert: Alert) -> tuple:
    return (
        alert.kind.value, alert.target_handle or "", alert.detail, alert.score,
        alert.timestamp,
    )


def alert_failures(
    served: Sequence[Alert], reference: Sequence[Alert]
) -> set[int]:
    """Ids of messages whose alerts differ from the reference's."""
    by_message: dict[int, list[list[tuple]]] = {}
    for side, alerts in enumerate((served, reference)):
        for alert in alerts:
            entry = by_message.setdefault(alert.message_id, [[], []])
            entry[side].append(_alert_key(alert))
    return {
        message_id
        for message_id, (mine, theirs) in by_message.items()
        if sorted(mine) != sorted(theirs)
    }


def reference_alerts(
    workload: Workload, messages: Sequence[StreamMessage]
) -> list[Alert]:
    """A single monitor over ``messages``: the sharded runs' oracle."""
    if not messages:
        return []
    return sorted(
        workload.monitor_factory().run(
            messages, batch_size=workload.serve_config.batch_size
        ),
        key=alert_sort_key,
    )


def pass_failures(
    workload: Workload,
    run: Pass,
    reference: list[list[Alert]] | None = None,
    solo: dict[tuple[int, str], list[Alert]] | None = None,
) -> int:
    """Messages of one pass that failed; ``reference`` (per serve run)
    and ``solo`` are the single-monitor outputs, computed once and
    shared by every pass."""
    if run.serve is not None:
        failed = sum(
            len(alert_failures(result.alerts, alerts)) + result.unaccounted
            for result, alerts in zip(run.serve, reference)
        )
        return min(run.offered, failed)
    failed: set[int] = set()
    unaccounted = 0
    registry = bench_registry(workload.seed)
    delivered_total = dict.fromkeys(registry.tenant_ids(), 0)
    read_total = dict.fromkeys(registry.tenant_ids(), 0)
    for index, (chunk, record) in enumerate(zip(workload.units, run.rounds)):
        result = record.result
        ids_of: dict[str, set[int]] = {}
        for arrival in chunk:
            ids_of.setdefault(arrival.tenant, set()).add(
                arrival.message.message_id
            )
        # Admission conservation: every offered arrival in one bucket.
        for tenant, ids in ids_of.items():
            ledger = result.admission.get(tenant)
            if (
                ledger is None or ledger.unaccounted != 0
                or ledger.offered != len(ids)
            ):
                failed |= ids
        unaccounted += result.serve.unaccounted
        for tenant in registry.tenant_ids():
            # Isolation: the tenant's stream equals its admitted traffic
            # alone through a single monitor.
            raw = result.alerts_by_tenant.get(tenant, [])
            failed |= alert_failures(raw, solo[(index, tenant)])
            # Preferences filter delivery only.
            config = registry.config(tenant)
            delivered = result.delivered_by_tenant.get(tenant, [])
            failed |= alert_failures(
                delivered, [a for a in raw if config.delivers(a)]
            )
            # Feed books: the drain returns this round's deliveries,
            # with evictions reported as a gap, never silently skipped.
            page = record.pages[tenant]
            delivered_total[tenant] += len(delivered)
            read_total[tenant] += page.gap + len(page.alerts)
            if (
                page.gap + len(page.alerts) != len(delivered)
                or page.alerts != tuple(delivered[page.gap:])
            ):
                failed |= {a.message_id for a in delivered}
                failed |= {a.message_id for a in page.alerts}
    for tenant in registry.tenant_ids():
        feed = run.gateway.feed(tenant)
        if not (delivered_total[tenant] == read_total[tenant] == feed.next_cursor):
            failed |= {
                a.message_id for record in run.rounds
                for a in record.result.delivered_by_tenant.get(tenant, [])
            }
    if not run.gateway.telemetry.conservation_ok:
        unaccounted += sum(
            entry.admission.unaccounted
            for entry in run.gateway.telemetry.tenants.values()
        )
    return min(run.offered, len(failed) + unaccounted)


def solo_references(
    workload: Workload, run: Pass
) -> dict[tuple[int, str], list[Alert]]:
    """Per round and tenant, a solo monitor over its admitted arrivals."""
    solo: dict[tuple[int, str], list[Alert]] = {}
    for index, record in enumerate(run.rounds):
        for tenant in bench_registry(workload.seed).tenant_ids():
            solo[(index, tenant)] = reference_alerts(workload, [
                a.message for a in record.result.admitted_arrivals
                if a.tenant == tenant
            ])
    return solo


def check_passes(workload: Workload, passes: Sequence[Pass]) -> tuple[int, int, bool]:
    """(attempted, failed, deterministic) over every pass.

    The oracle runs outside the timed region.  Every pass is compared in
    full; ``deterministic`` is whether every pass produced the same
    alerts as the first.
    """
    reference = solo = None
    if not workload.is_gateway:
        # Each run starts from fresh monitors: one reference per run.
        reference = [
            reference_alerts(workload, [a.message for a in unit])
            for unit in workload.units
        ]
    else:
        # Admission is deterministic, so every pass admits the same
        # arrivals; the first pass's admitted sets give the references.
        solo = solo_references(workload, passes[0])
    attempted = failed = 0
    first = [r.alerts for r in passes[0].serve_results()]
    deterministic = True
    for run in passes:
        attempted += run.offered
        failed += pass_failures(workload, run, reference, solo)
        if [r.alerts for r in run.serve_results()] != first:
            deterministic = False
    return attempted, failed, deterministic


# -- traffic description and guards ----------------------------------------


def hot_keys(run: Pass) -> tuple[set[str], set[str]]:
    """Distinct routing keys the router split: (handle keys, channel keys)."""
    handles: set[str] = set()
    channels: set[str] = set()
    for result in run.serve_results():
        for key in result.hot_keys:
            # Gateway keys carry a ``tenant:<id>|`` scope prefix.
            bare = key.rsplit("|", 1)[-1]
            (channels if bare.startswith("channel:") else handles).add(key)
    return handles, channels


def describe(workload: Workload, run: Pass) -> dict[str, object]:
    """Traffic properties the workload exists for, from one pass."""
    messages = len(workload.arrivals)
    distinct = len({a.message.text for a in workload.arrivals})
    hot_handles, hot_channels = hot_keys(run)
    deferred = sum(
        result.reunify["messages"]
        for result in run.serve_results() if result.reunify
    )
    profile: dict[str, object] = {
        "workload": workload.name,
        "seed": workload.seed,
        "messages": messages,
        "distinct_texts": distinct,
        "distinct_text_share": distinct / messages,
        "cache_capacity": workload.scale.cache_capacity,
        "shards": N_SHARDS,
        "units": len(workload.units),
        "hot_handle_keys": len(hot_handles),
        "hot_channel_keys": len(hot_channels),
        "deferred_messages": deferred,
    }
    if run.rounds is not None:
        offered: dict[str, int] = {}
        admitted = 0
        for record in run.rounds:
            for tenant, ledger in record.result.admission.items():
                offered[tenant] = offered.get(tenant, 0) + ledger.offered
                admitted += ledger.admitted
        total = sum(offered.values())
        profile["rounds"] = len(run.rounds)
        profile["tenant_shares"] = {
            tenant: offered[tenant] / total for tenant in sorted(offered)
        }
        profile["admitted_share"] = admitted / total
    return profile


def check_guards(workload: Workload, profile: dict, round_ms: list[float]) -> None:
    """Fail the run when a workload lost the property it was chosen for."""
    scale = workload.scale
    if workload.name == "serve-fresh":
        needed = N_SHARDS * scale.cache_capacity
        if profile["distinct_texts"] < needed:
            raise GuardError(
                f"serve-fresh has {profile['distinct_texts']} distinct texts; "
                f"it must exceed the caches ({N_SHARDS} shards x "
                f"{scale.cache_capacity} entries = {needed})"
            )
    elif workload.name == "serve-repeat":
        if not profile["hot_handle_keys"] or not profile["deferred_messages"]:
            raise GuardError(
                "serve-repeat no longer takes the handle-key deferral path "
                f"({profile['hot_handle_keys']} hot handle keys, "
                f"{profile['deferred_messages']} deferred messages)"
            )
    else:
        _, beyond = tail_quantile(round_ms, 0.95)
        if beyond < scale.min_tail_samples:
            raise GuardError(
                f"gateway-rounds has {beyond} round samples beyond p95; "
                f"needs {scale.min_tail_samples}"
            )


# -- measurements ----------------------------------------------------------


def tail_quantile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def round_latencies_ms(passes: Sequence[Pass]) -> list[float]:
    return [
        ns / 1e6 for run in passes if run.rounds is not None
        for ns in run.unit_ns
    ]


def msgs_per_second(passes: Sequence[Pass]) -> float:
    """Messages offered per second at the reference host's speed.

    Each pass's wall rate is scaled by the pass's own host factor (the
    median kernel time between its units over the reference), then the
    median over passes is taken.
    """
    return statistics.median(
        p.offered / (p.wall_ns / 1e9) * p.host_factor for p in passes
    )


def deferred_share(run: Pass) -> float:
    """Alerts held back for the hot-key reunification replay / all alerts."""
    deferred = total = 0
    for result in run.serve_results():
        total += len(result.alerts)
        if result.reunify:
            deferred += result.reunify["alerts"]
    return deferred / total if total else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_counts(run: Pass) -> dict[str, tuple[float, str]]:
    """Work counts and ratios per layer, from the program's own ledgers."""
    results = run.serve_results()
    work = ScoreWork()
    batches = unaccounted = migrated = reunified = alerts = 0
    skews: list[float] = []
    shed = dropped = requeued = 0
    for result in results:
        telemetry = result.telemetry
        work.add(telemetry.merged_score_work())
        batches += sum(shard.batches for shard in telemetry.shards)
        unaccounted += result.unaccounted
        alerts += len(result.alerts)
        migrated += sum(r["migrated_handles"] for r in result.rebalances)
        if result.failover:
            migrated += result.failover["migrated_handles"]
        if result.reunify:
            reunified += result.reunify["messages"]
        if telemetry.shards:
            skews.append(telemetry.load_skew)
        accounting = telemetry.merged_accounting()
        shed += accounting.shed
        dropped += accounting.dropped
        requeued += accounting.requeued
    hot_handles, hot_channels = hot_keys(run)
    counts: dict[str, tuple[float, str]] = {
        "extraction.pii.router_cache_hit_ratio": (
            _ratio(work.extraction_cache_hits, work.extracted_messages),
            "ratio",
        ),
        "nlp.features.rows": (work.messages, "count"),
        "nlp.tokenize.cache_hit_ratio": (
            _ratio(work.token_cache_hits, work.tokenized_messages), "ratio"
        ),
        "taxonomy.coding.cache_hit_ratio": (
            _ratio(work.coding_cache_hits, work.coded_messages), "ratio"
        ),
        "service.monitor.alerts": (alerts, "count"),
        "service.monitor.alerts_deferred_share": (deferred_share(run), "ratio"),
        "service.monitor.migrated_handles": (migrated, "count"),
        "service.monitor.reunified_messages": (reunified, "count"),
        "serve.runtime.batches": (batches, "count"),
        "serve.runtime.unaccounted": (unaccounted, "count"),
        "serve.ring.load_skew": (
            statistics.median(skews) if skews else 0.0, "x"
        ),
        "serve.ring.hot_handle_keys": (len(hot_handles), "count"),
        "serve.ring.hot_channel_keys": (len(hot_channels), "count"),
        "serve.queueing.shed": (shed, "count"),
        "serve.queueing.dropped": (dropped, "count"),
        "serve.queueing.requeued": (requeued, "count"),
    }
    admission = dict.fromkeys((
        "offered", "admitted", "throttled_tenant", "throttled_fleet",
        "rejected_auth", "rejected_quota",
    ), 0)
    gaps = 0
    for record in run.rounds or ():
        for ledger in record.result.admission.values():
            for field in admission:
                admission[field] += getattr(ledger, field)
        gaps += sum(page.gap for page in record.pages.values())
    for field, value in admission.items():
        counts[f"gateway.{field}"] = (value, "count")
    counts["gateway.feeds.gap_alerts"] = (gaps, "count")
    return counts
