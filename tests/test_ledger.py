"""Property tests for the declarative telemetry ledgers.

Every :class:`~repro.obs.ledger.Ledger` subclass — the ones the runtimes
define and any defined later — is filled with distinct nonzero values
per field and checked against its own field table: each field folds by
its declared rule, the fold has the empty ledger as identity and is
associative, ``as_dict`` renders every field, and ``populate_metrics``
emits every declared metric.  Values are dyadic fractions, so float
sums are exact and associativity can be asserted with ``==``.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import pytest

import repro.gateway  # noqa: F401 - defines the gateway ledgers
import repro.serve  # noqa: F401 - defines the serve ledgers
from repro.obs.ledger import (
    ANY,
    KEY,
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
from repro.obs.metrics import GAUGE, HISTOGRAM, LatencyHistogram, MetricsRegistry


def ledger_classes() -> list[type[Ledger]]:
    """Every well-formed Ledger subclass defined so far, by name."""
    found: dict[str, type[Ledger]] = {}
    pending = list(Ledger.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "_ledger_fields" in vars(cls):  # class creation succeeded
            found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return [found[name] for name in sorted(found)]


def _fields(cls: type[Ledger]) -> dict[str, dataclasses.Field]:
    return {field.name: field for field in dataclasses.fields(cls)}


def _key_value(cls: type[Ledger], key: str, k: int):
    """A member key: a string for a KEY field, the integer otherwise."""
    spec = dict(cls._ledger_fields)[key]
    return f"key-{k}" if spec.fold == KEY else k


def sample(cls: type[Ledger], seed: int) -> Ledger:
    """A ledger whose every field holds a distinct nonzero value.

    ``seed`` varies the values; KEY fields stay equal across seeds so
    samples of one class can merge.
    """
    fields = _fields(cls)
    hints = typing.get_type_hints(cls)
    values = {}
    for index, (name, spec) in enumerate(cls._ledger_fields):
        field = fields[name]
        n = seed * 100 + index + 1
        if spec.fold == KEY:
            values[name] = "key"
        elif spec.fold == ANY:
            values[name] = seed % 2 == 1
        elif spec.fold == MERGE:
            nested = field.default_factory
            if nested is LatencyHistogram:
                histogram = LatencyHistogram()
                for seconds in (n * 0.25, seed * 0.5):
                    histogram.record(seconds)
                values[name] = histogram
            else:
                values[name] = sample(nested, seed)
        elif spec.fold == UNION:
            member_cls = typing.get_args(hints[name])[-1]
            members = []
            # Key 0 is shared by every seed (merges), key seed is not.
            for k in sorted({0, seed}):
                member = sample(member_cls, seed + k)
                setattr(member, spec.key, _key_value(member_cls, spec.key, k))
                members.append(member)
            if field.default_factory is dict:
                values[name] = {getattr(m, spec.key): m for m in members}
            else:
                values[name] = members
        elif hints[name] is float:
            values[name] = n * 0.5
        else:
            values[name] = n
    return cls(**values)


def _expected(spec, a, b):
    """The declared fold, written out independently of the ledger."""
    if spec.fold == SUM:
        return a + b
    if spec.fold == MAX:
        return max(a, b)
    if spec.fold == MIN:
        return min(a, b)
    if spec.fold == ANY:
        return a or b
    if spec.fold == KEY:
        assert a == b
        return a
    if spec.fold == MERGE:
        return a.merge(b).as_dict()
    left = {getattr(m, spec.key): m for m in _members(a)}
    right = {getattr(m, spec.key): m for m in _members(b)}
    return {
        key: (
            left[key].merge(right[key]) if key in left and key in right
            else left.get(key) or right.get(key)
        ).as_dict()
        for key in sorted({*left, *right})
    }


def _members(collection):
    return collection.values() if isinstance(collection, dict) else collection


def _rendered(spec, value):
    if spec.fold == MERGE:
        return value.as_dict()
    if spec.fold == UNION:
        keys = [getattr(m, spec.key) for m in _members(value)]
        assert keys == sorted(keys), "a keyed union stays sorted by key"
        return {key: m.as_dict() for key, m in zip(keys, _members(value))}
    return value


def check_ledger(cls: type[Ledger]) -> None:
    a, b, c = sample(cls, 1), sample(cls, 2), sample(cls, 3)
    merged = a.merge(b)
    # every field folds by its declared rule
    for name, spec in cls._ledger_fields:
        got = _rendered(spec, getattr(merged, name))
        want = _expected(spec, getattr(a, name), getattr(b, name))
        assert got == want, f"{cls.__name__}.{name} ({spec.fold})"
    # merge is pure
    assert a.as_dict() == sample(cls, 1).as_dict()
    assert b.as_dict() == sample(cls, 2).as_dict()
    # the empty ledger is the identity, on either side
    empty = cls.empty()
    assert a.merge(empty).as_dict() == a.as_dict()
    assert empty.merge(a).as_dict() == a.as_dict()
    assert cls.merged([]).as_dict() == empty.as_dict()
    # associative over three operands; merged() and add() agree
    left = a.merge(b).merge(c).as_dict()
    assert a.merge(b.merge(c)).as_dict() == left
    assert cls.merged([a, b, c]).as_dict() == left
    accumulated = sample(cls, 1)
    accumulated.add(b)
    accumulated.add(c)
    assert accumulated.as_dict() == left
    # as_dict renders every field and every derived value
    snapshot = a.as_dict()
    for name, spec in cls._ledger_fields:
        value = getattr(a, name)
        if spec.fold == MERGE:
            value = value.as_dict()
        elif isinstance(value, dict):
            value = {key: member.as_dict() for key, member in value.items()}
        elif isinstance(value, list):
            value = [member.as_dict() for member in value]
        key = spec.report_as or name
        assert snapshot[key] == value, f"{cls.__name__}.{name}"
    for name, _ in cls._ledger_derived:
        assert name in snapshot, f"{cls.__name__}.{name}"
    # populate_metrics emits every declared metric, nested ones under
    # their parent's labels, and nothing else
    registry = MetricsRegistry()
    a.populate_metrics(registry)
    emitted = {
        (name, tuple(sorted(series["labels"].items()))): series["value"]
        for name, family in registry.as_dict().items()
        for series in family["series"]
    }
    expected = list(_expected_series(a, {}))
    assert len(emitted) == len(expected), cls.__name__
    for metric, labels, value in expected:
        key = (metric.name, tuple(sorted(labels.items())))
        assert key in emitted, f"{cls.__name__}: {key}"
        if metric.kind == HISTOGRAM:
            value = value.as_dict()
        elif metric.kind == GAUGE and isinstance(value, bool):
            value = int(value)
        assert emitted[key] == value, f"{cls.__name__}: {key}"


def _expected_series(ledger: Ledger, labels: dict):
    """(metric, labels, value) for every series the ledger should emit."""
    labels = {
        **labels,
        **{
            spec.label: str(getattr(ledger, name))
            for name, spec in ledger._ledger_fields
            if spec.label is not None
        },
    }
    for name, spec in ledger._ledger_fields:
        value = getattr(ledger, name)
        if spec.fold == UNION:
            for member in _members(value):
                yield from _expected_series(member, labels)
            value = len(value)
        elif isinstance(value, Ledger):
            yield from _expected_series(value, {**labels, **dict(spec.labels)})
        if spec.metric is not None:
            yield spec.metric, {**labels, **dict(spec.metric.labels)}, value
    for name, metric in ledger._ledger_derived:
        if metric is not None:
            yield metric, {**labels, **dict(metric.labels)}, getattr(ledger, name)


KNOWN = {
    "AdmissionAccounting",
    "CostBreakdown",
    "GatewayTelemetry",
    "MonitorStats",
    "QueueAccounting",
    "ScoreWork",
    "ServeTelemetry",
    "ShardTelemetry",
    "TenantTelemetry",
}


def test_every_runtime_ledger_is_enumerated():
    assert KNOWN <= {cls.__name__ for cls in ledger_classes()}


@pytest.mark.parametrize(
    "cls", ledger_classes(), ids=lambda cls: cls.__name__
)
def test_ledger_fold_and_projection_properties(cls):
    check_ledger(cls)


def test_every_fold_is_exercised_by_the_runtime_ledgers():
    folds = {
        spec.fold for cls in ledger_classes() for _, spec in cls._ledger_fields
    }
    assert folds == {SUM, MAX, MIN, ANY, KEY, MERGE, UNION}


def test_a_ledger_defined_later_is_enumerated_and_holds():
    class Later(Ledger):
        total: int = fold(SUM, Metric("later_total", "test counter"))
        peak: float = fold(MAX, Metric("later_peak", "test gauge", GAUGE),
                           default=0.0)
        first: float = fold(MIN, default=math.inf)
        seen: bool = fold(ANY)
        latency: LatencyHistogram = fold(
            MERGE, Metric("later_latency", "test histogram", HISTOGRAM),
            factory=LatencyHistogram,
        )

        @derived(Metric("later_span", "test derived gauge", GAUGE))
        def span(self) -> float:
            return self.peak - self.first

    assert Later in ledger_classes()
    check_ledger(Later)


def test_undeclared_field_fails_at_class_creation():
    with pytest.raises(TypeError, match="Broken.forgotten has no fold"):
        class Broken(Ledger):
            counted: int = fold(SUM)
            forgotten: int = 0


def test_fold_declaration_errors():
    with pytest.raises(ValueError, match="unknown fold"):
        fold("median")
    with pytest.raises(ValueError, match="takes a key"):
        fold(UNION, factory=list)
    with pytest.raises(ValueError, match="needs a factory"):
        fold(MERGE)
