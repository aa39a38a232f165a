"""Declarative telemetry ledgers: one field table drives every fold.

Every telemetry record the two runtimes keep — queue and admission
conservation ledgers, monitor and scoring-work counters, the busy-time
breakdown, per-shard and per-tenant telemetry and their fleet-wide
collections — is a :class:`Ledger`.  Each field states in one place how
two ledgers combine (its *fold*) and where its value goes in the labeled
registry (its *projection*)::

    QUEUE = Metric("queue_messages", "messages per queue-accounting outcome")

    class QueueAccounting(Ledger):
        offered: int = fold(SUM, QUEUE(outcome="offered"))
        max_depth: int = fold(MAX, Metric("queue_max_depth", "...", GAUGE))

``merge``, ``merged`` (the fold from an empty ledger), in-place ``add``,
``as_dict`` and ``populate_metrics`` are derived from a per-class table
built once, when the class is created.  A field therefore cannot be
merged but not reported, or reported but not merged: a field without a
:func:`fold` declaration is a ``TypeError`` at class creation.

Folds:

* ``SUM`` / ``MAX`` / ``MIN`` — counts, high-water marks, earliest times;
* ``ANY`` — boolean or;
* ``KEY`` — an identity both operands must share (first-or-equal);
* ``MERGE`` — a nested ledger or a
  :class:`~repro.obs.metrics.LatencyHistogram`, through its own
  ``merge``; a nested ledger projects through its own
  ``populate_metrics``;
* ``UNION`` — a keyed collection of ledgers (a list kept sorted by key,
  or a dict): members with equal keys merge, and the collection's metric,
  if any, is its size.

A field's default is its fold's identity, so ``merged([])`` is the
empty ledger and ``a.merge(empty) == a``.  Values that are computed, not
folded (``unaccounted``, ``load_skew``, ...), are :func:`derived`
properties: ``as_dict`` renders them after the fields and
``populate_metrics`` projects those that name a metric.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable, Iterable, Mapping, TypeVar

from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM

SUM = "sum"
MAX = "max"
MIN = "min"
ANY = "any"
KEY = "key"
MERGE = "merge"
UNION = "union"

_METADATA_KEY = "ledger"

L = TypeVar("L", bound="Ledger")


@dataclasses.dataclass(frozen=True)
class Metric:
    """A metric family, plus fixed labels, that a ledger value projects into."""

    name: str
    help: str
    kind: str = COUNTER
    labels: tuple[tuple[str, str], ...] = ()

    def __call__(self, **labels: str) -> "Metric":
        """This family with fixed labels, e.g. ``QUEUE(outcome="shed")``."""
        return dataclasses.replace(self, labels=tuple(labels.items()))

    def emit(self, registry, value: Any, labels: Mapping[str, str]) -> None:
        family = getattr(registry, self.kind)(self.name, help=self.help)
        series = family.labels(**dict(self.labels), **labels)
        if self.kind == HISTOGRAM:
            series.merge_from(value)
        elif self.kind == GAUGE:
            series.set(int(value) if isinstance(value, bool) else value)
        else:
            series.inc(value)


def _first_or_equal(a: Any, b: Any) -> Any:
    if a is None or a == b:
        return b
    if b is None:
        return a
    raise ValueError(f"cannot merge ledgers keyed {a!r} and {b!r}")


def _merge(a: Any, b: Any) -> Any:
    return a.merge(b)


def _members(collection) -> Iterable["Ledger"]:
    return collection.values() if isinstance(collection, dict) else collection


def _union(key: str) -> Callable[[Any, Any], Any]:
    """Keyed union: members sharing ``key`` merge, output sorted by key."""

    def union(a, b):
        by_key: dict[Any, Ledger] = {}
        for member in (*_members(a), *_members(b)):
            seen = by_key.get(getattr(member, key))
            by_key[getattr(member, key)] = (
                member if seen is None else seen.merge(member)
            )
        if isinstance(a, dict):
            return {k: by_key[k] for k in sorted(by_key)}
        return [by_key[k] for k in sorted(by_key)]

    return union


_COMBINE: dict[str, Callable[[Any, Any], Any]] = {
    SUM: lambda a, b: a + b,
    MAX: max,
    MIN: min,
    ANY: lambda a, b: a or b,
    KEY: _first_or_equal,
    MERGE: _merge,
}
#: defaults for folds whose identity needs no declaration
_ZERO: dict[str, Any] = {SUM: 0, MAX: 0, ANY: False}
#: identities for the fields that are required arguments (no default)
_REQUIRED_IDENTITY: dict[str, Any] = {KEY: None, MIN: math.inf}


@dataclasses.dataclass(frozen=True)
class _Spec:
    fold: str
    combine: Callable[[Any, Any], Any]
    metric: Metric | None
    key: str | None
    label: str | None
    labels: tuple[tuple[str, str], ...]
    report_as: str | None
    required: bool


def fold(
    kind: str,
    metric: Metric | None = None,
    *,
    default: Any = dataclasses.MISSING,
    factory: Callable[[], Any] | Any = dataclasses.MISSING,
    key: str | None = None,
    label: str | None = None,
    labels: Mapping[str, str] | None = None,
    report_as: str | None = None,
) -> Any:
    """Declare a ledger field: its fold, and its metric (``None`` = report-only).

    ``default``/``factory`` set the fold's identity (``SUM``/``MAX``
    default to 0, ``ANY`` to False; a ``KEY`` or ``MIN`` field without
    one is a required argument).  ``key`` names the member attribute a
    ``UNION`` collection is keyed by.  ``label`` makes this field's value
    a label on everything the ledger emits (``shard_id`` -> ``shard``);
    ``labels`` adds fixed labels to a nested ledger's projection.
    ``report_as`` renames the field's ``as_dict`` key.
    """
    if kind not in _COMBINE and kind != UNION:
        raise ValueError(f"unknown fold {kind!r}")
    if (kind == UNION) != (key is not None):
        raise ValueError("a UNION fold, and only a UNION fold, takes a key")
    if kind in (MERGE, UNION) and factory is dataclasses.MISSING:
        raise ValueError(f"a {kind.upper()} fold needs a factory")
    if default is dataclasses.MISSING and factory is dataclasses.MISSING:
        default = _ZERO.get(kind, dataclasses.MISSING)
    required = default is dataclasses.MISSING and factory is dataclasses.MISSING
    if required and kind not in _REQUIRED_IDENTITY:
        raise ValueError(f"a {kind.upper()} fold needs a default")
    spec = _Spec(
        fold=kind,
        combine=_union(key) if kind == UNION else _COMBINE[kind],
        metric=metric,
        key=key,
        label=label,
        labels=tuple((labels or {}).items()),
        report_as=report_as,
        required=required,
    )
    return dataclasses.field(
        default=default,
        default_factory=factory,
        metadata={_METADATA_KEY: spec},
    )


class _Derived(property):
    """A computed ledger value; see :func:`derived`."""

    def __init__(self, fget: Callable[[Any], Any], metric: Metric | None):
        super().__init__(fget)
        self.metric = metric


def derived(metric: Metric | Callable[[Any], Any] | None = None):
    """Property decorator for a computed value ``as_dict`` renders.

    ``@derived`` for a report-only value, ``@derived(METRIC)`` to also
    project it in ``populate_metrics``.
    """
    if metric is None or isinstance(metric, Metric):
        return lambda fget: _Derived(fget, metric)
    return _Derived(metric, None)


class Ledger:
    """Base for telemetry dataclasses whose fields are all :func:`fold` s.

    Subclasses are made dataclasses automatically; do not decorate them.
    """

    _ledger_fields: tuple[tuple[str, _Spec], ...] = ()
    _ledger_derived: tuple[tuple[str, Metric | None], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls)
        table = []
        for field in dataclasses.fields(cls):
            spec = field.metadata.get(_METADATA_KEY)
            if spec is None:
                raise TypeError(
                    f"{cls.__name__}.{field.name} has no fold; declare it "
                    "with repro.obs.ledger.fold()"
                )
            table.append((field.name, spec))
        cls._ledger_fields = tuple(table)
        cls._ledger_derived = tuple(
            (name, attr.metric)
            for klass in reversed(cls.__mro__)
            for name, attr in vars(klass).items()
            if isinstance(attr, _Derived)
        )

    @classmethod
    def empty(cls: type[L]) -> L:
        """The fold identity: every field at its default."""
        return cls(**{
            name: _REQUIRED_IDENTITY[spec.fold]
            for name, spec in cls._ledger_fields
            if spec.required
        })

    def merge(self: L, other: L) -> L:
        """Field-wise fold with ``other`` (neither operand is mutated)."""
        return type(self)(**{
            name: spec.combine(getattr(self, name), getattr(other, name))
            for name, spec in self._ledger_fields
        })

    @classmethod
    def merged(cls: type[L], ledgers: Iterable[L]) -> L:
        """Fold any number of ledgers, starting from the empty one."""
        return functools.reduce(cls.merge, ledgers, cls.empty())

    def add(self: L, other: L) -> None:
        """Fold ``other`` into this ledger in place."""
        for name, spec in self._ledger_fields:
            setattr(
                self, name,
                spec.combine(getattr(self, name), getattr(other, name)),
            )

    def as_dict(self) -> dict[str, Any]:
        """Every field (nested ledgers and histograms rendered), then
        every derived value."""
        data: dict[str, Any] = {}
        for name, spec in self._ledger_fields:
            value = getattr(self, name)
            if spec.fold == UNION:
                value = (
                    {k: value[k].as_dict() for k in sorted(value)}
                    if isinstance(value, dict)
                    else [member.as_dict() for member in value]
                )
            elif spec.fold == MERGE:
                value = value.as_dict()
            data[spec.report_as or name] = value
        for name, _ in self._ledger_derived:
            value = getattr(self, name)
            data[name] = value.as_dict() if isinstance(value, Ledger) else value
        return data

    def populate_metrics(self, registry, **labels: str) -> None:
        """Project every declared metric into ``registry``, labeled with
        ``labels`` plus this ledger's own label fields."""
        labels = {
            **labels,
            **{
                spec.label: str(getattr(self, name))
                for name, spec in self._ledger_fields
                if spec.label is not None
            },
        }
        for name, spec in self._ledger_fields:
            value = getattr(self, name)
            if spec.fold == UNION:
                for member in _members(value):
                    member.populate_metrics(registry, **labels)
                value = len(value)
            elif isinstance(value, Ledger):
                value.populate_metrics(registry, **{**labels, **dict(spec.labels)})
            if spec.metric is not None:
                spec.metric.emit(registry, value, labels)
        for name, metric in self._ledger_derived:
            if metric is not None:
                metric.emit(registry, getattr(self, name), labels)
