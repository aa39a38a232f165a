"""Run-over-run metric diffing for regression triage.

``repro obs diff A B`` compares two trace dirs' metric snapshots series
by series.  Because both snapshots are deterministic, *any* delta is a
real behaviour change — there is no machine noise to absorb — so the
throughput gate here can be as tight as the score-bench gate's 2%
without flaking.

Counters and gauges diff by value; histograms diff by count and mean.
Series present on only one side are reported as added/removed (a new
label value appearing — say a new alert kind — is itself a finding).

:func:`throughput_regressed` is the one throughput floor every gate
applies — this diff, ``repro.score.compare_reports`` and
``repro.gateway.compare_gateway_reports`` — and :class:`GateFailure` the
one shape the two bench gates report in.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.obs.recorder import RunArtifacts

#: Gauges where lower-than-baseline means a performance regression.
#: Both bench recorders publish their headline rate under this name.
THROUGHPUT_METRICS = ("throughput_msgs_per_second",)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One series' change between two runs."""

    metric: str
    labels: str  # canonical "k=v,k=v" rendering ("-" for no labels)
    kind: str
    before: float | None  # None = series only exists after
    after: float | None  # None = series only exists before

    @property
    def changed(self) -> bool:
        return self.before != self.after

    @property
    def delta(self) -> float:
        return (self.after or 0.0) - (self.before or 0.0)

    @property
    def pct(self) -> float | None:
        """Fractional change vs before (None when before is 0/absent)."""
        if not self.before:
            return None
        return self.delta / self.before


def throughput_regressed(
    before: float, after: float, max_regression: float
) -> bool:
    """True when ``after`` fell below ``before`` x (1 - ``max_regression``).

    A non-positive ``before`` has no floor to fall below.
    """
    return before > 0 and after < before * (1.0 - max_regression)


@dataclasses.dataclass(frozen=True)
class GateFailure:
    """One reason a bench regression gate rejected a report."""

    check: str
    detail: str


def throughput_gate(
    what: str, current: float, baseline: float, max_regression: float
) -> list[GateFailure]:
    """The ``throughput`` failure, if ``current`` fell below the floor."""
    if not throughput_regressed(baseline, current, max_regression):
        return []
    floor = baseline * (1.0 - max_regression)
    return [GateFailure(
        check="throughput",
        detail=(
            f"{what} regressed: {current:,.0f} msg/s < floor {floor:,.0f} "
            f"(baseline {baseline:,.0f}, tolerance {max_regression:.0%})"
        ),
    )]


@dataclasses.dataclass(frozen=True)
class Regression:
    """A gated finding (currently: throughput below tolerance)."""

    metric: str
    labels: str
    before: float
    after: float
    drop: float  # fractional

    def describe(self) -> str:
        return (
            f"{self.metric}{{{self.labels}}} dropped {self.drop:.1%}: "
            f"{self.before:,.1f} -> {self.after:,.1f}"
        )


def _scalar_series(metrics: dict) -> Iterator[tuple[str, str, str, float]]:
    """Flatten a metrics.json snapshot into scalar (metric, labels, kind,
    value) rows; histograms contribute their count and mean."""
    for name in sorted(metrics):
        family = metrics[name]
        kind = str(family.get("kind", "?"))
        for series in family.get("series", ()):
            labels = series.get("labels", {})
            label_text = (
                ",".join(f"{k}={labels[k]}" for k in sorted(labels)) or "-"
            )
            value = series.get("value")
            if isinstance(value, dict):  # histogram snapshot
                yield (name + ".count", label_text, kind,
                       float(value.get("count", 0)))
                yield (name + ".mean_s", label_text, kind,
                       float(value.get("mean_s", 0.0)))
            else:
                yield name, label_text, kind, float(value)


def diff_metrics(before: dict, after: dict) -> list[MetricDelta]:
    """All series deltas between two metric snapshots, sorted."""
    before_rows = {
        (metric, labels): (kind, value)
        for metric, labels, kind, value in _scalar_series(before)
    }
    after_rows = {
        (metric, labels): (kind, value)
        for metric, labels, kind, value in _scalar_series(after)
    }
    keys = sorted(dict.fromkeys(list(before_rows) + list(after_rows)))
    deltas = []
    for key in keys:
        metric, labels = key
        b = before_rows.get(key)
        a = after_rows.get(key)
        deltas.append(MetricDelta(
            metric=metric,
            labels=labels,
            kind=(a or b)[0],
            before=b[1] if b is not None else None,
            after=a[1] if a is not None else None,
        ))
    return deltas


def find_regressions(
    deltas: list[MetricDelta], max_regression: float = 0.02
) -> list[Regression]:
    """Throughput gate: flag any tracked rate that dropped more than
    ``max_regression`` (fractional) vs the before run."""
    regressions = []
    for delta in deltas:
        if delta.metric not in THROUGHPUT_METRICS:
            continue
        if delta.before is None or delta.after is None:
            continue
        if throughput_regressed(delta.before, delta.after, max_regression):
            regressions.append(Regression(
                metric=delta.metric,
                labels=delta.labels,
                before=delta.before,
                after=delta.after,
                drop=(delta.before - delta.after) / delta.before,
            ))
    return regressions


@dataclasses.dataclass(frozen=True)
class DiffReport:
    """Outcome of comparing two trace dirs."""

    before: RunArtifacts
    after: RunArtifacts
    deltas: list[MetricDelta]
    regressions: list[Regression]

    @property
    def n_changed(self) -> int:
        return sum(1 for d in self.deltas if d.changed)

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_runs(
    before: RunArtifacts,
    after: RunArtifacts,
    max_regression: float = 0.02,
) -> DiffReport:
    deltas = diff_metrics(before.metrics, after.metrics)
    return DiffReport(
        before=before,
        after=after,
        deltas=deltas,
        regressions=find_regressions(deltas, max_regression=max_regression),
    )
