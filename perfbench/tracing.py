"""Per-layer wall-clock tracing from outside the program.

:class:`LayerTracer` wraps each layer's public call where its caller
looks it up (a module global or a class attribute), records one span per
call in memory and keeps a per-call stack, so a layer's *self* time is
its span's duration minus the time of the wrapped calls nested inside
it.  Nothing in ``src/`` is edited: the wrappers are installed by
:meth:`LayerTracer.installed` and removed when it exits, so untraced
runs execute the program's own functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import pathlib
import time
from typing import Callable, Iterable, Iterator

#: (layer, module, attribute path) for every wrapped call.  Each name is
#: patched where its caller resolves it: ``extract_targets`` is imported
#: by name into both ``repro.serve.runtime`` (the router) and
#: ``repro.score.core`` (lazy extraction), and ``hash_text`` is looked up
#: as a global of ``repro.nlp.tokenize`` by the token cache.
SITES: tuple[tuple[str, str, str], ...] = (
    ("extraction.pii", "repro.serve.runtime", "extract_targets"),
    ("extraction.pii", "repro.score.core", "extract_targets"),
    ("nlp.tokenize", "repro.nlp.tokenize", "hash_text"),
    ("nlp.features", "repro.nlp.features", "HashingVectorizer.transform_hashes"),
    ("nlp.models", "repro.nlp.models.logreg",
     "LogisticRegressionClassifier.predict_proba"),
    ("taxonomy.coding", "repro.taxonomy.coding", "ExpertCoder.code_text_cached"),
    ("service.monitor", "repro.service.monitor",
     "HarassmentMonitor.process_scored"),
    ("service.monitor", "repro.service.monitor",
     "HarassmentMonitor.extract_target_state"),
    ("service.monitor", "repro.service.monitor",
     "HarassmentMonitor.restore_target_state"),
    ("serve.runtime", "repro.serve.runtime", "ServingRuntime.run"),
    ("serve.ring", "repro.serve.ring", "HashRing.owner"),
    ("serve.ring", "repro.serve.ring", "HashRing.uniform"),
    ("serve.ring", "repro.serve.ring", "HashRing.__init__"),
    ("serve.queueing", "repro.serve.queueing", "BoundedQueue.offer"),
    ("serve.queueing", "repro.serve.queueing", "BoundedQueue.take"),
    ("serve.telemetry", "repro.serve.telemetry", "ShardTelemetry.record_batch"),
    ("score.core", "repro.score.core", "ScoringCore.__init__"),
    ("gateway", "repro.gateway.gateway", "Gateway.handle"),
    ("gateway.feeds", "repro.gateway.feeds", "AlertFeed.publish"),
    ("gateway.feeds", "repro.gateway.feeds", "AlertFeed.read"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in SITES))


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


class LayerTracer:
    """In-memory span recorder for the wrapped layer calls.

    A span is ``(site, parent span index, root span index, start ns,
    end ns)``; spans of one top-level call (one serve run, or one gateway
    round) share their root index.
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {
            layer: LayerStats() for layer in LAYERS
        }
        self.sites: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        # One [span index, child ns] frame per call in progress.
        self._stack: list[list[int]] = []

    def _wrap(self, layer: str, site: str, fn: Callable) -> Callable:
        stats = self.layers[layer]
        site_id = len(self.sites)
        self.sites.append(site)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    spans[index] = (
                        site_id, parent[0], stack[0][0], start, end
                    )
                else:
                    spans[index] = (site_id, -1, index, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every site in :data:`SITES`; restore them on exit.

        A site that no longer resolves (a renamed function) raises here,
        so a rename cannot turn into a layer that silently reads zero.
        """
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, module_name, path in SITES:
                owner: object = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[attr]
                site = f"{module_name}.{path}"
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(layer, site, raw.__func__))
                else:
                    patched = self._wrap(layer, site, raw)
                setattr(owner, attr, patched)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every layer."""
        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            stats = self.layers[layer]
            metrics[f"{layer}.calls"] = (stats.calls, "count")
            metrics[f"{layer}.self_s"] = (stats.self_ns / 1e9, "s")
        return metrics

    def self_seconds(self) -> float:
        return sum(stats.self_ns for stats in self.layers.values()) / 1e9

    def uncalled_layers(self, expected: Iterable[str]) -> list[str]:
        return [layer for layer in expected if not self.layers[layer].calls]

    def write(self, path: pathlib.Path) -> None:
        """Spans as JSON lines: a header naming the sites, then one
        ``[site, parent, root, start_ns, end_ns]`` list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"sites": self.sites}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
