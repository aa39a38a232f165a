"""Wall-clock benchmark of the message path.

Run from the repository root:

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up ``Scale.setup_repeats`` times
(``setup_s`` is the median), runs one untimed warm-up pass and then a
fixed number of timed passes (``workloads.TIMED_PASSES``), and reports
the end-to-end metrics.  ``msgs_per_s`` and ``setup_s`` are scaled to
the reference host's speed by the ``calibration`` kernel, timed between
units and around set-ups; the wall figures are printed beside them.
The pass count does not depend on ``--seconds`` or the host's speed:
``--seconds`` is accepted for the benchmark interface and echoed in the
traffic profile.
``--trace 1`` sets up once, runs a warm-up, an untraced, a traced and
another untraced pass, and reports per-layer calls, self time and
counts, plus the tracing overhead (traced wall - mean untraced wall).
Either way the outputs of every pass, the warm-up included, are checked
against single-monitor references outside the timed region.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts messages offered over all checked passes and
``failed`` those whose alerts differ from the reference, that were left
unaccounted, or that broke admission conservation, tenant isolation or
the feed books.  ``correct`` is true when every pass was checked in full
and the passes produced identical alerts; wrong alerts are counted in
``failed``, never skipped.  Human-readable detail precedes that line,
and the traffic profile, host and spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from tracing import LAYERS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    WORKLOADS,
    Scale,
    check_guards,
    check_passes,
    deferred_share,
    describe,
    layer_counts,
    msgs_per_second,
    round_latencies_ms,
    run_pass,
    run_passes,
    tail_quantile,
    timed_setup,
)

OUT_DIR = HERE / "out"

#: layers a workload's path never reaches
OFF_PATH = {
    "serve-fresh": {"gateway", "gateway.feeds"},
    "serve-repeat": {"gateway", "gateway.feeds"},
    "gateway-rounds": set(),
}

Metrics = dict[str, tuple[float, str]]


def host_info() -> dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def round_metrics(round_ms: list[float]) -> Metrics:
    if not round_ms:
        return {
            "gateway.round_p50_ms": (0.0, "ms"),
            "gateway.round_p95_ms": (0.0, "ms"),
            "gateway.round_samples": (0, "count"),
        }
    p95, _ = tail_quantile(round_ms, 0.95)
    return {
        "gateway.round_p50_ms": (statistics.median(round_ms), "ms"),
        "gateway.round_p95_ms": (p95, "ms"),
        "gateway.round_samples": (len(round_ms), "count"),
    }


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = FULL,
    out_dir: pathlib.Path | None = OUT_DIR,
    emit=print,
) -> dict[str, object]:
    """Set up, measure and check one workload; returns the result object."""
    tracer = None
    workload, setup_s, setup_wall_s = timed_setup(
        name, seed, scale, 1 if trace else scale.setup_repeats
    )
    if trace:
        # Warm-up, then untraced, traced, untraced: the overhead is
        # taken against the mean of the untraced passes, so a host
        # drifting in speed during the run biases it less.
        tracer = LayerTracer()
        passes = []
        for traced in (False, False, True, False):
            gc.collect()
            if traced:
                with tracer.installed():
                    passes.append(run_pass(workload))
            else:
                passes.append(run_pass(workload))
    else:
        passes, rss = run_passes(workload)
    attempted, failed, deterministic = check_passes(workload, passes)
    profile = describe(workload, passes[0])
    profile["seconds"] = seconds
    # Every pass after the warm-up; in a traced run, the untraced ones.
    untraced = passes[1::2] if trace else passes[1:]
    round_ms = round_latencies_ms(untraced)
    check_guards(workload, profile, round_ms)
    failed_share = failed / attempted

    emit(f"workload {name} seed {seed}: {json.dumps(profile, sort_keys=True)}")
    emit(f"host: {json.dumps(host_info(), sort_keys=True)}")
    emit(
        f"passes: {len(passes)}; failed {failed}/{attempted} messages "
        f"(failed_share {failed_share:.6f}); alerts_deferred_share "
        f"{deferred_share(passes[0]):.6f}; deterministic {deterministic}"
    )
    emit("wall msg/s per pass (warm-up first): " + ", ".join(
        f"{p.offered / (p.wall_ns / 1e9):.0f}" for p in passes
    ))
    if not trace:
        emit("host factor per timed pass: " + ", ".join(
            f"{p.host_factor:.3f}" for p in untraced
        ) + f"; set-up wall median {setup_wall_s:.3f} s")
    metrics: Metrics
    if tracer is None:
        metrics = {
            "msgs_per_s": (msgs_per_second(untraced), "msg/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        if workload.is_gateway:
            for key, (value, unit) in round_metrics(round_ms).items():
                emit(f"  {key.removeprefix('gateway.')}: {value:.4f} {unit}")
    else:
        untraced_s = sum(p.wall_ns for p in untraced) / len(untraced) / 1e9
        traced_s = passes[2].wall_ns / 1e9
        missing = tracer.uncalled_layers(
            layer for layer in LAYERS if layer not in OFF_PATH[name]
        )
        if missing:
            raise RuntimeError(
                f"traced run never called layer(s) {missing} on {name}"
            )
        metrics = tracer.layer_metrics()
        metrics.update(layer_counts(passes[0]))
        metrics["extraction.pii.extractions_per_message"] = (
            tracer.layers["extraction.pii"].calls
            / metrics["nlp.features.rows"][0],
            "ratio",
        )
        metrics.update(round_metrics(round_ms))
        metrics.update({
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.traced_wall_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.unattributed_s": (traced_s - tracer.self_seconds(), "s"),
            "oracle.failed_share": (failed_share, "ratio"),
        })
        emit(f"{'layer':<18}{'calls':>10}{'self_s':>10}{'share':>8}")
        for layer in LAYERS:
            stats = tracer.layers[layer]
            emit(
                f"{layer:<18}{stats.calls:>10}{stats.self_ns / 1e9:>10.3f}"
                f"{stats.self_ns / passes[2].wall_ns:>8.1%}"
            )
    for key, (value, unit) in metrics.items():
        emit(f"{key} = {value} {unit}")
    reported = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in metrics.items()
    }

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "trace" if trace else "run"
        (out_dir / f"{name}.{suffix}.json").write_text(json.dumps({
            "profile": profile, "host": host_info(), "metrics": reported,
        }, indent=2, sort_keys=True) + "\n")
        if tracer is not None:
            tracer.write(out_dir / f"{name}.spans.jsonl")
    return {
        "correct": deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    source = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        parser.error(f"repro was imported from {source}, not from {ROOT / 'src'}")
    result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
