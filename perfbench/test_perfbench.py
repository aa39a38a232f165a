"""The benchmark's own tests, at a small scale (``workloads.SMALL``).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import time
import types

import pytest

import calibration
import run
import tracing
import workloads
from workloads import SMALL

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


@pytest.fixture(scope="module")
def small_workloads():
    return {
        name: workloads.build_workload(name, 3, SMALL)
        for name in workloads.WORKLOADS
    }


@pytest.fixture(scope="module")
def results():
    """run_benchmark at small scale: (workload, trace) -> result."""
    return {
        (name, trace): run.run_benchmark(
            name, 3, 0.1, trace, SMALL, out_dir=None, emit=lambda line: None
        )
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


# -- names match BENCHMARK.json --------------------------------------------


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)
    parser = run.build_parser()
    for name in workloads.WORKLOADS:
        args = parser.parse_args(
            ["--workload", name, "--seed", "1", "--seconds", "10", "--trace", "1"]
        )
        assert args.workload == name
    with pytest.raises(SystemExit):
        parser.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(results, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name in workloads.WORKLOADS:
        printed = results[(name, trace)]["metrics"]
        assert list(printed) == list(declared), name
        assert {k: v["unit"] for k, v in printed.items()} == declared


def test_result_object_shape(results):
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int)
        json.dumps(result)


def test_end_to_end_metrics_are_never_zero(results):
    for name in workloads.WORKLOADS:
        for metric in results[(name, False)]["metrics"].values():
            assert metric["value"] > 0


# -- every wrapper is reached ----------------------------------------------


def test_every_layer_on_the_path_is_called(results):
    for name in workloads.WORKLOADS:
        metrics = results[(name, True)]["metrics"]
        for layer in tracing.LAYERS:
            calls = metrics[f"{layer}.calls"]["value"]
            if layer in run.OFF_PATH[name]:
                assert calls == 0, (name, layer)
            else:
                assert calls >= 1, (name, layer)
    # The gateway workload reaches every layer.
    assert not run.OFF_PATH["gateway-rounds"]


def test_self_times_account_for_the_traced_wall(results):
    for name in workloads.WORKLOADS:
        metrics = results[(name, True)]["metrics"]
        self_s = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
        traced = metrics["trace.traced_wall_s"]["value"]
        assert self_s <= traced
        assert metrics["trace.unattributed_s"]["value"] == pytest.approx(traced - self_s)
        assert traced - self_s < 0.1 * traced


def test_renamed_site_fails_before_measuring(monkeypatch):
    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (
        ("serve.ring", "repro.serve.ring", "HashRing.renamed_owner"),
    ))
    with pytest.raises(KeyError):
        with tracing.LayerTracer().installed():
            pass
    # Sites patched before the failure are restored.
    from repro.serve.ring import HashRing

    assert not hasattr(HashRing.owner, "__wrapped__")


def test_installed_wrappers_are_removed_on_exit():
    from repro.nlp import features

    original = features.HashingVectorizer.transform_hashes
    with tracing.LayerTracer().installed():
        assert features.HashingVectorizer.transform_hashes is not original
    assert features.HashingVectorizer.transform_hashes is original


def test_self_time_excludes_wrapped_children():
    tracer = tracing.LayerTracer()

    def child():
        time.sleep(0.02)

    wrapped_child = tracer._wrap("nlp.models", "child", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()
        wrapped_child()

    tracer._wrap("serve.runtime", "parent", parent)()
    runtime = tracer.layers["serve.runtime"]
    models = tracer.layers["nlp.models"]
    assert (runtime.calls, models.calls) == (1, 2)
    assert runtime.self_ns + models.self_ns == runtime.total_ns
    assert 0.005e9 < runtime.self_ns < 0.03e9
    # Spans are numbered at entry: the parent first, both children under it.
    assert [span[:3] for span in tracer.spans] == [(1, -1, 0), (0, 0, 0), (0, 0, 0)]


# -- the oracle counts injected failures -----------------------------------


def _failed(workload, run_pass):
    return workloads.check_passes(workload, [run_pass])[1]


def test_serve_oracle_counts_alert_mismatch_and_unaccounted(small_workloads):
    workload = small_workloads["serve-fresh"]
    clean = workloads.run_pass(workload)
    assert clean.serve[0].alerts
    assert _failed(workload, clean) == 0

    dropped = copy.copy(clean)
    dropped.serve = [
        dataclasses.replace(clean.serve[0], alerts=clean.serve[0].alerts[1:])
    ]
    assert _failed(workload, dropped) == 1

    leaky = workloads.run_pass(workload)
    leaky.serve[0].telemetry.shards[0].queue.offered += 1
    assert leaky.serve[0].unaccounted == 1
    assert _failed(workload, leaky) == 1


def test_serve_oracle_checks_each_run_against_its_own_reference(small_workloads):
    workload = small_workloads["serve-repeat"]
    assert len(workload.units) == SMALL.repeat_runs > 1
    clean = workloads.run_pass(workload)
    assert len(clean.serve) == len(clean.unit_ns) == len(workload.units)
    baseline = _failed(workload, clean)
    # The last run's alerts moved onto the first run: both runs fail.
    swapped = copy.copy(clean)
    first, last = clean.serve[0], clean.serve[-1]
    assert first.alerts and last.alerts
    swapped.serve = [dataclasses.replace(first, alerts=last.alerts)] + clean.serve[1:]
    assert _failed(workload, swapped) > baseline


def test_gateway_oracle_counts_isolation_feed_and_conservation(small_workloads):
    workload = small_workloads["gateway-rounds"]
    assert _failed(workload, workloads.run_pass(workload)) == 0

    broken = workloads.run_pass(workload)
    record = next(r for r in broken.rounds if r.result.alerts_by_tenant)
    tenant = sorted(record.result.alerts_by_tenant)[0]
    del record.result.alerts_by_tenant[tenant][0]
    assert _failed(workload, broken) >= 1

    broken = workloads.run_pass(workload)
    record = next(r for r in broken.rounds if any(p.alerts for p in r.pages.values()))
    tenant = next(t for t, p in sorted(record.pages.items()) if p.alerts)
    page = record.pages[tenant]
    record.pages[tenant] = dataclasses.replace(page, alerts=page.alerts[1:])
    assert _failed(workload, broken) >= 1

    broken = workloads.run_pass(workload)
    ledger = next(iter(broken.rounds[0].result.admission.values()))
    ledger.offered += 1
    assert _failed(workload, broken) >= 1


def test_alert_failures_is_per_message():
    from repro.service.monitor import Alert, AlertKind

    a = Alert(AlertKind.DOX, 1, 10.0, 0.9, "twitter:x")
    b = Alert(AlertKind.CAMPAIGN, 2, 11.0, 0.8, "twitter:x")
    assert workloads.alert_failures([a, b], [a, b]) == set()
    assert workloads.alert_failures([a], [a, b]) == {2}
    assert workloads.alert_failures([b, a], [a, b]) == set()


# -- traffic guards ---------------------------------------------------------


def test_workload_profiles_have_their_traffic_properties(small_workloads):
    fresh = small_workloads["serve-fresh"]
    profile = workloads.describe(fresh, workloads.run_pass(fresh))
    assert profile["distinct_texts"] >= workloads.N_SHARDS * SMALL.cache_capacity
    repeat = small_workloads["serve-repeat"]
    profile = workloads.describe(repeat, workloads.run_pass(repeat))
    assert profile["hot_handle_keys"] >= 1 and profile["deferred_messages"] > 0
    assert profile["distinct_text_share"] < 0.2


def test_guards_fail_when_a_workload_changes_shape(small_workloads):
    fresh = small_workloads["serve-fresh"]
    with pytest.raises(workloads.GuardError):
        workloads.check_guards(fresh, {"distinct_texts": 10}, [])
    repeat = small_workloads["serve-repeat"]
    with pytest.raises(workloads.GuardError):
        workloads.check_guards(
            repeat, {"hot_handle_keys": 3, "deferred_messages": 0}, []
        )
    gateway = small_workloads["gateway-rounds"]
    with pytest.raises(workloads.GuardError):
        workloads.check_guards(
            gateway, {}, [1.0] * 5
        )
    workloads.check_guards(gateway, {}, [1.0] * 20)


def test_inputs_depend_only_on_the_seed(small_workloads):
    again = workloads.build_workload("serve-repeat", 3, SMALL)
    first = small_workloads["serve-repeat"]
    assert again.arrivals == first.arrivals


# -- fixed pass count and peak RSS ------------------------------------------


def test_untraced_run_is_a_warm_up_plus_a_fixed_pass_count(small_workloads):
    passes, rss = workloads.run_passes(small_workloads["serve-repeat"])
    assert len(passes) == 1 + workloads.TIMED_PASSES["serve-repeat"]
    assert rss > 0
    # The kernel runs only in the timed passes, outside the units' time.
    assert passes[0].calibration_ns == []
    for run_pass in passes[1:]:
        assert len(run_pass.calibration_ns) == workloads.CALIBRATION_REPS
        assert run_pass.wall_ns == sum(run_pass.unit_ns)


def test_msgs_per_s_scales_each_pass_by_its_host_factor():
    ref = calibration.REFERENCE_NS
    # Two passes of the same work, the second on a host running at half
    # speed: the kernel between its units ran twice as long as well.
    calm = workloads.Pass(100, [400_000_000, 600_000_000], [ref, ref])
    slow = workloads.Pass(100, [800_000_000, 1_200_000_000], [2 * ref] * 2)
    assert calm.wall_ns == 1_000_000_000
    assert (calm.host_factor, slow.host_factor) == (1.0, 2.0)
    assert workloads.msgs_per_second([calm, slow]) == pytest.approx(100.0)
    # The median over passes: one pass hit by contention the kernel
    # missed does not move it.
    hit = workloads.Pass(100, [3_000_000_000], [ref])
    assert workloads.msgs_per_second([calm, calm, hit]) == pytest.approx(100.0)


def test_calibration_kernel_is_fixed_work():
    assert calibration.kernel() == calibration.kernel()
    samples = calibration.time_kernel(3)
    assert len(samples) == 3 and min(samples) > 0


def test_setup_repeats_time_identical_set_ups(small_workloads, monkeypatch):
    ticks = iter([0, 3_000_000_000, 3_000_000_000, 4_000_000_000,
                  4_000_000_000, 9_000_000_000])
    clock = types.SimpleNamespace(perf_counter_ns=lambda: next(ticks))
    monkeypatch.setattr(workloads, "time", clock)
    # The kernel runs around the third set-up at half the reference speed.
    factors = iter([1.0, 1.0, 2.0])
    monkeypatch.setattr(workloads, "host_factor", lambda samples: next(factors))
    workload, setup_s, wall_s = workloads.timed_setup(
        "serve-repeat", 3, SMALL, repeats=3
    )
    # Set-ups of 3 s, 1 s and 5 s: 3, 1 and 2.5 s at reference speed.
    assert (setup_s, wall_s) == (pytest.approx(2.5), pytest.approx(3.0))
    assert workload.arrivals == small_workloads["serve-repeat"].arrivals


def test_peak_rss_reset_forgets_earlier_peaks():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    del ballast
    before = workloads.peak_rss_mb()
    workloads.reset_peak_rss()
    assert workloads.peak_rss_mb() < before - 32
