# Convenience targets for the reproduction.

.PHONY: install test lint lint-repro lint-contracts bench bench-tiny study cache-clean verify-cache test-recovery test-serve test-ring serve-bench score-bench test-obs obs-smoke test-gateway gateway-bench bench-reports-check perfbench experiments examples clean

CACHE_DIR ?= .study-cache

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	ruff check src tests

# Full static analysis (per-file DET001-DET003/PUR001-PUR002 plus the
# call-graph-backed CONC001-CONC003 pack); fails on findings not in
# .repro-lint-baseline.json.
lint-repro:
	PYTHONPATH=src python -m repro.cli lint src

# Just the cross-module pack: shard-isolation race rules (CONC), with the
# shared-call-graph timing line on stderr.
lint-contracts:
	PYTHONPATH=src python -m repro.cli lint src --select CONC --stats

# Run the study on the staged execution engine; warm re-runs execute
# zero stages.  Scale/parallelism: make study ARGS="--full --jobs 8".
study:
	PYTHONPATH=src python -m repro.cli study --tiny --cache-dir $(CACHE_DIR) $(ARGS)

cache-clean:
	rm -rf $(CACHE_DIR) benchmarks/.study-cache

# Checksum-audit every cached artifact; exits non-zero when any would
# need quarantine-and-recompute on its next load.
verify-cache:
	PYTHONPATH=src python -m repro.cli cache verify --cache-dir $(CACHE_DIR)

# Fault-injection suite: corrupts, truncates, and flakes cached runs and
# asserts recovered results are byte-identical to clean ones.
test-recovery:
	PYTHONPATH=src python -m pytest tests/test_engine_recovery.py -q

# Serving runtime suite: shard-equivalence (shards x corpus profiles),
# overload/backpressure accounting, micro-batcher and telemetry units.
test-serve:
	PYTHONPATH=src python -m pytest tests/test_serve_runtime.py tests/test_serve_telemetry.py -q

# Consistent-hash ring, rebalance schedules, hot-key splitting, and
# shard failover: the elastic-serving equivalence suite.
test-ring:
	PYTHONPATH=src python -m pytest tests/test_serve_ring.py -q

# Deterministic load benchmark of the sharded serving runtime; writes
# benchmarks/reports/BENCH_serve.json.  Scale: make serve-bench
# ARGS="--shards 8 --rate 5000 --policy shed-newest".
serve-bench:
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 --check-equivalence $(ARGS)

# Scoring-core microbenchmark (messages/sec, work ledger); gated against
# the committed baseline.  After an intentional cost change, refresh the
# baseline with: PYTHONPATH=src python -m repro.cli score-bench --tiny
# (default --report is the baseline path) and commit the result.
score-bench:
	PYTHONPATH=src python -m repro.cli score-bench --tiny \
		--report score-bench-report.json \
		--baseline benchmarks/reports/BENCH_score.json $(ARGS)

# Multi-tenant gateway suite: auth/admission conservation, token-bucket
# edges, feed cursors, and the tenant-isolation invariant across shard
# counts, rebalances, and kills.
test-gateway:
	PYTHONPATH=src python -m pytest tests/test_gateway.py tests/test_gateway_feeds.py -q

# Multi-tenant gateway benchmark (per-tenant throughput, throttle rates,
# feed latency, fairness/isolation); gated against the committed
# baseline.  After an intentional change, refresh with:
# PYTHONPATH=src python -m repro.cli gateway-bench --tiny (default
# --report is the baseline path) and commit the result.
gateway-bench:
	PYTHONPATH=src python -m repro.cli gateway-bench --tiny \
		--report gateway-bench-report.json \
		--baseline benchmarks/reports/BENCH_gateway.json $(ARGS)

# Regenerate the three committed bench reports (--tiny, into a temp dir)
# and byte-compare each with benchmarks/reports/.  The reports are
# deterministic, so any difference means code and baseline have drifted;
# --report is explicit because each command defaults to the committed file.
bench-reports-check:
	set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
		--check-equivalence --report $$out/BENCH_serve.json > /dev/null; \
	PYTHONPATH=src python -m repro.cli score-bench --tiny \
		--report $$out/BENCH_score.json > /dev/null; \
	PYTHONPATH=src python -m repro.cli gateway-bench --tiny \
		--report $$out/BENCH_gateway.json > /dev/null; \
	for name in serve score gateway; do \
		cmp $$out/BENCH_$$name.json benchmarks/reports/BENCH_$$name.json; \
	done; \
	echo "bench reports match benchmarks/reports/"

# Wall-clock benchmark: its own tests, then one traced run per workload
# at seed 7, each ending in the per-layer calls/self-time table.  Runs
# write only under the git-ignored perfbench/out/ (~4 min in total).
perfbench:
	python3 -m pytest perfbench -q
	set -e; for workload in serve-repeat gateway-rounds; do \
		python3 perfbench/run.py --workload $$workload --seed 7 \
			--seconds 15 --trace 1; \
	done

# Observability suite: tracer/registry/exporter units plus the
# cross-runtime byte-identical-trace and diff-gate integration tests.
test-obs:
	PYTHONPATH=src python -m pytest tests/test_obs.py tests/test_obs_integration.py -q

# The CI observability check, runnable locally: trace two identical
# serve-bench runs, byte-compare their traces and metric snapshots,
# then read them back through the repro obs CLI (diff gates throughput
# regressions >2%).
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
		--report .obs-smoke/run_a.json --trace-dir .obs-smoke/run_a
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
		--report .obs-smoke/run_b.json --trace-dir .obs-smoke/run_b
	cmp .obs-smoke/run_a/trace.jsonl .obs-smoke/run_b/trace.jsonl
	cmp .obs-smoke/run_a/metrics.json .obs-smoke/run_b/metrics.json
	PYTHONPATH=src python -m repro.cli obs report .obs-smoke/run_a
	PYTHONPATH=src python -m repro.cli obs diff .obs-smoke/run_a .obs-smoke/run_b

bench:
	pytest benchmarks/ --benchmark-only

bench-tiny:
	REPRO_BENCH_TINY=1 pytest benchmarks/ --benchmark-only

experiments: bench
	python scripts/build_experiments_md.py

examples:
	python examples/quickstart.py
	python examples/moderation_service.py
	python examples/threat_intel_report.py
	python examples/campaign_escalation_study.py
	python examples/live_monitoring.py

clean:
	rm -rf build src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
