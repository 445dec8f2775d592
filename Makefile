# Convenience entry points for the reproduction.
#
#   make test   - tier-1 test suite (includes the static-analysis
#                 meta-check in tests/test_meta_checks.py)
#   make lint   - ruff (when installed) + the repro.checks static pass:
#                 determinism rules (LPC1xx), layer boundaries (LPC2xx)
#                 and whole-program fork-safety flow rules (LPC3xx, over
#                 the module call graph) against checks_baseline.json
#   make bench  - E10 kernel microbenchmarks (pytest-benchmark statistics),
#                 then BENCH_*.json emission (kernel/sweeps/trace/scale/
#                 cache/telemetry/shard — scale runs 200/500/1000-
#                 station rooms culled vs exhaustive; cache runs the E2
#                 sweep uncached vs cold vs warm through the content-
#                 addressed run cache; telemetry exports 1M synthetic
#                 events as JSONL vs columnar and probes streaming-
#                 aggregation memory; shard runs the 1.2k-station multi-
#                 cell grid sharded vs the single-process oracle; checks
#                 runs the static pass cold vs warm-incremental) + the
#                 regression gates: >20% throughput vs
#                 baseline_kernel.json / baseline_scale.json, the cache
#                 gate (rows identical, warm speedup >= 5x, cold overhead
#                 <= 5%) vs baseline_cache.json, the sweep gate (rows
#                 identical; 2x parallel speedup on >=4-cpu hosts), the
#                 telemetry gate
#                 (streaming summaries byte-identical, columnar >=3x
#                 smaller and >=2x faster than JSONL, streaming memory
#                 bounded, disabled-path overhead <= 5%) vs
#                 baseline_telemetry.json, the shard gate (sharded
#                 outcomes and merged telemetry byte-identical to the
#                 oracle, coupled multiprocess == inline; 2x 4-shard
#                 speedup on >=4-cpu hosts) vs baseline_shard.json, and
#                 the checks gate (warm findings byte-identical, zero
#                 warm re-parses, >=3x warm speedup) vs
#                 baseline_checks.json
#   make bench-kernel - kernel microbenchmark + its gate only: the
#                 pytest-benchmark timer chains, BENCH_kernel.json, and
#                 the calibration-relative >=2x dispatch-core gate vs
#                 baseline_kernel.json.  Seconds, not minutes — the leg
#                 to run while iterating on the run loop.
#   make bench-baseline - re-measure and overwrite the committed baselines

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-kernel bench-baseline

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	$(PYTHON) -m repro.cli check

bench:
	$(PYTHON) -m pytest benchmarks/test_bench_kernel.py -q \
		--benchmark-json=benchmarks/.bench_raw.json
	$(PYTHON) -m repro.cli bench --raw benchmarks/.bench_raw.json

bench-kernel:
	$(PYTHON) -m pytest benchmarks/test_bench_kernel.py -q \
		--benchmark-json=benchmarks/.bench_raw.json
	$(PYTHON) -m repro.cli bench --raw benchmarks/.bench_raw.json \
		--kernel-only

bench-baseline:
	$(PYTHON) -m pytest benchmarks/test_bench_kernel.py -q \
		--benchmark-json=benchmarks/.bench_raw.json
	$(PYTHON) -m repro.cli bench --raw benchmarks/.bench_raw.json \
		--update-baseline
