# Convenience entry points for the reproduction.
#
#   make test   - tier-1 test suite (includes the static-analysis
#                 meta-check in tests/test_meta_checks.py)
#   make lint   - ruff (when installed) + the repro.checks static pass:
#                 determinism rules (LPC1xx), layer boundaries (LPC2xx)
#                 and whole-program fork-safety flow rules (LPC3xx, over
#                 the module call graph) against checks_baseline.json
#   make bench  - E10 kernel microbenchmarks (pytest-benchmark statistics),
#                 then every row of repro.cli.BENCHES: one BENCH_*.json
#                 each and one verdict line per gate.  The gates, their
#                 thresholds and reasons: python -m repro.cli bench --help
#   make bench-kernel - the kernel row only: the pytest-benchmark timer
#                 chains, BENCH_kernel.json and the kernel gates vs
#                 baseline_kernel.json.  Seconds, not minutes — the leg
#                 to run while iterating on the run loop.
#   make bench-baseline - re-measure and overwrite the six committed
#                 baseline_*.json

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
