# Convenience entry points for the reproduction.
#
#   make test   - tier-1 test suite (includes the static-analysis
#                 meta-check in tests/test_meta_checks.py)
#   make lint   - ruff (when installed) + the repro.checks static pass:
#                 determinism rules (LPC1xx), layer boundaries (LPC2xx)
#                 and whole-program fork-safety flow rules (LPC3xx, over
#                 the module call graph) against checks_baseline.json
#   make bench  - the end-to-end benchmark (bench/run.py, declared in
#                 BENCHMARK.json): five real workloads, timed end to end
#                 and split by LPC layer, each output checked against
#                 bench/reference.json.  Within-run floors (telemetry,
#                 cache, shard) are plain asserts in
#                 benchmarks/test_bench_<name>.py, run by pytest.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench

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
	python3 bench/run.py
