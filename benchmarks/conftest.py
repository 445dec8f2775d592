"""Shared benchmark plumbing.

Each benchmark regenerates one paper table/figure via the experiment
harness.  Tables are printed *and* appended to ``benchmarks/results.txt``
so the regenerated evaluation survives pytest's output capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"


@pytest.fixture(scope="session")
def _fresh_results_file():
    # Not autouse: truncation only happens when some test actually records
    # a table, so microbenchmark-only runs (test_bench_kernel.py) leave
    # the committed table dump alone.
    RESULTS_PATH.write_text("Regenerated tables and figures "
                            "(one section per benchmark)\n\n")
    yield


@pytest.fixture
def record_table(_fresh_results_file):
    """Print an ExperimentResult and persist it to results.txt."""

    def _record(result) -> None:
        text = result.format_table() if hasattr(result, "format_table") \
            else str(result)
        print("\n" + text)
        with RESULTS_PATH.open("a") as handle:
            handle.write(text + "\n\n")

    return _record
