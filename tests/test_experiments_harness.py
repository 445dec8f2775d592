"""Tests for the experiment harness and registry."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    ExperimentResult,
    experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.kernel.errors import ExperimentError


def test_result_rows_and_columns():
    result = ExperimentResult("X", "t", ["a", "b"])
    result.add_row(a=1, b=2)
    result.add_row(a=3, b=4)
    assert result.column("a") == [1, 3]
    with pytest.raises(ExperimentError):
        result.column("zz")
    with pytest.raises(ExperimentError):
        result.add_row(c=1)


def test_result_select():
    result = ExperimentResult("X", "t", ["mode", "v"])
    result.add_row(mode="a", v=1)
    result.add_row(mode="b", v=2)
    result.add_row(mode="a", v=3)
    assert [r["v"] for r in result.select(mode="a")] == [1, 3]
    assert result.select(mode="c") == []


def test_format_table_contains_everything():
    result = ExperimentResult("X", "my title", ["col", "value"])
    result.add_row(col="alpha", value=1.23456)
    result.notes.append("a note")
    text = result.format_table()
    assert "my title" in text
    assert "alpha" in text
    assert "1.235" in text  # 4 significant digits
    assert "note: a note" in text
    assert str(result) == text


def test_registry_contains_all_targets():
    known = list_experiments()
    for expected in ("E1", "E2", "E3", "E4-stale", "E5", "E6", "E7", "E8",
                     "E9", "F1-F5"):
        assert expected in known


def test_get_unknown_experiment():
    with pytest.raises(ExperimentError):
        get_experiment("E999")


def test_duplicate_registration_rejected():
    with pytest.raises(ExperimentError):
        @experiment("E1")
        def clash():  # pragma: no cover
            pass


def test_run_experiment_dispatches():
    result = run_experiment("E3-range-table")
    assert result.experiment_id == "E3-range-table"
    assert len(result.rows) == 4
