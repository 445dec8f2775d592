"""F1–F5: regenerate the paper's five conceptual-model figures."""

from __future__ import annotations

from repro.core.figures import figure1, figure2, figure3, figure4, figure5
from repro.core.layers import RELATIONS, Layer
from repro.experiments import run_experiment


def test_figure1(benchmark, record_table):
    text = benchmark(figure1)
    print("\n" + text)
    assert "Design Purpose" in text and "User Goals" in text
    assert "Environment" in text
    assert "temporal specificity" in text


def test_figure2(benchmark):
    text = benchmark(figure2)
    print("\n" + text)
    assert RELATIONS[Layer.PHYSICAL] in text


def test_figure3(benchmark):
    text = benchmark(figure3)
    print("\n" + text)
    for box in ("Mem", "Sto", "Exe", "UI", "Net"):
        assert box in text


def test_figure4(benchmark):
    text = benchmark(figure4)
    print("\n" + text)
    assert RELATIONS[Layer.ABSTRACT] in text


def test_figure5(benchmark):
    text = benchmark(figure5)
    print("\n" + text)
    assert RELATIONS[Layer.INTENTIONAL] in text


def test_all_figures_summary(benchmark, record_table):
    result = benchmark.pedantic(lambda: run_experiment("F1-F5"),
                                iterations=1, rounds=1)
    record_table(result)
    assert all(row["mentions_relation"] for row in result.rows)
