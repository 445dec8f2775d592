"""F1–F5 — regenerating the paper's five figures.

Each figure function renders from the model's data structures and this
experiment wraps them as results so the benchmark suite regenerates every
figure alongside every table.
"""

from __future__ import annotations

from ..core.figures import ALL_FIGURES
from ..core.layers import RELATIONS, Layer
from .harness import ExperimentResult, experiment


@experiment("F1-F5")
def run() -> ExperimentResult:
    """Render all five figures; rows record size and key structural facts."""
    result = ExperimentResult(
        "F1-F5", "regenerated conceptual-model figures",
        ["figure", "lines", "mentions_relation", "rendered_chars"])
    relation_for = {
        1: None,
        2: RELATIONS[Layer.PHYSICAL],
        3: RELATIONS[Layer.RESOURCE],
        4: RELATIONS[Layer.ABSTRACT],
        5: RELATIONS[Layer.INTENTIONAL],
    }
    for number in sorted(ALL_FIGURES):
        text = ALL_FIGURES[number]()
        relation = relation_for[number]
        result.add_row(figure=f"Figure {number}",
                       lines=len(text.splitlines()),
                       mentions_relation=(relation in text
                                          if relation else True),
                       rendered_chars=len(text))
    return result
