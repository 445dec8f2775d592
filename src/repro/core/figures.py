"""Regenerating the paper's five figures from the model definitions.

The figures are conceptual diagrams; we render them as ASCII generated
*from the data structures* in :mod:`repro.core.layers` — not stored
strings — so any drift between the model and its pictures is impossible.
The benchmark suite asserts structural properties of each rendering
(layer order, relation labels, resource boxes) as the F1–F5 reproductions.
"""

from __future__ import annotations

from typing import List

from .layers import (
    ABSTRACT_DEVICE_PARTS,
    ABSTRACT_USER_PARTS,
    DEVICE_SIDE,
    RELATIONS,
    RESOURCE_BOXES,
    USER_SIDE,
    USER_TIMESCALES,
    Layer,
    layers_top_down,
)

_WIDTH = 30


def _box(text: str, width: int = _WIDTH) -> List[str]:
    inner = width - 2
    return ["+" + "-" * inner + "+",
            "|" + text.center(inner) + "|",
            "+" + "-" * inner + "+"]


def _pair_row(left: str, right: str, relation: str) -> List[str]:
    left_box = _box(left)
    right_box = _box(right)
    arrow = f"<-- {relation} -->"
    mid = arrow.center(len(arrow) + 2)
    lines = []
    for i in range(3):
        connector = mid if i == 1 else " " * len(mid)
        lines.append(left_box[i] + connector + right_box[i])
    return lines


def figure1() -> str:
    """Figure 1: the full Aroma conceptual model — five layers, the user
    column beside the device column, environment beneath both."""
    lines = ["Figure 1: Aroma pervasive computing conceptual model", ""]
    header = ("DEVICE".center(_WIDTH) + " " * 10 + "USER".center(_WIDTH))
    lines.append(header)
    for layer in layers_top_down():
        if layer == Layer.ENVIRONMENT:
            total = 2 * _WIDTH + 10
            lines.append("+" + "-" * (total - 2) + "+")
            lines.append("|" + DEVICE_SIDE[layer].center(total - 2) + "|")
            lines.append("+" + "-" * (total - 2) + "+")
        else:
            left = _box(DEVICE_SIDE[layer])
            right = _box(USER_SIDE[layer])
            gap = layer.title.center(10)
            for i in range(3):
                middle = gap if i == 1 else " " * 10
                lines.append(left[i] + middle + right[i])
    lines.append("")
    lines.append("device column: increasing abstraction upward")
    lines.append("user column: increasing temporal specificity upward")
    for layer, timescale in USER_TIMESCALES.items():
        lines.append(f"  {USER_SIDE[layer]:15s} changes on {timescale}")
    return "\n".join(lines)


def figure2() -> str:
    """Figure 2: environment and physical layers.  Physical entities (user
    or device) must be compatible with each other and communicate through
    the environment."""
    lines = ["Figure 2: environment and physical layers", ""]
    lines += _pair_row("Physical Entity*", "Physical Device",
                       RELATIONS[Layer.PHYSICAL])
    total = 2 * _WIDTH + len(f"<-- {RELATIONS[Layer.PHYSICAL]} -->") + 2
    lines.append("|".rjust(_WIDTH // 2) + " " * (total - _WIDTH) )
    lines.append("+" + "-" * (total - 2) + "+")
    lines.append("|" + "Environment".center(total - 2) + "|")
    lines.append("+" + "-" * (total - 2) + "+")
    lines.append("")
    lines.append("* can be either a user or a device")
    lines.append(f"entities {RELATIONS[Layer.ENVIRONMENT]} the environment")
    return "\n".join(lines)


def figure3() -> str:
    """Figure 3: the resource layer — the five device boxes against the
    user's faculties."""
    lines = ["Figure 3: the resource layer", ""]
    cells = " | ".join(short for short, _ in RESOURCE_BOXES)
    lines += _pair_row("User Faculties*", cells, RELATIONS[Layer.RESOURCE])
    lines.append("")
    for short, long_name in RESOURCE_BOXES:
        lines.append(f"  {short:4s} = {long_name}")
    lines.append("* e.g. education/skills, language, temperament")
    return "\n".join(lines)


def figure4() -> str:
    """Figure 4: the abstract layer — mental models vs the application."""
    lines = ["Figure 4: the abstract layer", ""]
    lines += _pair_row("Mental Models", "Application",
                       RELATIONS[Layer.ABSTRACT])
    lines.append("")
    lines.append("  Mental Models = " + " + ".join(ABSTRACT_USER_PARTS))
    lines.append("  Application   = " + " + ".join(ABSTRACT_DEVICE_PARTS))
    return "\n".join(lines)


def figure5() -> str:
    """Figure 5: the intentional layer — user goals vs design purpose."""
    lines = ["Figure 5: the intentional layer", ""]
    lines += _pair_row("User Goals", "Design Purpose",
                       RELATIONS[Layer.INTENTIONAL])
    return "\n".join(lines)


ALL_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}


def render_all() -> str:
    return "\n\n".join(ALL_FIGURES[i]() for i in sorted(ALL_FIGURES))
