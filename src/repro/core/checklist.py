"""Design-review checklists generated from an LPC model.

The paper offers the model as "a framework for discussion about the
success or failure of a particular pervasive technology".  This module
operationalises that: given an :class:`~repro.core.model.LPCModel`
populated with entities, it emits a structured checklist — one section per
layer, one question per cross-column entity pair plus the layer's generic
questions — that a design review can walk through and tick off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .layers import RELATIONS, Layer
from .model import LPCModel

#: Generic review questions per layer, distilled from the paper's text.
GENERIC_QUESTIONS: Dict[Layer, List[str]] = {
    Layer.ENVIRONMENT: [
        "What range, interference and scaling constraints does the radio "
        "environment impose?",
        "Does the acoustic/social environment permit the planned "
        "interaction modality?",
        "What happens when the device moves to a very different "
        "environment?",
    ],
    Layer.PHYSICAL: [
        "Are all physical entities (devices AND users) mutually "
        "compatible?",
        "Does any interaction tether the user to a particular location?",
        "Which body signals (speech, biometrics) does control flow depend "
        "on?",
    ],
    Layer.RESOURCE: [
        "What logical resources does the application assume present "
        "(runtime, lookup service, network)?",
        "Which user faculties are assumed (language, GUI literacy, "
        "administration skill), and for which population are those "
        "assumptions valid?",
        "Can the user abort any running task?  Can they organise their "
        "own data?",
    ],
    Layer.ABSTRACT: [
        "How many concepts must the user hold to operate the system, and "
        "is that within the intended population's capacity?",
        "How does the user learn the application state changed behind "
        "their back (sessions expiring, services vanishing)?",
        "What happens when multiple users act in conflicting orders, or "
        "forget the closing steps?",
    ],
    Layer.INTENTIONAL: [
        "Whose goals is this design in harmony with — and who else will "
        "try to use it?",
        "Which stated requirements serve the builders rather than the "
        "users?",
    ],
}


@dataclass
class ChecklistItem:
    """One review question."""

    layer: Layer
    question: str
    #: entities the question is about (empty for generic questions).
    entities: List[str] = field(default_factory=list)
    checked: bool = False
    finding: str = ""

    def resolve(self, finding: str = "") -> None:
        self.checked = True
        self.finding = finding


@dataclass
class Checklist:
    """A layered review checklist."""

    system: str
    items: List[ChecklistItem]

    def section(self, layer: Layer) -> List[ChecklistItem]:
        return [item for item in self.items if item.layer == layer]

    @property
    def progress(self) -> float:
        if not self.items:
            return 1.0
        return sum(item.checked for item in self.items) / len(self.items)

    def open_items(self) -> List[ChecklistItem]:
        return [item for item in self.items if not item.checked]

    def findings(self) -> List[ChecklistItem]:
        return [item for item in self.items if item.checked and item.finding]

    def render(self) -> str:
        lines = [f"Design-review checklist for {self.system!r}",
                 "=" * (29 + len(self.system))]
        for layer in sorted(Layer, reverse=True):
            section = self.section(layer)
            if not section:
                continue
            lines.append("")
            lines.append(f"[{layer.title}] — {RELATIONS[layer]}")
            for item in section:
                mark = "x" if item.checked else " "
                lines.append(f"  [{mark}] {item.question}")
                if item.finding:
                    lines.append(f"        finding: {item.finding}")
        lines.append("")
        lines.append(f"progress: {self.progress:.0%} "
                     f"({len(self.findings())} findings)")
        return "\n".join(lines)


def build_checklist(model: LPCModel) -> Checklist:
    """Generate the checklist for a populated model.

    Pairwise questions are generated for every (user-entity, device-entity)
    pair that share a layer, phrased with the layer's defining relation;
    generic questions follow.
    """
    items: List[ChecklistItem] = []
    entities = model.entities()
    users = [e for e in entities if e.kind == "user"]
    others = [e for e in entities if e.kind != "user"]
    for layer in Layer:
        if layer != Layer.ENVIRONMENT:
            for user in users:
                if user.facet_at(layer) is None:
                    continue
                for other in others:
                    if other.facet_at(layer) is None:
                        continue
                    items.append(ChecklistItem(
                        layer,
                        f"does {user.name}'s "
                        f"{user.facet_at(layer).description} hold against "
                        f"{other.name}'s {other.facet_at(layer).description} "
                        f"({RELATIONS[layer]})?",
                        entities=[user.name, other.name]))
        for question in GENERIC_QUESTIONS[layer]:
            items.append(ChecklistItem(layer, question))
    return Checklist(model.name, items)
