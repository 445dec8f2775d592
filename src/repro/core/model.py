"""The LPC model object: entities, concerns and constraint results in one
place.

An :class:`LPCModel` is what the paper wished it had during the adapter
and projector work: a structure that holds every entity of a system with
its per-layer facets, accepts concerns from design discussion or live
simulation, classifies them, runs the cross-column constraint checks, and
renders the whole thing as a layered report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..kernel.errors import ModelError
from .concerns import Concern, ConcernClassifier
from .constraints import ConstraintResult
from .entities import ModelEntity, smart_projector_entities
from .layers import (
    DEVICE_SIDE,
    RELATIONS,
    USER_SIDE,
    Column,
    Layer,
    layers_top_down,
)


class LPCModel:
    """One system described in Layered-Pervasive-Computing terms."""

    def __init__(self, name: str,
                 classifier: Optional[ConcernClassifier] = None) -> None:
        self.name = name
        self.classifier = classifier or ConcernClassifier(default=Layer.ABSTRACT)
        self._entities: Dict[str, ModelEntity] = {}
        self._concerns: List[Concern] = []
        self._checks: List[ConstraintResult] = []

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    def add_entity(self, entity: ModelEntity) -> ModelEntity:
        if entity.name in self._entities:
            raise ModelError(f"entity {entity.name!r} already in model")
        self._entities[entity.name] = entity
        return entity

    def entity(self, name: str) -> ModelEntity:
        try:
            return self._entities[name]
        except KeyError:
            raise ModelError(f"no entity {name!r} in model") from None

    def entities(self, layer: Optional[Layer] = None) -> List[ModelEntity]:
        if layer is None:
            return list(self._entities.values())
        return [e for e in self._entities.values() if e.facet_at(layer)]

    def user_entities(self) -> List[str]:
        return [e.name for e in self._entities.values() if e.kind == "user"]

    # ------------------------------------------------------------------
    # Concerns
    # ------------------------------------------------------------------
    def add_concern(self, description: str, topic: str = "",
                    entity: str = "", column: Optional[Column] = None,
                    layer: Optional[Layer] = None,
                    source: str = "stated") -> Concern:
        """Record a concern; classified automatically unless ``layer`` given."""
        if layer is None:
            layer = self.classifier.classify(topic, description)
        if column is None:
            ent = self._entities.get(entity)
            column = ent.default_column if ent else Column.DEVICE
        concern = Concern(description, layer, column, source, topic, entity)
        self._concerns.append(concern)
        return concern

    def extend_concerns(self, concerns: Iterable[Concern]) -> None:
        self._concerns.extend(concerns)

    def concerns(self, layer: Optional[Layer] = None,
                 column: Optional[Column] = None) -> List[Concern]:
        out = self._concerns
        if layer is not None:
            out = [c for c in out if c.layer == layer]
        if column is not None:
            out = [c for c in out if c.column == column]
        return list(out)

    def concern_counts(self) -> Dict[Layer, int]:
        counts = {layer: 0 for layer in Layer}
        for concern in self._concerns:
            counts[concern.layer] += 1
        return counts

    # ------------------------------------------------------------------
    # Constraint results
    # ------------------------------------------------------------------
    def record_check(self, result: ConstraintResult) -> ConstraintResult:
        self._checks.append(result)
        return result

    def checks(self, layer: Optional[Layer] = None,
               satisfied: Optional[bool] = None) -> List[ConstraintResult]:
        out = self._checks
        if layer is not None:
            out = [c for c in out if c.layer == layer]
        if satisfied is not None:
            out = [c for c in out if c.satisfied == satisfied]
        return list(out)

    def violations(self) -> List[ConstraintResult]:
        return self.checks(satisfied=False)

    def layer_health(self) -> Dict[Layer, float]:
        """Mean constraint score per layer (1.0 where nothing was checked)."""
        health: Dict[Layer, float] = {}
        for layer in Layer:
            scores = [c.score for c in self._checks if c.layer == layer]
            health[layer] = sum(scores) / len(scores) if scores else 1.0
        return health

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """A layered textual report: the model applied to this system."""
        lines = [f"LPC analysis of {self.name!r}", "=" * (17 + len(self.name))]
        health = self.layer_health()
        for layer in layers_top_down():
            concerns = self.concerns(layer)
            checks = self.checks(layer)
            lines.append("")
            lines.append(f"[{layer.title}]  device: {DEVICE_SIDE[layer]} | "
                         f"user: {USER_SIDE[layer]}")
            lines.append(f"  relation: {RELATIONS[layer]}  "
                         f"(health {health[layer]:.2f})")
            for check in checks:
                mark = "ok " if check.satisfied else "VIOLATION"
                lines.append(f"  - [{mark}] {check.subject}: "
                             f"{'; '.join(check.details)}")
            for concern in concerns:
                lines.append(f"  * ({concern.source}) {concern.description}")
            if not checks and not concerns:
                lines.append("  (no findings)")
        return "\n".join(lines)


def smart_projector_model() -> LPCModel:
    """The paper's worked example, pre-populated with its four entities."""
    model = LPCModel("smart-projector")
    for entity in smart_projector_entities():
        model.add_entity(entity)
    return model
