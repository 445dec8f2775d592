"""Concerns and their classification into LPC layers.

The model's stated use: "properly classifying issues raised during
discussion" and providing context.  A :class:`Concern` is one such issue;
:class:`ConcernClassifier` assigns it a layer from (a) the topic tag the
emitting component chose, and (b) keyword heuristics over the free text —
so both live simulation issues (``sim.issue(...)``) and prose items from a
design review land in the right place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..kernel.errors import ModelError
from ..kernel.trace import TraceRecord
from .layers import Column, Layer

#: topic tag (the ``sim.issue`` first argument) -> layer.
TOPIC_LAYERS: Dict[str, Layer] = {
    # environment
    "radio": Layer.ENVIRONMENT,
    "interference": Layer.ENVIRONMENT,
    "noise": Layer.ENVIRONMENT,
    "environment": Layer.ENVIRONMENT,
    "social": Layer.ENVIRONMENT,
    # physical
    "physical": Layer.PHYSICAL,
    "power": Layer.PHYSICAL,
    "ergonomics": Layer.PHYSICAL,
    "bandwidth": Layer.PHYSICAL,
    "fault": Layer.PHYSICAL,
    # resource
    "resource": Layer.RESOURCE,
    "execution": Layer.RESOURCE,
    "storage": Layer.RESOURCE,
    "faculty": Layer.RESOURCE,
    "language": Layer.RESOURCE,
    "admin": Layer.RESOURCE,
    "infrastructure": Layer.RESOURCE,
    # abstract
    "session": Layer.ABSTRACT,
    "discovery": Layer.ABSTRACT,
    "vnc": Layer.ABSTRACT,
    "mental": Layer.ABSTRACT,
    "application": Layer.ABSTRACT,
    # intentional
    "intentional": Layer.INTENTIONAL,
    "purpose": Layer.INTENTIONAL,
    "goal": Layer.INTENTIONAL,
}

#: keyword -> layer, applied to free text when the topic is unknown.
KEYWORD_LAYERS: Tuple[Tuple[str, Layer], ...] = (
    ("interferen", Layer.ENVIRONMENT),
    ("2.4", Layer.ENVIRONMENT),
    ("noise", Layer.ENVIRONMENT),
    ("weather", Layer.ENVIRONMENT),
    ("socially", Layer.ENVIRONMENT),
    ("battery", Layer.PHYSICAL),
    ("hardware", Layer.PHYSICAL),
    ("proximity", Layer.PHYSICAL),
    ("bandwidth", Layer.PHYSICAL),
    ("ergonomic", Layer.PHYSICAL),
    ("biometric", Layer.PHYSICAL),
    ("languag", Layer.RESOURCE),
    ("skill", Layer.RESOURCE),
    ("administrat", Layer.RESOURCE),
    ("operating system", Layer.RESOURCE),
    ("lookup service present", Layer.RESOURCE),
    ("storage", Layer.RESOURCE),
    ("memory", Layer.RESOURCE),
    ("session", Layer.ABSTRACT),
    ("mental model", Layer.ABSTRACT),
    ("client", Layer.ABSTRACT),
    ("relinquish", Layer.ABSTRACT),
    ("hijack", Layer.ABSTRACT),
    ("icon", Layer.ABSTRACT),
    ("goal", Layer.INTENTIONAL),
    ("purpose", Layer.INTENTIONAL),
    ("abandon", Layer.INTENTIONAL),
    ("harmony", Layer.INTENTIONAL),
)


@dataclass
class Concern:
    """One classified issue."""

    description: str
    layer: Layer
    column: Column = Column.DEVICE
    source: str = "observed"   #: "observed" (simulation) or "stated" (review)
    topic: str = ""
    entity: str = ""
    time: Optional[float] = None
    count: int = 1             #: duplicate observations folded together


class ConcernClassifier:
    """Maps issues (live or prose) to LPC layers."""

    def __init__(self,
                 extra_topics: Optional[Dict[str, Layer]] = None,
                 default: Optional[Layer] = None) -> None:
        self.topic_layers = dict(TOPIC_LAYERS)
        if extra_topics:
            self.topic_layers.update(extra_topics)
        self.default = default

    # ------------------------------------------------------------------
    def classify_topic(self, topic: str) -> Optional[Layer]:
        return self.topic_layers.get(topic)

    def classify_text(self, text: str) -> Optional[Layer]:
        lowered = text.lower()
        for keyword, layer in KEYWORD_LAYERS:
            if keyword in lowered:
                return layer
        return None

    def classify(self, topic: str, text: str) -> Layer:
        """Topic tag wins; fall back to keywords, then the default."""
        layer = self.classify_topic(topic)
        if layer is None:
            layer = self.classify_text(text)
        if layer is None:
            if self.default is None:
                raise ModelError(
                    f"cannot classify issue topic={topic!r} text={text!r}")
            layer = self.default
        return layer

    # ------------------------------------------------------------------
    def from_trace(self, record: TraceRecord,
                   user_sources: Iterable[str] = ()) -> Concern:
        """Build a concern from an ``issue.*`` trace record."""
        if not record.category.startswith("issue"):
            raise ModelError(f"not an issue record: {record.category}")
        topic = record.category.split(".", 1)[1] if "." in record.category else ""
        layer = self.classify(topic, record.message)
        column = (Column.USER if record.source in set(user_sources)
                  else Column.DEVICE)
        return Concern(record.message, layer, column, "observed", topic,
                       record.source, record.time)
