"""The user column: physiology sampling, mental models, goals, behaviour.

The paper's central design move is keeping the human in the model at
every layer; this package provides the user-side artifacts the device-side
packages are checked against.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "AttemptResult": "behavior",
    "Procedure": "behavior",
    "Step": "behavior",
    "UserAgent": "behavior",
    "DesignPurpose": "goals",
    "Goal": "goals",
    "HarmonyReport": "goals",
    "adoption_probability": "goals",
    "commercial_product_purpose": "goals",
    "harmony": "goals",
    "presentation_goal": "goals",
    "research_goal": "goals",
    "research_prototype_purpose": "goals",
    "MentalModel": "mental",
    "Surprise": "mental",
    "completion_probability": "mental",
    "concept_capacity": "mental",
    "step_success_probability": "mental",
    "sample_bodies": "physiology",
    "sample_physical_profile": "physiology",
    "casual_population": "population",
    "lab_population": "population",
    "public_population": "population",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
