"""The paper's primary contribution: the executable LPC conceptual model.

Layers and columns (:mod:`.layers`), entities with per-layer facets
(:mod:`.entities`), concern classification (:mod:`.concerns`), the four
cross-column constraint relations (:mod:`.constraints`), the model object
(:mod:`.model`), live instrumentation of simulations (:mod:`.instrument`),
coverage analysis against the paper's own inventory (:mod:`.analysis`,
:mod:`.paper`), and figure regeneration (:mod:`.figures`).
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "CoverageItem": "analysis",
    "CoverageReport": "analysis",
    "analyze_model": "analysis",
    "compare_with_paper": "analysis",
    "Checklist": "checklist",
    "ChecklistItem": "checklist",
    "GENERIC_QUESTIONS": "checklist",
    "build_checklist": "checklist",
    "Concern": "concerns",
    "ConcernClassifier": "concerns",
    "KEYWORD_LAYERS": "concerns",
    "TOPIC_LAYERS": "concerns",
    "ConstraintResult": "constraints",
    "check_abstract_consistency": "constraints",
    "check_acoustic_environment": "constraints",
    "check_intentional_harmony": "constraints",
    "check_physical_compatibility": "constraints",
    "check_radio_environment": "constraints",
    "check_resource_match": "constraints",
    "Facet": "entities",
    "ModelEntity": "entities",
    "smart_projector_entities": "entities",
    "ALL_FIGURES": "figures",
    "figure1": "figures",
    "figure2": "figures",
    "figure3": "figures",
    "figure4": "figures",
    "figure5": "figures",
    "render_all": "figures",
    "LPCInstrument": "instrument",
    "Column": "layers",
    "DEVICE_SIDE": "layers",
    "Layer": "layers",
    "RELATIONS": "layers",
    "RESOURCE_BOXES": "layers",
    "USER_SIDE": "layers",
    "USER_TIMESCALES": "layers",
    "device_abstraction_rank": "layers",
    "layers_bottom_up": "layers",
    "layers_top_down": "layers",
    "user_temporal_rank": "layers",
    "model_from_room": "live",
    "LPCModel": "model",
    "smart_projector_model": "model",
    "layer_counts": "paper",
    "paper_inventory": "paper",
    "paper_inventory_by_layer": "paper",
    "user_column_items": "paper",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
