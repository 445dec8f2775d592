"""Tests for the LPC structural vocabulary and model entities."""

from __future__ import annotations

import pytest

from repro.core.entities import ModelEntity, smart_projector_entities
from repro.core.layers import (
    ABSTRACT_DEVICE_PARTS,
    ABSTRACT_USER_PARTS,
    DEVICE_SIDE,
    RELATIONS,
    RESOURCE_BOXES,
    USER_SIDE,
    USER_TIMESCALES,
    Column,
    Layer,
    device_abstraction_rank,
    layers_bottom_up,
    layers_top_down,
    user_temporal_rank,
)
from repro.kernel.errors import ModelError


def test_five_layers_in_order():
    assert list(layers_bottom_up()) == [
        Layer.ENVIRONMENT, Layer.PHYSICAL, Layer.RESOURCE,
        Layer.ABSTRACT, Layer.INTENTIONAL]
    assert list(layers_top_down()) == list(reversed(layers_bottom_up()))


def test_every_layer_has_both_sides_and_relation():
    for layer in Layer:
        assert layer in DEVICE_SIDE
        assert layer in USER_SIDE
        assert layer in RELATIONS


def test_paper_relation_wording():
    assert RELATIONS[Layer.PHYSICAL] == "must be compatible with"
    assert RELATIONS[Layer.RESOURCE] == "must not be frustrated by"
    assert RELATIONS[Layer.ABSTRACT] == "must be consistent with"
    assert RELATIONS[Layer.INTENTIONAL] == "must be in harmony with"


def test_resource_boxes_are_figure3():
    shorts = [short for short, _long in RESOURCE_BOXES]
    assert shorts == ["Mem", "Sto", "Exe", "UI", "Net"]


def test_abstract_layer_parts():
    assert "User Reasoning" in ABSTRACT_USER_PARTS
    assert "Software State" in ABSTRACT_DEVICE_PARTS


def test_device_abstraction_increases_upward():
    ranks = [device_abstraction_rank(layer) for layer in layers_bottom_up()]
    assert ranks == sorted(ranks)


def test_user_temporal_specificity_increases_upward():
    """Higher user strata change faster: goals > mental models > faculties
    > physiology."""
    user_layers = [Layer.PHYSICAL, Layer.RESOURCE, Layer.ABSTRACT,
                   Layer.INTENTIONAL]
    ranks = [user_temporal_rank(layer) for layer in user_layers]
    assert ranks == [0, 1, 2, 3]
    assert all(layer in USER_TIMESCALES for layer in user_layers)


def test_environment_not_a_user_stratum():
    with pytest.raises(ModelError):
        user_temporal_rank(Layer.ENVIRONMENT)


# ---------------------------------------------------------------------------
# Entities
# ---------------------------------------------------------------------------

def test_entity_kind_validation():
    with pytest.raises(ModelError):
        ModelEntity("x", "robot")


def test_entity_default_column():
    assert ModelEntity("u", "user").default_column == Column.USER
    assert ModelEntity("d", "device").default_column == Column.DEVICE
    assert ModelEntity("s", "service").default_column == Column.DEVICE


def test_facets_and_layers():
    entity = ModelEntity("laptop", "device")
    entity.add_facet(Layer.PHYSICAL, "hardware")
    entity.add_facet(Layer.RESOURCE, "runtime", subject={"ram": 128})
    assert entity.layers() == (Layer.PHYSICAL, Layer.RESOURCE)
    assert entity.facet_at(Layer.RESOURCE).subject == {"ram": 128}
    assert entity.facet_at(Layer.INTENTIONAL) is None
    assert len(entity.facets()) == 2
    assert len(entity.facets(Layer.PHYSICAL)) == 1


def test_facet_column_override():
    entity = ModelEntity("hybrid", "device")
    facet = entity.add_facet(Layer.ABSTRACT, "shared view",
                             column=Column.USER)
    assert facet.column == Column.USER


def test_smart_projector_entities_match_paper():
    entities = smart_projector_entities()
    names = {e.name for e in entities}
    assert names == {"presenter", "laptop", "smart-projector", "jini-lookup"}
    presenter = next(e for e in entities if e.name == "presenter")
    assert presenter.kind == "user"
    # The presenter appears at all four user strata.
    assert presenter.layers() == (Layer.PHYSICAL, Layer.RESOURCE,
                                  Layer.ABSTRACT, Layer.INTENTIONAL)
    lookup = next(e for e in entities if e.name == "jini-lookup")
    assert lookup.kind == "infrastructure"
