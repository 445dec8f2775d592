"""Tests for the LPC model object, instrumentation, figures and the
paper-coverage analysis."""

from __future__ import annotations

import pytest

from repro.core.analysis import compare_with_paper
from repro.core.concerns import Concern
from repro.core.figures import ALL_FIGURES, figure1, figure2, figure3, figure4, figure5, render_all
from repro.core.instrument import LPCInstrument
from repro.core.layers import RELATIONS, Column, Layer
from repro.core.model import LPCModel, smart_projector_model
from repro.core.paper import (
    layer_counts,
    paper_inventory,
    paper_inventory_by_layer,
    user_column_items,
)
from repro.kernel.errors import ModelError


# ---------------------------------------------------------------------------
# LPCModel
# ---------------------------------------------------------------------------

def test_model_entities():
    model = smart_projector_model()
    assert len(model.entities()) == 4
    assert model.entity("presenter").kind == "user"
    with pytest.raises(ModelError):
        model.entity("nobody")
    with pytest.raises(ModelError):
        model.add_entity(model.entity("presenter"))


def test_entities_filtered_by_layer():
    model = smart_projector_model()
    at_intentional = {e.name for e in model.entities(Layer.INTENTIONAL)}
    assert at_intentional == {"presenter", "smart-projector"}


def test_add_concern_classified():
    model = LPCModel("test")
    concern = model.add_concern("users forget to release the session",
                                topic="session")
    assert concern.layer == Layer.ABSTRACT
    assert model.concerns(Layer.ABSTRACT) == [concern]


def test_add_concern_explicit_layer_and_column():
    model = LPCModel("test")
    concern = model.add_concern("anything", layer=Layer.PHYSICAL,
                                column=Column.USER)
    assert concern.layer == Layer.PHYSICAL
    assert model.concerns(column=Column.USER) == [concern]


def test_concern_column_follows_entity():
    model = smart_projector_model()
    concern = model.add_concern("mental overload", topic="mental",
                                entity="presenter")
    assert concern.column == Column.USER


def test_concern_counts():
    model = LPCModel("t")
    model.add_concern("a", topic="session")
    model.add_concern("b", topic="radio")
    counts = model.concern_counts()
    assert counts[Layer.ABSTRACT] == 1
    assert counts[Layer.ENVIRONMENT] == 1
    assert counts[Layer.PHYSICAL] == 0


def test_checks_and_health():
    from repro.core.constraints import check_resource_match
    from repro.resource.faculties import casual_user
    from repro.resource.platform import adapter_platform, soc_platform

    model = LPCModel("t")
    model.record_check(check_resource_match(adapter_platform(), casual_user()))
    model.record_check(check_resource_match(soc_platform(), casual_user()))
    assert len(model.checks(Layer.RESOURCE)) == 2
    assert len(model.violations()) == 1
    health = model.layer_health()
    assert 0.0 <= health[Layer.RESOURCE] < 1.0
    assert health[Layer.ABSTRACT] == 1.0  # nothing checked there


def test_report_mentions_all_layers_and_relations():
    model = smart_projector_model()
    model.add_concern("interference burst", topic="interference")
    report = model.report()
    for layer in Layer:
        assert layer.title in report
    for relation in RELATIONS.values():
        assert relation in report
    assert "interference burst" in report


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def test_instrument_collects_and_classifies(sim):
    model = smart_projector_model()
    instrument = LPCInstrument(sim, model, user_sources={"presenter"})
    sim.issue("session", "projector", "bob denied: alice holds the session")
    sim.issue("mental", "presenter", "expected lamp on, observed off")
    assert instrument.observed == 2
    assert model.concern_counts()[Layer.ABSTRACT] == 2
    columns = {c.column for c in model.concerns()}
    assert columns == {Column.DEVICE, Column.USER}


def test_instrument_catches_up_on_existing_issues(sim):
    sim.issue("radio", "nic", "frame dropped (collisions)")
    model = smart_projector_model()
    instrument = LPCInstrument(sim, model)
    assert model.concern_counts()[Layer.ENVIRONMENT] == 1


def test_instrument_dedup_counts(sim):
    model = smart_projector_model()
    LPCInstrument(sim, model, dedup=True)
    for _ in range(5):
        sim.issue("session", "projector", "identical message")
    concerns = model.concerns(Layer.ABSTRACT)
    assert len(concerns) == 1
    assert concerns[0].count == 5


def test_instrument_detach(sim):
    model = smart_projector_model()
    instrument = LPCInstrument(sim, model)
    instrument.detach()
    sim.issue("session", "projector", "after detach")
    assert model.concerns() == []


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def test_figure1_structure():
    text = figure1()
    # All five layers present, environment spans the bottom.
    for label in ("Design Purpose", "User Goals", "Application",
                  "Mental Models", "User Faculties", "Physical Devices",
                  "Physical User", "Environment"):
        assert label in text
    # Temporal-specificity annotation present.
    assert "temporal specificity" in text
    # Top-down order: intentional artifacts appear before physical ones.
    assert text.index("Design Purpose") < text.index("Physical Devices")


def test_figure2_has_relation_and_footnote():
    text = figure2()
    assert RELATIONS[Layer.PHYSICAL] in text
    assert "either a user or a device" in text


def test_figure3_lists_all_boxes():
    text = figure3()
    for box in ("Mem", "Sto", "Exe", "UI", "Net"):
        assert box in text
    assert RELATIONS[Layer.RESOURCE] in text
    assert "temperament" in text


def test_figure4_and_5_relations():
    assert RELATIONS[Layer.ABSTRACT] in figure4()
    assert "User Reasoning" in figure4()
    assert RELATIONS[Layer.INTENTIONAL] in figure5()


def test_render_all_contains_every_figure():
    text = render_all()
    for i in ALL_FIGURES:
        assert f"Figure {i}" in text


# ---------------------------------------------------------------------------
# Paper inventory and coverage
# ---------------------------------------------------------------------------

def test_paper_inventory_counts():
    inventory = paper_inventory()
    assert len(inventory) >= 20
    counts = layer_counts()
    assert sum(counts.values()) == len(inventory)
    assert counts[Layer.ABSTRACT] >= 6  # richest section of the paper
    by_layer = paper_inventory_by_layer()
    assert all(len(by_layer[layer]) == counts[layer] for layer in Layer)


def test_user_column_items_majority():
    """The paper's argument: most of its issues involve the user."""
    assert len(user_column_items()) >= len(paper_inventory()) * 0.4


def test_coverage_empty_observation():
    report = compare_with_paper([])
    assert report.coverage == 0.0
    assert report.extras == []


def test_coverage_requires_matching_layer():
    # Right keywords, wrong layer: no credit.
    wrong = [Concern("session denied: holder keeps the session",
                     Layer.PHYSICAL)]
    report = compare_with_paper(wrong)
    session_items = [i for i in report.items
                     if "one person" in i.stated.description]
    assert not session_items[0].covered


def test_coverage_matches_on_signature():
    observed = [Concern("bob denied: alice holds the session",
                        Layer.ABSTRACT)]
    report = compare_with_paper(observed)
    covered_texts = [i.stated.description for i in report.items if i.covered]
    assert any("one person" in t for t in covered_texts)
    assert report.extras == []


def test_ablation_loses_user_items():
    observed = [Concern("users assumed to speak English only: language gap",
                        Layer.RESOURCE)]
    full = compare_with_paper(observed, include_user_column=True)
    ablated = compare_with_paper(observed, include_user_column=False)
    assert full.coverage > ablated.coverage


def test_extras_reported():
    observed = [Concern("totally novel issue about quantum projectors",
                        Layer.ABSTRACT)]
    report = compare_with_paper(observed)
    assert len(report.extras) == 1


def test_summary_renders():
    report = compare_with_paper([Concern(
        "bob denied: alice holds the session", Layer.ABSTRACT)])
    text = report.summary()
    assert "coverage" in text
    for layer in Layer:
        assert layer.title in text
