"""Smoke tests: every shipped example must run end-to-end and print the
findings it promises."""

from __future__ import annotations

import importlib.util
import pathlib

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    module.main()
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = _run_example("quickstart", capsys)
    assert "Figure 1" in out
    assert "LPC analysis" in out
    assert "weakest layer" in out


def test_smart_projector_example(capsys):
    out = _run_example("smart_projector", capsys)
    assert "presentation started ok: True" in out
    assert "projector free again: True" in out
    assert "granted the session from the wait queue" in out
    assert "coverage" in out


def test_smart_space_example(capsys):
    out = _run_example("smart_space", capsys)
    assert "PDA sees" in out
    assert "coffee-machine -> expired" in out


def test_voice_badge_example(capsys):
    out = _run_example("voice_badge", capsys)
    assert "quiet office" in out and "machine room" in out
    assert "double bind" in out


def test_design_review_example(capsys):
    out = _run_example("design_review", capsys)
    assert "Design-review checklist" in out
    assert "intended user" in out
    assert "constraint violations" in out
