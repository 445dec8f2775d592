"""Fixtures for the LPC2xx import-graph layer checker."""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.checks import LAYER_MAP, check_layers, extract_imports, import_graph, run_checks


def module(rel: str, source: str):
    """Parse ``source`` as the module at ``repro/<rel>``."""
    parts = tuple(rel.split("/"))
    return extract_imports(f"src/repro/{rel}", parts, ast.parse(source))


def codes(modules) -> list:
    return [f.code for f in check_layers(modules)]


# ---------------------------------------------------------------------------
# LPC201 — upward / sideways module-scope imports
# ---------------------------------------------------------------------------
def test_kernel_importing_services_is_rejected():
    """The acceptance fixture: the lowest layer must not see the top."""
    bad = module("kernel/scheduler.py",
                 "from repro.services.base import AromaService\n")
    findings = check_layers([bad])
    assert [f.code for f in findings] == ["LPC201"]
    assert "upward" in findings[0].message
    assert findings[0].severity == "error"


@pytest.mark.parametrize("rel,source", [
    ("env/world.py", "from repro.phys.mac import WirelessMedium\n"),
    ("net/frames.py", "import repro.discovery.registry\n"),
    ("kernel/events.py", "from ..experiments import harness\n"),
    ("metrics/counters.py", "from repro import cli\n"),
])
def test_upward_imports_rejected_in_all_forms(rel, source):
    assert codes([module(rel, source)]) == ["LPC201"]


def test_sideways_import_between_sibling_layers_rejected():
    # phys and discovery share rank 3: they must stay decoupled.
    bad = module("discovery/registry.py",
                 "from repro.phys.mac import WirelessMedium\n")
    findings = check_layers([bad])
    assert [f.code for f in findings] == ["LPC201"]
    assert "sideways" in findings[0].message


@pytest.mark.parametrize("rel,source", [
    ("phys/mac.py", "from ..net.frames import Frame\n"),       # downward
    ("services/base.py", "from repro.discovery.records import "
                         "ServiceItem\n"),                     # downward
    ("env/radio.py", "from ..kernel.scheduler import Simulator\n"),
    ("kernel/scheduler.py", "from .events import Event\n"),    # same pkg
    ("cli.py", "from .experiments import run_experiment\n"),   # app = top
    ("experiments/harness.py", "from repro.telemetry.jsonl import "
                               "JsonlWriter\n"),
])
def test_downward_and_intra_package_imports_allowed(rel, source):
    assert codes([module(rel, source)]) == []


# ---------------------------------------------------------------------------
# LPC202 — packages missing from the layer map
# ---------------------------------------------------------------------------
def test_unmapped_source_package_rejected():
    findings = check_layers([module("widgets/shiny.py", "import json\n")])
    assert [f.code for f in findings] == ["LPC202"]


def test_unmapped_import_target_rejected():
    findings = check_layers(
        [module("core/model.py", "from repro.widgets import shiny\n")])
    assert [f.code for f in findings] == ["LPC202"]


# ---------------------------------------------------------------------------
# LPC203 — lazy upward imports are warnings, not errors
# ---------------------------------------------------------------------------
def test_function_scoped_upward_import_is_a_warning():
    lazy = module("kernel/scheduler.py",
                  "def metrics(self):\n"
                  "    from ..metrics.registry import MetricsRegistry\n"
                  "    return MetricsRegistry()\n")
    findings = check_layers([lazy])
    assert [f.code for f in findings] == ["LPC203"]
    assert findings[0].severity == "warning"


def test_type_checking_upward_import_is_a_warning():
    lazy = module("env/world.py",
                  "from typing import TYPE_CHECKING\n"
                  "if TYPE_CHECKING:\n"
                  "    from repro.phys.mac import WirelessMedium\n")
    assert codes([lazy]) == ["LPC203"]


def test_function_scoped_downward_import_is_clean():
    lazy = module("services/vnc.py",
                  "def build(sim):\n"
                  "    from ..net.stack import NetworkStack\n"
                  "    return NetworkStack(sim)\n")
    assert codes([lazy]) == []


# ---------------------------------------------------------------------------
# Map hygiene + graph extraction
# ---------------------------------------------------------------------------
def test_layer_map_covers_the_real_tree():
    """Every package under src/repro (and every root module) has a rank."""
    repro_dir = pathlib.Path(__file__).parent.parent / "src" / "repro"
    for entry in repro_dir.iterdir():
        if entry.is_dir() and (entry / "__init__.py").exists():
            assert entry.name in LAYER_MAP, f"unmapped package {entry.name}"
        elif entry.suffix == ".py":
            assert entry.stem in ("__init__", "__main__", "cli"), (
                f"root module {entry.name} needs a home in the layer map")


def test_kernel_is_the_lowest_layer_and_app_the_highest():
    assert LAYER_MAP["kernel"] == min(LAYER_MAP.values())
    assert LAYER_MAP["app"] == max(LAYER_MAP.values())


def test_import_graph_aggregates_and_sorts():
    modules = [
        module("phys/mac.py", "from ..net.frames import Frame\n"
                              "from ..env.world import World\n"),
        module("phys/nic.py", "from ..net.addresses import BROADCAST\n"),
    ]
    assert import_graph(modules) == {"phys": ["env", "net"]}


def test_run_checks_applies_layers_to_a_fixture_tree(tmp_path):
    """End-to-end: a fake repro tree with one upward import."""
    pkg = tmp_path / "repro"
    (pkg / "kernel").mkdir(parents=True)
    (pkg / "services").mkdir()
    (pkg / "kernel" / "bad.py").write_text(
        "from repro.services.base import AromaService\n")
    (pkg / "services" / "base.py").write_text(
        "from repro.kernel.scheduler import Simulator\n")
    report = run_checks([tmp_path], base=tmp_path)
    assert [f.code for f in report.findings] == ["LPC201"]
    assert report.findings[0].path == "repro/kernel/bad.py"
