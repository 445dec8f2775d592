"""Meta-check: the repo is permanently clean under its own static pass.

This is the tier-1 gate the ISSUE asked for: the full determinism +
layer-boundary pass runs over ``src/`` and must report zero unsuppressed
findings, every baseline entry must still be load-bearing (stale entries
are findings themselves), and the documentation must enumerate every
shipped rule.
"""

from __future__ import annotations

import json
import pathlib

from repro.checks import RULES, load_baseline, run_checks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "checks_baseline.json"


def _report():
    return run_checks([REPO_ROOT / "src"], base=REPO_ROOT,
                      baseline=BASELINE)


def test_src_has_zero_unsuppressed_findings():
    report = _report()
    details = "\n".join(f.format() for f in report.findings)
    assert report.clean, f"static pass found violations:\n{details}"
    assert report.files >= 100  # the whole tree was actually scanned


def test_baseline_is_minimal_and_justified():
    """Every suppression is used (no LPC002 in the report) and justified."""
    suppressions = load_baseline(BASELINE)
    report = _report()
    assert len(report.suppressed) >= len(suppressions)
    for suppression in suppressions:
        assert len(suppression.justification) > 20, (
            f"{suppression.code} at {suppression.path}: justification "
            "too thin to audit")


def test_layer_graph_matches_the_declared_architecture():
    """The real import graph stays inside the documented layer edges."""
    graph = _report().graph
    # Spot-check the load-bearing edges the docs describe.
    assert "net" in graph["phys"]          # MAC transmits net frames
    assert "kernel" in graph["env"]
    assert "discovery" in graph["services"]
    assert "core" in graph["telemetry"]
    # And the inverted edges must not exist.
    assert "phys" not in graph.get("net", [])
    assert "services" not in graph.get("kernel", [])
    assert "experiments" not in graph.get("core", [])


def test_docs_catalogue_every_rule():
    doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    for code in RULES:
        assert code in doc, f"docs/static_analysis.md is missing {code}"


def test_json_findings_schema_is_stable():
    """`repro.cli check --format json` consumers rely on these keys."""
    payload = json.loads(_report().to_json())
    assert set(payload) >= {"version", "files", "findings", "suppressed",
                            "import_graph", "rules"}
    for entry in payload["suppressed"]:
        assert set(entry) == {"path", "line", "col", "code", "message",
                              "severity", "hint"}
