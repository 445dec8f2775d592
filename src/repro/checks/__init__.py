"""Static analysis for the reproduction: determinism, layers, fork flow.

The load-bearing promises of this repo — byte-identical seeded runs, a
package tree that mirrors the paper's Layered Pervasive Computing model,
and no hidden mutable module state crossing the fork boundaries of the
sharded/parallel paths — are enforced here as an AST pass
(``repro.cli check``, ``make lint``, and the
``tests/test_meta_checks.py`` self-check).

Public surface:

* :func:`repro.checks.runner.run_checks` — the full pass.
* :data:`repro.checks.findings.RULES` — the rule catalogue.
* :data:`repro.checks.layers.LAYER_MAP` — the executable architecture.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "Suppression": "baseline",
    "apply_baseline": "baseline",
    "load_baseline": "baseline",
    "write_baseline": "baseline",
    "DEFAULT_FORK_ENTRY_POINTS": "callgraph",
    "ModuleSummary": "callgraph",
    "build_graph": "callgraph",
    "reachable_from": "callgraph",
    "summarize_module": "callgraph",
    "check_determinism": "determinism",
    "check_source": "determinism",
    "ERROR": "findings",
    "Finding": "findings",
    "RULES": "findings",
    "Rule": "findings",
    "WARNING": "findings",
    "FLOW_RULES": "flow",
    "run_flow": "flow",
    "LAYER_MAP": "layers",
    "ModuleImports": "layers",
    "check_layers": "layers",
    "extract_imports": "layers",
    "import_graph": "layers",
    "CheckReport": "runner",
    "discover_files": "runner",
    "run_checks": "runner",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
