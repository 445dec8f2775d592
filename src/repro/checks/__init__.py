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

from .baseline import (Suppression, apply_baseline, load_baseline,
                       write_baseline)
from .callgraph import (DEFAULT_FORK_ENTRY_POINTS, ModuleSummary,
                        build_graph, reachable_from, summarize_module)
from .determinism import check_determinism, check_source
from .findings import ERROR, RULES, WARNING, Finding, Rule
from .flow import FLOW_RULES, run_flow
from .layers import (LAYER_MAP, ModuleImports, check_layers,
                     extract_imports, import_graph)
from .runner import CheckReport, discover_files, run_checks

__all__ = [
    "ERROR", "WARNING", "Finding", "Rule", "RULES",
    "check_determinism", "check_source",
    "LAYER_MAP", "ModuleImports", "check_layers", "extract_imports",
    "import_graph",
    "DEFAULT_FORK_ENTRY_POINTS", "ModuleSummary", "build_graph",
    "reachable_from", "summarize_module",
    "FLOW_RULES", "run_flow",
    "Suppression", "load_baseline", "apply_baseline", "write_baseline",
    "CheckReport", "discover_files", "run_checks",
]
