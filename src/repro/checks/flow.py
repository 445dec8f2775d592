"""Fork-safety flow rules (``LPC301``–``LPC304``).

The whole-program pass: given every module's :class:`ModuleSummary` and
the set of modules reachable from the fork/worker entry points (see
:mod:`repro.checks.callgraph`), emit findings for the four shared-state
hazard classes on the sharded/parallel paths.

Each rule is a standalone function in :data:`FLOW_RULES` so the runner
can time them individually (``check --format json`` reports per-rule
milliseconds).  All four produce findings in summary-iteration order and
are sorted downstream with everything else, so output stays
byte-identical across serial and parallel runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from .callgraph import (
    KIND_MUTABLE,
    KIND_RESOURCE,
    KIND_RNG,
    ModuleSummary,
    build_graph,
    reachable_from,
)
from .findings import RULES, Finding


def _finding(code: str, path: str, line: int, message: str) -> Finding:
    rule = RULES[code]
    return Finding(path=path, line=line, col=1, code=code,
                   message=message, severity=rule.severity, hint=rule.hint)


def _mutation_lines(summary: ModuleSummary) -> Dict[str, Set[int]]:
    """State-var name -> lines where some function mutates it."""
    lines: Dict[str, Set[int]] = {}
    for facts in summary.functions:
        for name, line, _how in facts.mutations:
            lines.setdefault(name, set()).add(line)
    return lines


def check_fork_mutations(summaries: Dict[str, ModuleSummary],
                         reached: Dict[str, str]) -> List[Finding]:
    """LPC301 — module-state mutation reachable from a fork entry."""
    findings: List[Finding] = []
    for module in sorted(reached):
        summary = summaries.get(module)
        if summary is None:
            continue
        witness = reached[module]
        for facts in summary.functions:
            for name, line, how in facts.mutations:
                findings.append(_finding(
                    "LPC301", summary.path, line,
                    f"'{facts.qualname}' mutates module-level "
                    f"'{name}' ({how}); module is in the fork closure "
                    f"of entry {witness}"))
    return findings


def check_cross_run_containers(summaries: Dict[str, ModuleSummary],
                               reached: Dict[str, str]) -> List[Finding]:
    """LPC302 — mutable module container both mutated and read back.

    Ungated by fork reachability: cross-run contamination is a
    process-wide hazard, not just a worker one.  A read that shares a
    line with a mutation of the same variable (``X.append(...)`` loads
    ``X`` to mutate it) does not count as a read-back.
    """
    findings: List[Finding] = []
    for module in sorted(summaries):
        summary = summaries[module]
        mutated = _mutation_lines(summary)
        for name, var in summary.state.items():
            if var.kind != KIND_MUTABLE or name not in mutated:
                continue
            read_back = any(
                read_name == name and line not in mutated[name]
                for facts in summary.functions
                for read_name, line in facts.reads)
            if read_back:
                findings.append(_finding(
                    "LPC302", summary.path, var.line,
                    f"module-level {var.detail or 'container'} '{name}' "
                    f"is mutated after import time and read back — "
                    f"run N+1 observes run N's leftovers"))
    return findings


def check_module_rng(summaries: Dict[str, ModuleSummary],
                     reached: Dict[str, str]) -> List[Finding]:
    """LPC303 — module-level RNG stream on a fork-reachable path."""
    findings: List[Finding] = []
    for module in sorted(reached):
        summary = summaries.get(module)
        if summary is None:
            continue
        witness = reached[module]
        for name, var in summary.state.items():
            if var.kind != KIND_RNG:
                continue
            findings.append(_finding(
                "LPC303", summary.path, var.line,
                f"module-level RNG '{name}' ({var.detail}) is one "
                f"stream shared across runs and forks; module is in "
                f"the fork closure of entry {witness}"))
        for facts in summary.functions:
            for name, line, ctor in facts.rng_captures:
                findings.append(_finding(
                    "LPC303", summary.path, line,
                    f"'{facts.qualname}' captures {ctor}() into module "
                    f"global '{name}' — an RNG stream outside sim "
                    f"seeding, reachable from {witness}"))
    return findings


def check_fork_resources(summaries: Dict[str, ModuleSummary],
                         reached: Dict[str, str]) -> List[Finding]:
    """LPC304 — fork-unsafe resource held in module state."""
    findings: List[Finding] = []
    for module in sorted(reached):
        summary = summaries.get(module)
        if summary is None:
            continue
        witness = reached[module]
        for name, var in summary.state.items():
            if var.kind != KIND_RESOURCE:
                continue
            findings.append(_finding(
                "LPC304", summary.path, var.line,
                f"module-level {var.detail} '{name}' crosses fork "
                f"boundaries as a broken copy; module is in the fork "
                f"closure of entry {witness}"))
        for facts in summary.functions:
            for name, line, ctor in facts.resource_captures:
                findings.append(_finding(
                    "LPC304", summary.path, line,
                    f"'{facts.qualname}' captures {ctor}() into module "
                    f"global '{name}' — a fork-unsafe resource "
                    f"reachable from {witness}"))
    return findings


#: Rule code -> rule function; iterated in code order by the runner so
#: per-rule timings and finding emission order are deterministic.
FLOW_RULES: Dict[str, Callable[[Dict[str, ModuleSummary], Dict[str, str]],
                               List[Finding]]] = {
    "LPC301": check_fork_mutations,
    "LPC302": check_cross_run_containers,
    "LPC303": check_module_rng,
    "LPC304": check_fork_resources,
}


def run_flow(summaries: Dict[str, ModuleSummary],
             entry_points: Sequence[str],
             ) -> Tuple[List[Finding], Dict[str, List[str]],
                        Dict[str, str], Dict[str, float]]:
    """Run all flow rules; returns (findings, graph, reached, timings).

    ``timings`` maps rule code -> seconds (``time.perf_counter`` deltas,
    host wall time only — never fed back into outcomes).
    """
    import time

    graph = build_graph(summaries)
    reached = reachable_from(graph, entry_points)
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for code, rule_fn in FLOW_RULES.items():
        start = time.perf_counter()
        findings.extend(rule_fn(summaries, reached))
        timings[code] = time.perf_counter() - start
    return findings, graph, reached, timings
