"""Findings and the rule catalogue for the ``repro.checks`` static pass.

Every rule the pass can emit lives in :data:`RULES` so that the CLI
(``repro.cli check --list-rules``), the documentation
(``docs/static_analysis.md``) and the tests enumerate the same catalogue.

Rule code families:

* ``LPC0xx`` — runner/baseline plumbing (unparseable file, stale
  suppression).
* ``LPC1xx`` — determinism: constructs that can make two runs of the
  same seed diverge (wall clock, global RNG state, set-iteration order,
  ``id()`` ordering, mutable default arguments).
* ``LPC2xx`` — layering: imports that violate the declared Layered
  Pervasive Computing map (see :mod:`repro.checks.layers`).
* ``LPC3xx`` — fork-safety flow rules over the whole-program call graph
  (see :mod:`repro.checks.callgraph` / :mod:`repro.checks.flow`): hidden
  mutable module state, cross-run contamination, RNG-stream discipline
  and fork-unsafe resources on the sharded/parallel paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, what rule, and how to fix it."""

    path: str          # posix path, relative to the runner's base dir
    line: int
    col: int
    code: str          # e.g. "LPC101"
    message: str
    severity: str = ERROR
    hint: str = ""     # one-line fix suggestion

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def format(self) -> str:
        text = f"{self.location()} {self.code} [{self.severity}] {self.message}"
        if self.hint:
            text += f" — {self.hint}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class Rule:
    """Catalogue entry: what a code means and how violations are fixed."""

    code: str
    title: str
    severity: str
    rationale: str
    hint: str


# The catalogue is a module-scope literal on purpose: building it through
# a registration helper would mutate a module-level dict from a function
# body — exactly the pattern LPC301 exists to flag — and the checks
# package holds itself to its own rules.
_CATALOGUE = (
    # -- LPC0xx — runner plumbing --------------------------------------
    Rule("LPC001", "unparseable file", ERROR,
         "A file that does not parse cannot be analysed, so nothing in it "
         "is checked; treat it like a build break.",
         "fix the syntax error (python -m py_compile <file>)"),
    Rule("LPC002", "stale baseline entry", WARNING,
         "A suppression that matches no current finding hides nothing and "
         "rots: when the violation comes back it is silently re-suppressed.",
         "delete the entry from the baseline file"),

    # -- LPC1xx — determinism ------------------------------------------
    Rule("LPC101", "wall-clock read", ERROR,
         "time.time()/datetime.now() differ between runs, so any value "
         "derived from them breaks byte-identical seeded replay. Simulated "
         "time comes from Simulator.now; time.perf_counter() is allowed "
         "for measuring host wall time that never feeds back into "
         "outcomes.",
         "use sim.now for simulated time, time.perf_counter() for "
         "benchmarks"),
    Rule("LPC102", "stdlib random module", ERROR,
         "The stdlib random module defaults to global, OS-entropy-seeded "
         "state shared by every caller, which destroys variance isolation "
         "between components.",
         "draw from a named repro.kernel.random.RandomStreams stream"),
    Rule("LPC103", "unseeded or global-state RNG", ERROR,
         "default_rng() with no seed, random.Random() with no seed, and "
         "the legacy numpy global functions (np.random.rand, "
         "np.random.seed, ...) produce different numbers each run or "
         "share hidden global state.",
         "construct generators from RandomStreams.stream(name)"),
    Rule("LPC104", "ordering-sensitive set iteration", ERROR,
         "Iteration order of a set/frozenset of strings depends on "
         "PYTHONHASHSEED, so any loop, comprehension, or list()/tuple() "
         "conversion over one can reorder events between runs. Membership "
         "tests and order-insensitive folds (sorted/min/max/sum/len/"
         "any/all) are fine. Dict views are insertion-ordered and allowed.",
         "wrap in sorted(...) or keep an insertion-ordered dict/list"),
    Rule("LPC105", "id()-based ordering", ERROR,
         "id() is an allocation address: sorting by it gives a different "
         "order every process, even with identical seeds.",
         "sort by a stable domain key (name, address, sequence number)"),
    Rule("LPC106", "mutable default argument", ERROR,
         "A list/dict/set default is created once and shared by every "
         "call, so state leaks across calls and across simulator "
         "instances.",
         "default to None and create the container inside the function"),
    Rule("LPC107", "direct heapq use outside the kernel", ERROR,
         "Event ordering is the kernel's contract: every entry, batch "
         "classes included, takes one global sequence number, and the "
         "kernel heap is the only place allowed to decide what fires "
         "next. A private heapq elsewhere re-implements that ordering "
         "without the tie-break, span-context, and cancellation "
         "semantics, and its outcomes silently diverge from the kernel "
         "heap.",
         "schedule through sim.schedule/schedule_at or a sim.batch_class "
         "timer queue instead of a private heap"),
    Rule("LPC108", "cross-shard state access outside the shard runtime",
         ERROR,
         "Under sharded execution each shard's Simulator/World lives in "
         "its own process; reaching into another shard's .sim or .world "
         "works only by fork-inheritance accident, silently diverges from "
         "the multi-process run, and bypasses the conservative-sync "
         "ordering guarantees. Only kernel/shard.py (the coordinator) may "
         "touch per-shard engine state directly.",
         "route cross-shard effects through ShardPorts boundary channels "
         "(send/open), never through another shard's engine objects"),
    Rule("LPC109", "per-event attribute lookup in a registered hot loop",
         WARNING,
         "Functions registered in repro.kernel.dispatch.HOT_LOOP are the "
         "kernel's monomorphic run-loop variants: they execute once per "
         "simulated event, so every attribute walk inside their while/for "
         "bodies is paid millions of times per run. The dispatch-core "
         "contract is that loop state is hoisted into locals before the "
         "loop and only a short allow-list of genuinely per-event reads "
         "(cancellation flags, the stop latch, ambient span context) "
         "remains inside it.",
         "hoist the attribute into a local before the loop, or add it to "
         "HOT_LOOP_ALLOWED_ATTRS with a comment justifying the per-event "
         "read"),

    # -- LPC2xx — layer boundaries -------------------------------------
    Rule("LPC201", "upward or sideways layer import", ERROR,
         "A module-scope import from a lower LPC layer into a higher (or "
         "sibling) one inverts the paper's layering: the kernel must "
         "never know about services, env must never know about phys, and "
         "sibling layers stay decoupled.",
         "move the shared code down a layer, or invert with a "
         "callback/event"),
    Rule("LPC202", "package missing from the layer map", ERROR,
         "Every package under repro/ must have a declared layer rank; an "
         "unmapped package is architecture that nobody placed.",
         "add the package to repro.checks.layers.LAYER_MAP with a rank"),
    Rule("LPC203", "lazy (function-scoped) upward import", WARNING,
         "An upward import inside a function body or TYPE_CHECKING block "
         "does not execute at import time, so it is the sanctioned escape "
         "hatch for genuine cycles — but each one must be justified in "
         "the baseline so the exceptions stay enumerable.",
         "suppress in the baseline with a justification, or restructure"),

    # -- LPC3xx — fork-safety flow rules -------------------------------
    Rule("LPC301", "module-state mutation reachable from a fork entry",
         ERROR,
         "A function reachable from a fork/worker entry point mutates "
         "module-level state (a global rebind or an in-place container "
         "write). Forked workers inherit a snapshot of every imported "
         "module, so the mutation silently diverges between parent and "
         "children, and within one process it leaks across runs — the "
         "services.sessions._session_seq bug class.",
         "move the state onto the Simulator (sim.context) or an object "
         "owned by the run, not the module"),
    Rule("LPC302", "cross-run contamination via module-level container",
         ERROR,
         "A module-level mutable container is both mutated after import "
         "time and read back, so run N+1 observes state left behind by "
         "run N in the same process — byte-identical twin runs are "
         "impossible through such a container unless every write is "
         "idempotent and value-deterministic.",
         "scope the container to the run (sim.context / an engine "
         "object), or baseline it with a justification of idempotence"),
    Rule("LPC303", "module-level RNG stream outside sim seeding", ERROR,
         "An np.random.Generator/random.Random bound at module scope (or "
         "captured into a module global) is one stream shared by every "
         "run and every fork: draws interleave across runs, and forked "
         "workers clone identical stream state. Even a seeded module RNG "
         "breaks variance isolation — streams must derive from the "
         "simulator's RandomStreams / per-station seeding.",
         "derive generators from RandomStreams.stream(name) or "
         "per-station seeds at run scope"),
    Rule("LPC304", "fork-unsafe resource captured at module scope", ERROR,
         "A pool, lock, open file handle or socket held in module state "
         "crosses fork boundaries as a broken copy: children inherit "
         "locked locks, shared file offsets and pool pipes they must not "
         "use. Any worker that can reach the module sees the hazard.",
         "create the resource inside the owning function/object and tear "
         "it down explicitly; if a process-wide pool is intentional, "
         "baseline it with its documented fork semantics"),
)

RULES: Dict[str, Rule] = {rule.code: rule for rule in _CATALOGUE}
