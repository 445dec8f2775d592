"""Module-level call graph for the fork-safety flow rules (``LPC3xx``).

The flow pass needs to answer one whole-program question: *which modules
does a forked worker's interpreter contain, and what do their functions
do to module-level state?*  This module builds that picture from the
same per-file ASTs the determinism pass already parses:

* :class:`ModuleSummary` — one module's fork-safety facts: its dotted
  name, outgoing import edges (module-scope *and* lazy — a worker can
  execute a lazy import at runtime, so both count for reachability),
  every module-scope state binding classified by kind, and per-function
  mutation/read/capture facts.
* :func:`build_graph` — the module-level adjacency (imports plus
  attribute-resolved calls into imported repro modules).
* :func:`reachable_from` — reachability from the fork/worker entry
  points, with a deterministic witness entry per reached module.

Like the determinism linter, the analysis is **syntactic and
conservative on dynamics**: ``importlib`` loading, ``exec``, and
attribute chains it cannot resolve contribute no edges, and the
meta-test keeps ``src/`` clean against exactly this analyser.  The
contract is "the idioms we actually write are caught", not "all Python".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Module-scope entry points whose transitive module closure runs inside
#: a forked worker (or is itself an entry process).  Specs are
#: ``dotted.module:qualname`` — reachability is computed at module
#: granularity (fork inherits whole imported modules, not functions);
#: the qualname documents *why* the module is an entry.  Entries naming
#: modules absent from the analysed tree are ignored, so fixture trees
#: can carry their own entries.
DEFAULT_FORK_ENTRY_POINTS: Tuple[str, ...] = (
    "repro.experiments.sweeps:_init_worker",  # sweep pool initializer
    "repro.experiments.sweeps:_run_task",     # sweep pool task runner
    "repro.checks.runner:analyze_file",       # checks runner pool
    "repro.cli:main",                         # CLI entry point
    "repro.__main__:<module>",                # python -m repro
)

#: Kinds a module-scope binding can be classified as.
KIND_MUTABLE = "mutable"      # dict/list/set/deque/... container
KIND_RNG = "rng"              # np.random.Generator / random.Random / ...
KIND_RESOURCE = "resource"    # pool / lock / open file / socket / ...
KIND_OTHER = "other"          # scalars, tuples, classes, sentinels

#: Constructors whose module-scope result is a mutable container (or a
#: stateful iterator — consuming ``itertools.count`` *is* mutation; the
#: historical ``services.sessions._session_seq`` bug was exactly this).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque", "count", "cycle", "iter",
})

#: RNG constructors (seeded or not — module scope is the violation).
_RNG_FACTORIES = frozenset({
    "default_rng", "Random", "RandomState", "Generator", "PCG64",
    "Philox", "SFC64", "MT19937",
})

#: Resource factories recognised by their distinctive final name.  Pool,
#: Process executors and Popen are unambiguous under any base; the
#: synchronisation primitives only count when imported from threading or
#: multiprocessing (plain ``Event``/``Lock`` collide with domain
#: classes); ``open`` always counts.
_RESOURCE_ALWAYS = frozenset({
    "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor", "Popen",
})
_RESOURCE_SYNC = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Queue", "SimpleQueue", "JoinableQueue",
})
_RESOURCE_MODULES = frozenset({
    "threading", "multiprocessing", "socket", "subprocess",
})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
    "popleft", "sort", "reverse",
})

#: State kinds whose *reads* the flow rules care about (LPC302/LPC303).
_TRACKED_READ_KINDS = frozenset({KIND_MUTABLE, KIND_RNG, KIND_RESOURCE})


@dataclass
class StateVar:
    """One module-scope binding and its classification."""

    name: str
    line: int
    kind: str                     # KIND_MUTABLE / KIND_RNG / ...
    detail: str = ""              # e.g. the constructor name


@dataclass
class FunctionFacts:
    """What one function does to its module's state."""

    qualname: str
    line: int
    # (state name, line, description) — in-place container writes and
    # ``global``-declared rebinds of module-scope names.
    mutations: List[Tuple[str, int, str]] = field(default_factory=list)
    # (state name, line) — loads of mutable/rng/resource module state
    # (not shadowed locally) from this function's body.
    reads: List[Tuple[str, int]] = field(default_factory=list)
    # (state name, line, constructor) — ``global X`` rebind in a body
    # that also constructs an RNG: X captures a non-sim stream.
    rng_captures: List[Tuple[str, int, str]] = field(default_factory=list)
    # (state name, line, constructor) — same for fork-unsafe resources.
    resource_captures: List[Tuple[str, int, str]] = field(
        default_factory=list)

    def interesting(self) -> bool:
        return bool(self.mutations or self.reads or self.rng_captures
                    or self.resource_captures)


@dataclass
class ModuleSummary:
    """The fork-safety-relevant facts of one module."""

    path: str                     # display path (posix, runner-relative)
    module: str                   # dotted name, e.g. "repro.kernel.trace"
    # Candidate dotted targets of import statements (module-scope and
    # lazy alike); resolved against the analysed tree in build_graph.
    imports: List[str] = field(default_factory=list)
    state: Dict[str, StateVar] = field(default_factory=dict)
    functions: List[FunctionFacts] = field(default_factory=list)


def module_name(rel_parts: Sequence[str]) -> str:
    """Dotted module name for a path relative to the ``repro`` dir.

    ``("kernel", "trace.py")`` -> ``"repro.kernel.trace"``;
    ``("__init__.py",)`` -> ``"repro"``.
    """
    parts = [p[:-3] if p.endswith(".py") else p for p in rel_parts]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + parts)


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _outer_lambdas(node: ast.AST) -> List[ast.Lambda]:
    """The lambdas under ``node`` that no other lambda, function or
    class under it encloses, in source order."""
    found: List[ast.Lambda] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Lambda):
            found.append(current)
            continue
        if current is not node and isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(current))))
    return found


class _FunctionScanner(ast.NodeVisitor):
    """Collect one function body's state facts.

    Nested function and class definitions are handed back to the
    collector (they get their own scanner and qualname); everything else,
    lambdas included, is walked in place.  The root may itself be a
    lambda defined at module scope or in a class body.
    """

    def __init__(self, collector: "_ModuleCollector", facts: FunctionFacts,
                 node: ast.AST) -> None:
        self.collector = collector
        self.facts = facts
        self.root = node
        self.globals: Set[str] = set()
        self.locals: Set[str] = set()
        # Deferred ``global X; X = ...`` rebinds: classified at the end
        # as RNG capture / resource capture / plain mutation, depending
        # on what the body constructs.
        self._global_rebinds: List[Tuple[str, int]] = []
        self._constructor_calls: List[str] = []
        self._collect_scope(node)

    # -- scope prepass --------------------------------------------------
    def _collect_scope(self, node: ast.AST) -> None:
        """Params, ``global`` declarations and locally-bound names.

        The walk descends into nested defs too — their bindings leak
        into this scope set, a deliberate over-approximation (a shadowed
        read is a missed read, never a false positive).
        """
        self.locals.update(self._params(node))
        for child in ast.walk(node):
            if child is not node and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
                self.locals.add(child.name)
            elif child is not node and isinstance(child, ast.Lambda):
                self.locals.update(self._params(child))
            elif isinstance(child, ast.Global):
                self.globals.update(child.names)
            elif isinstance(child, (ast.Assign, ast.AnnAssign,
                                    ast.AugAssign, ast.For, ast.withitem,
                                    ast.ExceptHandler, ast.comprehension)):
                self.locals.update(self._targets(child))
        self.locals -= self.globals

    @staticmethod
    def _params(node: ast.AST) -> List[str]:
        """Parameter names of a ``def`` or ``lambda``."""
        args = node.args
        return [arg.arg for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else []))]

    @classmethod
    def _targets(cls, node: ast.AST) -> List[str]:
        raw: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            raw = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            raw = [node.target]
        elif isinstance(node, ast.withitem):
            raw = [node.optional_vars] if node.optional_vars else []
        elif isinstance(node, ast.ExceptHandler):
            return [node.name] if node.name else []
        elif isinstance(node, ast.comprehension):
            raw = [node.target]
        names: List[str] = []
        for target in raw:
            cls._bound_names(target, names)
        return names

    @classmethod
    def _bound_names(cls, target: ast.AST, out: List[str]) -> None:
        """Names a target *binds* — ``x[k] = v`` binds nothing, it
        mutates ``x``, so subscript/attribute targets are skipped."""
        if isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                cls._bound_names(element, out)
        elif isinstance(target, ast.Starred):
            cls._bound_names(target.value, out)

    # -- driving --------------------------------------------------------
    def scan(self) -> None:
        body = self.root.body
        for stmt in body if isinstance(body, list) else [body]:
            self.visit(stmt)
        state = self.collector.summary.state
        for name, line in self._global_rebinds:
            if name not in state:
                continue
            rng = [c for c in self._constructor_calls
                   if c in _RNG_FACTORIES]
            resource = [c for c in self._constructor_calls
                        if self.collector.is_resource_constructor(c)]
            if rng:
                self.facts.rng_captures.append((name, line, rng[0]))
            elif resource:
                self.facts.resource_captures.append(
                    (name, line, resource[0]))
            else:
                self.facts.mutations.append((name, line, "global rebind"))

    def _is_module_state(self, name: str) -> bool:
        return (name in self.collector.summary.state
                and name not in self.locals)

    def _state_kind(self, name: str) -> str:
        var = self.collector.summary.state.get(name)
        return var.kind if var is not None else KIND_OTHER

    # -- nested scopes --------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.collector.scan_function(node, parent=self.facts.qualname)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.collector.scan_function(node, parent=self.facts.qualname)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.collector.scan_class(node, parent=self.facts.qualname)

    # -- writes ---------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (isinstance(target, ast.Name) and target.id in self.globals
                and target.id in self.collector.summary.state):
            self.facts.mutations.append(
                (target.id, node.lineno, "augmented global rebind"))
        else:
            self._record_write(target, node.lineno, aug=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                root = self._subscript_root(target)
                if root and self._is_module_state(root):
                    self.facts.mutations.append(
                        (root, node.lineno, "del item"))
        self.generic_visit(node)

    # -- calls and reads ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if chain:
            self._constructor_calls.append(chain[-1])
            if (len(chain) == 2 and chain[1] in _MUTATOR_METHODS
                    and self._is_module_state(chain[0])):
                self.facts.mutations.append(
                    (chain[0], node.lineno, f".{chain[1]}()"))
            elif (chain == ("next",) and node.args
                  and isinstance(node.args[0], ast.Name)
                  and self._is_module_state(node.args[0].id)):
                # next(_module_iterator) advances shared state — the
                # historical _session_seq pattern.
                self.facts.mutations.append(
                    (node.args[0].id, node.lineno, "next()"))
            self.collector.note_call(chain)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (isinstance(node.ctx, ast.Load)
                and self._is_module_state(node.id)
                and self._state_kind(node.id) in _TRACKED_READ_KINDS):
            self.facts.reads.append((node.id, node.lineno))

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _subscript_root(node: ast.Subscript) -> Optional[str]:
        base = node.value
        while isinstance(base, ast.Subscript):
            base = base.value
        return base.id if isinstance(base, ast.Name) else None

    def _record_write(self, target: ast.AST, line: int,
                      aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            if (target.id in self.globals
                    and target.id in self.collector.summary.state):
                self._global_rebinds.append((target.id, line))
            return
        if isinstance(target, ast.Subscript):
            root = self._subscript_root(target)
            if root and self._is_module_state(root):
                how = "augmented item write" if aug else "item write"
                self.facts.mutations.append((root, line, how))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, line, aug=aug)


class _ModuleCollector:
    """Build one :class:`ModuleSummary` from a parsed module."""

    def __init__(self, path: str, name: str,
                 rel_parts: Sequence[str]) -> None:
        self.summary = ModuleSummary(path=path, module=name)
        self._rel_parts = tuple(rel_parts)
        # Local aliases of resource-bearing modules/names, for
        # disambiguating Lock()/Event() style constructors.
        self._resource_mod_aliases: Set[str] = set()
        self._resource_name_aliases: Set[str] = set()
        # Local alias -> dotted repro module, for call-edge resolution.
        self._module_aliases: Dict[str, str] = {}

    # -- constructor classification ------------------------------------
    def is_resource_constructor(self, name: str) -> bool:
        return (name in _RESOURCE_ALWAYS
                or name == "open"
                or (name in _RESOURCE_SYNC
                    and name in self._resource_name_aliases))

    def _classify_value(self, value: ast.AST) -> Tuple[str, str]:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return KIND_MUTABLE, type(value).__name__
        if not isinstance(value, ast.Call):
            return KIND_OTHER, ""
        chain = _dotted(value.func)
        if not chain:
            return KIND_OTHER, ""
        name = chain[-1]
        if name in _MUTABLE_FACTORIES:
            return KIND_MUTABLE, name
        if name in _RNG_FACTORIES:
            return KIND_RNG, name
        if self.is_resource_constructor(name):
            return KIND_RESOURCE, name
        if (len(chain) >= 2 and chain[0] in self._resource_mod_aliases
                and name in (_RESOURCE_SYNC | _RESOURCE_ALWAYS)):
            return KIND_RESOURCE, name
        return KIND_OTHER, name

    # -- module scope ---------------------------------------------------
    def collect(self, tree: ast.Module) -> None:
        # Pass 1: aliases + module-scope state bindings, so function
        # bodies defined above their state (legal in Python) still
        # resolve reads/writes against the full state map.
        for stmt in self._flat_module_statements(tree):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._track_aliases(stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind_state(target, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind_state(stmt.target, stmt.value, stmt.lineno)
        # Pass 2: function/class bodies, and the lambdas that module-scope
        # statements define.
        loose = []
        for stmt in self._flat_module_statements(tree):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.scan_class(stmt)
            elif not isinstance(stmt, (ast.If, ast.Try)):
                loose.append(stmt)
        self.scan_lambdas(loose, "<module>")
        # Pass 3: import edges anywhere in the file — lazy imports still
        # pull modules into a forked worker at runtime.
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._import_edges(node)

    @staticmethod
    def _flat_module_statements(tree: ast.Module):
        """Module statements, descending into module-scope If/Try arms."""
        stack = list(reversed(tree.body))
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.If, ast.Try)):
                arms = list(getattr(stmt, "body", ()))
                arms += list(getattr(stmt, "orelse", ()))
                arms += list(getattr(stmt, "finalbody", ()))
                for handler in getattr(stmt, "handlers", ()):
                    arms += list(handler.body)
                stack.extend(reversed(arms))

    def _bind_state(self, target: ast.AST, value: ast.AST,
                    line: int) -> None:
        if not isinstance(target, ast.Name):
            return
        kind, detail = self._classify_value(value)
        existing = self.summary.state.get(target.id)
        if existing is not None and existing.kind != KIND_OTHER:
            return   # keep the first interesting classification
        self.summary.state[target.id] = StateVar(
            name=target.id, line=line, kind=kind, detail=detail)

    # -- imports --------------------------------------------------------
    def _track_aliases(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                bound = alias.asname or root
                if root in _RESOURCE_MODULES:
                    self._resource_mod_aliases.add(bound)
                if root == "repro":
                    self._module_aliases[bound] = (
                        alias.name if alias.asname else root)
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in _RESOURCE_MODULES:
                for alias in node.names:
                    if alias.name in _RESOURCE_SYNC | _RESOURCE_ALWAYS:
                        self._resource_name_aliases.add(
                            alias.asname or alias.name)

    def _import_edges(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    self.summary.imports.append(alias.name)
            return
        module = node.module or ""
        if node.level == 0:
            if module == "repro" or module.startswith("repro."):
                for alias in node.names:
                    # "from repro.x import y": y may be a submodule or an
                    # object — record both candidates, build_graph keeps
                    # whichever exists in the analysed tree.
                    self.summary.imports.append(f"{module}.{alias.name}")
                self.summary.imports.append(module)
            return
        # Relative import, resolved against this module's location.
        base = list(self._rel_parts[:-1])
        strip = node.level - 1
        if strip > len(base):
            return
        base = base[:len(base) - strip] if strip else base
        prefix = ".".join(["repro"] + base)
        if module:
            prefix = f"{prefix}.{module}"
        for alias in node.names:
            self.summary.imports.append(f"{prefix}.{alias.name}")
        self.summary.imports.append(prefix)

    # -- functions ------------------------------------------------------
    def scan_function(self, node, parent: str = "") -> None:
        qualname = f"{parent}.{node.name}" if parent else node.name
        facts = FunctionFacts(qualname=qualname, line=node.lineno)
        _FunctionScanner(self, facts, node).scan()
        if facts.interesting():
            self.summary.functions.append(facts)

    def scan_class(self, node: ast.ClassDef, parent: str = "") -> None:
        qualname = f"{parent}.{node.name}" if parent else node.name
        loose = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan_function(stmt, parent=qualname)
            elif isinstance(stmt, ast.ClassDef):
                self.scan_class(stmt, parent=qualname)
            else:
                loose.append(stmt)
        self.scan_lambdas(loose, qualname)

    def scan_lambdas(self, statements: Sequence[ast.stmt],
                     qualname: str) -> None:
        """Fold the lambdas that ``statements`` define into one scope.

        A lambda outside any function (a module-level assignment, a
        dataclass ``field(default_factory=lambda: ...)``) runs whenever
        it is called, so its mutations are charged to the scope that
        defines it: the module (``<module>``) or the class.  Lambdas in a
        function body are walked with that function.
        """
        facts: Optional[FunctionFacts] = None
        for stmt in statements:
            for node in _outer_lambdas(stmt):
                if facts is None:
                    facts = FunctionFacts(qualname=qualname,
                                          line=node.lineno)
                _FunctionScanner(self, facts, node).scan()
        if facts is not None and facts.interesting():
            self.summary.functions.append(facts)

    def note_call(self, chain: Tuple[str, ...]) -> None:
        """Attribute-resolved call into an imported repro module.

        ``alias.fn()`` where ``alias`` was bound by ``import repro.x.y``
        (or ``... as alias``) adds a call edge — this is what "imports +
        attribute-resolved calls" means at module granularity;
        unresolvable dynamic calls contribute nothing.
        """
        target = self._module_aliases.get(chain[0])
        if target:
            self.summary.imports.append(target)


def summarize_module(path: str, rel_parts: Sequence[str],
                     tree: ast.Module) -> ModuleSummary:
    """Fork-safety summary of one parsed module under ``repro/``."""
    collector = _ModuleCollector(path, module_name(rel_parts), rel_parts)
    collector.collect(tree)
    # Deterministic, deduplicated edge list.
    collector.summary.imports = sorted(set(collector.summary.imports))
    return collector.summary


# ---------------------------------------------------------------------------
# Whole-program graph: adjacency, reachability, SCCs
# ---------------------------------------------------------------------------

def build_graph(summaries: Dict[str, ModuleSummary],
                ) -> Dict[str, List[str]]:
    """Module adjacency: resolved import/call edges within the tree.

    Each recorded candidate target resolves to the **longest known
    module prefix** — ``from repro.env import spectrum`` recorded
    ``repro.env.spectrum`` (a module) and ``repro.env`` (its package);
    ``from repro.env.spectrum import overlap_factor`` resolves to
    ``repro.env.spectrum`` because the full candidate names an object.
    """
    known = set(summaries)
    graph: Dict[str, Set[str]] = {name: set() for name in summaries}
    for name, summary in summaries.items():
        for candidate in summary.imports:
            target = _resolve(candidate, known)
            if target and target != name:
                graph[name].add(target)
    return {name: sorted(targets) for name, targets in graph.items()}


def _resolve(candidate: str, known: Set[str]) -> Optional[str]:
    parts = candidate.split(".")
    while parts:
        name = ".".join(parts)
        if name in known:
            return name
        parts.pop()
    return None


def entry_modules(entry_points: Sequence[str],
                  known: Set[str]) -> Dict[str, str]:
    """Map entry module -> its spec, keeping only modules in the tree."""
    out: Dict[str, str] = {}
    for spec in entry_points:
        module = spec.split(":", 1)[0]
        if module in known and module not in out:
            out[module] = spec
    return out


def reachable_from(graph: Dict[str, List[str]],
                   entry_points: Sequence[str],
                   ) -> Dict[str, str]:
    """Modules reachable from the entries, each with a witness spec.

    The witness is the first entry (in the given order) whose closure
    contains the module — deterministic, so finding messages are stable
    across runs and pool sizes.
    """
    entries = entry_modules(entry_points, set(graph))
    reached: Dict[str, str] = {}
    for module, spec in entries.items():
        stack = [module]
        while stack:
            current = stack.pop()
            if current in reached:
                continue
            reached[current] = spec
            stack.extend(sorted(graph.get(current, ()), reverse=True))
    return reached
