"""AST determinism linter (rule codes ``LPC1xx``).

The checker is purely syntactic: it tracks which names a module binds to
the interesting stdlib/numpy entry points (``import time``,
``from datetime import datetime``, ``import numpy as np``, ...) and then
flags call sites and iteration contexts that can make two runs of the
same seed diverge.  See :mod:`repro.checks.findings` for the catalogue.

False-negative by design: aliasing through assignment
(``clock = time.time``) and dynamic imports are not chased.  The repo's
meta-test keeps the tree clean against exactly this checker, so the
contract is "the idioms we actually write are caught", not "all Python".
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

# HOT_LOOP registry (LPC109): imported from the kernel (rank 0 — a
# downward import for this rank-7 package) so the checker and the
# dispatch core can never drift apart on which loops are hot or which
# per-event reads are sanctioned.
from ..kernel.dispatch import HOT_LOOP, HOT_LOOP_ALLOWED_ATTRS
from .findings import RULES, Finding

# numpy.random functions that operate on the hidden global RandomState.
_NP_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "bytes",
    "normal", "uniform", "exponential", "poisson", "binomial",
    "standard_normal", "get_state", "set_state",
})

# datetime.datetime / datetime.date classmethods that read the wall clock.
_DATETIME_WALL = frozenset({"now", "utcnow", "today"})

# time.* functions that read the wall clock.  perf_counter/monotonic are
# deliberately absent: they are sanctioned for measuring host wall time
# (benchmarks, report timings) that never feeds back into sim outcomes.
_TIME_WALL = frozenset({"time", "time_ns", "localtime", "gmtime",
                        "ctime", "asctime"})

# Order-insensitive consumers: a set expression fed directly to one of
# these is safe, so only the contexts flagged in _check_set_context matter.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray",
                                "defaultdict", "OrderedDict", "Counter",
                                "deque"})

# Per-shard engine state (LPC108): attributes that hold another shard's
# simulation engine when read off a shard handle.
_SHARD_STATE_ATTRS = frozenset({"sim", "world"})


def _finding(path: str, node: ast.AST, code: str, message: str) -> Finding:
    rule = RULES[code]
    return Finding(path=path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), code=code,
                   message=message, severity=rule.severity, hint=rule.hint)


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for anything not a name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class DeterminismVisitor(ast.NodeVisitor):
    """One pass over a module; collects LPC1xx findings."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # heapq is the kernel's private ordering primitive (LPC107):
        # only modules under a kernel/ directory may import it.
        self.in_kernel = "kernel" in path.replace("\\", "/").split("/")
        # Names bound by imports, each a set of local aliases.
        self.time_mods: Set[str] = set()        # import time [as t]
        self.datetime_mods: Set[str] = set()    # import datetime [as dt]
        self.datetime_classes: Set[str] = set()  # from datetime import datetime
        self.date_classes: Set[str] = set()     # from datetime import date
        self.numpy_mods: Set[str] = set()       # import numpy [as np]
        self.np_random_mods: Set[str] = set()   # from numpy import random / import numpy.random as r
        self.default_rng_names: Set[str] = set()  # from numpy.random import default_rng
        self.random_classes: Set[str] = set()   # from random import Random
        self.wallclock_names: Set[str] = set()  # from time import time

    # ------------------------------------------------------------------
    # Import tracking (and LPC102)
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_mods.add(bound)
            elif alias.name == "datetime":
                self.datetime_mods.add(bound)
            elif alias.name == "numpy":
                self.numpy_mods.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.np_random_mods.add(alias.asname)
                else:
                    self.numpy_mods.add("numpy")
            elif alias.name == "random" or alias.name.startswith("random."):
                self.findings.append(_finding(
                    self.path, node, "LPC102",
                    "import of the stdlib 'random' module"))
            elif alias.name == "heapq" and not self.in_kernel:
                self.findings.append(_finding(
                    self.path, node, "LPC107",
                    "import of heapq outside the kernel"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module == "heapq" and not self.in_kernel:
            self.findings.append(_finding(
                self.path, node, "LPC107",
                "import from heapq outside the kernel"))
        if node.level == 0 and module == "random":
            self.findings.append(_finding(
                self.path, node, "LPC102",
                "import from the stdlib 'random' module"))
            for alias in node.names:
                if alias.name == "Random":
                    self.random_classes.add(alias.asname or alias.name)
        elif module == "time":
            for alias in node.names:
                if alias.name in _TIME_WALL:
                    self.wallclock_names.add(alias.asname or alias.name)
        elif module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self.datetime_classes.add(alias.asname or alias.name)
                elif alias.name == "date":
                    self.date_classes.add(alias.asname or alias.name)
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_mods.add(alias.asname or alias.name)
        elif module == "numpy.random":
            for alias in node.names:
                if alias.name == "default_rng":
                    self.default_rng_names.add(alias.asname or alias.name)
                elif alias.name in _NP_GLOBAL_FNS:
                    self.findings.append(_finding(
                        self.path, node, "LPC103",
                        f"import of numpy global-state RNG function "
                        f"'{alias.name}'"))
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Call sites: LPC101, LPC103, LPC105
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if chain is not None:
            self._check_wallclock(node, chain)
            self._check_rng(node, chain)
        self._check_id_sort_key(node, chain)
        self._check_set_context(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call,
                         chain: Tuple[str, ...]) -> None:
        name = ".".join(chain)
        if len(chain) == 1 and chain[0] in self.wallclock_names:
            self.findings.append(_finding(
                self.path, node, "LPC101", f"wall-clock call {name}()"))
        elif len(chain) == 2:
            base, attr = chain
            if base in self.time_mods and attr in _TIME_WALL:
                self.findings.append(_finding(
                    self.path, node, "LPC101", f"wall-clock call {name}()"))
            elif (base in self.datetime_classes
                  and attr in _DATETIME_WALL):
                self.findings.append(_finding(
                    self.path, node, "LPC101", f"wall-clock call {name}()"))
            elif base in self.date_classes and attr == "today":
                self.findings.append(_finding(
                    self.path, node, "LPC101", f"wall-clock call {name}()"))
        elif len(chain) == 3:
            base, cls, attr = chain
            if (base in self.datetime_mods and cls in ("datetime", "date")
                    and attr in _DATETIME_WALL):
                self.findings.append(_finding(
                    self.path, node, "LPC101", f"wall-clock call {name}()"))

    def _is_unseeded(self, node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return (isinstance(first, ast.Constant)
                    and first.value is None)
        seed_kw = [kw for kw in node.keywords
                   if kw.arg in ("seed", None)]
        if not seed_kw:
            return True
        kw = seed_kw[0]
        return (kw.arg == "seed" and isinstance(kw.value, ast.Constant)
                and kw.value.value is None)

    def _check_rng(self, node: ast.Call, chain: Tuple[str, ...]) -> None:
        name = ".".join(chain)
        # default_rng()/Random() with no (or None) seed.
        is_default_rng = (
            (len(chain) == 1 and chain[0] in self.default_rng_names)
            or (len(chain) == 2 and chain[0] in self.np_random_mods
                and chain[1] == "default_rng")
            or (len(chain) == 3 and chain[0] in self.numpy_mods
                and chain[1] == "random" and chain[2] == "default_rng"))
        if is_default_rng:
            if self._is_unseeded(node):
                self.findings.append(_finding(
                    self.path, node, "LPC103",
                    f"unseeded RNG construction {name}()"))
            return
        if (len(chain) == 1 and chain[0] in self.random_classes
                and self._is_unseeded(node)):
            self.findings.append(_finding(
                self.path, node, "LPC103",
                f"unseeded RNG construction {name}()"))
            return
        # Legacy numpy global-state functions.
        is_np_global = (
            (len(chain) == 2 and chain[0] in self.np_random_mods
             and chain[1] in _NP_GLOBAL_FNS)
            or (len(chain) == 3 and chain[0] in self.numpy_mods
                and chain[1] == "random" and chain[2] in _NP_GLOBAL_FNS))
        if is_np_global:
            self.findings.append(_finding(
                self.path, node, "LPC103",
                f"numpy global-state RNG call {name}()"))

    # ------------------------------------------------------------------
    # Cross-shard engine state: LPC108
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_shard_state(node)
        self.generic_visit(node)

    def _check_shard_state(self, node: ast.Attribute) -> None:
        """Flag ``<shard-ish>.sim`` / ``<shard-ish>.world`` anywhere.

        Purely syntactic, like the rest of this pass: the base must be a
        name (or attribute, possibly subscripted — ``shards[i]``) whose
        identifier mentions "shard".  That is exactly the idiom a
        cross-shard reach-in reads as — a handle to another shard,
        dereferenced down to its engine objects.
        """
        if node.attr not in _SHARD_STATE_ATTRS:
            return
        base = node.value
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            ident = base.id
        elif isinstance(base, ast.Attribute):
            ident = base.attr
        else:
            return
        if "shard" in ident.lower():
            self.findings.append(_finding(
                self.path, node, "LPC108",
                f"direct access to {ident}.{node.attr} — another shard's "
                "engine state"))

    def _check_id_sort_key(self, node: ast.Call,
                           chain: Optional[Tuple[str, ...]]) -> None:
        is_sort = (chain is not None
                   and (chain[-1] == "sorted" or chain[-1] == "sort"))
        if not is_sort:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            if isinstance(value, ast.Name) and value.id == "id":
                self.findings.append(_finding(
                    self.path, node, "LPC105", "sort keyed on id()"))
            elif isinstance(value, ast.Lambda):
                body = value.body
                if (isinstance(body, ast.Call)
                        and isinstance(body.func, ast.Name)
                        and body.func.id == "id"):
                    self.findings.append(_finding(
                        self.path, node, "LPC105",
                        "sort keyed on lambda wrapping id()"))

    # ------------------------------------------------------------------
    # Set-iteration contexts: LPC104
    # ------------------------------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _flag_set_iter(self, node: ast.AST, context: str) -> None:
        if self._is_set_expr(node):
            self.findings.append(_finding(
                self.path, node, "LPC104",
                f"iteration over a set in {context} depends on "
                "PYTHONHASHSEED order"))

    def _check_set_context(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.args):
            return
        if node.func.id in ("list", "tuple", "iter", "enumerate"):
            self._flag_set_iter(node.args[0],
                                f"{node.func.id}(...) conversion")

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iter(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._flag_set_iter(gen.iter, "a comprehension")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set keeps the result unordered —
        # consumption is what gets flagged, so don't double-report here.
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Mutable defaults: LPC106
    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                ast.SetComp))
            if not mutable and isinstance(default, ast.Call):
                chain = _dotted(default.func)
                mutable = (chain is not None
                           and chain[-1] in _MUTABLE_FACTORIES)
            if mutable:
                self.findings.append(_finding(
                    self.path, default, "LPC106",
                    f"mutable default argument in {node.name}()"))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_hot_loop(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Hot-loop attribute discipline: LPC109
    # ------------------------------------------------------------------
    def _check_hot_loop(self, node: ast.FunctionDef) -> None:
        """Flag Load-context attribute access inside the ``while``/``for``
        bodies of a :data:`repro.kernel.dispatch.HOT_LOOP` function.

        These loops run once per simulated event, so an attribute walk
        inside them is a per-event cost the dispatch core exists to
        eliminate — state must be hoisted into locals before the loop.
        Attributes in :data:`HOT_LOOP_ALLOWED_ATTRS` are sanctioned:
        they are genuinely per-event reads (a handle's cancellation
        flag, the stop latch, ambient span context).  Stores and
        augmented assignments are not flagged — writing back rare-path
        state is not the lookup tax this rule is about.
        """
        if node.name not in HOT_LOOP:
            return
        seen: Set[int] = set()
        for loop in ast.walk(node):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            for child in ast.walk(loop):
                if (isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Load)
                        and child.attr not in HOT_LOOP_ALLOWED_ATTRS
                        and id(child) not in seen):
                    seen.add(id(child))
                    self.findings.append(_finding(
                        self.path, child, "LPC109",
                        f"per-event attribute lookup '.{child.attr}' "
                        f"inside hot loop {node.name}()"))


def check_determinism(path: str, tree: ast.Module) -> List[Finding]:
    """All LPC1xx findings for one parsed module."""
    visitor = DeterminismVisitor(path)
    visitor.visit(tree)
    return visitor.findings


def check_source(path: str, source: str) -> List[Finding]:
    """Parse ``source`` and run the determinism pass (LPC001 on error)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        rule = RULES["LPC001"]
        return [Finding(path=path, line=exc.lineno or 1,
                        col=exc.offset or 0, code="LPC001",
                        message=f"file does not parse: {exc.msg}",
                        severity=rule.severity, hint=rule.hint)]
    return check_determinism(path, tree)
