"""Unit coverage for the module call graph (``repro.checks.callgraph``)."""

from __future__ import annotations

import ast

from repro.checks import (ModuleSummary, build_graph, module_sccs,
                          reachable_from, summarize_module)
from repro.checks.callgraph import (KIND_MUTABLE, KIND_OTHER, KIND_RESOURCE,
                                    KIND_RNG, entry_modules, module_name)


def _summary(source: str, rel=("services", "mod.py")) -> ModuleSummary:
    return summarize_module("repro/" + "/".join(rel), rel,
                            ast.parse(source))


# ---------------------------------------------------------------------------
# Naming and state classification
# ---------------------------------------------------------------------------
def test_module_name_folds_init_and_strips_py():
    assert module_name(("kernel", "shard.py")) == "repro.kernel.shard"
    assert module_name(("kernel", "__init__.py")) == "repro.kernel"
    assert module_name(("__init__.py",)) == "repro"
    assert module_name(("cli.py",)) == "repro.cli"


def test_state_kinds_classified():
    summary = _summary(
        "import itertools\n"
        "import threading\n"
        "import numpy as np\n"
        "CACHE = {}\n"
        "ITEMS = []\n"
        "SEQ = itertools.count(1)\n"
        "RNG = np.random.default_rng(7)\n"
        "LOCK = threading.Lock()\n"
        "LIMIT = 5\n"
        "NAMES = ('a', 'b')\n")
    kinds = {name: var.kind for name, var in summary.state.items()}
    assert kinds["CACHE"] == KIND_MUTABLE
    assert kinds["ITEMS"] == KIND_MUTABLE
    assert kinds["SEQ"] == KIND_MUTABLE      # stateful iterator
    assert kinds["RNG"] == KIND_RNG
    assert kinds["LOCK"] == KIND_RESOURCE
    assert kinds["LIMIT"] == KIND_OTHER
    assert kinds["NAMES"] == KIND_OTHER


def test_sync_primitives_need_a_resource_module_import():
    # A domain class named Lock must not classify as a resource.
    summary = _summary("from mygame import Lock\nDOOR = Lock()\n")
    assert summary.state["DOOR"].kind == KIND_OTHER
    summary = _summary("from threading import Lock\nDOOR = Lock()\n")
    assert summary.state["DOOR"].kind == KIND_RESOURCE


# ---------------------------------------------------------------------------
# Function facts
# ---------------------------------------------------------------------------
def test_mutations_item_write_method_and_global_rebind():
    summary = _summary(
        "CACHE = {}\n"
        "ITEMS = []\n"
        "FLAG = False\n"
        "def put(k, v):\n"
        "    CACHE[k] = v\n"
        "def push(x):\n"
        "    ITEMS.append(x)\n"
        "def arm():\n"
        "    global FLAG\n"
        "    FLAG = True\n")
    mutated = {(f.qualname, m[0], m[2])
               for f in summary.functions for m in f.mutations}
    assert ("put", "CACHE", "item write") in mutated
    assert ("push", "ITEMS", ".append()") in mutated
    assert ("arm", "FLAG", "global rebind") in mutated


def test_next_on_module_iterator_is_a_mutation():
    summary = _summary(
        "import itertools\n"
        "_seq = itertools.count(1)\n"
        "def mint():\n"
        "    return next(_seq)\n")
    assert [(m[0], m[2]) for f in summary.functions
            for m in f.mutations] == [("_seq", "next()")]


def test_local_shadows_are_not_module_state():
    summary = _summary(
        "CACHE = {}\n"
        "def isolated():\n"
        "    CACHE = {}\n"
        "    CACHE['k'] = 1\n"
        "    return CACHE\n")
    assert summary.functions == []   # nothing interesting recorded


def test_subscript_write_target_does_not_shadow():
    # ``CACHE[k] = v`` mutates CACHE, it does not bind a local CACHE.
    summary = _summary(
        "CACHE = {}\n"
        "def put(k, v):\n"
        "    CACHE[k] = v\n")
    assert [m[0] for f in summary.functions for m in f.mutations] == ["CACHE"]


def test_rng_and_resource_captures():
    summary = _summary(
        "import multiprocessing\n"
        "import numpy as np\n"
        "_POOL = None\n"
        "_RNG = None\n"
        "def start(workers):\n"
        "    global _POOL\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    _POOL = ctx.Pool(workers)\n"
        "def seed_me():\n"
        "    global _RNG\n"
        "    _RNG = np.random.default_rng(5)\n")
    captures = {(f.qualname, kind): entry
                for f in summary.functions
                for kind, entries in (("res", f.resource_captures),
                                      ("rng", f.rng_captures))
                for entry in entries}
    assert captures[("start", "res")][0] == "_POOL"
    assert captures[("start", "res")][2] == "Pool"
    assert captures[("seed_me", "rng")][0] == "_RNG"
    assert captures[("seed_me", "rng")][2] == "default_rng"


def test_nested_closures_get_their_own_facts():
    summary = _summary(
        "HOOKS = []\n"
        "def add(hook):\n"
        "    HOOKS.append(hook)\n"
        "    def remove():\n"
        "        HOOKS.remove(hook)\n"
        "    return remove\n")
    quals = {f.qualname for f in summary.functions}
    assert quals == {"add", "add.remove"}


def test_reads_tracked_only_for_interesting_kinds():
    summary = _summary(
        "CACHE = {}\n"
        "LIMIT = 5\n"
        "def look(k):\n"
        "    return CACHE.get(k), LIMIT\n")
    reads = {r[0] for f in summary.functions for r in f.reads}
    assert reads == {"CACHE"}        # scalar LIMIT is not tracked


# ---------------------------------------------------------------------------
# Graph, reachability, SCCs
# ---------------------------------------------------------------------------
def _graph_fixture():
    mods = {
        "repro.cli": _summary("from repro.services import alpha\n",
                              ("cli.py",)),
        "repro.services.alpha": _summary(
            "from ..kernel import beta\n", ("services", "alpha.py")),
        "repro.kernel.beta": _summary(
            "def late():\n    from ..services import alpha\n",
            ("kernel", "beta.py")),
        "repro.env.delta": _summary("", ("env", "delta.py")),
    }
    return mods, build_graph(mods)


def test_build_graph_resolves_longest_prefix_and_lazy_imports():
    _mods, graph = _graph_fixture()
    assert graph["repro.cli"] == ["repro.services.alpha"]
    assert graph["repro.services.alpha"] == ["repro.kernel.beta"]
    # The lazy relative import still contributes an edge: forked workers
    # execute function bodies, so lazy imports cross the fork too.
    assert graph["repro.kernel.beta"] == ["repro.services.alpha"]
    assert graph["repro.env.delta"] == []


def test_reachability_witness_is_first_matching_entry():
    _mods, graph = _graph_fixture()
    reached = reachable_from(
        graph, ["repro.cli:main", "repro.kernel.beta:late"])
    assert reached["repro.cli"] == "repro.cli:main"
    # alpha is reachable from both entries; the first wins.
    assert reached["repro.services.alpha"] == "repro.cli:main"
    assert "repro.env.delta" not in reached


def test_entry_modules_ignores_absent_modules():
    _mods, graph = _graph_fixture()
    entries = entry_modules(
        ["repro.kernel.absent:_worker_main", "repro.cli:main"], set(graph))
    assert entries == {"repro.cli": "repro.cli:main"}


def test_sccs_group_the_lazy_cycle():
    _mods, graph = _graph_fixture()
    scc = module_sccs(graph)
    assert scc["repro.services.alpha"] == scc["repro.kernel.beta"]
    assert scc["repro.cli"] != scc["repro.services.alpha"]
    assert scc["repro.env.delta"] != scc["repro.services.alpha"]


def test_summary_dict_roundtrip():
    summary = _summary(
        "import threading\n"
        "CACHE = {}\n"
        "LOCK = threading.Lock()\n"
        "def put(k, v):\n"
        "    CACHE[k] = v\n"
        "def look(k):\n"
        "    return CACHE.get(k)\n")
    clone = ModuleSummary.from_dict(summary.to_dict())
    assert clone == summary
