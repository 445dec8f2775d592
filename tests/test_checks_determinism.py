"""Rule-by-rule fixtures for the LPC1xx determinism linter.

Every rule is exercised with at least one seeded violation (positive)
and one near-miss that must stay clean (negative), so a rule that stops
firing — or starts over-firing — breaks the suite, not just the lint.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.checks import RULES, check_source


def codes(source: str) -> list:
    return [f.code for f in check_source("snippet.py", source)]


# ---------------------------------------------------------------------------
# LPC101 — wall clock
# ---------------------------------------------------------------------------
LPC101_POSITIVE = [
    "import time\nstamp = time.time()\n",
    "import time as t\nstamp = t.time_ns()\n",
    "from time import time\nstamp = time()\n",
    "import datetime\nnow = datetime.datetime.now()\n",
    "from datetime import datetime\nnow = datetime.utcnow()\n",
    "from datetime import date\ntoday = date.today()\n",
]

LPC101_NEGATIVE = [
    # perf_counter is the sanctioned benchmark clock.
    "import time\nt0 = time.perf_counter()\n",
    "import time\ntime.sleep(0.1)\n",
    "from datetime import datetime\nd = datetime.fromtimestamp(0)\n",
    # A local function named time() is not the stdlib.
    "def time():\n    return 0\nstamp = time()\n",
]


@pytest.mark.parametrize("source", LPC101_POSITIVE)
def test_lpc101_flags_wall_clock(source):
    assert "LPC101" in codes(source)


@pytest.mark.parametrize("source", LPC101_NEGATIVE)
def test_lpc101_ignores_safe_clocks(source):
    assert "LPC101" not in codes(source)


# ---------------------------------------------------------------------------
# LPC102 — stdlib random module
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    "import random\n",
    "import random as rnd\n",
    "from random import randint\n",
])
def test_lpc102_flags_stdlib_random(source):
    assert "LPC102" in codes(source)


@pytest.mark.parametrize("source", [
    "from repro.kernel.random import RandomStreams\n",
    "import numpy.random\n",
    "from numpy import random\n",
])
def test_lpc102_ignores_kernel_and_numpy_random(source):
    assert "LPC102" not in codes(source)


# ---------------------------------------------------------------------------
# LPC103 — unseeded / global-state RNG
# ---------------------------------------------------------------------------
LPC103_POSITIVE = [
    "from numpy.random import default_rng\ng = default_rng()\n",
    "from numpy.random import default_rng\ng = default_rng(None)\n",
    "import numpy as np\ng = np.random.default_rng(seed=None)\n",
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nnp.random.seed(0)\n",
    "import numpy.random as npr\nx = npr.shuffle([1, 2])\n",
    "from numpy import random\nx = random.choice([1, 2])\n",
    "from random import Random\nr = Random()\n",
]

LPC103_NEGATIVE = [
    "from numpy.random import default_rng\ng = default_rng(7)\n",
    "import numpy as np\ng = np.random.default_rng(1234)\n",
    "import numpy as np\ng = np.random.default_rng(seed=1)\n",
    "from random import Random\nr = Random(42)\n",
    # Methods on an existing generator are stream-local, not global.
    "def draw(rng):\n    return rng.random()\n",
]


@pytest.mark.parametrize("source", LPC103_POSITIVE)
def test_lpc103_flags_unseeded_rng(source):
    assert "LPC103" in codes(source)


@pytest.mark.parametrize("source", LPC103_NEGATIVE)
def test_lpc103_ignores_seeded_rng(source):
    assert "LPC103" not in codes(source)


# ---------------------------------------------------------------------------
# LPC104 — ordering-sensitive set iteration
# ---------------------------------------------------------------------------
LPC104_POSITIVE = [
    "for x in {1, 2, 3}:\n    print(x)\n",
    "def f(xs):\n    for x in set(xs):\n        yield x\n",
    "def f(xs):\n    return list(set(xs))\n",
    "def f(xs):\n    return tuple(frozenset(xs))\n",
    "def f(xs):\n    return [x for x in set(xs)]\n",
    "def f(xs):\n    return {x: 1 for x in set(xs)}\n",
    "def f(a, b):\n    for x in set(a) | set(b):\n        print(x)\n",
    "def f(xs):\n    return list({x.name for x in xs})\n",
]

LPC104_NEGATIVE = [
    # Order-insensitive consumption is fine.
    "def f(xs):\n    return sorted(set(xs))\n",
    "def f(xs):\n    return len(set(xs))\n",
    "def f(xs):\n    return max(set(xs))\n",
    "def f(xs, y):\n    return y in set(xs)\n",
    # Dict views are insertion-ordered in CPython >= 3.7.
    "def f(d):\n    for k in d.keys():\n        print(k)\n",
    "def f(d):\n    return list(d.values())\n",
    # Iterating a list/tuple is ordered.
    "for x in [3, 1, 2]:\n    print(x)\n",
]


@pytest.mark.parametrize("source", LPC104_POSITIVE)
def test_lpc104_flags_set_iteration(source):
    assert "LPC104" in codes(source)


@pytest.mark.parametrize("source", LPC104_NEGATIVE)
def test_lpc104_ignores_ordered_iteration(source):
    assert "LPC104" not in codes(source)


# ---------------------------------------------------------------------------
# LPC105 — id()-based ordering
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    "def f(xs):\n    return sorted(xs, key=id)\n",
    "def f(xs):\n    xs.sort(key=id)\n",
    "def f(xs):\n    return sorted(xs, key=lambda o: id(o))\n",
])
def test_lpc105_flags_id_sorting(source):
    assert "LPC105" in codes(source)


@pytest.mark.parametrize("source", [
    "def f(xs):\n    return sorted(xs, key=str)\n",
    "def f(xs):\n    return sorted(xs, key=lambda o: o.name)\n",
    "def f(x):\n    return id(x)\n",   # id() alone is not an ordering
])
def test_lpc105_ignores_stable_keys(source):
    assert "LPC105" not in codes(source)


# ---------------------------------------------------------------------------
# LPC106 — mutable default arguments
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    "def f(a, b=[]):\n    return b\n",
    "def f(a, b={}):\n    return b\n",
    "def f(a, b=set()):\n    return b\n",
    "def f(a, *, b=list()):\n    return b\n",
    "def f(a, b=dict()):\n    return b\n",
    "async def f(a, b=[]):\n    return b\n",
])
def test_lpc106_flags_mutable_defaults(source):
    assert "LPC106" in codes(source)


@pytest.mark.parametrize("source", [
    "def f(a, b=None):\n    return b or []\n",
    "def f(a, b=()):\n    return b\n",
    "def f(a, b=0, c='x'):\n    return b\n",
    "def f(a, b=frozenset()):\n    return b\n",
])
def test_lpc106_ignores_immutable_defaults(source):
    assert "LPC106" not in codes(source)


# ---------------------------------------------------------------------------
# LPC107 — heapq outside the kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    "import heapq\n",
    "import heapq as hq\n",
    "from heapq import heappush\n",
    "from heapq import heappush, heappop\n",
])
def test_lpc107_flags_heapq_outside_kernel(source):
    assert "LPC107" in codes(source)
    assert "LPC107" in [f.code for f in
                        check_source("src/repro/net/queueing.py", source)]


@pytest.mark.parametrize("path", [
    "src/repro/kernel/scheduler.py",
    "src/repro/kernel/batchq.py",
    "kernel/anything.py",
])
def test_lpc107_allows_heapq_inside_kernel(path):
    assert "LPC107" not in [f.code for f in
                            check_source(path, "import heapq\n")]


def test_lpc107_ignores_lookalike_names():
    # A module merely *mentioning* heapq, or importing a similarly named
    # local module, is not a violation.
    assert "LPC107" not in codes("import heapq2\n")
    assert "LPC107" not in codes("x = 'heapq'\n")


# ---------------------------------------------------------------------------
# LPC108 — cross-shard engine state, flagged in every module
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    "shard.sim.schedule(1.0, fn)\n",
    "x = other_shard.world\n",
    "shards[1].sim.run(until=2.0)\n",
    "t = self.shard.sim.now\n",
    "peer_shards[i].world.place('a', (0, 0))\n",
])
def test_lpc108_flags_cross_shard_engine_access(source):
    assert "LPC108" in codes(source)
    for path in ("src/repro/experiments/bad.py", "src/repro/kernel/shard.py"):
        assert "LPC108" in [f.code for f in check_source(path, source)]


@pytest.mark.parametrize("source", [
    "program.sim.run(until=1.0)\n",      # no shard-ish base name
    "shard.ports.send('ch', dst=1)\n",   # not engine state
    "x = shard.lookahead\n",
    "sim.run(until=2.0)\n",              # bare engine, no handle
    "x = simulator.world\n",
])
def test_lpc108_ignores_sanctioned_access(source):
    assert "LPC108" not in codes(source)


# ---------------------------------------------------------------------------
# LPC109 — per-event attribute lookups inside registered hot loops
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("source", [
    # Attribute load in the loop body of a registered loop.
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    while queue:\n"
                 "        fn = sim.handler\n"
                 "        fn()\n",
                 id="loop_body"),
    # ...or in the loop condition itself.
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    while sim.queue:\n"
                 "        pass\n",
                 id="loop_condition"),
    # for-loops count too, and chained walks fire per link.
    "def loop_bounded(sim, queue):\n"
    "    for entry in queue:\n"
    "        sim.tracer.emit(entry)\n",
])
def test_lpc109_flags_hot_loop_attribute_loads(source):
    assert "LPC109" in codes(source)


@pytest.mark.parametrize("source", [
    # Not a registered hot loop: same shape, different name.
    "def drain(sim, queue):\n"
    "    while queue:\n"
    "        fn = sim.handler\n"
    "        fn()\n",
    # Allow-listed per-event reads (cancel flag, stop latch, span ctx).
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    while queue:\n"
                 "        if sim._stopped:\n"
                 "            break\n",
                 id="stop_latch"),
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    while queue:\n"
                 "        ctx = sim._span_ctx\n",
                 id="span_ctx"),
    "def loop_bounded(sim, queue):\n"
    "    while queue:\n"
    "        if handle.cancelled:\n"
    "            continue\n",
    # Hoisted before the loop: the pattern the rule exists to enforce.
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    pop = sim.pop\n"
                 "    while queue:\n"
                 "        pop()\n",
                 id="hoisted"),
    # Stores / augmented assignments are not lookup tax.
    pytest.param("def loop_bounded(sim, queue):\n"
                 "    while queue:\n"
                 "        sim._now = 1.0\n",
                 id="store"),
])
def test_lpc109_ignores_sanctioned_hot_loop_access(source):
    assert "LPC109" not in codes(source)


def test_lpc109_is_a_warning_with_hoist_hint():
    source = ("def loop_bounded(sim, queue):\n"
              "    while queue:\n"
              "        fn = sim.handler\n")
    (finding,) = [f for f in check_source("snippet.py", source)
                  if f.code == "LPC109"]
    assert finding.severity == "warning"
    assert "hoist" in finding.hint


def test_lpc109_registry_matches_dispatch_module():
    """The registry must name exactly the loops ``dispatch.py`` defines:
    a renamed loop that nobody re-registers would silently disable the
    rule, and a new loop that nobody registers would escape it."""
    from repro.kernel import dispatch

    tree = ast.parse(inspect.getsource(dispatch))
    loops = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(inner, (ast.While, ast.For))
                     for inner in ast.walk(node))}
    assert loops == set(dispatch.HOT_LOOP)
    for name in dispatch.HOT_LOOP:
        assert callable(getattr(dispatch, name))


# ---------------------------------------------------------------------------
# LPC001 — unparseable source
# ---------------------------------------------------------------------------
def test_lpc001_on_syntax_error():
    findings = check_source("bad.py", "def broken(:\n")
    assert [f.code for f in findings] == ["LPC001"]
    assert findings[0].severity == "error"


def test_findings_carry_location_and_hint():
    findings = check_source("mod.py", "import time\nx = time.time()\n")
    (finding,) = findings
    assert finding.path == "mod.py"
    assert finding.line == 2
    assert finding.code == "LPC101"
    assert finding.hint == RULES["LPC101"].hint
    assert "mod.py:2" in finding.format()


def test_every_lpc1xx_rule_has_a_fixture():
    """The catalogue and this file enumerate the same determinism rules."""
    fixture_codes = {"LPC101", "LPC102", "LPC103", "LPC104", "LPC105",
                     "LPC106", "LPC107", "LPC108", "LPC109"}
    catalogue = {code for code in RULES if code.startswith("LPC1")}
    assert catalogue == fixture_codes
