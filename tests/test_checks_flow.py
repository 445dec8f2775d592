"""Positive/negative fixtures for the fork-safety flow rules (LPC3xx)."""

from __future__ import annotations

import pathlib

from repro.checks import run_checks


def _tree(tmp_path: pathlib.Path, files: dict) -> pathlib.Path:
    """Write ``{relative_path: source}`` under ``tmp_path/repro``."""
    for rel, source in files.items():
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def _codes(tmp_path, files, **kw):
    root = _tree(tmp_path, files)
    report = run_checks([root], base=root, **kw)
    return [(f.code, f.path) for f in report.findings], report


# A module full of hazards, and a cli.py that makes it fork-reachable
# (repro.cli:main is a default fork entry point).
_HAZARDS = (
    "import itertools\n"
    "CACHE = {}\n"
    "_seq = itertools.count(1)\n"
    "def put(k, v):\n"
    "    CACHE[k] = v\n"
    "def look(k):\n"
    "    return CACHE.get(k)\n"
    "def mint():\n"
    "    return next(_seq)\n")
_CLI_IMPORTING = "from repro.services import hazard\n"


# ---------------------------------------------------------------------------
# LPC301 — mutation reachable from a fork entry
# ---------------------------------------------------------------------------
def test_lpc301_fires_when_fork_reachable(tmp_path):
    codes, _ = _codes(tmp_path, {
        "services/hazard.py": _HAZARDS,
        "cli.py": _CLI_IMPORTING,
    })
    assert ("LPC301", "repro/services/hazard.py") in codes


def test_lpc301_sees_next_inside_a_lambda(tmp_path):
    """A lambda outside any function runs whenever it is called; its
    ``next()`` on a module counter is charged to the scope that defines
    it: the class for a dataclass field's default factory, the module for
    a module-level lambda.  A lambda parameter shadows module state."""
    codes, report = _codes(tmp_path, {
        "net/ids.py": (
            "import itertools\n"
            "from dataclasses import dataclass, field\n"
            "_ids = itertools.count(1)\n"
            "_tags = itertools.count(1)\n"
            "@dataclass\n"
            "class Packet:\n"
            "    number: int = field(default_factory=lambda: next(_ids))\n"
            "next_tag = lambda: next(_tags)\n"
            "shadowed = lambda _ids: next(_ids)\n"),
        "cli.py": "from repro.net import ids\n",
    })
    messages = sorted((f.line, f.message.split(";")[0])
                      for f in report.findings if f.code == "LPC301")
    assert messages == [
        (7, "'Packet' mutates module-level '_ids' (next())"),
        (8, "'<module>' mutates module-level '_tags' (next())"),
    ]


def test_lpc301_silent_when_unreachable(tmp_path):
    # Same hazards, but nothing connects them to a fork entry point.
    codes, _ = _codes(tmp_path, {
        "services/hazard.py": _HAZARDS,
        "cli.py": "def main():\n    return 0\n",
    })
    assert all(code != "LPC301" for code, _path in codes)


def test_lpc301_gates_on_custom_entry_points(tmp_path):
    root = _tree(tmp_path, {"services/hazard.py": _HAZARDS})
    silent = run_checks([root], base=root, entry_points=[])
    flagged = run_checks([root], base=root,
                         entry_points=["repro.services.hazard:put"])
    assert all(f.code != "LPC301" for f in silent.findings)
    assert any(f.code == "LPC301" for f in flagged.findings)


# ---------------------------------------------------------------------------
# LPC302 — cross-run contamination (ungated by reachability)
# ---------------------------------------------------------------------------
def test_lpc302_fires_on_mutated_and_read_container(tmp_path):
    codes, _ = _codes(tmp_path, {"services/hazard.py": _HAZARDS})
    assert ("LPC302", "repro/services/hazard.py") in codes


def test_lpc302_silent_for_write_only_container(tmp_path):
    codes, _ = _codes(tmp_path, {
        "services/log.py": (
            "EVENTS = []\n"
            "def record(e):\n"
            "    EVENTS.append(e)\n"),
    })
    # .append() loads EVENTS on the mutation line, which must not count
    # as a read-back.
    assert all(code != "LPC302" for code, _path in codes)


def test_lpc302_silent_for_read_only_constant_table(tmp_path):
    codes, _ = _codes(tmp_path, {
        "services/table.py": (
            "NAMES = {'a': 1}\n"
            "def look(k):\n"
            "    return NAMES.get(k)\n"),
    })
    assert all(code != "LPC302" for code, _path in codes)


# ---------------------------------------------------------------------------
# LPC303 — module-level RNG streams
# ---------------------------------------------------------------------------
def test_lpc303_fires_on_module_rng_and_captures(tmp_path):
    codes, report = _codes(tmp_path, {
        "services/rngmod.py": (
            "import numpy as np\n"
            "_RNG = np.random.default_rng(1234)\n"   # seeded: still shared
            "_LATE = None\n"
            "def seed_me():\n"
            "    global _LATE\n"
            "    _LATE = np.random.default_rng(5)\n"),
        "cli.py": "from repro.services import rngmod\n",
    })
    lines = sorted(f.line for f in report.findings if f.code == "LPC303")
    assert len(lines) == 2           # the binding and the capture


def test_lpc303_silent_for_function_local_rng(tmp_path):
    codes, _ = _codes(tmp_path, {
        "services/localrng.py": (
            "import numpy as np\n"
            "def draw(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random()\n"),
        "cli.py": "from repro.services import localrng\n",
    })
    assert all(code != "LPC303" for code, _path in codes)


# ---------------------------------------------------------------------------
# LPC304 — fork-unsafe resources
# ---------------------------------------------------------------------------
def test_lpc304_fires_on_module_lock_and_pool_capture(tmp_path):
    codes, report = _codes(tmp_path, {
        "services/resmod.py": (
            "import multiprocessing\n"
            "import threading\n"
            "_LOCK = threading.Lock()\n"
            "_POOL = None\n"
            "def start(n):\n"
            "    global _POOL\n"
            "    ctx = multiprocessing.get_context('fork')\n"
            "    _POOL = ctx.Pool(n)\n"),
        "cli.py": "from repro.services import resmod\n",
    })
    lines = sorted(f.line for f in report.findings if f.code == "LPC304")
    assert len(lines) == 2           # the Lock binding and the Pool capture


def test_lpc304_silent_for_domain_class_named_lock(tmp_path):
    codes, _ = _codes(tmp_path, {
        "services/doors.py": (
            "from repro.services.parts import Lock\n"
            "FRONT_DOOR = Lock()\n"),
        "services/parts.py": (
            "class Lock:\n"
            "    pass\n"),
        "cli.py": "from repro.services import doors\n",
    })
    assert all(code != "LPC304" for code, _path in codes)


# ---------------------------------------------------------------------------
# The historical sessions._session_seq bug (pre-PR-8 shape)
# ---------------------------------------------------------------------------
def test_session_seq_regression_fixture_is_flagged(tmp_path):
    """The exact module-global counter PR 8 removed must stay detectable.

    This is the pre-PR-8 ``services/sessions.py`` shape verbatim-in-
    miniature: a module-level ``itertools.count`` minting session ids and
    tokens.  Run N+1 in one process minted different tokens than run N
    (token *length* even fed RPC wire sizes), and forked shards diverged
    from the inline oracle.  LPC301 exists so this class can never return
    silently.
    """
    root = _tree(tmp_path, {
        "services/sessions.py": (
            "import itertools\n"
            "\n"
            "_session_seq = itertools.count(1)\n"
            "\n"
            "\n"
            "class SessionService:\n"
            "    def acquire(self, owner, rng):\n"
            "        token = f'tok-{next(_session_seq)}-"
            "{rng.integers(1, 1 << 30)}'\n"
            "        return next(_session_seq), owner, token\n"),
        "cli.py": "from repro.services import sessions\n",
    })
    report = run_checks([root], base=root)
    flagged = [f for f in report.findings if f.code == "LPC301"]
    assert {f.path for f in flagged} == {"repro/services/sessions.py"}
    assert {f.line for f in flagged} == {8, 9}
    assert any("_session_seq" in f.message for f in flagged)
