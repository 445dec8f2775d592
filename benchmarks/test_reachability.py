"""Every module in ``src/repro`` is loaded by some real run.

A fresh interpreter runs the quick suite of every experiment and the CLI
commands a user runs, then reports which ``repro`` modules it loaded.
Every package ``__init__`` is lazy, so a module that nothing imports
stays out of ``sys.modules``: a module that no run reaches shows up here
instead of lingering with only its own tests to call it.  The set of
unloaded modules must equal :data:`UNREACHED`, so an entry that a run
starts to load fails the guard too.

Not in tier-1: the probe takes ~15 s.  Run it with
``PYTHONPATH=src python -m pytest -q benchmarks/test_reachability.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC_DIR = pathlib.Path(repro.__file__).resolve().parents[1]
REPO_DIR = SRC_DIR.parent

#: Modules no run loads, each with the reason it stays.
UNREACHED = {
    "repro.__main__": "the `python -m repro` entry point, which only "
                      "calls repro.cli.main; the probe calls main itself",
    "repro.core.checklist": "the paper's design checklist; waits on the "
                            "LPC run card (ROADMAP), which is to print it",
    "repro.core.live": "builds an LPC model from a live room; waits on "
                       "the LPC run card (ROADMAP)",
}

#: Runs the quick suite and the CLI commands with their output discarded
#: (argv[1] is a scratch directory), then prints every loaded module.
_PROBE = """
import contextlib, json, os, sys
from repro.cli import main
from repro.experiments.report import run_all

scratch = sys.argv[1]
commands = [
    ["demo"],
    ["report", "--lpc"],
    ["report", "--lpc", "--format", "json"],
    ["figures"],
    ["experiments"],
    ["cache", "stats", "--dir", scratch],
    ["run", "E11", "--shards", "2"],
    ["demo", "--trace-out", os.path.join(scratch, "demo.jsonl")],
    ["demo", "--trace-out", os.path.join(scratch, "demo.npz")],
    ["check"],
]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    run_all("quick")
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"repro {' '.join(argv)} failed")
print(json.dumps(sorted(sys.modules)))
"""


def _modules() -> set:
    """Every module under ``src/repro``, by dotted name."""
    names = set()
    for path in (SRC_DIR / "repro").rglob("*.py"):
        parts = path.relative_to(SRC_DIR).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


def test_every_module_but_the_allow_list_is_loaded_by_a_run(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)], cwd=REPO_DIR,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR),
                 REPRO_CACHE_DIR=str(tmp_path / "cache")),
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    unloaded = _modules() - set(json.loads(out.stdout))
    assert unloaded == set(UNREACHED), (
        f"no run loads {sorted(unloaded - set(UNREACHED))}; "
        f"a run loads allow-listed {sorted(set(UNREACHED) - unloaded)}")
