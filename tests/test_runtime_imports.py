"""What importing a module loads.

The runtime depends on NumPy alone.  SciPy is only the test oracle of
:func:`repro.env.radio.ndtri`, and networkx is not used at all;
importing SciPy cost every run ~0.4 s of set-up and ~18 MB of memory
(``docs/performance.md``, "Start-up and memory").

Every package ``__init__`` is lazy, so an import loads only the modules
it reaches: the kernel loads no other layer, the broadcast room of
``bench/`` loads nothing of the LPC layers above the Physical one, and
the static pass loads no simulator.  Each probe runs in a fresh interpreter, since this
one already holds most of the package (and SciPy, for the oracle tests).
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

SRC_DIR = pathlib.Path(repro.__file__).resolve().parents[1]

#: Imports each module named on the command line, in order; prints the
#: names of every module then loaded.
_LOADED = (
    "import importlib, json, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(json.dumps(sorted(sys.modules)))\n")

#: Imports each module named on the command line as the first repro
#: import: every repro module is dropped from ``sys.modules`` before it.
_FIRST_IMPORT = (
    "import importlib, sys\n"
    "for name in sys.argv[1:]:\n"
    "    for loaded in [m for m in sys.modules\n"
    "                   if m.partition('.')[0] == 'repro']:\n"
    "        del sys.modules[loaded]\n"
    "    try:\n"
    "        importlib.import_module(name)\n"
    "    except Exception:\n"
    "        print('first import failed:', name, file=sys.stderr)\n"
    "        raise\n")


def _run(script: str, *args: str, **env: str) -> str:
    """stdout of ``script`` run in a fresh interpreter over ``src``."""
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env=dict(os.environ, PYTHONPATH=str(SRC_DIR), **env),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loaded_by(*modules: str) -> set:
    return set(json.loads(_run(_LOADED, *modules)))


def _packages() -> list:
    """``repro`` and each of its subpackages."""
    return ["repro"] + [f"repro.{info.name}"
                        for info in pkgutil.iter_modules(repro.__path__)
                        if info.ispkg]


def _layers(loaded: set) -> set:
    """The repro packages among ``loaded`` module names."""
    return {name.split(".")[1] for name in loaded
            if name.startswith("repro.")}


def test_importing_repro_loads_neither_scipy_nor_networkx():
    """``import repro, repro.cli``, then every other module of the
    package, loads no ``scipy`` or ``networkx`` module."""
    modules = [info.name for info in
               pkgutil.walk_packages(repro.__path__, "repro.")
               if info.name != "repro.__main__"]
    loaded = _loaded_by("repro", "repro.cli", *modules)
    assert not {name for name in loaded
                if name.partition(".")[0] in ("scipy", "networkx")}


def test_lazy_package_binds_a_name_on_first_access():
    import repro.net
    import repro.net.frames

    assert "Frame" in dir(repro.net)
    assert repro.net.Frame is repro.net.frames.Frame
    assert vars(repro.net)["Frame"] is repro.net.frames.Frame
    with pytest.raises(AttributeError):
        repro.net.no_such_name  # noqa: B018


def test_every_exported_name_resolves():
    """Each package's table names a submodule that defines the name;
    walks every package, ``repro.telemetry`` and ``repro.checks`` too."""
    for package in _packages():
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"


def test_kernel_loads_only_the_kernel():
    loaded = _loaded_by("repro.kernel.scheduler")
    assert "repro.kernel.scheduler" in loaded
    assert _layers(loaded) == {"kernel"}


def test_broadcast_room_loads_nothing_above_the_physical_layer():
    """``bench/child.py``'s broadcast workloads import these two modules
    in their set-up: no resource, discovery, services or user module (the
    LPC layers above the Physical one), no model and no telemetry."""
    loaded = _loaded_by("repro.env.mobility", "repro.experiments.workloads")
    assert not _layers(loaded) & {"discovery", "services", "user",
                                  "resource", "core", "telemetry"}
    experiments = {name for name in loaded
                   if name.startswith("repro.experiments.")}
    assert experiments == {"repro.experiments.workloads"}


def test_importing_the_harness_registers_every_experiment():
    """No experiment may load on first lookup: it would move its imports
    into the timed run of whatever looks it up."""
    declared = set()
    for path in (SRC_DIR / "repro" / "experiments").glob("*.py"):
        declared.update(re.findall(r'@experiment\("([^"]+)"\)',
                                   path.read_text()))
    out = _run("from repro.experiments.harness import list_experiments\n"
               "print(list_experiments())\n")
    assert len(declared) == 29
    assert out.strip() == str(sorted(declared))


def test_static_pass_loads_no_simulator():
    loaded = _loaded_by("repro.cli", "repro.checks.runner")
    assert "numpy" not in loaded
    assert not _layers(loaded) & {"experiments", "phys"}


def test_any_experiment_module_or_package_imports_first(tmp_path):
    """Each module of ``repro.experiments`` and each package imports
    cleanly when nothing of repro is loaded yet.  The registry imports
    the experiment modules, which import it back, so a module-scope
    import of the registry from a module they need fails here."""
    names = _packages() + [
        f"repro.experiments.{info.name}" for info in
        pkgutil.iter_modules([str(SRC_DIR / "repro" / "experiments")])]
    assert "repro.experiments.sweeps" in names
    # A bytecode cache of its own: each module then compiles once, not
    # once per name.
    _run(_FIRST_IMPORT, *names, PYTHONPYCACHEPREFIX=str(tmp_path),
         PYTHONDONTWRITEBYTECODE="")
