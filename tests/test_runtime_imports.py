"""The runtime depends on NumPy alone.

SciPy is only the test oracle of :func:`repro.env.radio.ndtri`, and
networkx is not used at all; importing SciPy cost every run ~0.4 s of
set-up and ~18 MB of memory (``docs/performance.md``, "Start-up and
memory").  The probe runs in a fresh interpreter, since this one may
already hold SciPy for the oracle tests.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

_PROBE = (
    "import importlib, pkgutil, sys\n"
    "import repro, repro.cli\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    if info.name != 'repro.__main__':\n"
    "        importlib.import_module(info.name)\n"
    "print(sorted(name for name in sys.modules\n"
    "             if name.partition('.')[0] in ('scipy', 'networkx')))\n")


def test_importing_repro_loads_neither_scipy_nor_networkx():
    """``import repro, repro.cli``, then every other module of the
    package, loads no ``scipy`` or ``networkx`` module."""
    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
