"""Lazy package exports: a package imports nothing until a name is used.

Every ``repro`` package re-exports its public names from the submodules
that define them.  Importing those submodules eagerly would make any
import of the package, even of one low-layer module under it, pay for
the whole tree: ``repro.env.mobility`` would load the services and the
user model through ``repro/__init__.py``.  Instead each package declares
one table from public name to defining submodule and resolves a name on
first access through a PEP 562 module ``__getattr__``:

    _EXPORTS = {"Simulator": "scheduler", ...}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.  The first access to a name imports
    its submodule and binds the value in the package, so later accesses
    are plain attribute reads; any other missing name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall back to ``sys.modules`` during a circular import.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
