"""Experiment harness and the E1–E9 / F1–F5 reproduction targets.

Importing this package registers every experiment; run one with
``run_experiment("E1")`` or enumerate them with ``list_experiments()``.
"""

from .cache import RunCache, cache_key, source_digest
from .harness import (
    ExperimentResult,
    experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)
from .report import build_report, run_all
from .sweeps import averaged_over_seeds, grid, sweep
from .workloads import (
    InterfererPair,
    Room,
    interferer_field,
    presentation_workflow,
    projector_room,
)

# Importing the modules registers their experiments.
from . import cellgrid  # noqa: F401
from . import e1_vnc  # noqa: F401
from . import e2_interference  # noqa: F401
from . import e2_scale  # noqa: F401
from . import e3_ranging  # noqa: F401
from . import e4_discovery  # noqa: F401
from . import e5_burden  # noqa: F401
from . import e6_faculties  # noqa: F401
from . import e7_harmony  # noqa: F401
from . import e8_voice  # noqa: F401
from . import e9_analysis  # noqa: F401
from . import e10_energy  # noqa: F401
from . import figures  # noqa: F401

__all__ = [
    "ExperimentResult",
    "InterfererPair",
    "Room",
    "RunCache",
    "averaged_over_seeds",
    "build_report",
    "cache_key",
    "experiment",
    "get_experiment",
    "grid",
    "interferer_field",
    "list_experiments",
    "presentation_workflow",
    "projector_room",
    "run_all",
    "run_experiment",
    "source_digest",
    "sweep",
]
