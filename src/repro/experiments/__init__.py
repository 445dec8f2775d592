"""Experiment harness and the E1–E11 / F1–F5 reproduction targets.

The registry lives in :mod:`repro.experiments.harness`, which imports
every experiment module at its end, so any import that reaches it
(``run_experiment``, ``list_experiments``, or any experiment module)
registers all of them.  Importing this package alone loads nothing:
a run that needs only :mod:`repro.experiments.workloads` pays for no
experiment.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "RunCache": "cache",
    "cache_key": "cache",
    "source_digest": "cache",
    "ExperimentResult": "harness",
    "experiment": "harness",
    "get_experiment": "harness",
    "list_experiments": "harness",
    "run_experiment": "harness",
    "build_report": "report",
    "run_all": "report",
    "averaged_over_seeds": "sweeps",
    "grid": "sweeps",
    "sweep": "sweeps",
    "InterfererPair": "workloads",
    "Room": "workloads",
    "interferer_field": "workloads",
    "presentation_workflow": "workloads",
    "projector_room": "workloads",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
