"""repro — an executable reproduction of *A Conceptual Model for Pervasive
Computing* (Ciarletta & Dima, 2000).

The package builds the paper twice over:

* :mod:`repro.core` — the **Layered Pervasive Computing model** itself:
  five layers, dual device/user columns, per-layer constraint relations,
  issue classification, analysis reports, and regenerated figures.
* everything else — the **Aroma substrate** the paper's analysis runs on:
  a deterministic discrete-event kernel (:mod:`repro.kernel`), the 2.4 GHz
  environment (:mod:`repro.env`), physical devices and users
  (:mod:`repro.phys`), networking (:mod:`repro.net`), the resource layer
  (:mod:`repro.resource`), Jini-style discovery (:mod:`repro.discovery`),
  the Smart Projector services (:mod:`repro.services`), simulated users
  (:mod:`repro.user`), measurement (:mod:`repro.metrics`) and the
  experiment suite (:mod:`repro.experiments`).

Quickstart::

    from repro import Simulator, projector_room, presentation_workflow

    room = projector_room(seed=1)
    presentation_workflow(room)
    room.sim.run(until=30.0)
    print(room.projector.frames_displayed)
"""

from .kernel.lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "Column": "core",
    "LPCInstrument": "core",
    "LPCModel": "core",
    "Layer": "core",
    "figure1": "core",
    "figure2": "core",
    "figure3": "core",
    "figure4": "core",
    "figure5": "core",
    "smart_projector_model": "core",
    "ExperimentResult": "experiments",
    "list_experiments": "experiments",
    "presentation_workflow": "experiments",
    "projector_room": "experiments",
    "run_experiment": "experiments",
    "Simulator": "kernel",
}

__all__ = sorted([*_EXPORTS, "__version__"])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
