"""E6 — faculty assumptions inside vs outside the laboratory.

"These expectations are not unreasonable since they describe the
situation found in our laboratory.  A number of these expectations,
however, are unreasonable if the Smart Projector is used outside our
laboratory."

Two tables:

* **static matching** — the "must not be frustrated by" engine applied to
  each platform preset across populations: what fraction of each crowd
  can use the thing at all (language, GUI, administration, storage,
  abort).
* **fault recovery** — the dynamic version: a session is running, the
  infrastructure breaks (adapter wedge / registry outage), and either the
  user's own technical skill or the automated :class:`DiagnosticsAgent`
  has to bring it back.
"""

from __future__ import annotations

import numpy as np

from ..kernel.scheduler import Simulator
from ..resource.matching import match, population_usability
from ..resource.platform import adapter_platform, soc_platform
from ..services.errorsvc import DiagnosticsAgent, FaultInjector, human_repair_model
from ..user.population import casual_population, lab_population, public_population
from .harness import ExperimentResult, experiment
from .workloads import projector_room


@experiment("E6")
def run(population_size: int = 100, seed: int = 10) -> ExperimentResult:
    """Usable fraction of each population per platform design."""
    sim = Simulator(seed=seed, trace=False)
    rng = sim.rng("e6")
    populations = {
        "lab": lab_population(rng, population_size),
        "casual": casual_population(rng, population_size),
        "public": public_population(rng, population_size),
    }
    platforms = {
        "research-adapter": adapter_platform(),
        "commercial-soc": soc_platform(),
    }
    result = ExperimentResult(
        "E6", "platform usability across user populations",
        ["platform", "population", "usable_fraction", "mean_score",
         "dominant_frustration"])
    for platform_name, platform in platforms.items():
        for population_name, users in populations.items():
            reports = [match(platform, u) for u in users]
            worst_aspects = [r.worst().aspect for r in reports if r.worst()]
            dominant = (max(set(worst_aspects), key=worst_aspects.count)
                        if worst_aspects else "none")
            result.add_row(
                platform=platform_name, population=population_name,
                usable_fraction=population_usability(platform, users),
                mean_score=float(np.mean([r.score for r in reports])),
                dominant_frustration=dominant)
    result.notes.append(
        "the research adapter suits the lab and fails the public; the "
        "paper's predicted commercial SOC closes the gap")
    return result


@experiment("E6-accessibility")
def run_accessibility(population_size: int = 60,
                      seed: int = 28) -> ExperimentResult:
    """Accessibility: physical compatibility across age populations.

    The paper lists "internationalization and accessibility issues" among
    the research needed to leave the lab.  The i18n half is E6's language
    dimension; this is the accessibility half: ergonomic compatibility of
    each device's form factor across young/adult/older bodies — the
    physical layer's "must be compatible with" at population scale.
    """
    import numpy as np

    from ..kernel.scheduler import Simulator
    from ..phys.devices import laptop_form, pda_form
    from ..phys.ergonomics import FormFactor, check_compatibility
    from ..user.physiology import sample_bodies

    #: A kiosk-style touch panel designed with accessibility in mind:
    #: large controls, large glyphs, no carrying, no reach requirement.
    accessible_panel = FormFactor("touch-panel", control_size_mm=22.0,
                                  glyph_size_mm=7.0, weight_kg=0.0,
                                  requires_proximity=False, portable=False)
    forms = {"laptop": laptop_form(), "pda": pda_form(),
             "touch-panel": accessible_panel}

    sim = Simulator(seed=seed, trace=False)
    result = ExperimentResult(
        "E6-accessibility", "ergonomic compatibility across age groups",
        ["form_factor", "age_group", "compatible_fraction", "mean_score"])
    for form_name, form in forms.items():
        for age_group in ("young", "adult", "older"):
            bodies = sample_bodies(sim.rng(f"e6a.{form_name}.{age_group}"),
                                   population_size, age_group=age_group)
            reports = [check_compatibility(form, body) for body in bodies]
            result.add_row(
                form_factor=form_name, age_group=age_group,
                compatible_fraction=float(np.mean(
                    [r.compatible for r in reports])),
                mean_score=float(np.mean([r.score for r in reports])))
    result.notes.append(
        "the PDA's 6 mm controls and 1.8 mm glyphs shed older users; the "
        "accessible panel holds every age group — accessibility is a "
        "physical-layer design property, not a software patch")
    return result


def _fault_recovery(kind: str, diagnostics: bool, technical_skill: float,
                    seed: int, horizon: float) -> dict:
    room = projector_room(seed=seed, trace=False, register=False)
    sim = room.sim
    injector = FaultInjector(sim)
    agent = DiagnosticsAgent(sim, injector, enabled=diagnostics,
                             check_interval=2.0, repair_time=5.0)
    if kind == "adapter":
        fault = injector.wedge_adapter(room.adapter)
    else:
        fault = injector.kill_registry(room.registry)
    if not diagnostics:
        human_repair_model(fault, injector, sim, technical_skill)
    sim.run(until=horizon)
    agent.stop()
    return {
        "fault": kind,
        "remedy": ("diagnostics" if diagnostics else
                   f"human(skill={technical_skill:.2f})"),
        "recovered": fault.repaired_at is not None,
        "outage_s": fault.outage if fault.outage is not None else float("inf"),
    }


@experiment("E6-recovery")
def run_recovery(seed: int = 11, horizon: float = 120.0) -> ExperimentResult:
    """Fault recovery: researcher vs casual user vs automated diagnostics."""
    result = ExperimentResult(
        "E6-recovery", "infrastructure fault recovery by remedy",
        ["fault", "remedy", "recovered", "outage_s"])
    for kind in ("adapter", "registry"):
        result.add_row(**_fault_recovery(kind, False, 0.9, seed, horizon))
        result.add_row(**_fault_recovery(kind, False, 0.15, seed, horizon))
        result.add_row(**_fault_recovery(kind, True, 0.15, seed, horizon))
    result.notes.append(
        "a researcher fixes it in ~a minute; a casual user never does; "
        "automated diagnostics fixes it in seconds for everyone")
    return result
