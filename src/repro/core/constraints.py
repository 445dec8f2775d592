"""The four cross-column constraint relations, as checkable objects.

Each LPC layer's defining relation (Figures 2-5) is implemented by
delegating to the concrete engine built in the corresponding substrate
package — the conceptual model *is* the library's integration layer:

======================  =====================================  =============
Layer                   relation                               engine
======================  =====================================  =============
Environment             entities must cope with environment    radio SINR / acoustics
Physical                must be compatible with                :func:`repro.phys.ergonomics.check_compatibility`
Resource                must not be frustrated by              :func:`repro.resource.matching.match`
Abstract                must be consistent with                :meth:`repro.user.mental.MentalModel.consistency`
Intentional             must be in harmony with                :func:`repro.user.goals.harmony`
======================  =====================================  =============
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..env.noise import AcousticField
from ..env.radio import NOISE_FLOOR_DBM, PropagationModel, best_rate
from ..kernel.errors import ConstraintViolation
from ..phys.ergonomics import FormFactor, check_compatibility
from ..phys.human import PhysicalProfile
from ..resource.faculties import FacultyProfile
from ..resource.matching import match
from ..resource.platform import PlatformProfile
from ..user.goals import DesignPurpose, Goal, harmony
from ..user.mental import MentalModel
from .layers import RELATIONS, Layer


@dataclass
class ConstraintResult:
    """Outcome of one constraint check."""

    layer: Layer
    relation: str
    subject: str            #: what was checked against what
    satisfied: bool
    score: float            #: in [0, 1]
    details: List[str] = field(default_factory=list)

    def require(self) -> "ConstraintResult":
        """Raise :class:`ConstraintViolation` when unsatisfied."""
        if not self.satisfied:
            raise ConstraintViolation(
                f"{self.layer.title}: {self.subject}: " + "; ".join(self.details))
        return self


def _result(layer: Layer, subject: str, satisfied: bool, score: float,
            details: List[str]) -> ConstraintResult:
    return ConstraintResult(layer, RELATIONS[layer], subject, satisfied,
                            max(0.0, min(1.0, score)), details)


# ---------------------------------------------------------------------------
# Environment layer
# ---------------------------------------------------------------------------

def check_radio_environment(propagation: PropagationModel, distance_m: float,
                            tx_power_dbm: float = 15.0,
                            required_rate_bps: float = 1e6,
                            subject: str = "link") -> ConstraintResult:
    """Can a link cope with its RF environment at this distance?"""
    sinr = (propagation.received_power_dbm(tx_power_dbm, distance_m)
            - NOISE_FLOOR_DBM)
    mode = best_rate(sinr)
    ok = mode.bits_per_second >= required_rate_bps and mode.fer(sinr, 1500) <= 0.1
    details = [f"SINR {sinr:.1f} dB at {distance_m:.1f} m supports {mode.name}"]
    if not ok:
        details.append(f"required {required_rate_bps / 1e6:.1f} Mb/s not sustainable")
    score = min(1.0, mode.bits_per_second / max(required_rate_bps, 1.0))
    return _result(Layer.ENVIRONMENT, subject, ok, score, details)


def check_acoustic_environment(field_: AcousticField, entity: str,
                               profile: PhysicalProfile,
                               needs_voice: bool = False,
                               min_snr_db: float = 15.0) -> ConstraintResult:
    """Can a (voice) interface cope with the acoustic environment here?"""
    ambient = field_.level_at(entity)
    details = [f"ambient {ambient:.1f} dB SPL at {entity}"]
    if not needs_voice:
        return _result(Layer.ENVIRONMENT, entity, True, 1.0, details)
    snr = field_.speech_snr_db(profile.speech_level_db, entity)
    social = field_.socially_appropriate(entity, profile.speech_level_db)
    ok = snr >= min_snr_db and social
    details.append(f"speech SNR {snr:.1f} dB (need {min_snr_db:.0f})")
    if not social:
        details.append("speaking here would be socially inappropriate")
    score = max(0.0, min(1.0, snr / max(min_snr_db, 1.0))) * (1.0 if social else 0.5)
    return _result(Layer.ENVIRONMENT, entity, ok, score, details)


# ---------------------------------------------------------------------------
# Physical layer
# ---------------------------------------------------------------------------

def check_physical_compatibility(form: FormFactor,
                                 profile: PhysicalProfile) -> ConstraintResult:
    report = check_compatibility(form, profile)
    details = [m.description for m in report.mismatches]
    subject = f"{form.name} vs {profile.name}"
    return _result(Layer.PHYSICAL, subject, report.compatible, report.score,
                   details or ["physically compatible"])


# ---------------------------------------------------------------------------
# Resource layer
# ---------------------------------------------------------------------------

def check_resource_match(platform: PlatformProfile,
                         faculties: FacultyProfile) -> ConstraintResult:
    report = match(platform, faculties)
    details = [f.description for f in report.frustrations]
    subject = f"{platform.name} vs {faculties.name}"
    return _result(Layer.RESOURCE, subject, report.usable, report.score,
                   details or ["no frustrations"])


# ---------------------------------------------------------------------------
# Abstract layer
# ---------------------------------------------------------------------------

def check_abstract_consistency(mental: MentalModel,
                               application_state: Dict[str, Any],
                               threshold: float = 0.8) -> ConstraintResult:
    score = mental.consistency(application_state)
    wrong = [key for key, value in application_state.items()
             if mental.belief(key, _ABSENT) != value]
    details = ([f"misbeliefs: {wrong}"] if wrong else ["model matches reality"])
    details.append(f"{len(mental.surprises)} surprises so far")
    subject = f"{mental.owner} vs application"
    return _result(Layer.ABSTRACT, subject, score >= threshold, score, details)


_ABSENT = object()


# ---------------------------------------------------------------------------
# Intentional layer
# ---------------------------------------------------------------------------

def check_intentional_harmony(purpose: DesignPurpose, goal: Goal,
                              user: Optional[FacultyProfile] = None) -> ConstraintResult:
    report = harmony(purpose, goal, user)
    subject = f"{purpose.name} vs {goal.name}"
    return _result(Layer.INTENTIONAL, subject, report.in_harmony,
                   report.score, report.notes or ["in harmony"])


#: convenient access by layer for generic callers (the LPCModel).
CHECKERS = {
    Layer.ENVIRONMENT: check_radio_environment,
    Layer.PHYSICAL: check_physical_compatibility,
    Layer.RESOURCE: check_resource_match,
    Layer.ABSTRACT: check_abstract_consistency,
    Layer.INTENTIONAL: check_intentional_harmony,
}
