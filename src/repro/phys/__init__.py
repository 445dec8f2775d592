"""The physical layer: hardware *and* the physical user.

The paper's second structural claim: "for pervasive computing, the
physical user must also be included" in the physical layer.  So this
package holds radios, MACs, batteries and appliances next to human bodies,
speech signals and ergonomic compatibility — with the layer's defining
relation (entities "must be compatible with" one another) in
:mod:`repro.phys.ergonomics`.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "AromaAdapter": "devices",
    "Device": "devices",
    "DigitalProjector": "devices",
    "Laptop": "devices",
    "PDA": "devices",
    "laptop_form": "devices",
    "pda_form": "devices",
    "projector_form": "devices",
    "BASE_CONTROL_MM": "ergonomics",
    "BASE_GLYPH_MM": "ergonomics",
    "CompatibilityReport": "ergonomics",
    "FormFactor": "ergonomics",
    "Mismatch": "ergonomics",
    "check_compatibility": "ergonomics",
    "tether_constraint": "ergonomics",
    "PhysicalProfile": "human",
    "PhysicalUser": "human",
    "SpeechRecognizer": "human",
    "SpeechSignal": "human",
    "ACK_S": "mac",
    "CsmaMac": "mac",
    "DIFS_S": "mac",
    "PREAMBLE_S": "mac",
    "SIFS_S": "mac",
    "SLOT_S": "mac",
    "Transmission": "mac",
    "WirelessMedium": "mac",
    "WirelessNIC": "nic",
    "Battery": "power",
    "DEFAULT_DRAW_W": "power",
    "EnergyMeter": "power",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
