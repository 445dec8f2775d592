"""The environment layer: geometry, mobility, RF propagation, acoustics.

The paper's first structural claim is that pervasive computing needs an
explicit environment layer *below* the physical layer.  This package is
that layer: everything here exists independently of any device, and the
physical layer (:mod:`repro.phys`) must cope with it rather than engineer
it away.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "LinkCache": "linkcache",
    "LinearMobility": "mobility",
    "Mobility": "mobility",
    "RandomWaypoint": "mobility",
    "StaticMobility": "mobility",
    "AcousticField": "noise",
    "NoiseSource": "noise",
    "TYPICAL_LEVELS_DB": "noise",
    "combine_levels_db": "noise",
    "NOISE_FLOOR_DBM": "radio",
    "NOISE_FLOOR_MW": "radio",
    "PropagationModel": "radio",
    "RATES": "radio",
    "RATE_BY_NAME": "radio",
    "RateMode": "radio",
    "SHADOWING_CLAMP_SIGMAS": "radio",
    "best_rate": "radio",
    "dbm_to_mw": "radio",
    "mw_to_dbm": "radio",
    "sinr_from_mw": "radio",
    "SpatialGrid": "spatialindex",
    "CHANNELS": "spectrum",
    "NON_OVERLAPPING": "spectrum",
    "ORTHOGONAL_SEPARATION": "spectrum",
    "center_frequency_mhz": "spectrum",
    "least_congested": "spectrum",
    "overlap_factor": "spectrum",
    "validate_channel": "spectrum",
    "Placement": "world",
    "World": "world",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
