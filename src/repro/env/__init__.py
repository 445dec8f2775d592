"""The environment layer: geometry, mobility, RF propagation, acoustics.

The paper's first structural claim is that pervasive computing needs an
explicit environment layer *below* the physical layer.  This package is
that layer: everything here exists independently of any device, and the
physical layer (:mod:`repro.phys`) must cope with it rather than engineer
it away.
"""

from .linkcache import LinkCache
from .mobility import LinearMobility, Mobility, RandomWaypoint, StaticMobility
from .noise import (
    TYPICAL_LEVELS_DB,
    AcousticField,
    NoiseSource,
    combine_levels_db,
)
from .radio import (
    NOISE_FLOOR_DBM,
    NOISE_FLOOR_MW,
    RATE_BY_NAME,
    RATES,
    SHADOWING_CLAMP_SIGMAS,
    PropagationModel,
    RateMode,
    best_rate,
    dbm_to_mw,
    mw_to_dbm,
    sinr_from_mw,
)
from .spatialindex import SpatialGrid
from .spectrum import (
    CHANNELS,
    NON_OVERLAPPING,
    ORTHOGONAL_SEPARATION,
    center_frequency_mhz,
    least_congested,
    overlap_factor,
    validate_channel,
)
from .world import Placement, World

__all__ = [
    "AcousticField",
    "CHANNELS",
    "LinearMobility",
    "LinkCache",
    "Mobility",
    "NOISE_FLOOR_DBM",
    "NOISE_FLOOR_MW",
    "NON_OVERLAPPING",
    "NoiseSource",
    "ORTHOGONAL_SEPARATION",
    "Placement",
    "PropagationModel",
    "RATES",
    "RATE_BY_NAME",
    "RandomWaypoint",
    "RateMode",
    "SHADOWING_CLAMP_SIGMAS",
    "SpatialGrid",
    "StaticMobility",
    "TYPICAL_LEVELS_DB",
    "World",
    "best_rate",
    "center_frequency_mhz",
    "combine_levels_db",
    "dbm_to_mw",
    "least_congested",
    "mw_to_dbm",
    "overlap_factor",
    "sinr_from_mw",
    "validate_channel",
]
