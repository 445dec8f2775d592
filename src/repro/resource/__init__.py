"""The resource layer: "What can we count on being available?"

Device side: the five boxes of Figure 3 (Mem, Sto, Exe, UI, Net) as
descriptors.  User side: faculties.
The layer's defining relation — faculties *must not be frustrated by* the
platform — is the :func:`repro.resource.matching.match` engine.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "FacultyProfile": "faculties",
    "TRAINABLE": "faculties",
    "casual_user": "faculties",
    "international_visitor": "faculties",
    "researcher": "faculties",
    "train": "faculties",
    "Frustration": "matching",
    "FrustrationReport": "matching",
    "match": "matching",
    "population_usability": "matching",
    "ExecutionSpec": "platform",
    "MemorySpec": "platform",
    "NetSpec": "platform",
    "PlatformProfile": "platform",
    "StorageSpec": "platform",
    "UISpec": "platform",
    "adapter_platform": "platform",
    "laptop_platform": "platform",
    "pda_platform": "platform",
    "soc_platform": "platform",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
