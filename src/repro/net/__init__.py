"""Networking substrate: addresses, frames, the stack, transport, multicast.

Everything here is the "Net" box of the paper's resource layer — the
networking capability applications count on — built on the wireless
physical layer (:mod:`repro.phys`).
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "BROADCAST": "addresses",
    "validate_address": "addresses",
    "Frame": "frames",
    "HEADER_BYTES": "frames",
    "MTU_BYTES": "frames",
    "GroupDatagram": "multicast",
    "MULTICAST_PORT": "multicast",
    "MulticastService": "multicast",
    "NetworkStack": "stack",
    "Ack": "transport",
    "ReliableEndpoint": "transport",
    "Segment": "transport",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
