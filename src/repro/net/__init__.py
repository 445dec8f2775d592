"""Networking substrate: frames, links, transport, multicast, bridging.

Everything here is the "Net" box of the paper's resource layer — the
networking capability applications count on — built on the wireless
physical layer (:mod:`repro.phys`) and the wired links of the traditional
network the Aroma project connects to.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "AddressAllocator": "addresses",
    "BROADCAST": "addresses",
    "is_broadcast": "addresses",
    "validate_address": "addresses",
    "Bridge": "bridge",
    "Frame": "frames",
    "HEADER_BYTES": "frames",
    "MTU_BYTES": "frames",
    "WiredLink": "link",
    "WiredPort": "link",
    "GroupDatagram": "multicast",
    "MULTICAST_PORT": "multicast",
    "MulticastService": "multicast",
    "DropTailQueue": "queueing",
    "TokenBucket": "queueing",
    "NetworkStack": "stack",
    "Ack": "transport",
    "ReliableEndpoint": "transport",
    "Segment": "transport",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
