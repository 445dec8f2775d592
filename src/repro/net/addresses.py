"""Addressing for the simulated network substrate.

Addresses are short strings (node names) — the simulation equivalent of a
MAC/IP pair.  A :data:`BROADCAST` sentinel addresses every station on a
segment, which the discovery protocol's multicast announcements ride on.
"""

from __future__ import annotations

import re

from ..kernel.errors import AddressError

#: Destination matching every station on the segment/channel.
BROADCAST: str = "*"

_ADDRESS_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:\-]*$")


def validate_address(address: str) -> str:
    """Validate and return ``address``; raises :class:`AddressError`."""
    if address == BROADCAST:
        return address
    if not isinstance(address, str) or not _ADDRESS_RE.match(address):
        raise AddressError(f"malformed address {address!r}")
    return address
