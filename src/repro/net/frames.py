"""Frames: the unit of transmission on links and the wireless medium.

A frame carries an arbitrary Python payload but declares its *wire size*
explicitly — like mpi4py's pickle-based convenience API, the payload rides
along for programmer comfort while the simulated airtime and loss behaviour
depend only on the declared byte count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..kernel.errors import ConfigurationError
from .addresses import validate_address

#: Link-layer framing overhead added to every frame (header + FCS), bytes.
HEADER_BYTES: int = 34

#: Conventional MTU for the payload portion, bytes.
MTU_BYTES: int = 1500


@dataclass
class Frame:
    """One link-layer frame.

    Attributes:
        src: sender address.
        dst: destination address (may be :data:`BROADCAST`).
        payload: arbitrary Python object delivered to the receiver.
        payload_bytes: declared payload size on the wire.
        kind: coarse type tag — ``"data"``, ``"mgmt"`` (discovery, leases)
            or ``"ctrl"`` (transport acks).
        port: demultiplexing key for the receiving stack.
        frame_id: the frame's number in traces.  Senders number their
            frames per simulator, ``sim.next_seq("frame")`` at
            construction, so a run's ids do not depend on what ran
            before it in the process; 0 marks a frame built outside
            a simulator.
    """

    src: str
    dst: str
    payload: Any = None
    payload_bytes: int = 0
    kind: str = "data"
    port: int = 0
    frame_id: int = 0

    def __post_init__(self) -> None:
        validate_address(self.src)
        validate_address(self.dst)
        if self.payload_bytes < 0:
            raise ConfigurationError(f"negative payload size {self.payload_bytes}")
        if self.payload_bytes > MTU_BYTES:
            raise ConfigurationError(
                f"payload {self.payload_bytes}B exceeds MTU {MTU_BYTES}B; "
                "segment at the transport layer")
        if self.kind not in ("data", "mgmt", "ctrl"):
            raise ConfigurationError(f"unknown frame kind {self.kind!r}")

    @property
    def wire_bytes(self) -> int:
        """Total size on the wire including link-layer overhead."""
        return self.payload_bytes + HEADER_BYTES

    def airtime(self, bits_per_second: float, preamble_s: float = 0.0) -> float:
        """Transmission duration at a given PHY rate."""
        if bits_per_second <= 0:
            raise ConfigurationError("rate must be positive")
        return preamble_s + (8.0 * self.wire_bytes) / bits_per_second

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Frame #{self.frame_id} {self.src}->{self.dst} "
                f"{self.kind}/{self.port} {self.payload_bytes}B>")
