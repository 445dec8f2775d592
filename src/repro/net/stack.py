"""Per-node network stack: port demultiplexing over any interface.

A :class:`NetworkStack` sits on one interface (a wireless NIC, or anything
with ``address``, ``send_frame`` and an ``on_receive`` slot) and
demultiplexes inbound frames to bound ports.  It is the resource-layer
"Net" box of the paper's Figure 3: the networking capability applications
can count on being available.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol

from ..kernel.errors import ConfigurationError, NetworkError
from ..kernel.scheduler import Simulator
from .addresses import BROADCAST
from .frames import Frame


class Interface(Protocol):
    """Anything a stack can sit on."""

    address: str
    on_receive: Optional[Callable[[Frame], None]]

    def send_frame(self, frame: Frame) -> bool: ...


class NetworkStack:
    """Port-based demultiplexing on one interface."""

    def __init__(self, sim: Simulator, interface: Interface) -> None:
        self.sim = sim
        self.interface = interface
        self.address = interface.address
        self._ports: Dict[int, Callable[[Frame], None]] = {}
        #: port -> its "no listener" trace text, one string per port.
        self._unbound_texts: Dict[int, str] = {}
        interface.on_receive = self._receive
        self.rx_frames = 0
        self.rx_unbound = 0
        self.tx_frames = 0
        # Registry wiring: one aggregate counter for frames nobody was
        # listening for (a misconfiguration smell) plus a per-node probe.
        metrics = sim.metrics
        self._m_rx_unbound = metrics.counter("net.rx_unbound")
        metrics.register_probe(f"net.{self.address}", lambda: {
            "rx_frames": self.rx_frames,
            "rx_unbound": self.rx_unbound,
            "tx_frames": self.tx_frames,
            "ports": len(self._ports),
        })

    # ------------------------------------------------------------------
    def bind(self, port: int, handler: Callable[[Frame], None]) -> Callable[[], None]:
        """Bind ``handler`` to ``port``; returns an unbind function."""
        if port < 0:
            raise ConfigurationError(f"negative port {port}")
        if port in self._ports:
            raise NetworkError(f"port {port} already bound on {self.address}")
        self._ports[port] = handler

        def unbind() -> None:
            if self._ports.get(port) is handler:
                del self._ports[port]

        return unbind

    def is_bound(self, port: int) -> bool:
        return port in self._ports

    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any = None, payload_bytes: int = 0,
             port: int = 0, kind: str = "data") -> bool:
        """Send one frame out the interface; False when the NIC refuses it."""
        frame = Frame(self.address, dst, payload, payload_bytes, kind, port,
                      self.sim.next_seq("frame"))
        ok = self.interface.send_frame(frame)
        if ok:
            self.tx_frames += 1
        return ok

    def broadcast(self, payload: Any = None, payload_bytes: int = 0,
                  port: int = 0, kind: str = "mgmt") -> bool:
        return self.send(BROADCAST, payload, payload_bytes, port, kind)

    # ------------------------------------------------------------------
    def _receive(self, frame: Frame) -> None:
        if frame.dst != self.address and frame.dst != BROADCAST:
            return  # not for us: an interface may carry others' frames
        if frame.src == self.address:
            return  # our own broadcast echoed back
        self.rx_frames += 1
        handler = self._ports.get(frame.port)
        if handler is None:
            self.rx_unbound += 1
            self._m_rx_unbound.add()
            if self.sim.tracer.enabled:
                text = self._unbound_texts.get(frame.port)
                if text is None:
                    text = self._unbound_texts[frame.port] = \
                        f"no listener on port {frame.port}"
                self.sim.trace("stack.unbound", self.address, text)
            return
        handler(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NetworkStack {self.address} ports={sorted(self._ports)}>"
