"""Wireless network interface: MAC + energy accounting + convenience API.

A :class:`WirelessNIC` is what a device plugs into its network stack: it
owns a :class:`repro.phys.mac.CsmaMac`, meters energy per airtime second,
and offers a payload-level ``send`` so upper layers never hand-build
frames.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..env.radio import RateMode
from ..kernel.scheduler import Simulator
from ..net.addresses import BROADCAST
from ..net.frames import Frame
from .mac import CsmaMac, WirelessMedium
from .power import Battery, EnergyMeter


class WirelessNIC:
    """One 2.4 GHz interface attached to a shared medium.

    Args:
        sim: simulator.
        medium: the deployment's shared medium.
        address: station address (must match the owning device's placement).
        channel: 2.4 GHz channel.
        battery: optional battery to drain; None means mains-powered.
        fixed_rate: pin the PHY rate (rate adaptation otherwise).
        tx_power_dbm / queue_limit / retry_limit: passed to the MAC.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium, address: str,
                 channel: int = 6, battery: Optional[Battery] = None,
                 fixed_rate: Optional[RateMode] = None,
                 tx_power_dbm: float = 15.0, queue_limit: int = 64,
                 retry_limit: int = 7) -> None:
        self.sim = sim
        self.medium = medium
        self.address = address
        self.mac = CsmaMac(sim, medium, address, channel=channel,
                           tx_power_dbm=tx_power_dbm, fixed_rate=fixed_rate,
                           queue_limit=queue_limit, retry_limit=retry_limit)
        self.energy = EnergyMeter(sim, battery)
        self.mac.on_receive = self._on_mac_receive
        self.on_receive: Optional[Callable[[Frame], None]] = None
        self._accounted_busy = 0.0
        self._reported_dead = False

    # ------------------------------------------------------------------
    @property
    def dead(self) -> bool:
        """True once the battery is drained: the radio is off the air.

        A dead radio neither transmits nor receives — the physical layer
        failing out from under every layer above it, exactly the coupling
        the LPC model exists to surface.
        """
        if self.energy.battery is None or not self.energy.battery.empty:
            return False
        if not self._reported_dead:
            self._reported_dead = True
            self.mac.receiving_disabled = True
            self.sim.issue("power", self.address,
                           "radio dead: battery drained mid-operation")
        return True

    @property
    def channel(self) -> int:
        return self.mac.channel

    def set_channel(self, channel: int) -> None:
        self.mac.set_channel(channel)

    def send(self, dst: str, payload=None, payload_bytes: int = 0,
             kind: str = "data", port: int = 0) -> bool:
        """Queue one frame to ``dst``; returns False on queue overflow."""
        frame = Frame(self.address, dst, payload, payload_bytes, kind, port,
                      self.sim.next_seq("frame"))
        return self.send_frame(frame)

    def send_frame(self, frame: Frame) -> bool:
        if self.dead:
            return False
        accepted = self.mac.send(frame)
        self._account_energy()
        return accepted

    def broadcast(self, payload=None, payload_bytes: int = 0,
                  kind: str = "mgmt", port: int = 0) -> bool:
        """Broadcast one frame to every co-channel station in range."""
        return self.send(BROADCAST, payload, payload_bytes, kind, port)

    # ------------------------------------------------------------------
    def _on_mac_receive(self, frame: Frame) -> None:
        # Receive airtime energy: approximate with the frame airtime at the
        # base rate (the meter's purpose is comparative, not calorimetric).
        self.energy.account("rx", frame.airtime(1e6))
        if self.on_receive is not None:
            self.on_receive(frame)

    def _account_energy(self) -> None:
        busy = self.mac.stats["busy_time"]
        delta = busy - self._accounted_busy
        if delta > 0:
            self.energy.account("tx", delta)
            self._accounted_busy = busy

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The underlying MAC statistics dict."""
        self._account_energy()
        return self.mac.stats

    def goodput_frames(self) -> int:
        """Frames successfully delivered to their unicast destinations."""
        return int(self.mac.stats["tx_success"])

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WirelessNIC {self.address} ch{self.channel}>"
