"""Scenario builders shared by the experiments and examples.

:func:`projector_room` assembles the paper's complete deployment — world,
2.4 GHz medium, Jini-style lookup on a hub machine, the presenter's
laptop, the Aroma Adapter with its projector, and discovery clients —
exactly once, so every experiment measures the same system the examples
demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..discovery.client import ServiceDiscoveryClient
from ..discovery.protocol import AnnouncingRegistry, RegistryLocator
from ..discovery.registry import LookupService, REGISTRY_PORT
from ..env.radio import PropagationModel, RateMode
from ..env.world import World
from ..kernel.scheduler import Simulator
from ..net.addresses import BROADCAST
from ..net.frames import Frame
from ..phys.devices import AromaAdapter, Device, DigitalProjector, Laptop
from ..phys.mac import CsmaMac, WirelessMedium
from ..services.projector import SmartProjector, SmartProjectorClient


@dataclass
class Room:
    """One assembled deployment."""

    sim: Simulator
    world: World
    medium: WirelessMedium
    hub: Device
    registry: LookupService
    announcer: AnnouncingRegistry
    laptop: Laptop
    adapter: AromaAdapter
    projector: DigitalProjector
    smart: SmartProjector
    adapter_discovery: ServiceDiscoveryClient
    laptop_discovery: ServiceDiscoveryClient
    client: SmartProjectorClient


def projector_room(seed: int = 0, *, trace: bool = True,
                   width: float = 40.0, height: float = 25.0,
                   laptop_pos: Tuple[float, float] = (8.0, 8.0),
                   adapter_pos: Tuple[float, float] = (30.0, 18.0),
                   hub_pos: Tuple[float, float] = (20.0, 12.0),
                   channel: int = 6,
                   fixed_rate: Optional[RateMode] = None,
                   use_session_leases: bool = True,
                   session_lease_s: float = 60.0,
                   registration_lease_s: float = 60.0,
                   announce_interval: float = 5.0,
                   viewer_fps: float = 15.0,
                   register: bool = True,
                   culling: bool = True,
                   trace_mode: str = "head",
                   trace_capacity: Optional[int] = None) -> Room:
    """Build the Smart Projector room.

    When ``register`` is True the adapter registers both services as soon
    as it discovers the lookup service (a few hundred milliseconds in).
    ``culling=False`` makes the medium scan every station exhaustively —
    outcome-identical, used to validate the spatial-grid fast path.
    ``trace_mode`` / ``trace_capacity`` pass straight through to :class:`Simulator` so the dispatch-matrix oracle can run
    the same room under every trace mode.
    """
    sim = Simulator(seed=seed, trace=trace, trace_capacity=trace_capacity,
                    trace_mode=trace_mode)
    world = World(width, height)
    medium = WirelessMedium(sim, world, culling=culling)

    hub = Device(sim, world, "hub", hub_pos, medium=medium, channel=channel,
                 fixed_rate=fixed_rate)
    laptop = Laptop(sim, world, "laptop", laptop_pos, medium,
                    channel=channel, fixed_rate=fixed_rate)
    adapter = AromaAdapter(sim, world, "adapter", adapter_pos, medium,
                           channel=channel, fixed_rate=fixed_rate)
    projector = DigitalProjector(sim, world, "beamer",
                                 (adapter_pos[0] + 1.0, adapter_pos[1]))
    adapter.connect_projector(projector)

    registry = LookupService(sim, hub, "registry")
    announcer = AnnouncingRegistry(
        sim, hub, RegistryLocator("registry", hub.name, REGISTRY_PORT),
        announce_interval=announce_interval)

    smart = SmartProjector(sim, adapter,
                           use_session_leases=use_session_leases,
                           session_lease_s=session_lease_s,
                           viewer_fps=viewer_fps)

    adapter_discovery = ServiceDiscoveryClient(sim, adapter)
    if register:
        adapter_discovery.discover(
            lambda _loc: smart.register(adapter_discovery,
                                        registration_lease_s))

    laptop_discovery = ServiceDiscoveryClient(sim, laptop)
    laptop_discovery.discover()
    client = SmartProjectorClient(sim, laptop, laptop_discovery)

    return Room(sim, world, medium, hub, registry, announcer, laptop,
                adapter, projector, smart, adapter_discovery,
                laptop_discovery, client)


# ---------------------------------------------------------------------------
# Interferer traffic for the density experiments
# ---------------------------------------------------------------------------

@dataclass
class InterfererPair:
    sender: Device
    receiver: Device


def interferer_field(room: Room, pairs: int, *,
                     channel_plan: str = "cochannel",
                     frame_bytes: int = 1000,
                     frames_per_second: float = 50.0,
                     seed_stream: str = "interferers") -> List[InterfererPair]:
    """Drop ``pairs`` chattering device pairs into the room.

    ``channel_plan``: ``"cochannel"`` puts everyone on the room's channel
    (the paper's worry), ``"spread"`` distributes pairs over the 1/6/11
    non-overlapping plan (the mitigation).
    """
    from ..env.spectrum import NON_OVERLAPPING

    sim = room.sim
    rng = sim.rng(seed_stream)
    out: List[InterfererPair] = []
    for i in range(pairs):
        if channel_plan == "cochannel":
            channel = room.laptop.nic.channel
        elif channel_plan == "spread":
            channel = NON_OVERLAPPING[i % len(NON_OVERLAPPING)]
        else:
            raise ValueError(f"unknown channel plan {channel_plan!r}")
        ax, ay = rng.uniform(0, room.world.width), rng.uniform(0, room.world.height)
        bx = min(room.world.width, ax + rng.uniform(1.0, 5.0))
        by = min(room.world.height, ay + rng.uniform(1.0, 5.0))
        sender = Device(sim, room.world, f"ifs-{i}", (ax, ay),
                        medium=room.medium, channel=channel)
        receiver = Device(sim, room.world, f"ifr-{i}", (bx, by),
                          medium=room.medium, channel=channel)
        interval = 1.0 / frames_per_second
        # Stagger the start so the pairs don't phase-lock.
        sim.every(interval,
                  lambda s=sender, r=receiver: s.nic.send(
                      r.name, None, frame_bytes),
                  start=float(rng.uniform(0, interval)))
        out.append(InterfererPair(sender, receiver))
    return out


# ---------------------------------------------------------------------------
# Broadcast-heavy scale workload (audibility-culling benchmark + equivalence)
# ---------------------------------------------------------------------------

@dataclass
class BroadcastRoom:
    """A large flat population of broadcasting stations."""

    sim: Simulator
    world: World
    medium: WirelessMedium
    macs: List[CsmaMac]
    deliveries: List[Tuple[float, str, str]]


def broadcast_room(stations: int, *, seed: int = 7, culling: bool = True,
                   width: float = 1200.0, height: float = 1200.0,
                   exponent: float = 4.0, sigma_db: float = 2.0,
                   tx_power_dbm: float = 0.0, channel: int = 6,
                   frames_per_second: float = 2.0,
                   frame_bytes: int = 66,
                   trace: bool = False) -> BroadcastRoom:
    """Scatter ``stations`` broadcasting MACs over a large world.

    The geometry is deliberately sparse (high path-loss exponent, modest
    transmit power, kilometre-scale world) so each sender is audible to a
    small neighbourhood — the regime where audibility culling pays.  Every
    delivered frame is appended to ``deliveries`` as ``(time, src, rx)``,
    giving the equivalence tests a byte-comparable outcome log.
    """
    sim = Simulator(seed=seed, trace=trace)
    world = World(width, height)
    propagation = PropagationModel(exponent=exponent,
                                   shadowing_sigma_db=sigma_db,
                                   rng=sim.rng("radio.shadowing"))
    medium = WirelessMedium(sim, world, propagation=propagation,
                            culling=culling)

    placement_rng = sim.rng("scale.placement")
    traffic_rng = sim.rng("scale.traffic")
    deliveries: List[Tuple[float, str, str]] = []
    macs: List[CsmaMac] = []
    for i in range(stations):
        name = f"st-{i}"
        world.place(name, (placement_rng.uniform(0, width),
                           placement_rng.uniform(0, height)))
        mac = CsmaMac(sim, medium, name, channel=channel,
                      tx_power_dbm=tx_power_dbm)
        mac.on_receive = (lambda frame, rx=name:
                          deliveries.append((sim.now, frame.src, rx)))
        macs.append(mac)

    interval = 1.0 / frames_per_second
    for mac in macs:
        sim.every(interval,
                  lambda m=mac: m.send(Frame(m.address, BROADCAST,
                                             payload_bytes=frame_bytes)),
                  start=float(traffic_rng.uniform(0, interval)))
    return BroadcastRoom(sim, world, medium, macs, deliveries)


def presentation_workflow(room: Room,
                          on_done: Optional[Callable[[bool], None]] = None,
                          start_delay: float = 2.0) -> None:
    """Run the full happy-path presenter workflow (all eight steps in
    order) via callbacks — used by experiments that need a projecting
    room without simulating user error."""
    client = room.client

    def fail(reason):
        if on_done is not None:
            on_done(False)

    def step_discover() -> None:
        client.discover_services(lambda ok, v: step_acquire_p()
                                 if ok else fail(v))

    def step_acquire_p() -> None:
        client.acquire_projection(lambda ok, v: step_acquire_c()
                                  if ok else fail(v))

    def step_acquire_c() -> None:
        client.acquire_control(lambda ok, v: step_vnc() if ok else fail(v))

    def step_vnc() -> None:
        client.start_vnc_server()
        client.power_projector(True, lambda ok, v: step_start()
                               if ok else fail(v))

    def step_start() -> None:
        client.start_projection(lambda ok, v: (on_done(ok)
                                               if on_done else None))

    room.sim.schedule(start_delay, step_discover)
