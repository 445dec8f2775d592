"""Multi-cell radio workloads: E11's grid of independent rooms.

A row of dense broadcast "rooms" spaced kilometres apart — the paper's
physically scoped cells made literal.  The same :class:`CellLayout`
drives two constructions:

* :func:`cell_rooms` — the whole grid in **one** simulator, the culled
  single-process oracle;
* :func:`cell_room` — one room on its own simulator, the unit E11 runs
  as one task of the sweep pool.

Byte-identity between the two rests on three legs.  All per-station
randomness (positions, traffic phases) is drawn **up front** from a
standalone :class:`~repro.kernel.random.RandomStreams`, so one room can
be instantiated without consuming anyone else's draws.  The medium runs
with ``per_station_rng`` (delivery/fading outcomes depend only on each
receiver's own history) and ``interference_radius_m`` (transmissions
further apart than the radius provably never interact).  And
:func:`cell_layout` refuses any spacing that does not clear that radius,
so no two rooms can ever interact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..env.radio import PropagationModel
from ..env.world import World
from ..kernel.errors import ExperimentError
from ..kernel.random import RandomStreams
from ..kernel.scheduler import Simulator
from ..net.addresses import BROADCAST
from ..net.frames import Frame
from ..phys.mac import CsmaMac, WirelessMedium
from ..telemetry.streaming import StreamingAggregator
from ..telemetry.summary import merge_summaries
from .harness import ExperimentResult, experiment
from .sweeps import sweep


@dataclass(frozen=True)
class CellLayout:
    """A fully pre-drawn multi-cell workload: pure data, no simulator.

    ``positions[i]``/``offsets[i]`` are global-index-ordered, so any
    subset of stations can be instantiated without touching the draws of
    the rest — the property running one room per simulator depends on.
    """

    seed: int
    cells: int
    stations_per_cell: int
    cell_width_m: float
    spacing_m: float
    exponent: float
    sigma_db: float
    tx_power_dbm: float
    channel: int
    frames_per_second: float
    frame_bytes: int
    interference_radius_m: float
    width: float
    height: float
    positions: Tuple[Tuple[float, float], ...]
    offsets: Tuple[float, ...]

    @property
    def stations(self) -> int:
        return self.cells * self.stations_per_cell

    @property
    def interval(self) -> float:
        return 1.0 / self.frames_per_second

    def name_of(self, index: int) -> str:
        return f"cg-{index}"

    def index_of(self, name: str) -> int:
        return int(name[3:])

    def room_of(self, index: int) -> int:
        return index // self.stations_per_cell


def cell_layout(cells: int = 4, stations_per_cell: int = 50, *,
                seed: int = 7, cell_width_m: float = 30.0,
                spacing_m: float = 5000.0, exponent: float = 4.0,
                sigma_db: float = 2.0, tx_power_dbm: float = 0.0,
                channel: int = 6, frames_per_second: float = 2.0,
                frame_bytes: int = 66,
                interference_radius_m: Optional[float] = None) -> CellLayout:
    """Draw a ``cells`` x ``stations_per_cell`` grid of dense rooms.

    Rooms are ``cell_width_m`` squares spaced ``spacing_m`` apart along
    x — far enough that no pair of stations in different rooms can ever
    interact at the default interference radius (three room widths).
    The medium's spatial grid sizes its cells from the placed
    population, so one room alone gets larger cells than the whole grid
    does; grid queries are exact and come back in insertion order, so
    the cell size changes what a query costs, never what it returns.
    """
    if interference_radius_m is None:
        interference_radius_m = 3.0 * cell_width_m
    if spacing_m <= interference_radius_m + 2.0 * cell_width_m:
        raise ValueError(
            f"spacing {spacing_m} does not clear the interference radius "
            f"{interference_radius_m}; rooms would couple")
    streams = RandomStreams(seed)
    placement = streams.stream("cellgrid.placement")
    traffic = streams.stream("cellgrid.traffic")
    interval = 1.0 / frames_per_second
    positions: List[Tuple[float, float]] = []
    offsets: List[float] = []
    for i in range(cells * stations_per_cell):
        x0 = (i // stations_per_cell) * spacing_m
        positions.append((x0 + float(placement.uniform(0, cell_width_m)),
                          float(placement.uniform(0, cell_width_m))))
    for i in range(cells * stations_per_cell):
        offsets.append(float(traffic.uniform(0, interval)))
    return CellLayout(
        seed=seed, cells=cells, stations_per_cell=stations_per_cell,
        cell_width_m=cell_width_m, spacing_m=spacing_m, exponent=exponent,
        sigma_db=sigma_db, tx_power_dbm=tx_power_dbm, channel=channel,
        frames_per_second=frames_per_second, frame_bytes=frame_bytes,
        interference_radius_m=float(interference_radius_m),
        width=(cells - 1) * spacing_m + cell_width_m + 1.0,
        height=cell_width_m + 1.0,
        positions=tuple(positions), offsets=tuple(offsets))


@dataclass
class CellRooms:
    """One assembled (sub)grid: a simulator plus its stations and log."""

    sim: Simulator
    world: World
    medium: WirelessMedium
    macs: List[CsmaMac]
    deliveries: List[Tuple[float, str, str]]
    aggregator: StreamingAggregator
    indices: List[int] = field(default_factory=list)


def _assemble(sim: Simulator, layout: CellLayout,
              indices: Sequence[int]) -> CellRooms:
    """Instantiate ``indices`` (global order) of ``layout`` on ``sim``.

    The world always spans the *full* grid extent, so oracle and
    per-room geometry agree exactly.
    """
    aggregator = StreamingAggregator()
    aggregator.attach(sim)
    world = World(layout.width, layout.height)
    propagation = PropagationModel(exponent=layout.exponent,
                                   shadowing_sigma_db=layout.sigma_db,
                                   rng=sim.rng("radio.shadowing"))
    medium = WirelessMedium(
        sim, world, propagation=propagation, culling=True,
        per_station_rng=True,
        interference_radius_m=layout.interference_radius_m)
    deliveries: List[Tuple[float, str, str]] = []
    macs: List[CsmaMac] = []
    for i in indices:
        name = layout.name_of(i)
        world.place(name, layout.positions[i])
        mac = CsmaMac(sim, medium, name, channel=layout.channel,
                      tx_power_dbm=layout.tx_power_dbm)
        mac.on_receive = (lambda frame, rx=name:
                          deliveries.append((sim.now, frame.src, rx)))
        macs.append(mac)
    frame_bytes = layout.frame_bytes
    for i, mac in zip(indices, macs):
        sim.every(layout.interval,
                  lambda m=mac: m.send(Frame(
                      m.address, BROADCAST, payload_bytes=frame_bytes,
                      frame_id=sim.next_seq("frame"))),
                  start=layout.offsets[i])
    return CellRooms(sim, world, medium, macs, deliveries, aggregator,
                     indices=list(indices))


def cell_rooms(layout: CellLayout, *, trace: bool = False) -> CellRooms:
    """The whole grid in one simulator — the single-process oracle."""
    sim = Simulator(seed=layout.seed, trace=trace)
    return _assemble(sim, layout, range(layout.stations))


def cell_room(layout: CellLayout, room: int) -> CellRooms:
    """Room ``room`` of the grid alone on its own simulator."""
    first = room * layout.stations_per_cell
    sim = Simulator(seed=layout.seed, trace=False)
    return _assemble(sim, layout,
                     range(first, first + layout.stations_per_cell))


def deliveries_by_room(layout: CellLayout,
                       deliveries: Sequence[Tuple[float, str, str]],
                       ) -> Dict[int, List[Tuple[float, str, str]]]:
    """Group a delivery log by receiving room, order preserved.

    Room-relative order is the invariant running rooms apart maintains;
    the global interleaving of *different* rooms' same-time deliveries is
    an engine artefact with no observable meaning.
    """
    room_of = {layout.name_of(i): layout.room_of(i)
               for i in range(layout.stations)}
    out: Dict[int, List[Tuple[float, str, str]]] = {}
    for entry in deliveries:
        out.setdefault(room_of[entry[2]], []).append(entry)
    return out


# ---------------------------------------------------------------------------
# E11 — the multi-cell experiment (``repro run E11 --shards N``)
# ---------------------------------------------------------------------------

def _room_row(seed: int, room: int, cells: int, stations_per_cell: int,
              horizon: float) -> Dict[str, Any]:
    """One E11 sweep task: run room ``room`` to ``horizon``, count it.

    The row needs a delivery count and the set of senders heard, not the
    room's delivery log: the count comes from the MACs' receive counters
    and each delivery only adds its sender to a set.
    """
    layout = cell_layout(cells=cells, stations_per_cell=stations_per_cell,
                         seed=seed)
    rooms = cell_room(layout, room)
    senders: Set[str] = set()
    heard = senders.add
    for mac in rooms.macs:
        mac.on_receive = lambda frame: heard(frame.src)
    rooms.sim.run(until=horizon)
    return {"stations": layout.stations_per_cell,
            "deliveries": sum(mac.stats["rx_frames"] for mac in rooms.macs),
            "senders": len(senders),
            "telemetry": rooms.aggregator.summary()}


@experiment("E11")
def e11_sharded_cells(seed: int = 7, shards: int = 1, cells: int = 4,
                      stations_per_cell: int = 25,
                      horizon: float = 2.0) -> ExperimentResult:
    """Disjoint cell grid, one sweep task per room — same table either way.

    Each room runs on its own simulator as one task of the sweep pool,
    across ``shards`` worker processes (``shards == 1`` runs the rooms
    one after another in this process).  The per-room rows and the
    merged telemetry are byte-identical for every value of ``shards`` —
    parallel execution is an engine choice, not a model change.
    """
    if not 1 <= shards <= cells:
        raise ExperimentError(
            f"shards must be in 1..{cells} (one cell is the smallest "
            f"interference-closed unit), got {shards!r}")
    result = sweep(
        "E11", "sharded multi-cell broadcast grid",
        partial(_room_row, cells=cells, stations_per_cell=stations_per_cell,
                horizon=horizon),
        [{"room": room} for room in range(cells)], seeds=(seed,),
        columns=["room", "stations", "deliveries", "senders"],
        workers=shards, cache=False)
    result.telemetry = [merge_summaries(result.telemetry)]
    mode = "processes" if result.meta["parallel"] else "single-process"
    events = result.telemetry[0]["events_executed"]
    result.notes.append(
        f"{mode} x{shards} over {horizon:g}s, {events} events; per-room "
        f"rows are byte-identical for every shard count")
    result.meta.update(mode=mode, shards=shards, events=events)
    return result
