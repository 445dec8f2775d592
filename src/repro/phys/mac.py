"""The shared wireless medium and a CSMA/CA-style MAC.

Together with :mod:`repro.env.radio` this is the executable version of the
paper's Aroma wireless substrate (a 1999-era 2.4 GHz 802.11-class LAN).
The model is an "802.11b-lite":

* **Medium** — tracks every in-flight transmission.  Interference is
  mutual: any two transmissions that overlap in time interfere, weighted
  by their spectral overlap (:func:`repro.env.spectrum.overlap_factor`).
  Delivery is decided at transmission end from the receiver's SINR through
  the rate's frame-error-rate curve.  Hidden terminals emerge naturally:
  carrier sense happens at the *sender*, SINR at the *receiver*.
* **CSMA/CA MAC** — DIFS + carrier sense + binary-exponential backoff with
  retry limit.  Unicast success is observed through a "genie ACK": the
  sender learns the receiver-side outcome after SIFS + ACK airtime without
  putting the ACK on the air (a standard simulator simplification that
  preserves timing and loss shape while halving event count).

Timing constants follow 802.11b long-preamble numbers.
"""

from __future__ import annotations

from collections import deque
from math import log10 as _math_log10
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..env.linkcache import LinkCache
from ..env.radio import (
    NOISE_FLOOR_DBM,
    RATES,
    PropagationModel,
    RateMode,
    best_rate,
    interference_sum_mw,
    sinr_from_mw,
)
from ..env.spatialindex import MIN_SEPARATION_M, SpatialGrid
from ..env.spectrum import overlap_factor, validate_channel
from ..env.world import World
from ..kernel.errors import ConfigurationError, NetworkError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator
from ..net.addresses import BROADCAST
from ..net.frames import HEADER_BYTES, Frame

#: 802.11b long-preamble PLCP duration (s).
PREAMBLE_S: float = 192e-6
#: Slot time (s).
SLOT_S: float = 20e-6
#: Short interframe space (s).
SIFS_S: float = 10e-6
#: DCF interframe space (s).
DIFS_S: float = 50e-6
#: ACK frame airtime at the 2 Mb/s control rate incl. preamble (s).
ACK_S: float = PREAMBLE_S + (14 * 8) / 2e6

#: Genie-ACK turnaround: the one delay every unicast frame schedules.
ACK_TURNAROUND_S: float = SIFS_S + ACK_S

#: Transmission-end priority as a plain int for the scheduler fast path.
_MEDIUM_PRI: int = int(Priority.MEDIUM)

#: Interferer count at which the SINR sum switches from a scalar loop to
#: one vectorised NumPy pass (array setup only pays off beyond a handful).
_VECTORISE_MIN: int = 8

#: Audibility allowance for per-frame Rayleigh fading, dB.  The fading
#: boost is ``10*log10(Exponential(1))``; the largest value a float64
#: uniform can produce is ~28.7 dB, so a 30 dB margin makes it *impossible*
#: for fading to rescue a station culled as inaudible.
FADE_MARGIN_DB: float = 30.0

def _compute_decode_floor_sinr_db() -> float:
    """Highest SINR (dB) at which decoding is *certain* to fail.

    Below this SINR the base-rate FER of the smallest possible frame
    (header only) is exactly 1.0 in float64, so ``rng.random() >= fer``
    can never succeed: skipping the decode attempt for such a station is
    outcome-identical to evaluating it.  The base 1 Mb/s mode is the
    binding case (largest processing gain); interference only lowers SINR
    further, so a noise-only bound is conservative for every receiver.
    """
    mode = RATES[0]
    sinr = 0.0
    while sinr > -40.0 and mode.fer(sinr, HEADER_BYTES) < 1.0:
        sinr -= 0.5
    return sinr


# Computed eagerly at import time: the old lazy ``global`` memo was a
# module-state write on the fork-reachable path (LPC301); the value is a
# pure function of the rate table, so there is nothing to defer.
_DECODE_FLOOR_SINR_DB: float = _compute_decode_floor_sinr_db()


def _decode_floor_sinr_db() -> float:
    return _DECODE_FLOOR_SINR_DB


class Transmission:
    """One in-flight frame on the medium."""

    __slots__ = ("sender", "frame", "channel", "rate", "power_dbm",
                 "start", "end", "interferers", "span")

    def __init__(self, sender: "CsmaMac", frame: Frame, channel: int,
                 rate: RateMode, power_dbm: float, start: float, end: float) -> None:
        self.sender = sender
        self.frame = frame
        self.channel = channel
        self.rate = rate
        self.power_dbm = power_dbm
        self.start = start
        self.end = end
        #: transmissions that overlapped this one in time at any point.
        self.interferers: List["Transmission"] = []
        #: causal span covering the airtime (None with tracing disabled).
        self.span = None


class ReceiveTable:
    """One sender's receive table: who can hear it, and how well.

    Cached per sender and keyed like the audible set it carries: ``key``
    is ``(topology epoch, config epoch)`` and ``tx_power`` the sender's
    power when the table was built; ``radius`` is the culling radius it
    was built with (``inf`` when that radius covers the whole world).
    ``entries`` are ``(mac, signal)`` pairs of the audible receivers in
    attach order; they are stored as ``macs``, their addresses ``names``,
    and ``signals[i]``, the received power of ``macs[i]`` in dBm,
    evaluated as ``tx_power - loss - shadow`` like
    :meth:`LinkCache.rx_power_dbm`.  :meth:`fers` memoises every
    receiver's frame error rate at zero interference, so a frame with no
    in-band overlap and no fading costs each receiver one delivery draw.
    When only other stations moved and none of them can change the
    table, the medium re-keys it rather than rebuilding it (see
    docs/performance.md, "Receive tables" and "Moving worlds").
    """

    __slots__ = ("key", "tx_power", "radius", "macs", "names", "signals",
                 "_fers")

    def __init__(self, key: Tuple[int, int], tx_power: float, radius: float,
                 entries: List[Tuple["CsmaMac", float]]) -> None:
        self.key = key
        self.tx_power = tx_power
        self.radius = radius
        self.macs = tuple(mac for mac, _ in entries)
        self.names = frozenset(mac.address for mac in self.macs)
        self.signals = tuple(signal for _, signal in entries)
        self._fers: Dict[Tuple[RateMode, int], Tuple[float, ...]] = {}

    def fers(self, rate: RateMode, wire_bytes: int) -> Tuple[float, ...]:
        """Per-receiver FER at zero interference, parallel to ``macs``:
        the expression :meth:`WirelessMedium._decode` evaluates."""
        fers = self._fers.get((rate, wire_bytes))
        if fers is None:
            fers = tuple(rate.fer(sinr_from_mw(10.0 ** (signal / 10.0), 0.0),
                                  wire_bytes) for signal in self.signals)
            self._fers[(rate, wire_bytes)] = fers
        return fers


class WirelessMedium:
    """The shared 2.4 GHz medium for one deployment.

    With ``culling=True`` (the default) every per-frame scan — broadcast
    delivery, promiscuous overhearing, carrier sense — iterates only the
    sender's **audible set**: the stations whose cached link budget can
    put received power above the weakest relevant threshold (the lower of
    carrier-sense and base-rate decode sensitivity, credited with a
    conservative fast-fading margin when fading is on).  Audible sets are
    found through a :class:`~repro.env.spatialindex.SpatialGrid` radius
    query and cached per (sender, topology epoch, config epoch) in a
    :class:`ReceiveTable`, so the cost of a transmission tracks physical
    neighbours, not population.
    ``culling=False`` keeps the exhaustive scan over every station — the
    reference mode the equivalence tests hold the grid path against
    (outcomes are byte-identical either way; see docs/performance.md).
    """

    def __init__(self, sim: Simulator, world: World,
                 propagation: Optional[PropagationModel] = None,
                 fast_fading: bool = False, culling: bool = True,
                 grid_cell_m: Optional[float] = None,
                 per_station_rng: bool = False,
                 interference_radius_m: Optional[float] = None) -> None:
        self.sim = sim
        self.world = world
        self.propagation = propagation or PropagationModel(
            rng=sim.rng("radio.shadowing"))
        #: cache of per-pair link attenuation, evicted per moved entity;
        #: the single biggest win in stationary dense-medium sweeps.
        self.link_cache = LinkCache(world, self.propagation)
        #: per-frame Rayleigh fading on the wanted signal — models a busy
        #: multipath room where even a static link flutters.  Off by
        #: default (log-normal shadowing alone keeps links stable, which
        #: most experiments want).
        self.fast_fading = fast_fading
        #: spatial audibility culling (see class docstring).
        self.culling = culling
        self._grid = SpatialGrid(world, cell_size=grid_cell_m)
        self._macs: Dict[str, "CsmaMac"] = {}
        self._active: List[Transmission] = []
        self._rng = sim.rng("radio.delivery")
        self._fading_rng = sim.rng("radio.fading")
        #: draw delivery/fading randomness from per-receiver streams
        #: (``radio.delivery.<addr>``) instead of the two shared streams.
        #: Outcomes then depend only on each receiver's own frame history,
        #: so a world split across simulators (E11's rooms, one each)
        #: consumes randomness identically to the single-process oracle.
        self.per_station_rng = per_station_rng
        self._rng_by_rx: Dict[str, np.random.Generator] = {}
        self._fading_rng_by_rx: Dict[str, np.random.Generator] = {}
        #: hard interaction radius between *senders*: two transmissions
        #: only interfere (and carrier-sense each other) when their
        #: senders are within this distance.  ``None`` keeps the exact
        #: physics where every active transmission contributes.  Set it to
        #: at least twice the audible radius and the cut only removes
        #: terms provably below any receiver's noise resolution — the
        #: contract sharded configs rely on for oracle byte-identity.
        self.interference_radius_m = interference_radius_m
        #: bumped on attach / channel retune / promiscuous toggle; keys the
        #: station-list, per-channel-partition and audible-set caches.
        self._config_epoch = 0
        self._attach_order: Dict[str, int] = {}
        self._stations_cache: Optional[List[str]] = None
        self._partitions: Optional[Dict[int, List["CsmaMac"]]] = None
        self._promisc_cache: Optional[Tuple["CsmaMac", ...]] = None
        self._caches_key = (-1, -1)
        #: sender address -> its receive table (culling mode only).
        self._tables: Dict[str, ReceiveTable] = {}
        #: ``_movers`` results for the current topology epoch, by the
        #: epoch a table was built at.
        self._movers_epoch = -1
        self._movers_by_since: Dict[int, Tuple[List[str], FrozenSet[str],
                                               np.ndarray]] = {}
        self._min_cs_dbm = float("inf")
        self._decode_floor_dbm = NOISE_FLOOR_DBM + _decode_floor_sinr_db()
        # Medium health lives in the per-simulator registry; ``unique=True``
        # because tests legitimately run several media on one simulator.
        metrics = sim.metrics
        self._m_transmissions = metrics.counter("medium.transmissions",
                                                unique=True)
        self._m_deliveries = metrics.counter("medium.deliveries", unique=True)
        self._m_decode_failures = metrics.counter("medium.decode_failures",
                                                  unique=True)
        # Culling health: how many stations the audible sets admit vs skip,
        # and how often a set is rebuilt vs served from cache.  Counted in
        # both modes (the exhaustive scan applies the same predicate), so
        # equivalence runs agree on these too.
        self._m_cull_audible = metrics.counter("medium.culling.audible",
                                               unique=True)
        self._m_cull_culled = metrics.counter("medium.culling.culled",
                                              unique=True)
        self._m_cull_builds = metrics.counter("medium.culling.set_builds",
                                              unique=True)
        self._m_cull_reuses = metrics.counter("medium.culling.set_reuses",
                                              unique=True)
        metrics.register_probe("medium", lambda: {
            "active_transmissions": len(self._active),
            "stations": len(self._macs),
            "channel_airtime": {str(ch): t for ch, t
                                in sorted(self.channel_airtime.items())},
            "culling": self.culling_stats(),
        })
        #: cumulative airtime per channel — what a passive scan observes.
        self.channel_airtime: Dict[int, float] = {}
        # Transmission ends are fire-and-forget kernel timers; ``transmit``
        # is the hottest producer, so the entry point is resolved once.
        self._schedule_bound = sim.schedule_bound

    # Back-compat attribute names; the counters are the source of truth.
    @property
    def total_transmissions(self) -> int:
        return int(self._m_transmissions.value)

    @property
    def total_deliveries(self) -> int:
        return int(self._m_deliveries.value)

    @property
    def total_decode_failures(self) -> int:
        return int(self._m_decode_failures.value)

    # ------------------------------------------------------------------
    def attach(self, mac: "CsmaMac") -> None:
        if mac.address in self._macs:
            raise ConfigurationError(f"MAC {mac.address!r} already attached")
        if mac.address not in self.world:
            raise ConfigurationError(
                f"{mac.address!r} has no placement in the world; place the "
                "device before attaching its NIC")
        self._attach_order[mac.address] = len(self._macs)
        self._macs[mac.address] = mac
        if mac.cs_threshold_dbm < self._min_cs_dbm:
            self._min_cs_dbm = mac.cs_threshold_dbm
        self.notify_config_change()

    def notify_config_change(self) -> None:
        """Invalidate station/partition/audible caches (attach, retune,
        promiscuous toggle).  Cheap: one integer bump; caches rebuild
        lazily on next use."""
        self._config_epoch += 1

    def stations(self) -> List[str]:
        """Sorted attached addresses (cached; invalidated by attach)."""
        if self._stations_cache is None or \
                self._caches_key[0] != self._config_epoch:
            self._refresh_station_caches()
        return list(self._stations_cache)

    def _refresh_station_caches(self) -> None:
        self._stations_cache = sorted(self._macs)
        partitions: Dict[int, List["CsmaMac"]] = {}
        promisc = []
        for mac in self._macs.values():  # attach order
            partitions.setdefault(mac._channel, []).append(mac)
            if mac._promiscuous:
                promisc.append(mac)
        self._partitions = partitions
        self._promisc_cache = tuple(promisc)
        self._caches_key = (self._config_epoch, 0)

    def stations_on_channel(self, channel: int) -> List[str]:
        """Attached addresses tuned to ``channel``, in attach order.

        Served from the per-channel partition cache so channel-filtered
        scans never touch the full station dict.
        """
        if self._partitions is None or \
                self._caches_key[0] != self._config_epoch:
            self._refresh_station_caches()
        return [mac.address for mac in self._partitions.get(channel, ())]

    def _promiscuous_macs(self) -> Tuple["CsmaMac", ...]:
        if self._promisc_cache is None or \
                self._caches_key[0] != self._config_epoch:
            self._refresh_station_caches()
        return self._promisc_cache

    # ------------------------------------------------------------------
    # Audibility culling
    # ------------------------------------------------------------------
    def audibility_floor_dbm(self) -> float:
        """The weakest received power that can still matter to anyone:
        the lower of the tightest carrier-sense threshold and the
        base-rate decode floor (below which FER is exactly 1.0)."""
        floor = self._decode_floor_dbm
        cs = self._min_cs_dbm
        return cs if cs < floor else floor

    def max_audible_radius_m(self, tx_power_dbm: float) -> float:
        """Conservative culling radius for a sender at ``tx_power_dbm``."""
        return self.propagation.max_audible_distance_m(
            tx_power_dbm, self.audibility_floor_dbm(),
            FADE_MARGIN_DB if self.fast_fading else 0.0)

    def _receive_table(self, sender: "CsmaMac") -> ReceiveTable:
        """The current :class:`ReceiveTable` of ``sender``.

        Only used with culling on.  A table is reused while the topology
        epoch, the config epoch and the sender's tx power are unchanged,
        and across a topology change that provably leaves it intact
        (:meth:`_survives_moves`): it is then re-keyed and keeps its FER
        memo.  Otherwise it is rebuilt from a grid query.  The audible
        predicate — cached link budget above :meth:`audibility_floor_dbm`
        — is exactly the one the exhaustive mode applies inline per
        frame; the grid radius provably covers every station the
        predicate can pass (shadowing is clamped, the fading margin
        exceeds the maximum possible fade), so the two modes attempt the
        same decodes in the same order and outcomes are byte-identical.
        """
        key = (self.world.epoch, self._config_epoch)
        table = self._tables.get(sender.address)
        tx_power = sender.tx_power_dbm
        if table is not None and table.tx_power == tx_power:
            if table.key == key:
                self._m_cull_reuses.add()
                return table
            if table.key[1] == key[1] and self._survives_moves(sender, table):
                table.key = key
                self._m_cull_reuses.add()
                return table
        radius = self.max_audible_radius_m(tx_power)
        macs = self._macs
        if radius < self.world.diagonal_m():
            order = self._attach_order
            names = [n for n in self._grid.neighbors_within(
                sender.address, radius) if n in macs]
            names.sort(key=order.__getitem__)
            candidates = [macs[n] for n in names]
        else:
            # The radius covers the whole world: culling is a no-op here
            # and the candidate set is everyone (see docs/performance.md).
            radius = float("inf")
            candidates = list(macs.values())
        table = ReceiveTable(key, tx_power, radius,
                             self._audible(sender, tx_power, candidates))
        self._tables[sender.address] = table
        self._m_cull_builds.add()
        self._m_cull_audible.add(len(table.macs))
        self._m_cull_culled.add(len(macs) - 1 - len(table.macs))
        return table

    def _survives_moves(self, sender: "CsmaMac",
                        table: ReceiveTable) -> bool:
        """Whether ``table`` still holds at the current topology epoch.

        A link whose two ends did not move keeps its terms, so only the
        stations placed or moved since the table's epoch can change it.
        It holds when neither the sender nor any of its receivers is
        among them and no mover inside the table's radius (the grid
        query's distance formula) passes the audible predicate.
        """
        movers, moved_set, positions = self._movers(table.key[0])
        address = sender.address
        if address in moved_set or not table.names.isdisjoint(moved_set):
            return False
        world = self.world
        delta = positions - world.positions()[world.index_of(address)]
        dist = np.maximum(np.sqrt(np.einsum("ij,ij->i", delta, delta)),
                          MIN_SEPARATION_M)
        macs = self._macs
        near = [macs[movers[i]] for i in np.flatnonzero(dist <= table.radius)
                if movers[i] in macs]
        return not self._audible(sender, table.tx_power, near)

    def _movers(self, since: int
                ) -> Tuple[List[str], FrozenSet[str], np.ndarray]:
        """Entities placed or moved after topology epoch ``since``: their
        names in world order, the same names as a set, and their
        positions.  Computed once per (current epoch, ``since``) and
        shared by every table built at ``since``."""
        world = self.world
        if self._movers_epoch != world.epoch:
            self._movers_epoch = world.epoch
            self._movers_by_since = {}
        movers = self._movers_by_since.get(since)
        if movers is None:
            indices = world.moved_since(since)
            names = world.names_view()
            moved = [names[i] for i in indices]
            movers = (moved, frozenset(moved), world.positions()[indices])
            self._movers_by_since[since] = movers
        return movers

    def _audible(self, sender: "CsmaMac", tx_power: float,
                 candidates: List["CsmaMac"]
                 ) -> List[Tuple["CsmaMac", float]]:
        """``(mac, signal)`` for each of ``candidates`` that passes the
        audible predicate at ``tx_power``, in candidate order; the one
        place the build and the move check evaluate it."""
        margin = FADE_MARGIN_DB if self.fast_fading else 0.0
        floor = self.audibility_floor_dbm()
        terms = self.link_cache.terms
        sender_address = sender.address
        audible = []
        for mac in candidates:
            if mac is sender:
                continue
            # One link lookup serves both the audible predicate (the
            # attenuation_db order) and the signal (the rx_power_dbm one).
            loss, shadow = terms(sender_address, mac.address)
            if tx_power - (loss + shadow) + margin >= floor:
                audible.append((mac, tx_power - loss - shadow))
        return audible

    def _audible_to(self, sender: "CsmaMac", rx: "CsmaMac") -> bool:
        """The audible predicate for one directed link (no set build)."""
        margin = FADE_MARGIN_DB if self.fast_fading else 0.0
        return (sender.tx_power_dbm
                - self.link_cache.attenuation_db(sender.address, rx.address)
                + margin >= self.audibility_floor_dbm())

    def culling_stats(self) -> Dict[str, float]:
        """Culling health for benchmarks, probes and experiment rows."""
        audible = self._m_cull_audible.value
        culled = self._m_cull_culled.value
        considered = audible + culled
        return {
            "enabled": self.culling,
            "audible": audible,
            "culled": culled,
            "cull_rate": culled / considered if considered else 0.0,
            "set_builds": self._m_cull_builds.value,
            "set_reuses": self._m_cull_reuses.value,
            "grid": self._grid.stats(),
        }

    # ------------------------------------------------------------------
    # Channel state as seen by one station
    # ------------------------------------------------------------------
    def _delivery_rng(self, rx_address: str) -> np.random.Generator:
        """The delivery stream for one receiver (``per_station_rng`` mode)."""
        rng = self._rng_by_rx.get(rx_address)
        if rng is None:
            rng = self.sim.rng(f"radio.delivery.{rx_address}")
            self._rng_by_rx[rx_address] = rng
        return rng

    def _fading_rng_for(self, rx_address: str) -> np.random.Generator:
        rng = self._fading_rng_by_rx.get(rx_address)
        if rng is None:
            rng = self.sim.rng(f"radio.fading.{rx_address}")
            self._fading_rng_by_rx[rx_address] = rng
        return rng

    def busy_for(self, mac: "CsmaMac") -> bool:
        """Carrier sense at ``mac``: any audible overlapping transmission?"""
        cache = self.link_cache
        address = mac.address
        channel = mac._channel
        threshold = mac.cs_threshold_dbm
        culling = self.culling
        radius = self.interference_radius_m
        world = self.world
        for tx in self._active:
            if tx.sender is mac:
                return True  # half-duplex: own transmission occupies us
            factor = overlap_factor(channel, tx.channel)
            if factor <= 0.0:
                continue
            # The radius cut comes before the audible-set probe so it
            # never touches the culling caches: the probe's build/reuse
            # counters stay a pure function of in-radius traffic.
            if (radius is not None
                    and world.distance_between(tx.sender.address,
                                               address) > radius):
                continue
            # Inaudible stations can never carrier-sense the sender (their
            # best-case power is below every threshold), so one set probe
            # replaces the gain lookup and comparison.
            if culling and address not in self._receive_table(tx.sender).names:
                continue
            power = cache.rx_power_dbm(tx.power_dbm, tx.sender.address,
                                       address)
            # Adjacent-channel energy is attenuated by the overlap factor.
            if power + 10.0 * _log10(factor) >= threshold:
                return True
        return False

    def expected_sinr_db(self, src: "CsmaMac", dst_address: str) -> float:
        """Interference-free SINR estimate src->dst (rate-adaptation input)."""
        if dst_address not in self._macs:
            raise NetworkError(f"no station {dst_address!r} on this medium")
        signal = self.link_cache.rx_power_dbm(
            src.tx_power_dbm, src.address, dst_address)
        return signal - NOISE_FLOOR_DBM

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def transmit(self, mac: "CsmaMac", frame: Frame, rate: RateMode) -> Transmission:
        now = self.sim.now
        duration = frame.airtime(rate.bits_per_second, PREAMBLE_S)
        tx = Transmission(mac, frame, mac.channel, rate, mac.tx_power_dbm,
                          now, now + duration)
        radius = self.interference_radius_m
        if radius is None:
            for other in self._active:
                other.interferers.append(tx)
                tx.interferers.append(other)
        else:
            world = self.world
            address = mac.address
            for other in self._active:
                if world.distance_between(address,
                                          other.sender.address) <= radius:
                    other.interferers.append(tx)
                    tx.interferers.append(other)
        self._active.append(tx)
        self._m_transmissions.add()
        self.channel_airtime[mac.channel] = \
            self.channel_airtime.get(mac.channel, 0.0) + duration
        tracing = self.sim.tracer.enabled
        if tracing:
            # The airtime span: parented under whatever caused this frame
            # (e.g. a transport send) and ambient while the finish event is
            # scheduled, so delivery work nests beneath it.
            tx.span = self.sim.span_begin(
                "mac.tx", mac.address, frame=frame.frame_id, dst=frame.dst,
                channel=mac.channel, rate=rate.name)
        self._schedule_bound(duration, self._finish, (tx,), _MEDIUM_PRI)
        if tracing:
            self.sim.trace("mac.tx", mac.address,
                           f"tx #{frame.frame_id} -> {frame.dst} @{rate.name}",
                           bytes=frame.wire_bytes, channel=mac.channel)
        return tx

    def _finish(self, tx: Transmission) -> None:
        self._active.remove(tx)
        frame = tx.frame
        sender = tx.sender
        channel = tx.channel
        delivered_to_dst: Optional[bool] = None
        if frame.dst == BROADCAST:
            if self.culling:
                # Grid-backed receive table, cached across frames: per-frame
                # cost is O(audible neighbours), not O(stations).
                table = self._receive_table(sender)
                if (tx.power_dbm == table.tx_power and not self.fast_fading
                        and not any(overlap_factor(channel, other.channel)
                                    > 0.0 for other in tx.interferers)):
                    self._fan_out(tx, table)
                else:
                    # Fading, an in-band interferer, or a power change
                    # while the frame was in the air (the table's signals
                    # describe the new power): decode per receiver.
                    for mac in table.macs:
                        if mac._channel == channel and self._decode(tx, mac):
                            mac._deliver(frame, tx.rate)
            else:
                # Exhaustive reference scan: every station, every frame,
                # gated by the same audibility predicate so outcomes (and
                # RNG consumption) match the culled path byte-for-byte.
                for mac in self._macs.values():
                    if (mac is not sender and mac._channel == channel
                            and self._audible_to(sender, mac)
                            and self._decode(tx, mac)):
                        mac._deliver(frame, tx.rate)
        else:
            dst = self._macs.get(frame.dst)
            if dst is None or dst._channel != channel:
                delivered_to_dst = False
            elif not self._audible_to(sender, dst):
                # Below the decode floor the FER is exactly 1.0: the
                # attempt can never succeed, so skip it outright.
                delivered_to_dst = False
            else:
                delivered_to_dst = self._decode(tx, dst)
                if delivered_to_dst:
                    dst._deliver(frame, tx.rate)
            # Promiscuous stations (bridges/access points) overhear
            # unicast frames destined elsewhere, so they can forward them
            # toward the wired network.  An off-segment destination (dst
            # is None) that a bridge picks up counts as delivered — the
            # bridge's genie-ACK, like a real AP acking on behalf of the
            # distribution system.  The cached promiscuous partition keeps
            # this loop off the full station dict.
            for mac in self._promiscuous_macs():
                if (mac is not sender
                        and mac is not dst
                        and mac._channel == channel
                        and mac.address != frame.dst
                        and self._audible_to(sender, mac)
                        and self._decode(tx, mac)):
                    mac._deliver(frame, tx.rate)
                    if dst is None:
                        delivered_to_dst = True
        tx.sender._tx_done(tx, delivered_to_dst)
        if tx.span is not None:
            # Ended after _tx_done so the ACK-turnaround event (and any
            # retry it triggers) is causally chained under this attempt.
            self.sim.span_end(
                tx.span, "failed" if delivered_to_dst is False else "ok")

    def _decode(self, tx: Transmission, rx: "CsmaMac") -> bool:
        """Did ``rx`` successfully decode ``tx``?  SINR through FER."""
        if rx.receiving_disabled:
            return False
        cache = self.link_cache
        rx_address = rx.address
        signal = cache.rx_power_dbm(tx.power_dbm, tx.sender.address,
                                    rx_address)
        if self.fast_fading:
            # Rayleigh envelope: exponentially-distributed power with unit
            # mean; deep fades (-10 dB and worse) hit ~10% of frames.
            fading_rng = (self._fading_rng_for(rx_address)
                          if self.per_station_rng else self._fading_rng)
            signal += 10.0 * _math_log10(
                max(fading_rng.exponential(1.0), 1e-6))
        interference_mw = 0.0
        if tx.interferers:
            rx_channel = rx.channel
            interferer_powers = []
            overlaps = []
            for other in tx.interferers:
                if other.sender is rx:
                    return False  # half-duplex: we were transmitting
                factor = overlap_factor(rx_channel, other.channel)
                if factor <= 0.0:
                    continue
                interferer_powers.append(cache.rx_power_dbm(
                    other.power_dbm, other.sender.address, rx_address))
                overlaps.append(factor)
            if len(interferer_powers) >= _VECTORISE_MIN:
                # One vectorised NumPy pass over all interferers.
                interference_mw = interference_sum_mw(
                    np.asarray(interferer_powers), np.asarray(overlaps))
            else:
                for power, factor in zip(interferer_powers, overlaps):
                    interference_mw += 10.0 ** (power / 10.0) * factor
        ratio = sinr_from_mw(10.0 ** (signal / 10.0), interference_mw)
        failure_probability = tx.rate.fer(ratio, tx.frame.wire_bytes)
        rng = (self._delivery_rng(rx_address) if self.per_station_rng
               else self._rng)
        ok = bool(rng.random() >= failure_probability)
        if ok:
            self._m_deliveries.add()
        else:
            self._m_decode_failures.add()
            if self.sim.tracer.enabled:
                self._trace_loss(tx, rx_address, ratio, failure_probability)
        return ok

    def _fan_out(self, tx: Transmission, table: ReceiveTable) -> None:
        """Decode broadcast ``tx`` at every audible receiver in ``table``
        and deliver it where decoding succeeds.

        Only for a frame sent at ``table.tx_power`` with fading off and no
        in-band interferer: every receiver's FER is then a constant of the
        table, memoised by :meth:`ReceiveTable.fers`.  Outcome-identical
        to :meth:`_decode` per receiver in table order: the same floats
        and the same draws in the same order.  A disabled receiver draws
        nothing, and neither does a receiver that sent an interferer.
        """
        frame = tx.frame
        rate = tx.rate
        channel = tx.channel
        # Half-duplex: a station that retuned while its own frame is in
        # the air is still transmitting.
        transmitting = {other.sender for other in tx.interferers}
        per_station = self.per_station_rng
        rng = self._rng
        rngs = self._rng_by_rx
        delivered = self._m_deliveries.add
        failed = self._m_decode_failures.add
        tracer = self.sim.tracer
        for mac, signal, fer in zip(table.macs, table.signals,
                                    table.fers(rate, frame.wire_bytes)):
            if (mac._channel != channel or mac.receiving_disabled
                    or mac in transmitting):
                continue
            if per_station:
                rng = rngs.get(mac.address)
                if rng is None:
                    rng = self._delivery_rng(mac.address)
            if rng.random() >= fer:
                delivered()
                mac._deliver(frame, rate)
            else:
                failed()
                if tracer.enabled:
                    self._trace_loss(tx, mac.address, sinr_from_mw(
                        10.0 ** (signal / 10.0), 0.0), fer)

    def _trace_loss(self, tx: Transmission, rx_address: str, ratio: float,
                    fer: float) -> None:
        self.sim.trace("mac.loss", rx_address,
                       f"decode failure #{tx.frame.frame_id} sinr={ratio:.1f}dB",
                       sinr_db=ratio, fer=fer)


def _log10(x: float) -> float:
    return _math_log10(x) if x > 0 else -20.0


class CsmaMac:
    """CSMA/CA MAC instance for one station.

    Args:
        sim: the simulator.
        medium: shared medium (the station is attached on construction).
        address: station address; must match a world placement name.
        channel: 2.4 GHz channel number.
        tx_power_dbm: transmit power (15 dBm ≈ a 1999 PCMCIA card).
        fixed_rate: pin the PHY rate; default is SINR-driven adaptation.
        queue_limit: outgoing queue capacity in frames.
        retry_limit: unicast retransmission budget.
    """

    CW_MIN = 32
    CW_MAX = 1024

    def __init__(self, sim: Simulator, medium: WirelessMedium, address: str,
                 channel: int = 6, tx_power_dbm: float = 15.0,
                 cs_threshold_dbm: float = -82.0,
                 fixed_rate: Optional[RateMode] = None,
                 queue_limit: int = 64, retry_limit: int = 7,
                 fer_target: float = 0.1) -> None:
        validate_channel(channel)
        if queue_limit < 1 or retry_limit < 0:
            raise ConfigurationError("bad queue_limit/retry_limit")
        self.sim = sim
        self.medium = medium
        # DIFS/backoff expiry and the genie-ACK turnaround are
        # fire-and-forget kernel timers scheduled once per frame attempt,
        # so the entry point is resolved once.
        self._schedule_bound = sim.schedule_bound
        self.address = address
        self.channel = channel
        self.tx_power_dbm = float(tx_power_dbm)
        self.cs_threshold_dbm = float(cs_threshold_dbm)
        self.fixed_rate = fixed_rate
        self.queue_limit = queue_limit
        self.retry_limit = retry_limit
        self.fer_target = fer_target
        self.receiving_disabled = False
        # bridge/AP mode: overhear unicast frames destined elsewhere
        # (property: toggling invalidates the medium's promiscuous cache).
        self.promiscuous = False
        self.on_receive: Optional[Callable[[Frame], None]] = None

        self._queue: deque = deque()
        self._in_flight: Optional[Frame] = None
        self._retries = 0
        self._cw = self.CW_MIN
        self._rng = sim.rng(f"mac.{address}")
        self._attempt_pending = False

        # Statistics
        self.stats: Dict[str, float] = {
            "enqueued": 0, "queue_drops": 0, "tx_attempts": 0,
            "tx_success": 0, "tx_retry_drops": 0, "rx_frames": 0,
            "busy_time": 0.0, "backoffs": 0,
        }
        # Health signals in the shared registry: aggregate drop counters
        # (cold paths only) plus a live per-station probe over ``stats``.
        metrics = sim.metrics
        self._m_queue_drops = metrics.counter("mac.queue_drops")
        self._m_retry_drops = metrics.counter("mac.retry_drops")
        metrics.register_probe(f"mac.{address}", lambda: {
            **self.stats, "queue_depth": len(self._queue),
            "channel": self.channel,
        })
        medium.attach(self)

    # ------------------------------------------------------------------
    # Radio configuration (assignments invalidate medium caches)
    # ------------------------------------------------------------------
    @property
    def channel(self) -> int:
        """Current 2.4 GHz channel; assigning retunes the radio and
        invalidates the medium's per-channel partitions."""
        return self._channel

    @channel.setter
    def channel(self, channel: int) -> None:
        validate_channel(channel)
        if getattr(self, "_channel", None) == channel:
            return
        self._channel = channel
        medium = getattr(self, "medium", None)
        if medium is not None:
            medium.notify_config_change()

    @property
    def promiscuous(self) -> bool:
        """Bridge/AP mode: overhear unicast frames destined elsewhere."""
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        value = bool(value)
        if getattr(self, "_promiscuous", None) == value:
            return
        self._promiscuous = value
        medium = getattr(self, "medium", None)
        if medium is not None:
            medium.notify_config_change()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Queue a frame; returns False (and counts a drop) when full."""
        if len(self._queue) >= self.queue_limit:
            self.stats["queue_drops"] += 1
            self._m_queue_drops.add()
            self.sim.trace("mac.qdrop", self.address,
                           f"queue full, dropping #{frame.frame_id}")
            return False
        self._queue.append(frame)
        self.stats["enqueued"] += 1
        self._kick()
        return True

    def queue_depth(self) -> int:
        return len(self._queue)

    def _kick(self) -> None:
        if self._in_flight is None and self._queue and not self._attempt_pending:
            self._attempt_pending = True
            self._schedule_bound(DIFS_S, self._attempt)

    def _attempt(self) -> None:
        self._attempt_pending = False
        if self._in_flight is not None or not self._queue:
            return
        if self.medium.busy_for(self):
            self._backoff()
            return
        frame = self._queue.popleft()
        self._in_flight = frame
        self.stats["tx_attempts"] += 1
        rate = self.select_rate(frame)
        tx = self.medium.transmit(self, frame, rate)
        self.stats["busy_time"] += tx.end - tx.start

    def _backoff(self) -> None:
        self.stats["backoffs"] += 1
        slots = int(self._rng.integers(0, self._cw))
        self._cw = min(self._cw * 2, self.CW_MAX)
        self._attempt_pending = True
        self._schedule_bound(DIFS_S + slots * SLOT_S, self._attempt)

    def select_rate(self, frame: Frame) -> RateMode:
        """PHY rate for this frame: pinned, or SINR-driven adaptation.

        Broadcasts always use the base rate, as real DCF does, so every
        station can decode discovery announcements.
        """
        if self.fixed_rate is not None:
            return self.fixed_rate
        if frame.dst == BROADCAST or frame.dst not in self.medium._macs:
            return RATES[0]
        estimate = self.medium.expected_sinr_db(self, frame.dst)
        return best_rate(estimate, frame.wire_bytes, self.fer_target)

    # ------------------------------------------------------------------
    # Outcome handling (genie-ACK)
    # ------------------------------------------------------------------
    def _tx_done(self, tx: Transmission, delivered: Optional[bool]) -> None:
        frame = tx.frame
        if delivered is None:  # broadcast: no ACK, no retry
            self._complete(success=True)
            return
        # Sender learns the outcome one SIFS + ACK airtime later.
        self.stats["busy_time"] += ACK_TURNAROUND_S
        self._schedule_bound(ACK_TURNAROUND_S, self._ack_outcome,
                             (frame, delivered))

    def _ack_outcome(self, frame: Frame, delivered: bool) -> None:
        if delivered:
            self._complete(success=True)
            return
        if self._retries < self.retry_limit:
            self._retries += 1
            self._queue.appendleft(frame)
            self._in_flight = None
            self._backoff()
            return
        self.stats["tx_retry_drops"] += 1
        self._m_retry_drops.add()
        self.sim.issue("radio", self.address,
                       f"frame to {frame.dst} dropped after "
                       f"{self.retry_limit} retries (collisions or poor link)",
                       dst=frame.dst)
        self._complete(success=False)

    def _complete(self, success: bool) -> None:
        if success and self._in_flight is not None:
            self.stats["tx_success"] += 1
        self._in_flight = None
        self._retries = 0
        self._cw = self.CW_MIN
        self._kick()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _deliver(self, frame: Frame, rate: RateMode) -> None:
        self.stats["rx_frames"] += 1
        if self.sim.tracer.enabled:
            self.sim.trace("mac.rx", self.address,
                           f"rx #{frame.frame_id} from {frame.src} @{rate.name}")
        if self.on_receive is not None:
            self.on_receive(frame)

    def set_channel(self, channel: int) -> None:
        """Retune the radio (takes effect for future transmissions)."""
        validate_channel(channel)
        self.channel = channel

    def scan_and_select(self, window_s: Optional[float] = None) -> int:
        """Self-configuration: survey per-channel load and retune to the
        least-congested channel.

        "Users are not system administrators, so networking features
        should be automatically available, self-configuring" — this is
        the radio half of that requirement.  The survey uses the medium's
        accumulated per-channel airtime (what a passive scan across the
        band observes); ``window_s`` is accepted for interface
        compatibility but the cumulative survey is already load-ordered.
        Returns the selected channel.
        """
        from ..env.spectrum import least_congested

        loads = dict(self.medium.channel_airtime)
        choice = least_congested(loads)
        if choice != self.channel:
            self.sim.trace("mac.retune", self.address,
                           f"self-configured from channel {self.channel} "
                           f"to {choice}")
            self.set_channel(choice)
        return choice
