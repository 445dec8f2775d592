"""E3 — ranging: throughput vs distance, and mobility.

"We are using wireless networking technologies with ranging, radio
interference and scaling constraints."  Two parts:

* the ranging table: analytic maximum range per 802.11b rate from the
  propagation model, next to *measured* goodput at a sweep of distances;
* a mobility run: a walker on a random-waypoint path, showing rate
  adaptation coping with "a wide variation in its surrounding
  environment" (the ablation pins the rate and watches delivery die at
  range).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..env.mobility import RandomWaypoint
from ..env.radio import RATE_BY_NAME, RATES, PropagationModel
from .harness import ExperimentResult, experiment
from .workloads import projector_room


@experiment("E3-range-table")
def run_range_table(tx_power_dbm: float = 15.0,
                    exponent: float = 3.0) -> ExperimentResult:
    """Analytic interference-free range per PHY rate."""
    result = ExperimentResult(
        "E3-range-table", "maximum range per 802.11b rate (analytic)",
        ["rate", "range_m"])
    propagation = PropagationModel(exponent=exponent, shadowing_sigma_db=0.0)
    for mode in RATES:
        result.add_row(rate=mode.name,
                       range_m=propagation.range_for_rate(
                           mode, tx_power_dbm=tx_power_dbm))
    result.notes.append(f"path-loss exponent {exponent}, no shadowing")
    return result


def _measure_distance(distance: float, seed: int, duration: float,
                      fixed_rate: Optional[str]) -> dict:
    rate = RATE_BY_NAME[fixed_rate] if fixed_rate else None
    room = projector_room(seed=seed, trace=False, register=False,
                          width=500.0, height=20.0,
                          laptop_pos=(1.0, 10.0),
                          adapter_pos=(1.0 + distance, 10.0),
                          hub_pos=(250.0, 10.0),
                          fixed_rate=rate)
    sim = room.sim
    frame_bytes = 1000
    # Offer ~1.6 Mb/s — above what the slower PHY modes can carry, so the
    # ranging curve shows goodput stepping down as rate adaptation falls
    # back, not just a delivery cliff at maximum range.
    sim.every(0.005, lambda: room.laptop.nic.send(room.adapter.name, None,
                                                  frame_bytes), start=0.005)
    sim.run(until=duration)
    stats = room.laptop.nic.stats
    offered = max(1.0, stats["enqueued"])
    return {
        "distance_m": distance,
        "mode": fixed_rate or "adaptive",
        "delivery_ratio": stats["tx_success"] / offered,
        "goodput_kbps": 8.0 * stats["tx_success"] * frame_bytes / duration / 1e3,
    }


@experiment("E3")
def run(distances: Sequence[float] = (2, 5, 10, 20, 40, 80, 120, 160),
        duration: float = 10.0, seed: int = 3,
        modes: Sequence[Optional[str]] = (None, "11Mbps")) -> ExperimentResult:
    """Measured goodput vs distance: adaptive rate vs pinned 11 Mb/s."""
    result = ExperimentResult(
        "E3", "goodput vs distance (rate adaptation ablation)",
        ["distance_m", "mode", "delivery_ratio", "goodput_kbps"])
    for mode in modes:
        for distance in distances:
            result.add_row(**_measure_distance(distance, seed, duration, mode))
    result.notes.append(
        "adaptive rate degrades gracefully with range; pinned 11 Mb/s "
        "collapses once SINR drops below its threshold")
    return result


@experiment("E3-mobility")
def run_mobility(duration: float = 120.0, seed: int = 4) -> ExperimentResult:
    """A walking presenter in a building-sized space: the walker crosses
    in and out of the faster rates' range, so pinned 11 Mb/s suffers
    outages that rate adaptation rides through."""
    result = ExperimentResult(
        "E3-mobility", "walking presenter with random-waypoint mobility",
        ["mode", "delivery_ratio", "legs", "mean_goodput_kbps"])
    for fixed in (None, "11Mbps"):
        rate = RATE_BY_NAME[fixed] if fixed else None
        room = projector_room(seed=seed, trace=False, register=False,
                              width=300.0, height=200.0,
                              laptop_pos=(10.0, 10.0),
                              adapter_pos=(150.0, 100.0),
                              fixed_rate=rate)
        sim = room.sim
        walker = RandomWaypoint(sim, room.world, room.laptop.name,
                                speed_min=4.0, speed_max=8.0, pause=1.0)
        walker.start()
        frame_bytes = 1000
        sim.every(0.05, lambda r=room: r.laptop.nic.send(
            r.adapter.name, None, frame_bytes), start=0.05)
        sim.run(until=duration)
        stats = room.laptop.nic.stats
        offered = max(1.0, stats["enqueued"])
        result.add_row(mode=fixed or "adaptive",
                       delivery_ratio=stats["tx_success"] / offered,
                       legs=walker.legs_completed,
                       mean_goodput_kbps=(8.0 * stats["tx_success"]
                                          * frame_bytes / duration / 1e3))
    return result
