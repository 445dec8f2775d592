"""E10-energy — battery life of an information appliance vs radio duty.

The paper's premise is a $10 SOC with a pico-cellular transceiver in
battery-powered information appliances.  Whether that device lives hours
or weeks depends on how chatty its middleware is: every discovery beacon
and lease renewal costs transmit energy, and an always-on receiver costs
idle power.  This experiment sweeps the beacon period of a badge-class
device and reports projected battery life, with and without a sleepy
(duty-cycled) receiver — the design trade the middleware imposes on the
physical layer.
"""

from __future__ import annotations

from typing import Sequence

from ..phys.devices import Device
from ..phys.power import DEFAULT_DRAW_W, Battery
from .harness import ExperimentResult, experiment
from .workloads import projector_room

#: A badge-class primary cell, joules (~2 AA lithium).
BADGE_BATTERY_J = 18_000.0
BEACON_BYTES = 96


@experiment("E10-energy")
def run(beacon_periods_s: Sequence[float] = (0.1, 1.0, 10.0, 60.0),
        duty_cycles: Sequence[float] = (1.0, 0.05),
        seed: int = 23, measure_s: float = 120.0) -> ExperimentResult:
    """Projected badge battery life vs beacon period and receive duty."""
    result = ExperimentResult(
        "E10-energy", "badge battery life vs middleware chattiness",
        ["beacon_period_s", "rx_duty", "avg_power_w", "battery_life_h"])
    for duty in duty_cycles:
        for period in beacon_periods_s:
            room = projector_room(seed=seed, trace=False, register=False)
            sim = room.sim
            badge = Device(sim, room.world, "badge", (15.0, 12.0),
                           medium=room.medium,
                           battery=Battery(sim, BADGE_BATTERY_J, "badge"))
            sim.every(period, lambda b=badge: b.nic.broadcast(
                None, BEACON_BYTES), start=period)
            sim.run(until=measure_s)

            tx_energy = badge.nic.energy.energy_j["tx"]
            tx_time = badge.nic.mac.stats["busy_time"]
            # The receiver idles whenever not transmitting; a duty-cycled
            # design sleeps the remainder of each cycle.
            idle_time = max(0.0, measure_s - tx_time)
            idle_energy = idle_time * (duty * DEFAULT_DRAW_W["idle"]
                                       + (1 - duty) * DEFAULT_DRAW_W["sleep"])
            avg_power = (tx_energy + idle_energy) / measure_s
            life_h = BADGE_BATTERY_J / avg_power / 3600.0
            result.add_row(beacon_period_s=period, rx_duty=duty,
                           avg_power_w=avg_power, battery_life_h=life_h)
    result.notes.append(
        "with an always-on receiver the beacon period barely matters — "
        "idle listening dominates; duty-cycling the receiver is what buys "
        "battery life, and only then does beacon chattiness show")
    return result
