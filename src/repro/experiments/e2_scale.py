"""E2-scale — service discovery as the smart space fills up.

"Service discovery, self-configuration, and dynamic resource sharing" has
a scaling dimension the paper flags ("the effect of a high concentration
of these devices needs to be studied"): every registered service's reply
carries its proxy code, so a *broad* lookup ("show me everything") grows
linearly with the service population while a *filtered* template stays
flat.  This experiment populates a room with N registered services and
measures both query shapes.
"""

from __future__ import annotations

from typing import Sequence

from ..discovery.client import ServiceDiscoveryClient
from ..discovery.records import (
    MATCH_ALL,
    ServiceItem,
    ServiceProxy,
    ServiceTemplate,
    new_service_id,
)
from ..phys.devices import Device
from .harness import ExperimentResult, experiment
from .workloads import projector_room


@experiment("E2-scale")
def run(service_counts: Sequence[int] = (4, 16, 64, 256),
        proxy_bytes: int = 4096, seed: int = 26,
        settle_s: float = 8.0, horizon: float = 40.0) -> ExperimentResult:
    """Lookup latency and reply size vs number of registered services."""
    result = ExperimentResult(
        "E2-scale", "lookup cost vs registered-service population",
        ["services", "query", "latency_s", "matches", "reply_kb",
         "stations", "cull_hit_rate"])
    for count in service_counts:
        room = projector_room(seed=seed, trace=False, register=False)
        sim = room.sim
        # Each appliance hosts one service; a handful of physical hosts
        # carry them so the medium holds a realistic station count.
        hosts = []
        for h in range(min(count, 8)):
            hosts.append(Device(sim, room.world, f"host-{h}",
                                (5.0 + 4.0 * h, 20.0), medium=room.medium))
        clients = [ServiceDiscoveryClient(sim, host) for host in hosts]
        for i in range(count):
            host_index = i % len(hosts)
            item = ServiceItem(
                new_service_id(sim), f"appliance-{i}",
                ServiceProxy(hosts[host_index].name, 60 + i, "app",
                             code_bytes=proxy_bytes))
            clients[host_index].discover(
                lambda _loc, c=clients[host_index], it=item:
                c.register(it, 120.0))

        measurements = {}

        def measure(query_name: str, template) -> None:
            asked = sim.now

            def on_result(items, q=query_name, t0=asked) -> None:
                reply_bytes = sum(i.wire_bytes for i in items)
                measurements[q] = (sim.now - t0, len(items),
                                   reply_bytes / 1024.0)

            room.laptop_discovery.find(template, on_result,
                                       max_matches=count)

        # Staggered so one reply cannot queue behind the other at the
        # registrar's per-destination transport FIFO.
        sim.schedule(settle_s, measure, "filtered",
                     ServiceTemplate(service_type=f"appliance-{count - 1}"))
        sim.schedule(settle_s + 10.0, measure, "broad", MATCH_ALL)
        sim.run(until=horizon)
        stations = len(room.medium.stations())
        cull_hit_rate = room.medium.culling_stats()["cull_rate"]
        for query_name in ("broad", "filtered"):
            latency, matches, reply_kb = measurements.get(
                query_name, (float("nan"), 0, 0.0))
            result.add_row(services=count, query=query_name,
                           latency_s=latency, matches=matches,
                           reply_kb=reply_kb, stations=stations,
                           cull_hit_rate=cull_hit_rate)
    result.notes.append(
        "broad queries scale linearly in the service population (every "
        "match ships its proxy code); filtered templates stay flat — "
        "attribute matching is what keeps a crowded smart space usable")
    return result
