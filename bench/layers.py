"""Per-layer split of a profiled run over the LPC packages of ``repro``.

:func:`attribute` folds a ``pstats``-shaped table into self time and
cross-owner call counts per owner.  An owner is an LPC layer (the
package ranked by ``repro.checks.layers.LAYER_MAP``) or a module path.
Functions no owner claims — builtins, the stdlib, numpy — are charged to
their nearest owned callers through the profile's caller edges.
:func:`sim_counters` reads the kernel and medium counters the
simulators publish through ``sim.metrics.snapshot()``.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The layers reported, lowest rank first (``checks`` and the package
#: root never run inside a workload's run phase).
LAYERS = ("kernel", "metrics", "env", "resource", "net", "phys", "discovery",
          "user", "services", "core", "telemetry", "experiments")

#: Unit of every per-layer metric the benchmark reports.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.{name}": unit for layer in LAYERS
       for name, unit in (("self_s", "s"), ("share", "fraction"),
                          ("calls_in", "count"))},
    "kernel.events": "count",
    "kernel.batched_share": "fraction",
    "kernel.events_per_cohort": "events/cohort",
    "phys.transmissions": "count",
    "phys.cull_rate": "fraction",
    "phys.set_reuse_ratio": "fraction",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}

Func = Tuple[str, int, str]          # pstats key: (file, line, name)
Owner = Callable[[Func], Optional[str]]

# Indices into a pstats caller edge (cc, nc, tt, ct).
_NC, _TT, _CT = 1, 2, 3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attribute(stats: Dict[Func, tuple], owner_of: Owner,
              ) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Self seconds and incoming cross-owner calls per owner.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)`` where
    ``callers`` maps a calling function to its edge ``(cc, nc, tt, ct)``,
    as ``pstats.Stats.stats`` holds them.  An unowned function's self
    time is split over its callers by the edge self time; where a caller
    is unowned too, its share climbs on to that caller's callers in
    proportion to their edge cumulative time; a cycle of unowned
    functions is cut where it closes.  A call into an owned
    function counts for the callee's owner when it comes from a
    different owner; calls made through unowned functions are split the
    same way, by call counts, so the totals repeat exactly.

    Returns ``(self_s, calls_in, unattributed_s)``; the last is self time
    with no owned caller at all (the profiling harness itself).
    """
    memo: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def mix(func: Func, weight: int, active: frozenset) -> Dict[str, float]:
        owner = owner_of(func)
        if owner is not None:
            return {owner: 1.0}
        key = (func, weight)
        if key in memo:
            return memo[key]
        acc: Dict[str, float] = {}
        total = 0.0
        entry = stats.get(func)
        for caller, edge in (entry[4].items() if entry else ()):
            if edge[weight] <= 0 or caller in active:
                continue
            upper = mix(caller, weight, active | {func})
            if upper:
                total += edge[weight]
                for name, share in upper.items():
                    acc[name] = acc.get(name, 0.0) + edge[weight] * share
        result = {name: value / total for name, value in acc.items()}
        memo[key] = result
        return result

    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    unattributed = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        owner = owner_of(func)
        if owner is not None:
            self_s[owner] = self_s.get(owner, 0.0) + tt
            for caller, edge in callers.items():
                for name, share in mix(caller, _NC, frozenset()).items():
                    if name != owner:
                        calls[owner] = calls.get(owner, 0.0) + edge[_NC] * share
            continue
        for caller, edge in callers.items():
            upper = mix(caller, _CT, frozenset({func}))
            for name, share in upper.items():
                self_s[name] = self_s.get(name, 0.0) + edge[_TT] * share
            if not upper:
                unattributed += edge[_TT]
        if not callers:
            unattributed += tt
    return self_s, {name: round(n) for name, n in calls.items()}, unattributed


def repro_owner(repro_dir: str, by: str = "layer") -> Owner:
    """Owner function for files under ``repro_dir``: the LPC layer
    (``by="layer"``) or the module path such as ``kernel/batchq.py``
    (``by="module"``); ``None`` for everything outside the package."""
    from repro.checks.layers import package_of

    prefix = os.path.join(repro_dir, "")
    cache: Dict[str, Optional[str]] = {}

    def owner(func: Func) -> Optional[str]:
        path = func[0]
        if path not in cache:
            if not path.startswith(prefix):
                cache[path] = None
            else:
                parts = tuple(path[len(prefix):].split(os.sep))
                if by == "module":
                    cache[path] = "/".join(parts)
                else:
                    layer = package_of(parts)
                    cache[path] = layer if layer in LAYERS else None
        return cache[path]

    return owner


def layer_metrics(stats: Dict[Func, tuple], owner_of: Owner,
                  ) -> Dict[str, float]:
    """``<layer>.self_s`` / ``.share`` / ``.calls_in`` for every layer;
    shares are of the attributed time, so they sum to 1."""
    self_s, calls_in, _ = attribute(stats, owner_of)
    total = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.share"] = _ratio(self_s.get(layer, 0.0), total)
        out[f"{layer}.calls_in"] = calls_in.get(layer, 0)
    return out


def top_modules(stats: Dict[Func, tuple], owner_of: Owner,
                n: int = 15) -> List[Dict[str, Any]]:
    """The ``n`` modules with the most self time, builtins charged in."""
    self_s, _, _ = attribute(stats, owner_of)
    total = sum(self_s.values())
    ranked = sorted(self_s.items(), key=lambda item: (-item[1], item[0]))
    return [{"module": module, "self_s": seconds,
             "share": _ratio(seconds, total)}
            for module, seconds in ranked[:n]]


def sim_counters(sims: Iterable[Any]) -> Dict[str, float]:
    """Kernel batch and medium culling counters summed over ``sims``."""
    events = batched = cohorts = 0
    counters: Counter = Counter()
    for sim in sims:
        events += sim.events_executed
        snapshot = sim.metrics.snapshot()
        for cls in snapshot["probes"]["kernel"]["batch"].values():
            batched += cls["executed"]
            cohorts += cls["cohorts"]
        for name, value in snapshot["counters"].items():
            counters[name.split("#")[0]] += value
    audible = counters["medium.culling.audible"]
    culled = counters["medium.culling.culled"]
    builds = counters["medium.culling.set_builds"]
    reuses = counters["medium.culling.set_reuses"]
    return {
        "kernel.events": events,
        "kernel.batched_share": _ratio(batched, events),
        "kernel.events_per_cohort": _ratio(batched, cohorts),
        "phys.transmissions": int(counters["medium.transmissions"]),
        "phys.cull_rate": _ratio(culled, audible + culled),
        "phys.set_reuse_ratio": _ratio(reuses, builds + reuses),
    }
