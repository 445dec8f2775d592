"""E2 — 2.4 GHz device density.

"There are many wireless devices operating in the 2.4GHz radio band, and
the effect of a high concentration of these devices needs to be studied."
We study it: one measured link carries steady traffic while 0..N
co-channel interferer pairs chatter around it.  Expected shape: per-link
goodput and delivery ratio fall monotonically with density, retry/backoff
overhead rises; spreading interferers over channels 1/6/11 recovers most
of the loss.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..metrics.stats import jains_fairness
from ..telemetry.streaming import StreamingAggregator
from .harness import ExperimentResult, experiment
from .sweeps import sweep
from .workloads import interferer_field, projector_room


def _measure_density(pairs: int, channel_plan: str, seed: int,
                     duration: float, offered_fps: float,
                     frame_bytes: int) -> dict:
    room = projector_room(seed=seed, trace=False, register=False)
    sim = room.sim
    # Fold issue telemetry as it happens, so only the folded aggregate
    # crosses the fork pipe in parallel sweeps.
    aggregator = StreamingAggregator().attach(sim)
    field = interferer_field(room, pairs, channel_plan=channel_plan)

    # The measured link: laptop -> adapter steady unicast stream.
    interval = 1.0 / offered_fps
    sim.every(interval,
              lambda: room.laptop.nic.send(room.adapter.name, None,
                                           frame_bytes),
              start=interval)
    sim.run(until=duration)

    stats = room.laptop.nic.stats
    offered = stats["enqueued"]
    delivered = stats["tx_success"]
    # Fairness across all senders that offered traffic.
    shares = [room.laptop.nic.mac.stats["tx_success"]]
    shares += [p.sender.nic.mac.stats["tx_success"] for p in field]
    return {
        "interferer_pairs": pairs,
        "channel_plan": channel_plan,
        "delivery_ratio": delivered / offered if offered else 0.0,
        "goodput_kbps": 8.0 * delivered * frame_bytes / duration / 1e3,
        "queue_drops": stats["queue_drops"],
        "retry_drops": stats["tx_retry_drops"],
        "backoffs_per_frame": (stats["backoffs"] / max(1.0, stats["tx_attempts"])),
        "fairness": jains_fairness(shares),
        # Per-point health summary; sweep() lifts this reserved key onto
        # ExperimentResult.telemetry (it never enters the table, and only
        # this small dict crosses the fork pipe in parallel runs).
        "telemetry": aggregator.summary(),
    }


def _measure_density_row(seed: int, pairs: int, channel_plan: str,
                         duration: float = 20.0, offered_fps: float = 150.0,
                         frame_bytes: int = 1000) -> dict:
    """``sweep``-shaped wrapper around :func:`_measure_density` (module
    level so parallel workers can reach it)."""
    return _measure_density(pairs, channel_plan, seed, duration,
                            offered_fps, frame_bytes)


@experiment("E2")
def run(densities: Sequence[int] = (0, 2, 4, 8, 16, 32),
        duration: float = 20.0, seed: int = 2,
        offered_fps: float = 150.0, frame_bytes: int = 1000,
        channel_plans: Sequence[str] = ("cochannel", "spread"),
        workers: int = 0, cache=None) -> ExperimentResult:
    """Goodput/loss vs interferer density, co-channel vs spread plans.

    The measured link offers ~1.2 Mb/s; each interferer pair offers
    ~0.4 Mb/s, so a handful of co-channel pairs saturates the cell.

    Each (plan, density) point is one independent simulation, so the sweep
    parallelises across ``workers`` processes with identical output — and,
    because ``run_one`` here is a partial over a module-level function,
    memoizes through the run cache when ``cache`` is enabled.
    """
    points = [{"pairs": pairs, "channel_plan": plan}
              for plan in channel_plans for pairs in densities]
    result = sweep(
        "E2", "effect of 2.4 GHz device concentration on one link",
        partial(_measure_density_row, duration=duration,
                offered_fps=offered_fps, frame_bytes=frame_bytes),
        points, seeds=(seed,),
        columns=["interferer_pairs", "channel_plan", "delivery_ratio",
                 "goodput_kbps", "queue_drops", "retry_drops",
                 "backoffs_per_frame", "fairness"],
        workers=workers, cache=cache)
    result.notes.append(
        "paper: high concentration of 2.4 GHz devices degrades operation; "
        "non-overlapping channel plan (1/6/11) is the classic mitigation")
    return result


@experiment("E2-autochannel")
def run_autochannel(pairs: int = 16, duration: float = 20.0,
                    seed: int = 27, offered_fps: float = 150.0,
                    frame_bytes: int = 1000) -> ExperimentResult:
    """Self-configuration ablation: a congested link scans the band and
    retunes itself.

    The interferers squat on the room's default channel; at t=duration/2
    the measured pair runs ``scan_and_select`` — the "self-configuring"
    networking the paper's resource layer demands instead of a user
    playing administrator.  Goodput before vs after tells the story.
    """
    result = ExperimentResult(
        "E2-autochannel", "channel self-configuration under congestion",
        ["phase", "goodput_kbps", "channel"])
    room = projector_room(seed=seed, trace=False, register=False)
    sim = room.sim
    interferer_field(room, pairs, channel_plan="cochannel")
    interval = 1.0 / offered_fps
    sim.every(interval, lambda: room.laptop.nic.send(
        room.adapter.name, None, frame_bytes), start=interval)

    half = duration / 2.0
    snapshots = {}

    def snapshot(phase: str) -> None:
        snapshots[phase] = room.laptop.nic.mac.stats["tx_success"]

    def retune() -> None:
        snapshot("mid")
        choice = room.laptop.nic.mac.scan_and_select()
        room.adapter.nic.mac.set_channel(choice)

    sim.schedule(half, retune)
    sim.run(until=duration)
    snapshot("end")

    before = snapshots["mid"]
    after = snapshots["end"] - snapshots["mid"]
    result.add_row(phase="congested (before scan)",
                   goodput_kbps=8.0 * before * frame_bytes / half / 1e3,
                   channel=6)
    result.add_row(phase="self-configured (after scan)",
                   goodput_kbps=8.0 * after * frame_bytes / half / 1e3,
                   channel=room.laptop.nic.channel)
    result.notes.append(
        "the scan moves the link off the congested channel without any "
        "human intervention; goodput recovers to the clean-channel rate")
    return result
