"""E4 — service discovery and the stale-session problem.

Two measurements from the paper's abstract layer:

* **discovery latency** — how long a fresh client takes to find the
  lookup service, as interferer density (hence multicast loss) grows;
* **stale-session recovery** — "mechanisms ... to deal with users who
  forget to relinquish control of the projector without relying on a
  system administrator".  User A acquires the projection session and
  vanishes; user B retries.  With leases, B's wait is bounded by the
  lease duration; without leases, B waits for an administrator (or
  forever).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..kernel.errors import SessionError
from .harness import ExperimentResult, experiment
from .workloads import projector_room


@experiment("E4-discovery")
def run_discovery(distances: Sequence[float] = (20.0, 120.0, 170.0, 190.0,
                                                210.0, 230.0),
                  repeats: int = 5, horizon: float = 30.0,
                  seed: int = 5) -> ExperimentResult:
    """Registrar discovery latency vs range to the lookup service.

    Multicast probes and announcements are unacknowledged broadcast
    frames at the 1 Mb/s base rate.  Within comfortable range discovery
    is a millisecond affair; near the edge of the radio's range frames are
    lost and the client waits for later probe rounds (1 s apart) or the
    next periodic announcement (10 s) — and beyond range, discovery fails
    outright.  CSMA carrier sense makes discovery remarkably robust to
    mere *density*, which is itself a finding; range is what kills it.
    """
    result = ExperimentResult(
        "E4-discovery", "lookup-service discovery latency vs range",
        ["distance_m", "mean_latency_s", "max_latency_s", "failures"])
    for distance in distances:
        latencies = []
        failures = 0
        for r in range(repeats):
            room = projector_room(seed=seed + 1000 * r, trace=False,
                                  register=False, announce_interval=10.0,
                                  width=500.0, height=20.0,
                                  hub_pos=(10.0, 10.0),
                                  laptop_pos=(10.0 + distance, 10.0),
                                  adapter_pos=(12.0, 10.0))
            # A fresh client arrives two seconds in and actively probes.
            room.sim.schedule(2.0, room.laptop_discovery.agent.discover)
            room.sim.run(until=horizon)
            times = room.laptop_discovery.agent.discovery_times
            if "registry" in times:
                latencies.append(times["registry"])
            else:
                failures += 1
        result.add_row(distance_m=distance,
                       mean_latency_s=(sum(latencies) / len(latencies)
                                       if latencies else float("nan")),
                       max_latency_s=max(latencies) if latencies else float("nan"),
                       failures=failures)
    result.notes.append("latency stretches toward the probe/announce "
                        "periods near the edge of range, then discovery "
                        "fails entirely")
    return result


def _stale_session_wait(lease_s: Optional[float], admin_after_s: Optional[float],
                        seed: int, horizon: float, retry_interval: float) -> dict:
    """User A acquires and forgets; measure user B's wait."""
    room = projector_room(seed=seed, trace=False, register=False,
                          use_session_leases=lease_s is not None,
                          session_lease_s=lease_s or 60.0)
    sim = room.sim
    sessions = room.smart.projection_sessions

    sessions.acquire("forgetful-user", lease_s or 60.0)
    outcome = {"acquired_at": None, "denials": 0}

    def try_acquire() -> None:
        if outcome["acquired_at"] is not None:
            return
        try:
            sessions.acquire("patient-user", lease_s or 60.0)
            outcome["acquired_at"] = sim.now
        except SessionError:
            outcome["denials"] += 1
            sim.schedule(retry_interval, try_acquire)

    sim.schedule(retry_interval, try_acquire)
    if admin_after_s is not None:
        sim.schedule(admin_after_s, sessions.force_release, "admin")
    sim.run(until=horizon)

    wait = (outcome["acquired_at"] if outcome["acquired_at"] is not None
            else float("inf"))
    return {
        "policy": (f"lease={lease_s:.0f}s" if lease_s is not None else
                   ("admin intervention" if admin_after_s is not None
                    else "no lease, no admin")),
        "wait_s": wait,
        "denials": outcome["denials"],
        "evictions": sessions.evictions,
    }


@experiment("E4-stale")
def run_stale(lease_durations: Sequence[float] = (10.0, 30.0, 60.0),
              admin_after_s: float = 300.0, horizon: float = 400.0,
              retry_interval: float = 2.0, seed: int = 6) -> ExperimentResult:
    """Wait for the projector after a user forgets to release it."""
    result = ExperimentResult(
        "E4-stale", "stale-session recovery: leases vs administrator",
        ["policy", "wait_s", "denials", "evictions"])
    for lease_s in lease_durations:
        result.add_row(**_stale_session_wait(lease_s, None, seed, horizon,
                                             retry_interval))
    result.add_row(**_stale_session_wait(None, admin_after_s, seed, horizon,
                                         retry_interval))
    result.add_row(**_stale_session_wait(None, None, seed, horizon,
                                         retry_interval))
    result.notes.append(
        "leases bound the wait by the lease duration; without them the "
        "next user depends on an administrator — or waits forever")
    return result


@experiment("E4-orders")
def run_orders(contenders: int = 2, repeats: int = 20,
               seed: int = 24, hold_s: float = 5.0) -> ExperimentResult:
    """Multiple users, different orders: split vs atomic acquisition.

    Two presenters need *both* services.  Under split acquisition, user A
    grabs projection-then-control while user B grabs control-then-
    projection; when their first grabs interleave, each holds half and
    neither completes — deadlock until the leases expire.  The atomic
    ``acquire_both`` operation removes the interleaving.  Measures the
    fraction of contended rounds that deadlock and the time both users
    take to finish.
    """
    result = ExperimentResult(
        "E4-orders", "split vs atomic acquisition under contention",
        ["strategy", "rounds", "deadlocks", "mean_completion_s"])
    for strategy in ("split", "atomic"):
        deadlocks = 0
        completion_times = []
        for r in range(repeats):
            room = projector_room(seed=seed + r, trace=False,
                                  register=False, session_lease_s=30.0)
            sim = room.sim
            smart = room.smart
            done = {}

            def make_user(name: str, order, strategy=strategy,
                          smart=smart, sim=sim, done=done) -> None:
                tokens = {}

                def release_all() -> None:
                    if "projection" in tokens:
                        smart.projection_sessions.release(tokens["projection"])
                    if "control" in tokens:
                        smart.control_sessions.release(tokens["control"])
                    done[name] = sim.now

                if strategy == "atomic":
                    try:
                        grant = smart._proj_acquire_both(name, owner=name)
                        tokens["projection"] = grant["token"]
                        tokens["control"] = grant["control_token"]
                        sim.schedule(hold_s, release_all)
                    except SessionError:
                        # Busy: retry shortly (bounded wait, no deadlock).
                        sim.schedule(1.0, make_user, name, order)
                    return
                # Split strategy: grab the two sessions one at a time in
                # the user's own order, retrying each half.
                managers = {"projection": smart.projection_sessions,
                            "control": smart.control_sessions}

                def grab(index: int) -> None:
                    if index == len(order):
                        sim.schedule(hold_s, release_all)
                        return
                    which = order[index]
                    try:
                        session = managers[which].acquire(name, 30.0)
                        tokens[which] = session.token
                        sim.schedule(0.1, grab, index + 1)
                    except SessionError:
                        # Holds whatever it already has and retries —
                        # the deadlock recipe.
                        sim.schedule(1.0, grab, index)

                grab(0)

            # User B arrives a beat after A (jittered): sometimes A wins
            # both halves before B starts, sometimes their grabs
            # interleave — the realistic mix of orders.
            jitter = float(sim.rng("e4orders").uniform(0.0, 0.3))
            sim.schedule(1.0, make_user, "user-A", ("projection", "control"))
            sim.schedule(1.0 + jitter, make_user, "user-B",
                         ("control", "projection"))
            sim.run(until=25.0)
            if len(done) < 2:
                deadlocks += 1
            else:
                completion_times.append(max(done.values()))
        result.add_row(strategy=strategy, rounds=repeats,
                       deadlocks=deadlocks,
                       mean_completion_s=(sum(completion_times)
                                          / len(completion_times)
                                          if completion_times
                                          else float("inf")))
    result.notes.append(
        "split acquisition in opposite orders deadlocks until leases "
        "expire; one atomic all-or-nothing operation eliminates it")
    return result


@experiment("E4-proxy")
def run_proxy_download(code_sizes: Sequence[int] = (1024, 8192, 32768, 65536),
                       rates: Sequence[str] = ("11Mbps", "1Mbps"),
                       seed: int = 22, horizon: float = 30.0) -> ExperimentResult:
    """Mobile code on slow radios.

    "Mobile code and data" is one of Aroma's four research areas: Jini
    clients *download* a service's proxy object at lookup time.  The
    lookup reply's wire size includes the proxy code, so bind time grows
    with proxy size — painfully so at 1 Mb/s.  Measures time from lookup
    request to proxy in hand.
    """
    from ..discovery.records import ServiceItem, ServiceProxy, ServiceTemplate, new_service_id
    from ..env.radio import RATE_BY_NAME

    result = ExperimentResult(
        "E4-proxy", "proxy (mobile code) download time vs size and rate",
        ["rate", "proxy_kb", "bind_time_s"])
    for rate_name in rates:
        for code_bytes in code_sizes:
            room = projector_room(seed=seed, trace=False, register=False,
                                  fixed_rate=RATE_BY_NAME[rate_name])
            sim = room.sim
            item = ServiceItem(new_service_id(sim), "fat-service",
                               ServiceProxy("adapter", 44, "fat",
                                            code_bytes=code_bytes))
            room.adapter_discovery.discover(
                lambda _loc, it=item, d=room.adapter_discovery:
                d.register(it, 60.0))
            timing = {}

            def look(room=room, timing=timing) -> None:
                timing["asked"] = room.sim.now
                room.laptop_discovery.find(
                    ServiceTemplate(service_type="fat-service"),
                    lambda items, t=timing, s=room.sim:
                    t.update(bound=s.now) if items else None)

            sim.schedule(2.0, look)
            sim.run(until=horizon)
            bind = (timing.get("bound", float("nan"))
                    - timing.get("asked", 0.0))
            result.add_row(rate=rate_name, proxy_kb=code_bytes / 1024,
                           bind_time_s=bind)
    result.notes.append("bind time ≈ proxy size / link rate + MAC overhead; "
                        "mobile code is nearly free at 11 Mb/s and a "
                        "half-second affair at 1 Mb/s for 64 kB proxies")
    return result


@experiment("E4-hijack")
def run_hijack(attempts: int = 50, seed: int = 7) -> ExperimentResult:
    """Session tokens versus a squatter replaying guessed tokens."""
    result = ExperimentResult(
        "E4-hijack", "hijack prevention by session tokens",
        ["attacker_attempts", "hijacks_succeeded", "invalid_tokens_logged"])
    room = projector_room(seed=seed, trace=False, register=False)
    sessions = room.smart.projection_sessions
    session = sessions.acquire("legitimate", 60.0)
    rng = room.sim.rng("attacker")
    hijacks = 0
    for _ in range(attempts):
        guess = f"tok-{int(rng.integers(1, 1000))}-{int(rng.integers(1, 1 << 30))}"
        if sessions.validate(guess):
            hijacks += 1
    assert sessions.validate(session.token)
    result.add_row(attacker_attempts=attempts, hijacks_succeeded=hijacks,
                   invalid_tokens_logged=sessions.invalid_tokens)
    return result
