"""Soak tests: long simulated horizons must stay bounded and healthy."""

from __future__ import annotations

from repro.experiments.workloads import presentation_workflow, projector_room
from repro.services.content import SlideShow


def test_one_hour_presentation_stays_bounded():
    """An hour of simulated presenting: queues drain, trace capacity
    holds, sessions stay renewed, pixels keep flowing."""
    room = projector_room(seed=200, trace=True, session_lease_s=60.0)
    room.sim.tracer.capacity = 20_000  # bounded even with tracing on
    presentation_workflow(room)
    SlideShow(room.sim, room.client.fb, dwell_s=25.0).start()
    room.sim.every(20.0, room.client.renew_sessions, start=20.0)

    checkpoints = []

    def checkpoint() -> None:
        checkpoints.append({
            "t": room.sim.now,
            "frames": room.projector.frames_displayed,
            "laptop_queue": room.laptop.nic.mac.queue_depth(),
            "pending_events": room.sim.pending(),
            "holder": room.smart.projection_sessions.holder,
        })

    room.sim.every(600.0, checkpoint)
    room.sim.run(until=3600.0)

    assert len(checkpoints) == 6
    for point in checkpoints:
        assert point["holder"] == "laptop"        # renewals held the session
        assert point["laptop_queue"] < 32          # no queue creep
        assert point["pending_events"] < 500       # no event-leak
    # Frames keep arriving throughout, not just at the start.
    frame_counts = [p["frames"] for p in checkpoints]
    assert all(b > a for a, b in zip(frame_counts, frame_counts[1:]))
    # MAC-level health: still nearly loss-free on a clean channel.
    stats = room.laptop.nic.mac.stats
    assert stats["tx_retry_drops"] == 0
    assert stats["tx_success"] > 100


def test_registry_hours_of_lease_churn():
    """Thousands of grant/renew/expire cycles leave no lease residue."""
    room = projector_room(seed=201, trace=False,
                          registration_lease_s=5.0)
    room.sim.run(until=1800.0)  # adapter auto-renews both services
    # Only the two live registrations remain in the table.
    assert len(room.registry.leases.live()) == 2
    assert len(room.registry.items()) == 2
    assert room.registry.leases.renewed_count > 300
    # Sweeps never removed a renewed lease.
    assert room.registry.leases.expired_count == 0


def test_event_heap_does_not_accumulate_cancelled_events():
    """Cancelling periodic work must not leave the heap growing."""
    from repro.kernel.scheduler import Simulator

    sim = Simulator(seed=0, trace=False)
    for i in range(200):
        task = sim.every(0.5, lambda: None)
        sim.schedule(float(i % 7) + 0.1, task.cancel)
    sim.run(until=100.0)
    assert sim.pending() == 0
