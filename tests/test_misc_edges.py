"""Edge-case tests sweeping up less-travelled paths."""

from __future__ import annotations

from repro.discovery.protocol import DiscoveryAgent, RegistryLocator
from repro.experiments.workloads import projector_room
from repro.phys.devices import Device
from repro.services.vnc import VNCViewer


# ---------------------------------------------------------------------------
# DiscoveryAgent freshness bookkeeping
# ---------------------------------------------------------------------------

def test_agent_staleness_and_forget(sim, world, medium):
    device = Device(sim, world, "node", (5, 5), medium=medium)
    agent = DiscoveryAgent(sim, device)
    locator = RegistryLocator("reg", "hub", 10)
    agent._learn(locator)
    assert agent.stale(max_age=100.0) == []
    sim.schedule(50.0, lambda: None)
    sim.run()
    assert agent.stale(max_age=10.0) == ["reg"]
    agent.forget("reg")
    assert agent.known == {}
    # Re-learning after forgetting fires listeners again.
    found = []
    agent.on_found(found.append)
    agent._learn(locator)
    assert len(found) == 1


def test_agent_on_found_replays_known(sim, world, medium):
    device = Device(sim, world, "node", (5, 5), medium=medium)
    agent = DiscoveryAgent(sim, device)
    agent._learn(RegistryLocator("reg", "hub", 10))
    late = []
    agent.on_found(late.append)  # registered after discovery
    assert [loc.registry_id for loc in late] == ["reg"]


def test_agent_probing_stops_after_discovery(sim, world, medium):
    device = Device(sim, world, "node", (5, 5), medium=medium)
    agent = DiscoveryAgent(sim, device, probe_interval=0.5, max_probes=10)
    agent.discover()
    sim.schedule(1.2, lambda: agent._learn(RegistryLocator("reg", "hub", 10)))
    sim.run(until=10.0)
    # Probes stop once something is known: far fewer than max_probes sent.
    assert agent._probes_sent <= 4


# ---------------------------------------------------------------------------
# VNC stall backoff
# ---------------------------------------------------------------------------

def test_vnc_stall_backoff_doubles_and_caps():
    room = projector_room(seed=300, register=False)
    viewer = VNCViewer(room.sim, room.adapter, "laptop",
                       room.adapter.drive_display, target_fps=10.0,
                       stall_timeout=1.0)
    # No server running: stalls accumulate with exponential spacing.
    viewer.start()
    room.sim.run(until=70.0)
    waits = [1.0 * (2 ** k) for k in range(viewer.stalls)]
    assert viewer.stalls >= 4
    assert viewer._current_stall_wait() <= 16.0  # capped


def test_vnc_backoff_resets_after_recovery():
    from repro.services.framebuffer import Framebuffer
    from repro.services.vnc import VNCServer

    room = projector_room(seed=301, register=False)
    room.projector.power(True)
    fb = Framebuffer(256, 256)
    server = VNCServer(room.sim, room.laptop, fb)
    viewer = VNCViewer(room.sim, room.adapter, "laptop",
                       room.adapter.drive_display, target_fps=10.0,
                       stall_timeout=1.0)
    viewer.start()
    room.sim.schedule(5.0, server.start)
    room.sim.run(until=20.0)
    assert viewer.updates_received > 0
    assert viewer._consecutive_stalls == 0


# ---------------------------------------------------------------------------
# User behaviour: repeated verify failure ends in abandonment
# ---------------------------------------------------------------------------

def test_persistent_verify_failure_abandons(sim):
    from repro.resource.faculties import FacultyProfile
    from repro.user.behavior import Procedure, Step, UserAgent

    # A user with minimal patience facing a step whose effect never works.
    faculties = FacultyProfile("f", gui_literacy=0.9, domain_knowledge=0.9,
                               frustration_tolerance=0.05, learning_rate=0.9)
    agent = UserAgent(sim, "f", faculties, frustration_per_fumble=0.5)
    procedure = Procedure("broken", [
        Step("futile", lambda: None, think_time=0.1,
             verify=lambda: False)])
    results = []
    agent.attempt(procedure, results.append)
    sim.run(until=600.0)
    assert results[0].abandoned
    assert not results[0].completed


# ---------------------------------------------------------------------------
# CLI demo subcommand (slowest CLI path)
# ---------------------------------------------------------------------------

def test_cli_demo_runs(capsys):
    from repro.cli import main

    assert main(["demo", "--horizon", "60", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "LPC analysis" in out
    assert "coverage" in out
