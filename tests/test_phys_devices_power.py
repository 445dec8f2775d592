"""Tests for devices, batteries and the NIC wrapper."""

from __future__ import annotations

import pytest

from repro.kernel.errors import ConfigurationError
from repro.phys.devices import (
    PDA,
    AromaAdapter,
    Device,
    DigitalProjector,
    Laptop,
    laptop_form,
    pda_form,
)
from repro.phys.power import Battery, EnergyMeter


# ---------------------------------------------------------------------------
# Battery / energy
# ---------------------------------------------------------------------------

def test_battery_drain(sim):
    battery = Battery(sim, 100.0)
    used = battery.draw(10.0, 5.0)
    assert used == 50.0
    assert battery.fraction == pytest.approx(0.5)
    assert not battery.empty


def test_battery_clamps_at_zero_and_issues(sim):
    battery = Battery(sim, 10.0, "pda.battery")
    battery.draw(10.0, 5.0)
    assert battery.empty
    assert battery.drained_events == 1
    assert len(sim.tracer.select("issue.power")) == 1


def test_battery_invalid_args(sim):
    with pytest.raises(ConfigurationError):
        Battery(sim, 0.0)
    battery = Battery(sim, 10.0)
    with pytest.raises(ConfigurationError):
        battery.draw(-1.0, 1.0)


def test_energy_meter_accumulates(sim):
    meter = EnergyMeter(sim)
    meter.account("tx", 2.0)
    meter.account("idle", 10.0)
    assert meter.energy_j["tx"] == pytest.approx(2.8)
    assert meter.total_j == pytest.approx(2.8 + 7.5)


def test_energy_meter_unknown_state(sim):
    meter = EnergyMeter(sim)
    with pytest.raises(ConfigurationError):
        meter.account("warp", 1.0)


def test_energy_meter_drains_battery(sim):
    battery = Battery(sim, 100.0)
    meter = EnergyMeter(sim, battery)
    meter.account("tx", 10.0)
    assert battery.remaining_j == pytest.approx(100.0 - 14.0)


# ---------------------------------------------------------------------------
# Devices
# ---------------------------------------------------------------------------

def test_device_without_medium_is_offline(sim, world):
    device = Device(sim, world, "box", (1, 1))
    assert not device.networked
    with pytest.raises(ConfigurationError):
        device.reliable(10)


def test_device_with_medium_has_stack(sim, world, medium):
    device = Device(sim, world, "node", (1, 1), medium=medium)
    assert device.networked
    assert device.stack.address == "node"
    assert device.multicast is not None


def test_laptop_defaults(sim, world, medium):
    laptop = Laptop(sim, world, "laptop", (5, 5), medium)
    assert laptop.platform.ui.kind == "gui"
    assert laptop.battery is not None
    assert laptop.form.requires_proximity  # the tether


def test_pda_defaults(sim, world, medium):
    pda = PDA(sim, world, "pda", (5, 5), medium)
    assert not pda.platform.execution.multitasking
    assert pda.battery.capacity_j < 10_000


def test_projector_displays_only_when_ready(sim, world):
    projector = DigitalProjector(sim, world, "beamer", (1, 1))
    assert not projector.display("video-in", 1000)  # lamp off
    projector.power(True)
    assert not projector.display("video-in", 1000)  # wrong input
    projector.select_input("video-in")
    assert projector.display("video-in", 1000)
    assert projector.frames_displayed == 1
    assert projector.pixels_displayed == 1000


def test_projector_fps_window(sim, world):
    projector = DigitalProjector(sim, world, "beamer", (1, 1))
    projector.power(True)
    projector.select_input("x")
    for _ in range(10):
        projector.display("x", 100)
    # 10 frames at t=0 over the (clamped) window
    assert projector.displayed_fps(5.0) > 0.0


def test_projector_bad_resolution(sim, world):
    with pytest.raises(ConfigurationError):
        DigitalProjector(sim, world, "p", (0, 0), resolution=(0, 768))


def test_adapter_drives_connected_projector(sim, world, medium):
    adapter = AromaAdapter(sim, world, "adapter", (1, 1), medium)
    projector = DigitalProjector(sim, world, "beamer", (2, 1))
    assert not adapter.drive_display(100)  # nothing connected -> issue
    assert len(sim.tracer.select("issue.physical")) == 1
    adapter.connect_projector(projector)
    projector.power(True)
    assert adapter.drive_display(100)
    assert projector.input_source == AromaAdapter.VIDEO_SOURCE


def test_form_factor_presets():
    assert laptop_form().requires_proximity
    assert pda_form().weight_kg < 0.5


def test_device_position_property(sim, world, medium):
    device = Device(sim, world, "node", (3, 4), medium=medium)
    x, y = device.position
    assert (x, y) == (3.0, 4.0)


def test_dead_battery_silences_radio(sim, world, medium):
    from repro.phys.power import Battery

    weak = Battery(sim, 0.2, "weak")  # a fifth of a joule: ~100 frames
    device = Device(sim, world, "dying", (10, 10), medium=medium,
                    battery=weak)
    peer = Device(sim, world, "peer", (12, 10), medium=medium)
    sent = 0
    for _ in range(200):
        if device.nic.send("peer", None, 1400):
            sent += 1
        sim.run(until=sim.now + 0.05)
    assert device.nic.dead
    assert sent < 200  # refusals began once the battery emptied
    # The death is visible to the analysis layer.
    assert any("battery drained" in r.message
               for r in sim.tracer.select("issue.power"))
    # And reception is gone too.
    before = device.nic.mac.stats["rx_frames"]
    peer.nic.send("dying", None, 100)
    sim.run(until=sim.now + 1.0)
    assert device.nic.mac.stats["rx_frames"] == before


def test_mains_powered_nic_never_dies(sim, world, medium):
    device = Device(sim, world, "plugged", (10, 10), medium=medium)
    assert device.nic.dead is False
