"""Tests for mobility models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.mobility import LinearMobility, RandomWaypoint, StaticMobility
from repro.kernel.errors import ConfigurationError


def test_static_mobility_never_moves(sim, world):
    world.place("rock", (10, 10))
    StaticMobility(sim, world, "rock").start()
    sim.run(until=10.0)
    assert np.allclose(world.position_of("rock"), [10, 10])


def test_linear_mobility_reaches_target(sim, world):
    world.place("walker", (0, 0))
    mob = LinearMobility(sim, world, "walker", target=(10, 0), speed=1.0,
                         update_interval=0.5)
    mob.start()
    sim.run(until=15.0)
    assert mob.arrived
    assert np.allclose(world.position_of("walker"), [10, 0])


def test_linear_mobility_speed_respected(sim, world):
    world.place("walker", (0, 0))
    LinearMobility(sim, world, "walker", target=(100, 0), speed=2.0,
                   update_interval=0.5).start()
    sim.run(until=5.0)
    x, _y = world.position_of("walker")
    assert x == pytest.approx(10.0, abs=1.1)  # ~2 m/s for 5 s


def test_linear_mobility_moves_along_line(sim, world):
    world.place("walker", (0, 0))
    LinearMobility(sim, world, "walker", target=(30, 40), speed=5.0).start()
    sim.run(until=4.0)
    x, y = world.position_of("walker")
    assert y == pytest.approx(x * 40 / 30, abs=0.2)


def test_linear_mobility_bad_speed(sim, world):
    world.place("w", (0, 0))
    with pytest.raises(ConfigurationError):
        LinearMobility(sim, world, "w", target=(1, 1), speed=0.0)


def test_random_waypoint_moves_and_completes_legs(sim, world):
    world.place("roamer", (50, 30))
    mob = RandomWaypoint(sim, world, "roamer", speed_min=2.0, speed_max=4.0,
                         pause=0.5, update_interval=0.25)
    mob.start()
    sim.run(until=120.0)
    assert mob.legs_completed >= 2
    assert not np.allclose(world.position_of("roamer"), [50, 30])


def test_random_waypoint_stays_in_bounds(sim, world):
    world.place("roamer", (0, 0))
    RandomWaypoint(sim, world, "roamer", speed_min=5.0, speed_max=10.0,
                   pause=0.0).start()
    for _ in range(60):
        sim.run(until=sim.now + 1.0)
        x, y = world.position_of("roamer")
        assert 0 <= x <= world.width and 0 <= y <= world.height


def test_random_waypoint_parameter_validation(sim, world):
    world.place("r", (0, 0))
    with pytest.raises(ConfigurationError):
        RandomWaypoint(sim, world, "r", speed_min=0.0)
    with pytest.raises(ConfigurationError):
        RandomWaypoint(sim, world, "r", speed_min=3.0, speed_max=2.0)
    with pytest.raises(ConfigurationError):
        RandomWaypoint(sim, world, "r", pause=-1.0)


def test_random_waypoint_deterministic_per_seed(world):
    from repro.kernel.scheduler import Simulator

    def trajectory(seed):
        sim = Simulator(seed=seed)
        w = type(world)(100, 60)
        w.place("r", (50, 30))
        RandomWaypoint(sim, w, "r").start()
        sim.run(until=30.0)
        return tuple(w.position_of("r"))

    assert trajectory(5) == trajectory(5)
    assert trajectory(5) != trajectory(6)


def test_mobility_stop_halts_updates(sim, world):
    world.place("w", (0, 0))
    mob = LinearMobility(sim, world, "w", target=(100, 0), speed=1.0)
    mob.start()
    sim.run(until=3.0)
    position = world.position_of("w").copy()
    mob.stop()
    sim.run(until=10.0)
    assert np.allclose(world.position_of("w"), position)


def test_bad_update_interval(sim, world):
    world.place("w", (0, 0))
    with pytest.raises(ConfigurationError):
        StaticMobility(sim, world, "w", update_interval=0.0)


@pytest.mark.parametrize("model, kwargs", [
    (LinearMobility, {"speed": float("nan")}),
    (LinearMobility, {"speed": float("inf")}),
    (LinearMobility, {"update_interval": float("nan")}),
    (RandomWaypoint, {"update_interval": float("nan")}),
    (RandomWaypoint, {"speed_min": float("nan")}),
    (RandomWaypoint, {"speed_max": float("nan")}),
    (RandomWaypoint, {"speed_max": float("inf")}),
    (RandomWaypoint, {"pause": float("nan")}),
    (RandomWaypoint, {"pause": float("inf")}),
])
def test_non_finite_parameters_rejected(sim, world, model, kwargs):
    """NaN passed the old ``<= 0`` and ``< 0`` tests."""
    world.place("w", (0, 0))
    if model is LinearMobility:
        kwargs = dict(kwargs, target=(1, 1))
    with pytest.raises(ConfigurationError):
        model(sim, world, "w", **kwargs)
