"""Mobility models driving entity positions over simulated time.

"The mobile nature of many pervasive computing systems ensures that the
environment's presence will determine the semantics of pervasive
computing" — mobility is what turns the environment from a constant into a
process.  Three classic models are provided:

* :class:`StaticMobility` — fixtures (projector, access point).
* :class:`LinearMobility` — deterministic walk between two points (a
  presenter walking to the podium).
* :class:`RandomWaypoint` — the standard random-waypoint model used for
  E3's ranging experiment.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..kernel.errors import ConfigurationError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator
from .world import World


class Mobility:
    """Base class: periodically updates one entity's world position."""

    def __init__(self, sim: Simulator, world: World, name: str,
                 update_interval: float = 0.5) -> None:
        # Each test is written so that NaN, which compares false, fails.
        if not 0 < update_interval < math.inf:
            raise ConfigurationError("update_interval must be positive and finite")
        self.sim = sim
        self.world = world
        self.name = name
        self.update_interval = update_interval
        self._task = None

    def start(self) -> "Mobility":
        if self._task is None:
            self._task = self.sim.every(self.update_interval, self._tick,
                                        priority=Priority.MEDIUM)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _tick(self) -> None:
        raise NotImplementedError


class StaticMobility(Mobility):
    """No movement; provided so all entities share one interface."""

    def start(self) -> "StaticMobility":
        return self  # nothing to schedule

    def _tick(self) -> None:  # pragma: no cover - never scheduled
        pass


class LinearMobility(Mobility):
    """Move from the current position to ``target`` at ``speed`` m/s, then stop."""

    def __init__(self, sim: Simulator, world: World, name: str,
                 target: Sequence[float], speed: float = 1.4,
                 update_interval: float = 0.5) -> None:
        super().__init__(sim, world, name, update_interval)
        if not 0 < speed < math.inf:
            raise ConfigurationError("speed must be positive and finite")
        self.target = np.asarray(target, dtype=np.float64)
        self.speed = float(speed)
        self.arrived = False

    def _tick(self) -> None:
        if self.arrived:
            return
        pos = self.world.position_of(self.name)
        delta = self.target - pos
        dist = float(np.hypot(delta[0], delta[1]))
        step = self.speed * self.update_interval
        if dist <= step:
            self.world.move(self.name, self.target)
            self.arrived = True
            self.stop()
        else:
            self.world.move(self.name, pos + delta * (step / dist))


class RandomWaypoint(Mobility):
    """Random-waypoint mobility: pick a uniform point, walk there, pause.

    Speeds are drawn uniformly from ``[speed_min, speed_max]`` per leg; the
    pause between legs is ``pause`` seconds.  All randomness comes from the
    simulator stream ``mobility.<name>`` so runs are reproducible and legs
    of different entities are independent.
    """

    def __init__(self, sim: Simulator, world: World, name: str,
                 speed_min: float = 0.5, speed_max: float = 2.0,
                 pause: float = 2.0, update_interval: float = 0.5) -> None:
        super().__init__(sim, world, name, update_interval)
        if not 0 < speed_min <= speed_max < math.inf:
            raise ConfigurationError("need 0 < speed_min <= speed_max < inf")
        if not 0 <= pause < math.inf:
            raise ConfigurationError("pause must be non-negative and finite")
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause = pause
        self._rng = sim.rng(f"mobility.{name}")
        self._target: Optional[np.ndarray] = None
        self._speed = 0.0
        self._pause_until = 0.0
        self.legs_completed = 0

    def _choose_leg(self) -> None:
        self._target = np.array([
            self._rng.uniform(0, self.world.width),
            self._rng.uniform(0, self.world.height),
        ])
        self._speed = float(self._rng.uniform(self.speed_min, self.speed_max))

    def _tick(self) -> None:
        if self.sim.now < self._pause_until:
            return
        if self._target is None:
            self._choose_leg()
        pos = self.world.position_of(self.name)
        delta = self._target - pos
        dist = float(np.hypot(delta[0], delta[1]))
        step = self._speed * self.update_interval
        if dist <= step:
            self.world.move(self.name, self._target)
            self._target = None
            self.legs_completed += 1
            self._pause_until = self.sim.now + self.pause
        else:
            self.world.move(self.name, pos + delta * (step / dist))
