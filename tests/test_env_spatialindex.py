"""Tests for the uniform-grid spatial index behind the medium's culling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.spatialindex import MIN_SEPARATION_M, SpatialGrid
from repro.env.world import World


def brute_force_within(world: World, name: str, radius: float):
    """The reference O(n) scan the grid must reproduce exactly."""
    out = []
    for other in world.names():
        if other == name:
            continue
        if world.distance_between(name, other) <= radius:
            out.append(other)
    return out


def scatter(world: World, count: int, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    for i in range(count):
        world.place(f"e{i}", (rng.uniform(0, world.width),
                              rng.uniform(0, world.height)))


# ---------------------------------------------------------------------------
# Exact equivalence with the brute-force scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radius", [0.05, 0.1, 1.0, 7.0, 25.0, 1000.0])
def test_grid_matches_brute_force(radius):
    world = World(100.0, 60.0)
    scatter(world, 120)
    grid = SpatialGrid(world)
    for name in ("e0", "e17", "e119"):
        assert grid.neighbors_within(name, radius) == \
            brute_force_within(world, name, radius)


def test_grid_matches_brute_force_many_seeds():
    for seed in range(5):
        world = World(200.0, 200.0)
        scatter(world, 80, seed=seed)
        grid = SpatialGrid(world)
        for name in world.names()[::13]:
            for radius in (2.0, 10.0, 50.0):
                assert grid.neighbors_within(name, radius) == \
                    brute_force_within(world, name, radius)


def test_results_in_insertion_order():
    world = World(10.0, 10.0)
    for name in ("z", "m", "a", "q"):
        world.place(name, (5.0, 5.0))
    # All co-located: everything within 0.1 of everything, insertion order.
    assert SpatialGrid(world).neighbors_within("m", 0.2) == ["z", "a", "q"]


def test_min_separation_clip_matches_world():
    world = World(10.0, 10.0)
    world.place("a", (5.0, 5.0))
    world.place("b", (5.0, 5.0))  # co-located -> clipped to 0.1 m
    grid = SpatialGrid(world)
    assert grid.neighbors_within("a", MIN_SEPARATION_M) == ["b"]
    assert grid.neighbors_within("a", MIN_SEPARATION_M / 2) == []


# ---------------------------------------------------------------------------
# Epoch-keyed lazy rebuilds
# ---------------------------------------------------------------------------

def test_rebuilds_only_when_epoch_moves():
    world = World(50.0, 50.0)
    scatter(world, 20)
    grid = SpatialGrid(world)
    grid.neighbors_within("e0", 5.0)
    grid.neighbors_within("e1", 5.0)
    assert grid.stats()["rebuilds"] == 1  # second query reused the build

    world.move("e3", (1.0, 1.0))
    grid.neighbors_within("e0", 5.0)
    assert grid.stats()["rebuilds"] == 2


def test_moves_are_observed():
    world = World(100.0, 100.0)
    world.place("a", (10.0, 10.0))
    world.place("b", (90.0, 90.0))
    grid = SpatialGrid(world)
    assert grid.neighbors_within("a", 5.0) == []
    world.move("b", (12.0, 10.0))  # crosses into a's neighbourhood
    assert grid.neighbors_within("a", 5.0) == ["b"]
    assert grid.neighbors_within("a", 5.0) == \
        brute_force_within(world, "a", 5.0)


def test_placements_after_build_are_observed():
    world = World(100.0, 100.0)
    world.place("a", (50.0, 50.0))
    grid = SpatialGrid(world)
    assert grid.neighbors_within("a", 10.0) == []
    world.place("b", (52.0, 50.0))
    assert grid.neighbors_within("a", 10.0) == ["b"]


# ---------------------------------------------------------------------------
# Configuration and edge cases
# ---------------------------------------------------------------------------

def test_world_spanning_radius_takes_full_scan_path():
    world = World(100.0, 100.0)
    scatter(world, 50)
    grid = SpatialGrid(world)
    result = grid.neighbors_within("e0", 10_000.0)
    assert grid.stats()["full_scans"] >= 1
    assert result == brute_force_within(world, "e0", 10_000.0)
    assert len(result) == 49


def test_single_entity_world():
    world = World(10.0, 10.0)
    world.place("only", (5.0, 5.0))
    grid = SpatialGrid(world)
    assert grid.neighbors_within("only", 100.0) == []


def test_world_within_uses_shared_grid():
    """One grid serves every within-radius query of a static world from
    one build, each equal to the brute-force scan."""
    world = World(100.0, 100.0)
    scatter(world, 40)
    grid = SpatialGrid(world)
    for name in ("e0", "e9", "e39"):
        assert grid.neighbors_within(name, 15.0) == \
            brute_force_within(world, name, 15.0)
    assert grid.stats()["queries"] == 3
    assert grid.stats()["rebuilds"] == 1
