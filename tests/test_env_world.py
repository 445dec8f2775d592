"""Tests for world geometry and spatial queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.spatialindex import SpatialGrid
from repro.env.world import World
from repro.kernel.errors import ConfigurationError


def test_place_and_position(world):
    world.place("a", (10.0, 20.0))
    assert np.allclose(world.position_of("a"), [10.0, 20.0])


def test_duplicate_name_rejected(world):
    world.place("a", (0, 0))
    with pytest.raises(ConfigurationError):
        world.place("a", (1, 1))


def test_unknown_entity_rejected(world):
    with pytest.raises(ConfigurationError):
        world.position_of("ghost")


def test_positions_clipped_to_bounds(world):
    world.place("a", (-5.0, 1e9))
    x, y = world.position_of("a")
    assert x == 0.0 and y == world.height


def test_move(world):
    world.place("a", (0, 0))
    world.move("a", (5, 5))
    assert np.allclose(world.position_of("a"), [5, 5])


def test_invalid_extent_rejected():
    with pytest.raises(ConfigurationError):
        World(0, 10)
    with pytest.raises(ConfigurationError):
        World(10, -1)


@pytest.mark.parametrize("extent", [(float("nan"), 5), (5, float("nan")),
                                    (float("inf"), 5), (5, float("inf"))])
def test_non_finite_extent_rejected(extent):
    with pytest.raises(ConfigurationError):
        World(*extent)


def test_bad_position_shape_rejected(world):
    with pytest.raises(ConfigurationError):
        world.place("a", (1, 2, 3))


@pytest.mark.parametrize("xy", [(float("nan"), 5), (5, float("nan")),
                                (float("inf"), 5), (5, -float("inf"))])
def test_non_finite_position_rejected(world, xy):
    """A NaN coordinate once passed the clip, and every distance to it
    read as the 0.1 m floor: the station heard every broadcast."""
    world.place("b", (10, 10))
    epoch = world.epoch
    with pytest.raises(ConfigurationError):
        world.place("a", xy)
    with pytest.raises(ConfigurationError):
        world.move("b", xy)
    assert "a" not in world and world.epoch == epoch
    assert np.array_equal(world.position_of("b"), [10, 10])


def test_distance_between_placements(world):
    a = world.place("a", (0, 0))
    b = world.place("b", (3, 4))
    assert world.distance_between(a.name, b.name) == pytest.approx(5.0)


def test_distances_from_vectorised(world):
    world.place("origin", (0, 0))
    world.place("b", (3, 4))
    world.place("c", (6, 8))
    dists = world.distances_from("origin", ["b", "c"])
    assert np.allclose(dists, [5.0, 10.0])


def test_distances_from_all_entities(world):
    world.place("a", (0, 0))
    world.place("b", (10, 0))
    dists = world.distances_from("a")
    assert len(dists) == 2  # includes self (clipped to minimum)


def test_minimum_separation_enforced(world):
    world.place("a", (5, 5))
    world.place("b", (5, 5))
    assert world.distances_from("a", ["b"])[0] == pytest.approx(0.1)


def test_within_radius(world):
    world.place("centre", (50, 30))
    world.place("near", (52, 30))
    world.place("far", (90, 30))
    assert SpatialGrid(world).neighbors_within("centre", 5.0) == ["near"]


def test_placement_property_setter(world):
    placement = world.place("a", (1, 1))
    placement.position = (7, 7)
    assert np.allclose(world.position_of("a"), [7, 7])


def test_len_and_contains(world):
    world.place("a", (0, 0))
    assert len(world) == 1
    assert "a" in world and "b" not in world
    assert world.names() == ["a"]


def test_distance_between_matches_vectorised(world):
    world.place("a", (3, 4))
    world.place("b", (30, 40))
    scalar = world.distance_between("a", "b")
    vector = float(world.distances_from("a", ["b"])[0])
    assert scalar == pytest.approx(vector)
    assert scalar == pytest.approx(45.0)


def test_distance_between_min_clip(world):
    world.place("a", (5, 5))
    world.place("b", (5, 5))
    assert world.distance_between("a", "b") == pytest.approx(0.1)


def test_distance_between_unknown_entity(world):
    world.place("a", (0, 0))
    with pytest.raises(ConfigurationError):
        world.distance_between("a", "ghost")


# ---------------------------------------------------------------------------
# Amortised-doubling placement buffer
# ---------------------------------------------------------------------------

def test_place_five_thousand_entities_is_fast():
    """Filling a big world must be O(n) amortised, not the O(n^2) an
    np.vstack-per-place build costs.  5k placements finish comfortably
    inside a generous wall-clock bound even on a loaded box."""
    import time

    world = World(1000.0, 1000.0)
    t0 = time.perf_counter()
    for i in range(5000):
        world.place(f"e{i}", ((i * 37) % 1000, (i * 91) % 1000))
    elapsed = time.perf_counter() - t0
    assert len(world) == 5000
    assert elapsed < 2.0, f"5k placements took {elapsed:.2f}s"


def test_place_buffer_growth_preserves_positions():
    world = World(50.0, 50.0)
    expected = {}
    for i in range(100):  # crosses several doubling boundaries
        xy = (i % 50, (i * 3) % 50)
        world.place(f"e{i}", xy)
        expected[f"e{i}"] = xy
    for name, xy in expected.items():
        assert np.allclose(world.position_of(name), xy)
    assert world.positions().shape == (100, 2)


def test_positions_view_tracks_moves(world):
    world.place("a", (1, 1))
    world.place("b", (2, 2))
    view = world.positions()
    world.move("a", (9, 9))
    assert np.allclose(view[0], [9, 9])  # view over the live buffer


def test_epoch_bumps_on_place_and_move(world):
    e0 = world.epoch
    world.place("a", (0, 0))
    assert world.epoch == e0 + 1
    world.move("a", (1, 1))
    assert world.epoch == e0 + 2


# ---------------------------------------------------------------------------
# Move stamps
# ---------------------------------------------------------------------------

def test_moved_since_lists_placed_and_moved_indices_ascending(world):
    for name in ("a", "b", "c", "d"):
        world.place(name, (1, 1))
    since = world.epoch
    assert world.moved_since(since).tolist() == []
    world.move("c", (2, 2))
    world.move("a", (3, 3))
    world.move("c", (4, 4))  # moved twice, listed once
    world.place("e", (5, 5))
    assert world.moved_since(since).tolist() == [0, 2, 4]
    # Only what changed after a later epoch.
    mid = world.epoch
    world.move("b", (6, 6))
    assert world.moved_since(mid).tolist() == [1]
    assert world.moved_since(-1).tolist() == [0, 1, 2, 3, 4]


def test_move_stamps_survive_buffer_growth():
    world = World(50.0, 50.0)
    world.place("first", (1, 1))
    world.move("first", (2, 2))
    stamped = world.epoch
    world.place("second", (3, 3))
    for i in range(3 * World._INITIAL_CAPACITY):  # several doublings
        world.place(f"e{i}", (i % 50, 0))
    assert world.moved_since(stamped - 1).tolist() == list(range(len(world)))
    assert world.moved_since(stamped).tolist() == list(range(1, len(world)))
    world.move("first", (4, 4))
    assert world.moved_since(world.epoch - 1).tolist() == [0]
