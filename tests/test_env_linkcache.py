"""Tests for the link cache and its per-entity eviction."""

from __future__ import annotations

import pytest

from repro.env.linkcache import LinkCache
from repro.env.radio import PropagationModel
from repro.env.world import World


@pytest.fixture
def world():
    w = World(100.0, 60.0)
    w.place("a", (10.0, 10.0))
    w.place("b", (40.0, 30.0))
    w.place("c", (70.0, 50.0))
    return w


@pytest.fixture
def cache(world):
    return LinkCache(world, PropagationModel())


def test_cached_power_bit_identical_to_uncached(world, cache):
    prop = cache.propagation
    expected = prop.received_power_dbm(
        15.0, world.distance_between("a", "b"), "a", "b")
    assert cache.rx_power_dbm(15.0, "a", "b") == expected
    # Second lookup serves from cache and must not drift.
    assert cache.rx_power_dbm(15.0, "a", "b") == expected


def test_hit_miss_counting(cache):
    cache.rx_power_dbm(15.0, "a", "b")
    cache.rx_power_dbm(15.0, "a", "b")
    cache.rx_power_dbm(15.0, "b", "a")   # unordered key: same link
    cache.rx_power_dbm(15.0, "a", "c")
    assert cache.misses == 2
    assert cache.hits == 2
    assert cache.hit_rate == pytest.approx(0.5)


def test_epoch_bump_on_move_invalidates(world, cache):
    before = cache.rx_power_dbm(15.0, "a", "b")
    world.move("a", (90.0, 55.0))
    after = cache.rx_power_dbm(15.0, "a", "b")
    assert cache.invalidations == 1
    assert after != before
    assert after == cache.propagation.received_power_dbm(
        15.0, world.distance_between("a", "b"), "a", "b")


def test_epoch_bump_on_place_invalidates(world, cache):
    cache.rx_power_dbm(15.0, "a", "b")
    world.place("d", (5.0, 5.0))
    cache.rx_power_dbm(15.0, "a", "b")
    assert cache.invalidations == 1


def test_stats_snapshot(cache):
    cache.attenuation_db("a", "b")
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 0
    assert stats["invalidations"] == 0
    assert stats["cached_links"] == 1


def test_move_evicts_only_the_movers_links(world, cache):
    cache.terms("a", "b")
    cache.terms("b", "c")
    world.move("a", (90.0, 55.0))
    cache.terms("b", "c")
    assert (cache.hits, cache.misses) == (1, 2)  # b-c survived the move
    cache.terms("b", "a")
    assert (cache.hits, cache.misses) == (1, 3)  # a-b was evicted
    prop = cache.propagation
    assert cache.attenuation_db("a", "b") == (
        prop.path_loss_scalar_db(world.distance_between("a", "b"))
        + prop.shadowing_db("a", "b"))


def test_place_evicts_nothing(world, cache):
    cache.terms("a", "b")
    cache.terms("a", "c")
    world.place("d", (5.0, 5.0))
    cache.terms("b", "a")
    cache.terms("c", "a")
    assert (cache.hits, cache.misses) == (2, 2)
    assert cache.stats()["cached_links"] == 2


def test_repeated_moves_do_not_grow_partner_rows(world, cache):
    for step in range(20):
        world.move("a", (float(step), 10.0))
        cache.terms("a", "b")
        cache.terms("c", "a")
        cache.terms("b", "c")
    assert cache.stats()["cached_links"] == 3
    assert {name: len(row) for name, row in cache._links.items()} == {
        "a": 2, "b": 2, "c": 2}
    assert cache.misses == 2 * 20 + 1  # a's two links per move, b-c once


def test_self_link_is_counted_once_and_evicted(world, cache):
    """A unicast frame addressed to its own sender looks up ``{a, a}``."""
    cache.terms("a", "a")
    cache.terms("a", "b")
    assert cache.stats()["cached_links"] == 2
    world.move("a", (20.0, 20.0))
    cache.terms("b", "c")
    assert cache.stats()["cached_links"] == 1
    assert cache._links["b"] == {"c": cache.terms("c", "b")}


def test_stats_keys_are_stable(cache):
    """The link-count pins below read these keys."""
    cache.terms("a", "b")
    assert set(cache.stats()) == {"hits", "misses", "invalidations",
                                  "hit_rate", "cached_links"}


def test_row_is_synced_to_the_topology(world, cache):
    """``row`` evicts moved entities' links first, as ``terms`` does."""
    cache.terms("a", "b")
    cache.terms("c", "b")
    world.move("a", (90.0, 55.0))
    assert cache.row("b") == {"c": cache.terms("b", "c")}
    assert cache.row("a") == {}


def _sweeps_room():
    """A 16-pair E2-style room (the retired sweeps benchmark's link-cache
    room), to 3 s."""
    from repro.experiments.workloads import interferer_field, projector_room

    room = projector_room(seed=2, trace=False, register=False)
    interferer_field(room, 16, frames_per_second=20.0)
    room.sim.run(until=3.0)
    return room.medium


def _dense_cell():
    """Room 2 of ``e11_cells``' grid, to 2 s: some of its receivers are
    transmitting themselves while an in-band frame ahead of theirs
    interferes."""
    from repro.experiments.cellgrid import cell_layout, cell_room

    rooms = cell_room(cell_layout(cells=8, stations_per_cell=50, seed=7), 2)
    rooms.sim.run(until=2.0)
    return rooms.medium


@pytest.mark.parametrize("room, counts", [(_sweeps_room, (3446, 326)),
                                          (_dense_cell, (6096, 1225))],
                         ids=["sweeps_room", "e11_room"])
def test_medium_lookups_keep_the_link_counts(room, counts):
    """The medium reads links from a receiver's row and counts each read
    as a hit, so ``hits`` and ``misses`` stay those of one ``terms`` call
    per lookup of the in-order interferer scan (recorded when every
    lookup was such a call)."""
    stats = room().link_cache.stats()
    assert (stats["hits"], stats["misses"]) == counts


def test_world_epoch_counter(world):
    epoch = world.epoch
    world.move("a", (1.0, 1.0))
    assert world.epoch == epoch + 1
    world.place("z", (2.0, 2.0))
    assert world.epoch == epoch + 2
