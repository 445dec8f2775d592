"""Per-entity-invalidated cache of link geometry for the radio medium.

The SINR hot path asks the same question over and over: *what does station
``rx`` hear when ``tx`` transmits?*  For a stationary deployment the answer
— path loss over the pair distance plus the frozen log-normal shadowing
term — never changes, yet the seed code recomputed it for every frame and
every interferer.  :class:`LinkCache` memoises the per-pair terms in an
adjacency map, ``a -> b -> (loss, shadow)``, written under both ends.

Invalidation rule (documented in ``docs/performance.md``): a link is valid
while neither of its ends has moved.  The cache remembers the
:attr:`~repro.env.world.World.epoch` it last synced at; when the epoch
differs it asks :meth:`~repro.env.world.World.moved_since` which entities
moved, pops their rows and removes them from their partners' rows — work
proportional to the movers' degree, never a wholesale clear.  A
placement evicts nothing (a new entity has no links yet).  Stationary
rooms compute link geometry exactly once; mobile rooms recompute only the
links of stations that moved.

:meth:`LinkCache.row` hands one entity's adjacency row to a caller that
reads many of its links at once (the medium's per-receiver decode).

Loss and shadowing are stored separately so a cached
``rx_power_dbm`` is bit-identical to the uncached
``tx_power - loss - shadow`` evaluation order of
:meth:`~repro.env.radio.PropagationModel.received_power_dbm`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .radio import PropagationModel
from .world import World


class LinkCache:
    """Per-pair link attenuation, evicted per moved entity.

    Both terms are symmetric (distance and frozen shadowing), so each
    link is computed once and stored under both of its ends.
    """

    __slots__ = ("world", "propagation", "_epoch", "_links",
                 "hits", "misses", "invalidations")

    def __init__(self, world: World, propagation: PropagationModel) -> None:
        self.world = world
        self.propagation = propagation
        self._epoch = world.epoch
        #: a -> b -> (path_loss_db, shadowing_db), stored under both ends
        self._links: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def terms(self, a: str, b: str) -> Tuple[float, float]:
        """``(path_loss_db, shadowing_db)`` for the pair ``{a, b}``.

        Callers that need both the total attenuation and the received
        power of one link take the terms once and combine them in the
        orders :meth:`attenuation_db` and :meth:`rx_power_dbm` use.
        """
        if self.world.epoch != self._epoch:
            self._evict_moved()
        row = self._links.get(a)
        if row is not None:
            terms = row.get(b)
            if terms is not None:
                self.hits += 1
                return terms
        self.misses += 1
        prop = self.propagation
        terms = (prop.path_loss_scalar_db(self.world.distance_between(a, b)),
                 prop.shadowing_db(a, b))
        self._links.setdefault(a, {})[b] = terms
        self._links.setdefault(b, {})[a] = terms
        return terms

    def row(self, name: str) -> Dict[str, Tuple[float, float]]:
        """The cached links of ``name`` at the current topology: partner
        -> ``(path_loss_db, shadowing_db)``, the terms :meth:`terms`
        returns for ``{name, partner}``.

        For a caller that reads many links of one entity.  It adds each
        link it reads from the row to :attr:`hits` and takes a link
        missing from it through :meth:`terms`, which counts the miss and
        writes the link into this row, so :meth:`stats` stays exact.
        """
        if self.world.epoch != self._epoch:
            self._evict_moved()
        return self._links.setdefault(name, {})

    def _evict_moved(self) -> None:
        """Drop every link with an end placed or moved since the last sync."""
        world = self.world
        links = self._links
        names = world.names_view()
        for index in world.moved_since(self._epoch):
            name = names[index]
            for partner in links.pop(name, ()):
                row = links.get(partner)
                if row is not None:  # None only for a self-link's own row
                    del row[name]
        self._epoch = world.epoch
        self.invalidations += 1

    def rx_power_dbm(self, tx_power_dbm: float, tx: str, rx: str) -> float:
        """Received power in dBm over the cached link."""
        loss, shadow = self.terms(tx, rx)
        return tx_power_dbm - loss - shadow

    def attenuation_db(self, a: str, b: str) -> float:
        """Total attenuation (path loss + shadowing) for the pair ``{a, b}``."""
        loss, shadow = self.terms(a, b)
        return loss + shadow

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """The cache's counters, for tests and ad-hoc profiling."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "cached_links": self._link_count(),
        }

    def _link_count(self) -> int:
        """Distinct cached pairs (each is stored under both ends)."""
        return sum(len(row) + (name in row)
                   for name, row in self._links.items()) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkCache epoch={self._epoch} links={self._link_count()} "
                f"hit_rate={self.hit_rate:.2f}>")
