"""Topology-epoch-keyed cache of link geometry for the radio medium.

The SINR hot path asks the same question over and over: *what does station
``rx`` hear when ``tx`` transmits?*  For a stationary deployment the answer
— path loss over the pair distance plus the frozen log-normal shadowing
term — never changes, yet the seed code recomputed it for every frame and
every interferer.  :class:`LinkCache` memoises the per-pair terms and keys
the whole cache on the :attr:`~repro.env.world.World.epoch` counter, which
the world bumps on every ``place``/``move``.  Stationary rooms compute link
geometry exactly once; mobile rooms pay one recompute per mobility step,
never per frame.

Invalidation rule (documented in ``docs/performance.md``): the cache is
valid exactly while ``world.epoch`` is unchanged.  Any placement or move
invalidates *everything* — coarse, but checking one integer per lookup is
what keeps the hit path to a dict probe.

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
    """Per-pair link attenuation, invalidated by world topology epoch.

    Both terms are symmetric (distance and frozen shadowing), so pairs are
    keyed unordered and each link is computed once per epoch.
    """

    __slots__ = ("world", "propagation", "_epoch", "_links",
                 "hits", "misses", "invalidations")

    def __init__(self, world: World, propagation: PropagationModel) -> None:
        self.world = world
        self.propagation = propagation
        self._epoch = world.epoch
        #: unordered (a, b) -> (path_loss_db, shadowing_db)
        self._links: Dict[Tuple[str, str], Tuple[float, float]] = {}
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
        epoch = self.world.epoch
        if epoch != self._epoch:
            self._links.clear()
            self._epoch = epoch
            self.invalidations += 1
        key = (a, b) if a <= b else (b, a)
        terms = self._links.get(key)
        if terms is None:
            self.misses += 1
            prop = self.propagation
            terms = (prop.path_loss_scalar_db(self.world.distance_between(a, b)),
                     prop.shadowing_db(a, b))
            self._links[key] = terms
        else:
            self.hits += 1
        return terms

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
        """Counters for benchmarks and ``BENCH_*.json`` reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "cached_links": len(self._links),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkCache epoch={self._epoch} links={len(self._links)} "
                f"hit_rate={self.hit_rate:.2f}>")
