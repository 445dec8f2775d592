"""The physical world: geometry shared by devices, users and radio waves.

The paper argues the environment deserves its *own* layer beneath the
physical layer: mobile pervasive systems cannot engineer the environment
away.  :class:`World` is that layer made concrete — a bounded 2-D space
holding positioned entities.  The radio medium asks it one scalar
distance per link (:meth:`World.distance_between`, memoised per pair by
the link cache) and which entities moved since an epoch; range queries
go through :class:`~repro.env.spatialindex.SpatialGrid` over its
position array.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..kernel.errors import ConfigurationError


class Placement:
    """A named, movable point in the world."""

    __slots__ = ("name", "_world", "_index")

    def __init__(self, name: str, world: "World", index: int) -> None:
        self.name = name
        self._world = world
        self._index = index

    @property
    def position(self) -> np.ndarray:
        """Current ``(x, y)`` position in metres (a copy)."""
        return self._world._positions[self._index].copy()

    @position.setter
    def position(self, xy: Sequence[float]) -> None:
        self._world.move(self.name, xy)

    def __repr__(self) -> str:  # pragma: no cover
        x, y = self.position
        return f"<Placement {self.name} ({x:.2f}, {y:.2f})>"


class World:
    """A bounded rectangular 2-D world.

    Args:
        width: extent in metres along x.
        height: extent in metres along y.

    Positions are stored in one contiguous ``(n, 2)`` float64 array, the
    array the spatial index and the medium's move checks read in one pass.
    """

    #: Initial capacity of the position buffer (doubles when exhausted).
    _INITIAL_CAPACITY: int = 8

    def __init__(self, width: float = 100.0, height: float = 100.0) -> None:
        # Written so that NaN fails: it compares false with everything.
        if not (0.0 < width < math.inf and 0.0 < height < math.inf):
            raise ConfigurationError(
                f"world extent must be positive and finite, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)
        # Positions live in a preallocated buffer with amortised doubling:
        # ``place`` is O(1) amortised instead of the O(n) per-call copy an
        # ``np.vstack`` incremental build costs (O(n^2) to fill a world).
        self._buf = np.empty((self._INITIAL_CAPACITY, 2), dtype=np.float64)
        #: per-entity move stamp: the epoch of its last ``place``/``move``,
        #: grown together with ``_buf``.
        self._stamps = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._n: int = 0
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._epoch: int = 0

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Topology epoch: bumped on every placement or move.

        Consumers that cache anything derived from positions key their
        cache on this counter.  A change means *something* moved; the
        spatial index rebuilds wholesale, while the radio link cache and
        the medium's receive tables ask :meth:`moved_since` *what* moved
        and invalidate only that.
        """
        return self._epoch

    def moved_since(self, epoch: int) -> np.ndarray:
        """Ascending indices of the entities placed or moved after
        ``epoch``.

        Each entity carries one stamp, the epoch of its last ``place`` or
        ``move``, so memory stays bounded by the entity count however
        many moves happen; an entity moved twice is listed once.
        """
        return np.flatnonzero(self._stamps[: self._n] > epoch)

    @property
    def _positions(self) -> np.ndarray:
        """The live ``(n, 2)`` position array (a view into the buffer).

        Views go stale when a ``place`` forces the buffer to grow, so
        consumers must re-fetch per operation rather than hold one.
        """
        return self._buf[: self._n]

    def positions(self) -> np.ndarray:
        """Read-only view of all positions in insertion order, ``(n, 2)``.

        Used by the spatial index and vectorised consumers; treat it as
        immutable and re-fetch after any ``place`` (the buffer may move).
        """
        return self._buf[: self._n]

    def place(self, name: str, xy: Sequence[float]) -> Placement:
        """Add an entity at ``xy``; names must be unique."""
        if name in self._index:
            raise ConfigurationError(f"entity {name!r} already placed")
        pos = self._clip(np.asarray(xy, dtype=np.float64))
        if self._n == self._buf.shape[0]:
            grown = np.empty((self._buf.shape[0] * 2, 2), dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
            stamps = np.empty(grown.shape[0], dtype=np.int64)
            stamps[: self._n] = self._stamps[: self._n]
            self._stamps = stamps
        self._epoch += 1
        self._buf[self._n] = pos
        self._stamps[self._n] = self._epoch
        self._index[name] = self._n
        self._names.append(name)
        self._n += 1
        return Placement(name, self, self._index[name])

    def move(self, name: str, xy: Sequence[float]) -> None:
        """Teleport entity ``name`` to ``xy`` (clipped to the world bounds)."""
        idx = self._lookup(name)
        self._buf[idx] = self._clip(np.asarray(xy, dtype=np.float64))
        self._epoch += 1
        self._stamps[idx] = self._epoch

    def position_of(self, name: str) -> np.ndarray:
        return self._positions[self._lookup(name)].copy()

    def placement(self, name: str) -> Placement:
        return Placement(name, self, self._lookup(name))

    def _lookup(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(f"unknown entity {name!r}") from None

    def _clip(self, pos: np.ndarray) -> np.ndarray:
        if pos.shape != (2,):
            raise ConfigurationError(f"position must be (x, y), got {pos!r}")
        # A NaN coordinate would survive the clip, and every distance to
        # it would read as the 0.1 m floor, co-locating it with everyone.
        if not np.isfinite(pos).all():
            raise ConfigurationError(f"position must be finite, got {pos!r}")
        return np.clip(pos, [0.0, 0.0], [self.width, self.height])

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def distance_between(self, a: str, b: str) -> float:
        """Scalar distance (m) between two entities, min-clipped to 0.1 m.

        The radio medium's carrier-sense and delivery paths call this once
        per (station, transmission) pair, so it avoids the array plumbing
        of :meth:`distances_from` entirely — profiling showed that one
        change worth ~25% of a dense interference sweep.
        """
        pa = self._buf[self._lookup(a)]
        pb = self._buf[self._lookup(b)]
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        dist = (dx * dx + dy * dy) ** 0.5
        return dist if dist > 0.1 else 0.1

    def distances_from(self, name: str, others: Optional[Iterable[str]] = None) -> np.ndarray:
        """Distances (m) from ``name`` to ``others`` (default: everyone).

        A minimum separation of 0.1 m is enforced to keep path-loss models
        finite when entities are co-located.
        """
        origin = self._positions[self._lookup(name)]
        if others is None:
            pts = self._positions
        else:
            idx = np.fromiter((self._lookup(o) for o in others), dtype=np.intp)
            pts = self._positions[idx] if idx.size else np.empty((0, 2))
        if pts.shape[0] == 0:
            return np.empty(0)
        delta = pts - origin
        return np.maximum(np.sqrt(np.einsum("ij,ij->i", delta, delta)), 0.1)

    def index_of(self, name: str) -> int:
        """Insertion index of ``name`` (stable for the entity's lifetime)."""
        return self._lookup(name)

    def names_view(self) -> List[str]:
        """The internal insertion-ordered name list — do not mutate."""
        return self._names

    def diagonal_m(self) -> float:
        """World diagonal in metres — the upper bound on any separation."""
        return float(np.hypot(self.width, self.height))

    def names(self) -> List[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:  # pragma: no cover
        return f"<World {self.width:.0f}x{self.height:.0f}m n={len(self)}>"
