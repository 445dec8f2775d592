"""Uniform-grid spatial index over :class:`~repro.env.world.World` positions.

The paper leaves device density as the open question ("the effect of a high
concentration of these devices needs to be studied"), and studying it means
simulating rooms with hundreds or thousands of stations.  Every per-frame
question the radio medium asks — *who can hear this transmission?* — is a
range query, and answering it by scanning the whole population makes the
medium O(stations) per frame.  :class:`SpatialGrid` turns that into a query
over the handful of grid cells a radius actually covers, so per-frame cost
tracks *neighbours*, not population.

Design points (documented in ``docs/performance.md``):

* **Lazy rebuild keyed on** :attr:`World.epoch`.  The grid never observes a
  stale world: every query first compares the world's topology epoch and
  rebuilds the whole index when it moved.  A rebuild is one vectorised
  NumPy pass (sort by linearised cell id), so mobile scenarios pay one
  O(n log n) rebuild per mobility step — never per query.
* **Cell size** follows a density heuristic (a few entities per cell),
  recomputed on every rebuild.  It sets what a query costs, never what it
  returns.
* **Queries are conservative and exact**: candidate cells are taken from
  the bounding box of the radius, then filtered by true Euclidean distance
  (min-clipped to 0.1 m exactly like
  :meth:`World.distances_from <repro.env.world.World.distances_from>`), so
  the result set is identical to the brute-force scan — just cheaper.
  Results come back in world insertion order, which callers rely on for
  deterministic iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (world -> grid)
    from .world import World

#: Minimum separation enforced by distance queries, metres (matches World).
MIN_SEPARATION_M: float = 0.1

#: Target average entities per cell.
_TARGET_PER_CELL: float = 2.0


class SpatialGrid:
    """Uniform bucket grid over world positions, rebuilt lazily per epoch.

    Args:
        world: the world to index (positions are read on rebuild).  Cells
            are sized from its density, roughly :data:`_TARGET_PER_CELL`
            entities per cell.
    """

    __slots__ = ("world", "_epoch", "_cell_m", "_cells", "rebuilds",
                 "queries", "full_scans")

    def __init__(self, world: "World") -> None:
        self.world = world
        self._epoch: int = -1  # force a build on first query
        self._cell_m: float = 1.0
        #: (cx, cy) -> array of entity indices in that cell (ascending).
        self._cells: Dict[Tuple[int, int], np.ndarray] = {}
        self.rebuilds = 0
        self.queries = 0
        self.full_scans = 0

    # ------------------------------------------------------------------
    def _cell_size(self, count: int) -> float:
        """Cell edge targeting ~:data:`_TARGET_PER_CELL` entities per cell."""
        world = self.world
        if count <= 1:
            return max(world.width, world.height)
        area = world.width * world.height
        cell = float(np.sqrt(area * _TARGET_PER_CELL / count))
        # Never finer than the co-location clip, never coarser than the world.
        return float(np.clip(cell, MIN_SEPARATION_M,
                             max(world.width, world.height)))

    def _rebuild(self) -> None:
        world = self.world
        positions = world.positions()
        count = positions.shape[0]
        self._cell_m = self._cell_size(count)
        cells: Dict[Tuple[int, int], np.ndarray] = {}
        if count:
            coords = np.floor(positions / self._cell_m).astype(np.intp)
            # Linearise, stable-sort once, then slice per unique cell: one
            # vectorised pass instead of a Python append per entity.
            span = int(coords[:, 1].max()) + 1 if count else 1
            linear = coords[:, 0] * span + coords[:, 1]
            order = np.argsort(linear, kind="stable")
            sorted_linear = linear[order]
            boundaries = np.flatnonzero(
                np.diff(sorted_linear, prepend=sorted_linear[0] - 1))
            for start, stop in zip(boundaries,
                                   list(boundaries[1:]) + [count]):
                idx = order[start:stop]
                cx, cy = coords[idx[0]]
                cells[(int(cx), int(cy))] = np.sort(idx)
        self._cells = cells
        self._epoch = world.epoch
        self.rebuilds += 1

    def _ensure_current(self) -> None:
        if self._epoch != self.world.epoch:
            self._rebuild()

    # ------------------------------------------------------------------
    def neighbor_indices_within(self, name: str, radius: float) -> np.ndarray:
        """Indices of entities within ``radius`` metres of ``name``.

        Excludes the entity itself; distances are min-clipped to
        :data:`MIN_SEPARATION_M` (so co-located entities only match when
        ``radius >= 0.1``).  Returned ascending, i.e. insertion order.
        """
        self._ensure_current()
        self.queries += 1
        world = self.world
        me = world.index_of(name)
        positions = world.positions()
        origin = positions[me]
        cell = self._cell_m
        lo_x = int(np.floor((origin[0] - radius) / cell))
        hi_x = int(np.floor((origin[0] + radius) / cell))
        lo_y = int(np.floor((origin[1] - radius) / cell))
        hi_y = int(np.floor((origin[1] + radius) / cell))
        box_cells = (hi_x - lo_x + 1) * (hi_y - lo_y + 1)
        if box_cells >= len(self._cells):
            # The radius covers (nearly) the whole world: gathering cells
            # would touch everything anyway, so scan the position array in
            # one vectorised pass.
            self.full_scans += 1
            candidates = None
            pts = positions
        else:
            cells = self._cells
            chunks = []
            for cx in range(lo_x, hi_x + 1):
                for cy in range(lo_y, hi_y + 1):
                    bucket = cells.get((cx, cy))
                    if bucket is not None:
                        chunks.append(bucket)
            if not chunks:
                return np.empty(0, dtype=np.intp)
            candidates = np.concatenate(chunks)
            pts = positions[candidates]
        delta = pts - origin
        dist = np.maximum(
            np.sqrt(np.einsum("ij,ij->i", delta, delta)), MIN_SEPARATION_M)
        mask = dist <= radius
        hits = np.flatnonzero(mask) if candidates is None else candidates[mask]
        hits = hits[hits != me]
        hits.sort()
        return hits

    def neighbors_within(self, name: str, radius: float) -> List[str]:
        """Names of entities within ``radius`` of ``name`` (insertion order).

        Byte-for-byte equivalent to a brute-force scan of the world with
        :meth:`World.distance_between
        <repro.env.world.World.distance_between>` — the grid only changes
        how candidates are enumerated.
        """
        names = self.world.names_view()
        return [names[i] for i in self.neighbor_indices_within(name, radius)]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for benchmarks and the medium's culling probe."""
        return {
            "rebuilds": self.rebuilds,
            "queries": self.queries,
            "full_scans": self.full_scans,
            "cells": len(self._cells),
            "cell_m": self._cell_m,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpatialGrid cells={len(self._cells)} cell={self._cell_m:.1f}m "
                f"rebuilds={self.rebuilds}>")
