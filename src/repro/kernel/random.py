"""Named, reproducible random-number streams.

Every stochastic component (radio shadowing, MAC backoff, user behaviour,
workload generation...) draws from its *own* named stream derived from the
simulation's root seed via :class:`numpy.random.SeedSequence` spawning.
This gives two properties the experiments rely on:

* **Reproducibility** — the same root seed always produces the same run.
* **Variance isolation** — changing how many numbers one component draws
  does not perturb any other component's stream, so parameter sweeps only
  vary what they mean to vary (a standard common-random-numbers technique
  for comparing simulated systems).

A hot consumer of single uniforms takes its stream through
:meth:`RandomStreams.uniforms` instead of :meth:`RandomStreams.stream`:
the same doubles, fetched a block at a time.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Dict, Iterator

import numpy as np

from .errors import ConfigurationError

#: Doubles a :meth:`RandomStreams.uniforms` view fetches per refill.  One
#: ``Generator.random()`` call costs several times what serving a double
#: from a fetched block does; 64 keeps the unused tail of a view small.
UNIFORM_BLOCK: int = 64


class RandomStreams:
    """A factory of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        # ``operator.index`` refuses a float (TypeError) where ``int``
        # would round 1.5 down to 1 and run another seed's experiment.
        self._seed = operator.index(seed)
        if isinstance(seed, bool) or self._seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, not {seed!r}")
        self._root = np.random.SeedSequence(self._seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._uniforms: Dict[str, Iterator[float]] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream for a given ``(seed, name)`` pair is always identical
        regardless of creation order, because each stream is derived by
        hashing the name into the root seed sequence rather than by
        sequential spawning.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._uniforms:
                raise ConfigurationError(
                    f"stream {name!r} is drawn through uniforms(); a raw "
                    "draw would skip the doubles its view has fetched")
            gen = self._generator(name)
            self._streams[name] = gen
        return gen

    def uniforms(self, name: str) -> Iterator[float]:
        """An iterator over exactly the doubles ``stream(name).random()``
        would return, one per ``next()``, fetched :data:`UNIFORM_BLOCK` at
        a time.

        There is one view per name, and every call returns it, so callers
        that share a name interleave their draws as they would on the
        generator.  A name is taken through this view or through
        :meth:`stream`, never both: a raw draw would skip the doubles the
        view has fetched, so mixing the two raises
        :class:`~repro.kernel.errors.ConfigurationError`.
        """
        view = self._uniforms.get(name)
        if view is None:
            if name in self._streams:
                raise ConfigurationError(
                    f"stream {name!r} is drawn through stream(); a uniforms() "
                    "view would fetch doubles ahead of its raw draws")
            gen = self._generator(name)
            view = chain.from_iterable(
                iter(lambda: gen.random(UNIFORM_BLOCK).tolist(), None))
            self._uniforms[name] = view
        return view

    def _generator(self, name: str) -> np.random.Generator:
        # Derive a child seed from the root entropy plus a stable hash of
        # the name.  Avoid Python's randomised str hash.
        digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
        key = int(digest.astype(np.uint64).sum() * 1000003 + len(name)) & 0xFFFFFFFF
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(key,)
        )
        return np.random.default_rng(child)

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._uniforms

    def names(self) -> list:
        """Names of the streams created so far (sorted, for reporting)."""
        return sorted([*self._streams, *self._uniforms])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RandomStreams seed={self._seed} "
                f"n={len(self._streams) + len(self._uniforms)}>")
