"""Queueing primitives shared by links and services.

Two small pieces: a drop-tail FIFO with occupancy statistics (what every
1999 interface actually ran) and a token bucket used for pacing the VNC
sender so experiment E1 can shape offered load independently of the radio.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator


class DropTailQueue:
    """Bounded FIFO that drops arrivals when full.

    Passing ``sim`` and ``name`` opts the queue into the simulator's
    metrics registry: drops feed the aggregate ``queue.drops`` counter and
    a ``queue.<name>`` probe exposes live occupancy at snapshot time.
    """

    def __init__(self, capacity: int, sim: Optional[Simulator] = None,
                 name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.peak_depth = 0
        self._m_drops = None
        if sim is not None and name is not None:
            metrics = sim.metrics
            self._m_drops = metrics.counter("queue.drops")
            metrics.register_probe(f"queue.{name}", lambda: {
                "depth": len(self._items),
                "peak_depth": self.peak_depth,
                "enqueued": self.enqueued,
                "dropped": self.dropped,
                "drop_rate": self.drop_rate,
            })

    def push(self, item: Any) -> bool:
        """Append ``item``; False (and a drop count) when the queue is full."""
        if len(self._items) >= self.capacity:
            self.dropped += 1
            if self._m_drops is not None:
                self._m_drops.add()
            return False
        self._items.append(item)
        self.enqueued += 1
        self.peak_depth = max(self.peak_depth, len(self._items))
        return True

    def pop(self) -> Any:
        """Remove and return the head; raises IndexError when empty."""
        item = self._items.popleft()
        self.dequeued += 1
        return item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def drop_rate(self) -> float:
        total = self.enqueued + self.dropped
        return self.dropped / total if total else 0.0


class Pacer:
    """A named timer class for frame pacing and queue draining.

    Thin veneer over :meth:`Simulator.batch_class`: a layer that paces
    homogeneous work — wired serialisation/propagation, framebuffer
    frame-rate pacing, drain timers — registers one callback here and
    schedules entries through :meth:`after`/:meth:`at`.  ``shared=True``
    (the default) means every pacer of the same name on one simulator
    shares one class, so the callback must be a module-level function,
    not a bound method.
    """

    def __init__(self, sim: Simulator, name: str,
                 fn: Callable[[int, Any], None], *,
                 priority: int = int(Priority.PROTOCOL),
                 cancellable: bool = False, shared: bool = True) -> None:
        self.sim = sim
        self.name = name
        self._q = sim.batch_class(name, fn, priority=priority,
                                  cancellable=cancellable, shared=shared)

    def after(self, delay: float, owner: int = 0, payload: Any = None):
        """Fire ``delay`` seconds from now; returns a cancellation handle
        for cancellable pacers, None otherwise."""
        return self._q.schedule(delay, owner, payload)

    def at(self, time: float, owner: int = 0, payload: Any = None):
        """Fire at absolute simulation time ``time``."""
        return self._q.schedule_at(time, owner, payload)


class TokenBucket:
    """A token-bucket rate limiter over simulated time.

    Args:
        sim: simulator providing the clock.
        rate: token refill rate per second (e.g. bytes/s).
        burst: bucket depth (maximum instantaneous burst).
    """

    def __init__(self, sim: Simulator, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ConfigurationError("rate and burst must be positive")
        self.sim = sim
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_consume(self, amount: float) -> bool:
        """Take ``amount`` tokens if available; False otherwise."""
        if amount < 0:
            raise ConfigurationError("amount must be non-negative")
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def time_until(self, amount: float) -> float:
        """Seconds until ``amount`` tokens will be available (0 if now)."""
        self._refill()
        deficit = amount - self._tokens
        return max(0.0, deficit / self.rate)
