"""A point-to-point link for the stack and transport tests.

The transport's loss and retransmission tests need a pipe between two
stacks that bypasses the radio: each end serialises its frames in order
at a fixed rate, the far end receives every frame that survives a loss
draw from a simulator stream, whatever its destination, and each end
counts the frames it was handed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator
from repro.net.frames import Frame

_MEDIUM_PRI = int(Priority.MEDIUM)


class LinkEnd:
    """One end of a :class:`PointToPointLink`; a stack's interface."""

    def __init__(self, link: "PointToPointLink", address: str) -> None:
        self.link = link
        self.address = address
        self.on_receive: Optional[Callable[[Frame], None]] = None
        #: frames handed to this end, whether or not they reached the far end
        self.frames_handed = 0
        self._queue: Deque[Frame] = deque()
        self._busy = False

    def send_frame(self, frame: Frame) -> bool:
        self.frames_handed += 1
        self._queue.append(frame)
        self._pump()
        return True

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        frame = self._queue.popleft()
        self._busy = True
        self.link.sim.schedule_bound(
            8.0 * frame.wire_bytes / self.link.rate_bps, self._sent,
            (frame,), _MEDIUM_PRI)

    def _sent(self, frame: Frame) -> None:
        self._busy = False
        link = self.link
        far = link.b if self is link.a else link.a
        lost = link.loss > 0.0 and link.rng.random() < link.loss
        if not lost and far.on_receive is not None:
            far.on_receive(frame)
        self._pump()


class PointToPointLink:
    """Two :class:`LinkEnd` objects, ``a`` and ``b``, joined by a wire
    that loses each frame with probability ``loss``."""

    def __init__(self, sim: Simulator, a: str, b: str,
                 rate_bps: float = 10e6, loss: float = 0.0) -> None:
        self.sim = sim
        self.rate_bps = rate_bps
        self.loss = loss
        self.rng = sim.rng(f"link.{a}--{b}")
        self.a = LinkEnd(self, a)
        self.b = LinkEnd(self, b)
