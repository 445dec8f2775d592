"""Generator-based simulation processes.

Some behaviours (user task scripts, lease renewal loops, discovery clients)
read much better as sequential code than as callback chains.  A *process*
is a generator driven by the simulator; it can::

    yield 2.5          # sleep 2.5 simulated seconds
    yield some_signal  # wait until the Signal fires, receiving its value
    result = yield other_process  # wait for a child process to finish

Processes are a thin layer over :class:`repro.kernel.scheduler.Simulator`;
they add no new event semantics, just sequencing sugar.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .errors import ProcessError
from .events import Priority
from .scheduler import Simulator


class Signal:
    """A one-shot or repeating wakeup channel for processes and callbacks.

    ``fire(value)`` wakes every current waiter exactly once.  Waiters added
    after a fire wait for the *next* fire (edge-triggered semantics, like a
    condition variable rather than a future).
    """

    def __init__(self, sim: Simulator, name: str = "signal") -> None:
        self.sim = sim
        self.name = name
        self._call_soon = sim.call_soon
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_value: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` for the next fire."""
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``; returns how many woke."""
        self.fire_count += 1
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            # Deliver asynchronously so firing inside a handler cannot
            # reentrantly grow the stack or reorder same-time events.
            self._call_soon(callback, value, priority=Priority.APP)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name} fires={self.fire_count}>"


class Process:
    """A running generator process.  Create via :func:`spawn`."""

    def __init__(self, sim: Simulator, gen: Generator, name: str = "process") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished = Signal(sim, f"{name}.finished")
        # Pre-bound handler table: sleep re-arms are the hot path of a
        # looping process, so resolve the scheduler entry points once.
        self._schedule = sim.schedule
        self._call_soon = sim.call_soon
        # The process's causal span: parented under whatever was ambient at
        # spawn time, spanning spawn to finish.  Not activated here — the
        # spawner's own context must survive the spawn call — _advance
        # re-establishes it every time the generator resumes.
        self.span = sim.span_begin("process", name, activate=False)

    def _start(self) -> None:
        self._advance(None)

    def _advance(self, value: Any) -> None:
        if self.done:
            return
        if self.span.span_id is not None:
            # Resume under the process span so everything the generator
            # schedules (sleeps, sends, child spawns) nests beneath it,
            # regardless of whose context delivered this wakeup.
            self.sim._span_ctx = self.span.span_id
        try:
            yielded = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - intentional process capture
            self._finish(error=exc)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if not yielded >= 0:
                self._finish(error=ProcessError(
                    f"process {self.name!r} yielded negative or NaN delay "
                    f"{yielded!r}"))
                return
            self._schedule(float(yielded), self._advance, None,
                           priority=Priority.APP)
        elif isinstance(yielded, Signal):
            yielded.wait(self._advance)
        elif isinstance(yielded, Process):
            if yielded.done:
                self._call_soon(self._advance, yielded.result,
                                priority=Priority.APP)
            else:
                yielded.finished.wait(lambda _v, p=yielded: self._advance(p.result))
        else:
            self._finish(error=ProcessError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"))

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.done = True
        self.result = result
        self.error = error
        if error is not None:
            self.sim.trace("process.error", self.name,
                           f"process failed: {error!r}")
        self.sim.span_end(self.span, "error" if error is not None else "ok")
        self.finished.fire(result)

    def interrupt(self) -> None:
        """Throw :class:`ProcessError` into the generator, ending it."""
        if self.done:
            return
        try:
            self.gen.throw(ProcessError(f"process {self.name!r} interrupted"))
        except StopIteration as stop:
            self._finish(result=stop.value)
        except ProcessError as exc:
            self._finish(error=exc)
        except Exception as exc:  # noqa: BLE001
            self._finish(error=exc)
        else:
            # Generator swallowed the interrupt and yielded again; treat
            # that as a protocol violation to keep semantics simple.
            self._finish(error=ProcessError(
                f"process {self.name!r} ignored interrupt"))


def spawn(sim: Simulator, gen: Generator, name: str = "process",
          delay: float = 0.0) -> Process:
    """Start ``gen`` as a simulation process after ``delay`` seconds."""
    if not hasattr(gen, "send"):
        raise ProcessError(f"spawn() needs a generator, got {gen!r}")
    proc = Process(sim, gen, name)
    sim.schedule(delay, proc._start, priority=Priority.APP)
    return proc
