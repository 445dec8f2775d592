"""Property tests for homogeneous event classes (``sim.batch_class``).

Random schedule/cancel programs are replayed on a simulator and on a
small reference model of the kernel's contract: live entries fire in
``(time, priority, seq)`` order, where ``seq`` is the global scheduling
order shared by class entries and plain events.  The observable firing
log — ``(time, owner)`` in execution order — must match the model
exactly, and cancellation must remove exactly the cancelled entries.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator

delay = st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)

#: A program is a list of operations applied in order before running:
#: ("batch", delay, owner), ("heap", delay), ("cancel", index) — cancel
#: targets the index-th batch entry scheduled so far (modulo count).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), delay,
                  st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("heap"), delay),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1, max_size=40)

#: Both class entries and plain events default to PROTOCOL priority.
_PRIO = int(Priority.PROTOCOL)

#: Owner recorded for plain (non-class) heap events.
_PLAIN = -1


def _replay(program):
    sim = Simulator(seed=0)
    log = []
    queue = sim.batch_class("prop.timer",
                            lambda owner, _p: log.append((sim.now, owner)),
                            cancellable=True)
    handles = []
    for op in program:
        if op[0] == "batch":
            handles.append(queue.schedule(op[1], owner=op[2]))
        elif op[0] == "heap":
            sim.schedule(op[1], lambda: log.append((sim.now, _PLAIN)))
        elif handles:
            handle = handles[op[1] % len(handles)]
            if handle is not None:
                handle.cancel()
    sim.run()
    return log


def _model(program):
    """Reference firing log: sort the live entries by their key."""
    entries = []
    batch_keys = []
    cancelled = set()
    for op in program:
        key = (op[1], _PRIO, len(entries))
        if op[0] == "batch":
            entries.append((key, op[2]))
            batch_keys.append(key)
        elif op[0] == "heap":
            entries.append((key, _PLAIN))
        elif batch_keys:
            cancelled.add(batch_keys[op[1] % len(batch_keys)])
    return [(key[0], owner) for key, owner in sorted(entries)
            if key not in cancelled]


@given(ops)
@settings(max_examples=80, deadline=None)
def test_batched_firing_log_matches_heap_oracle(program):
    assert _replay(program) == _model(program)


@given(st.lists(delay, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_schedule_many_fires_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    queue = sim.batch_class("prop.many",
                            lambda owner, _p: fired.append((sim.now, owner)),
                            cancellable=False)
    queue.schedule_many_at(delays, owners=list(range(len(delays))))
    sim.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Equal-deadline entries fire in scheduling (sequence) order.
    for (t_a, owner_a), (t_b, owner_b) in zip(fired, fired[1:]):
        if t_a == t_b:
            assert owner_a < owner_b


@given(st.lists(delay, min_size=1, max_size=40),
       st.sets(st.integers(min_value=0, max_value=39)))
@settings(max_examples=60, deadline=None)
def test_cancellation_removes_exactly_the_cancelled(delays, cancel):
    sim = Simulator(seed=0)
    fired = []
    queue = sim.batch_class("prop.cancel",
                            lambda owner, _p: fired.append(owner),
                            cancellable=True)
    handles = [queue.schedule(d, owner=i) for i, d in enumerate(delays)]
    cancelled = {i for i in cancel if i < len(handles)}
    for i in cancelled:
        handles[i].cancel()
        handles[i].cancel()  # double-cancel is a no-op
    assert sim.pending() == len(delays) - len(cancelled)
    sim.run()
    assert sorted(fired) == sorted(set(range(len(delays))) - cancelled)
    assert sim.pending() == 0


@given(ops)
@settings(max_examples=40, deadline=None)
def test_rescheduling_from_callbacks_matches_oracle(program):
    """Callbacks that schedule more work mid-run interleave with plain
    events exactly as the model orders them."""
    until = 200.0

    def chains(owner, log):
        return owner % 3 == 0 and len(log) < 200

    sim = Simulator(seed=0)
    log = []
    queue = [None]

    def fire(owner, _p):
        log.append((sim.now, owner))
        if chains(owner, log):
            queue[0].schedule(0.25 * (owner + 1), owner=owner + 1)

    queue[0] = sim.batch_class("prop.chain", fire, cancellable=False)
    for op in program:
        if op[0] == "batch":
            queue[0].schedule(op[1], owner=op[2] * 3)
        elif op[0] == "heap":
            sim.schedule(op[1], lambda: log.append((sim.now, _PLAIN)))
    sim.run(until=until)

    heap = []
    seq = 0
    for op in program:
        if op[0] in ("batch", "heap"):
            owner = op[2] * 3 if op[0] == "batch" else _PLAIN
            heap.append((op[1], _PRIO, seq, owner))
            seq += 1
    heapq.heapify(heap)
    want = []
    while heap and heap[0][0] <= until:
        now, _prio, _seq, owner = heapq.heappop(heap)
        want.append((now, owner))
        if owner != _PLAIN and chains(owner, want):
            heapq.heappush(heap, (now + 0.25 * (owner + 1), _PRIO, seq,
                                  owner + 1))
            seq += 1

    assert log == want
