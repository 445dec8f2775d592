"""Property tests for the kernel's timer calls: ``schedule``,
``schedule_bound`` and ``schedule_at``.

Random schedule/cancel programs are replayed on a simulator and on a
small reference model of the kernel's contract: live entries fire in
``(time, priority, seq)`` order, where ``seq`` is the global scheduling
order shared by all three calls.  The observable firing log —
``(time, owner)`` in execution order — must match the model exactly,
and cancellation must remove exactly the cancelled entries.

Each program is also run a drawn way: one ``run()``, ``run(until=...)``
slices, or ``run(max_events=...)`` slices, so both dispatch loops are
held to the same model, and no ``run()`` call may move the clock
backwards.
"""

from __future__ import annotations

import heapq
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator

delay = st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)

priority = st.sampled_from([int(p) for p in Priority])

#: A program is a list of operations applied in order before running,
#: at time 0: ("bound" | "timer" | "at", delay, priority, owner)
#: schedules ``owner`` through ``schedule_bound``, ``schedule`` or
#: ``schedule_at`` (at absolute time ``delay``); ("cancel", index)
#: cancels the index-th cancellable entry so far (modulo count).
ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("bound", "timer", "at")), delay, priority,
                  st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1, max_size=40)

#: How a program is run: ("once", 0) is one ``run()`` call (to the
#: horizon, if the test has one); ("until", width) runs horizon slices
#: ``width`` seconds wide; ("max_events", n) runs slices of n events.
run_modes = st.one_of(
    st.just(("once", 0)),
    st.tuples(st.just("until"),
              st.floats(min_value=0.5, max_value=20.0,
                        allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("max_events"), st.integers(min_value=1, max_value=5)),
)


def _schedule(sim, op, fn):
    """Apply one scheduling op; the cancellation handle or None."""
    kind, when, prio, owner = op
    if kind == "bound":
        sim.schedule_bound(when, fn, (owner,), prio)
        return None
    call = sim.schedule if kind == "timer" else sim.schedule_at
    return call(when, fn, owner, priority=prio)


def _run(sim, log, **bounds):
    """One ``run()`` call whose events and end clock never precede the
    clock it started from."""
    before, start = sim.now, len(log)
    executed = sim.run(**bounds)
    assert all(t >= before for t, _owner in log[start:])
    assert sim.now >= before
    return executed


def _drive(sim, mode, log, until=None):
    """Run ``sim`` dry, or to ``until``, the way ``mode`` draws."""
    kind, size = mode
    if kind == "once":
        _run(sim, log, until=until)
    elif kind == "until":
        horizon = inf if until is None else until
        while sim.pending() and sim.now < horizon:
            _run(sim, log, until=min(sim.now + size, horizon))
    else:
        while _run(sim, log, until=until, max_events=size):
            pass


def _replay(program, mode):
    sim = Simulator(seed=0)
    log = []

    def fire(owner):
        log.append((sim.now, owner))

    handles = []
    for op in program:
        if op[0] != "cancel":
            handle = _schedule(sim, op, fire)
            if handle is not None:
                handles.append(handle)
        elif handles:
            handles[op[1] % len(handles)].cancel()
    _drive(sim, mode, log)
    return log


def _model(program):
    """Reference firing log: sort the live entries by their key."""
    entries = []
    cancellable = []
    cancelled = set()
    for op in program:
        if op[0] == "cancel":
            if cancellable:
                cancelled.add(cancellable[op[1] % len(cancellable)])
            continue
        key = (op[1], op[2], len(entries))
        entries.append((key, op[3]))
        if op[0] != "bound":
            cancellable.append(key)
    return [(key[0], owner) for key, owner in sorted(entries)
            if key not in cancelled]


@given(ops, run_modes)
@settings(max_examples=80, deadline=None)
def test_batched_firing_log_matches_heap_oracle(program, mode):
    assert _replay(program, mode) == _model(program)


@given(st.lists(st.tuples(delay, st.booleans()), min_size=1, max_size=40),
       st.sets(st.integers(min_value=0, max_value=39)), run_modes)
@settings(max_examples=60, deadline=None)
def test_cancellation_removes_exactly_the_cancelled(entries, cancel, mode):
    sim = Simulator(seed=0)
    log = []

    def fire(owner):
        log.append((sim.now, owner))

    handles = [(sim.schedule_at if absolute else sim.schedule)(d, fire, i)
               for i, (d, absolute) in enumerate(entries)]
    cancelled = {i for i in cancel if i < len(handles)}
    for i in cancelled:
        handles[i].cancel()
        handles[i].cancel()  # double-cancel is a no-op
    assert sim.pending() == len(entries) - len(cancelled)
    _drive(sim, mode, log)
    assert sorted(owner for _t, owner in log) == \
        sorted(set(range(len(entries))) - cancelled)
    assert sim.pending() == 0


@given(ops, run_modes)
@settings(max_examples=40, deadline=None)
def test_rescheduling_from_callbacks_matches_oracle(program, mode):
    """Callbacks that schedule more work mid-run, through
    ``schedule_bound``, interleave with the programmed entries exactly
    as the model orders them, up to the horizon."""
    until = 200.0

    def chains(owner, log):
        return owner % 3 == 0 and len(log) < 200

    sim = Simulator(seed=0)
    log = []

    def fire(owner, prio):
        log.append((sim.now, owner))
        if chains(owner, log):
            sim.schedule_bound(0.25 * (owner + 1), fire, (owner + 1, prio),
                               prio)

    for op in program:
        if op[0] != "cancel":
            _schedule(sim, op, lambda owner, prio=op[2]: fire(owner, prio))
    _drive(sim, mode, log, until)

    heap = []
    seq = 0
    for op in program:
        if op[0] != "cancel":
            heap.append((op[1], op[2], seq, op[3]))
            seq += 1
    heapq.heapify(heap)
    want = []
    while heap and heap[0][0] <= until:
        now, prio, _seq, owner = heapq.heappop(heap)
        want.append((now, owner))
        if chains(owner, want):
            heapq.heappush(heap, (now + 0.25 * (owner + 1), prio, seq,
                                  owner + 1))
            seq += 1

    assert log == want
