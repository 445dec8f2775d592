"""Cancellable-timer bookkeeping: cancellation accounting and bounded
storage.

A producer's cancellable timers (request timeouts, lease sweeps and
renewals, stall watchdogs) are plain heap events, so a cancelled timer
stays in the heap until it reaches the head — an unbounded
cancel/reschedule workload (retry timers, lease renewals torn down on
every renewal) would grow the heap forever without the threshold
compaction these tests pin down.
"""

from __future__ import annotations

from repro.kernel.scheduler import COMPACT_MIN_QUEUE, Simulator


def test_cancel_heavy_batch_storage_stays_bounded():
    sim = Simulator(seed=0, trace=False)
    # 200 rounds of "arm 50 retry timers, then cancel them all" — the
    # pattern a renewal/retry subsystem produces continuously.  Without
    # threshold compaction this stores 10 000 dead entries.
    for round_no in range(200):
        handles = [sim.schedule(1000.0 + round_no + i * 1e-3, lambda: None)
                   for i in range(50)]
        for handle in handles:
            handle.cancel()
        # Compaction keeps the stored population bounded by the
        # threshold floor plus one round's churn, no matter how many
        # rounds have passed.
        assert len(sim._queue) <= COMPACT_MIN_QUEUE * 2 + 50
    assert sim.compactions > 0
    assert sim.pending() == 0


def test_mixed_cancel_survivors_still_fire_after_compaction():
    sim = Simulator(seed=0, trace=False)
    fired = []
    survivors = set()
    for i in range(1000):
        # Absolute-time timers die and survive exactly like relative ones.
        handle = sim.schedule_at(1.0 + i * 1e-4, fired.append, i)
        if i % 10 == 0:
            survivors.add(i)
        else:
            handle.cancel()
    assert sim.compactions > 0  # the 90% cancel rate forced compaction
    sim.run()
    assert fired == sorted(survivors)


def test_cancelled_ratio_property_and_gauge():
    sim = Simulator(seed=0, trace=False)
    sim.metrics  # create the registry (and with it the gauge) up front
    handles = [sim.schedule(5.0, lambda: None) for _ in range(40)]
    # Uncancellable fast-path timers count as live entries.
    for _ in range(10):
        sim.schedule_bound(5.0, lambda: None)
    assert sim.cancelled_ratio == 0.0
    for handle in handles[:10]:
        handle.cancel()
    # 10 dead of 50 stored — below the compaction threshold, so all
    # entries are still in place and the ratio sees them.
    assert abs(sim.cancelled_ratio - 0.2) < 1e-9
    gauges = sim.metrics.snapshot()["gauges"]
    assert abs(gauges["kernel.cancelled_ratio"]["value"] - 0.2) < 1e-9
    sim.run()
    assert sim.cancelled_ratio == 0.0


def test_kernel_probe_keeps_empty_batch_map():
    """The probe's ``batch`` map is always empty now that timers are
    plain heap events, but ``bench/layers.py``'s ``sim_counters`` reads
    ``probes["kernel"]["batch"]``, so the key stays until the benchmark
    drops that reader."""
    sim = Simulator(seed=0, trace=False)
    sim.metrics
    handles = [sim.schedule(1.0, lambda: None) for _ in range(8)]
    handles[0].cancel()
    assert sim.run() == 7
    probe = sim.metrics.snapshot()["probes"]["kernel"]
    assert probe["batch"] == {}
    assert probe["cancelled_ratio"] == 0.0
