"""Shape tests for the extension experiments (training, mobile code,
energy)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import run_experiment


def test_e5_training_learning_curve():
    result = run_experiment("E5-training", sessions=6, users_per_cell=30)
    completed = result.column("completed")
    knowledge = result.column("mean_domain_knowledge")
    # Faculties develop monotonically with practice...
    assert knowledge == sorted(knowledge)
    # ...and late-session completion beats the first session.
    late = sum(completed[-3:]) / 3
    assert late > completed[0] + 0.05


def test_e4_proxy_download_scaling():
    result = run_experiment("E4-proxy", code_sizes=(1024, 65536))
    fast_small = result.select(rate="11Mbps", proxy_kb=1.0)[0]
    fast_large = result.select(rate="11Mbps", proxy_kb=64.0)[0]
    slow_large = result.select(rate="1Mbps", proxy_kb=64.0)[0]
    # Bind time grows with proxy size and shrinks with rate.
    assert fast_large["bind_time_s"] > fast_small["bind_time_s"]
    assert slow_large["bind_time_s"] > 5 * fast_large["bind_time_s"]
    # 64 kB at 1 Mb/s is roughly half a second of airtime.
    assert 0.3 < slow_large["bind_time_s"] < 2.0
    assert not math.isnan(fast_small["bind_time_s"])


def test_e10_energy_duty_cycle_dominates():
    result = run_experiment("E10-energy", beacon_periods_s=(0.1, 60.0),
                            measure_s=60.0)
    always_on_quiet = result.select(rx_duty=1.0, beacon_period_s=60.0)[0]
    always_on_chatty = result.select(rx_duty=1.0, beacon_period_s=0.1)[0]
    sleepy_quiet = result.select(rx_duty=0.05, beacon_period_s=60.0)[0]
    sleepy_chatty = result.select(rx_duty=0.05, beacon_period_s=0.1)[0]
    # Always-on receiver: beaconing barely matters (idle dominates).
    assert always_on_chatty["battery_life_h"] > \
        0.9 * always_on_quiet["battery_life_h"]
    # Duty cycling buys ~an order of magnitude.
    assert sleepy_quiet["battery_life_h"] > \
        5 * always_on_quiet["battery_life_h"]
    # Once sleepy, chattiness costs measurably.
    assert sleepy_chatty["battery_life_h"] < sleepy_quiet["battery_life_h"]


def test_e10_energy_power_budget_sane():
    result = run_experiment("E10-energy", beacon_periods_s=(1.0,),
                            duty_cycles=(1.0,), measure_s=30.0)
    row = result.rows[0]
    # An always-on 1999 radio draws roughly its idle power.
    assert 0.7 < row["avg_power_w"] < 1.0


def test_e4_orders_atomic_eliminates_deadlock():
    result = run_experiment("E4-orders", repeats=12)
    split = result.select(strategy="split")[0]
    atomic = result.select(strategy="atomic")[0]
    assert split["deadlocks"] > 0
    assert atomic["deadlocks"] == 0
    assert atomic["mean_completion_s"] < 20.0


def test_e8_auth_fails_closed():
    result = run_experiment("E8-auth", genuine_trials=150,
                            impostor_trials=150)
    rows = {row["ambient_db"]: row for row in result.rows}
    # FRR climbs with ambient noise...
    frrs = [rows[db]["frr"] for db in sorted(rows)]
    assert frrs == sorted(frrs)
    assert frrs[0] < 0.2 and frrs[-1] > 0.8
    # ...while FAR never escapes the neighbourhood of the design target.
    for row in result.rows:
        assert row["far"] <= 0.05


def test_e2_scale_broad_grows_filtered_flat():
    result = run_experiment("E2-scale", service_counts=(4, 64))
    broad4 = result.select(services=4, query="broad")[0]
    broad64 = result.select(services=64, query="broad")[0]
    filtered4 = result.select(services=4, query="filtered")[0]
    filtered64 = result.select(services=64, query="filtered")[0]
    # Broad lookups scale ~linearly in population...
    assert broad64["latency_s"] > 8 * broad4["latency_s"]
    assert broad64["matches"] == 64
    # ...while filtered templates stay flat.
    assert filtered64["latency_s"] == pytest.approx(filtered4["latency_s"],
                                                    rel=0.5)
    assert filtered64["matches"] == 1


def test_e2_autochannel_recovers_goodput():
    result = run_experiment("E2-autochannel", pairs=20, duration=16.0)
    before = result.rows[0]
    after = result.rows[1]
    assert after["goodput_kbps"] > 1.5 * before["goodput_kbps"]
    assert after["channel"] != 6


def test_e6_accessibility_age_gradient():
    result = run_experiment("E6-accessibility", population_size=40)
    pda = {row["age_group"]: row
           for row in result.select(form_factor="pda")}
    panel = {row["age_group"]: row
             for row in result.select(form_factor="touch-panel")}
    # The PDA sheds older users; the accessible panel holds everyone.
    assert pda["older"]["compatible_fraction"] < \
        pda["adult"]["compatible_fraction"]
    for age_group in ("young", "adult", "older"):
        assert panel[age_group]["compatible_fraction"] == 1.0


def test_e1_replicated_averages_seeds():
    result = run_experiment("E1-replicated", seeds=(1, 2), duration=12.0)
    by_rate = {row["rate"]: row for row in result.rows}
    assert by_rate["11Mbps"]["replicates"] == 2
    assert by_rate["11Mbps"]["mean_displayed_fps"] > \
        by_rate["2Mbps"]["mean_displayed_fps"]
