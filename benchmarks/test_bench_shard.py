"""Sharded multi-cell simulation: conservative parallel DES vs oracle.

The 1.2k-station disjoint cell grid runs once in a single culled
simulator and once as one forked shard per cell; outcomes and merged
telemetry must be byte-identical, and the wall-clock ratio is the
headline speedup.  The boundary-coupled configuration checks the
multi-process coordinator against its in-process twin.  The ``shard``
row of ``repro.cli.BENCHES`` judges the run, without a baseline: its
speedup floor applies only on >=4-cpu hosts that actually forked.
"""

from __future__ import annotations

from repro.cli import BENCHES
from repro.experiments.bench import bench_shard, evaluate
from repro.experiments.harness import ExperimentResult

SHARD = next(row for row in BENCHES if row.name == "shard")


def test_sharded_grid_vs_oracle(benchmark, record_table):
    shard = benchmark.pedantic(bench_shard, iterations=1, rounds=1)
    result = ExperimentResult(
        "BENCH-shard",
        "sharded multi-cell grid vs single-process culled oracle",
        ["config", "stations", "mode", "wall_s", "rounds"])
    result.add_row(config="disjoint", stations=shard["stations"],
                   mode="oracle", wall_s=shard["oracle_wall_s"],
                   rounds=1)
    result.add_row(config="disjoint", stations=shard["stations"],
                   mode=f"{shard['shards']}-shard/{shard['mode']}",
                   wall_s=shard["sharded_wall_s"], rounds=shard["rounds"])
    coupled = shard["coupled"]
    result.add_row(config="coupled", stations=coupled["stations"],
                   mode="inline", wall_s=coupled["inline_wall_s"],
                   rounds=coupled["rounds"])
    result.add_row(config="coupled", stations=coupled["stations"],
                   mode="processes", wall_s=coupled["process_wall_s"],
                   rounds=coupled["rounds"])
    result.notes.append(
        f"coupled routed {coupled['boundary_events']} boundary events over "
        f"{coupled['rounds']} rounds")
    verdicts = evaluate(SHARD, shard, {})
    result.notes.extend(verdict.line for verdict in verdicts)
    record_table(result)
    # Identity is machine-independent: assert it unconditionally.
    assert shard["outcomes_identical"]
    assert shard["telemetry_identical"]
    assert coupled["outcomes_identical"]
    assert [v.line for v in verdicts if v.status == "FAIL"] == []
