"""E9's scripted week on its trace axis: untraced unless someone listens.

The LPC instrument needs only the ``issue.*`` records, which the
simulator keeps with tracing off, so E9 and E9-report run the week
untraced.  A listener, here the process-default hook a ``--trace-out``
export installs, turns tracing on in ``stream`` mode.  Both weeks must
give the same table, model and metrics.
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, Dict, List, NamedTuple, Tuple

import pytest

from repro.experiments import e9_analysis
from repro.experiments.harness import run_experiment
from repro.kernel.trace import add_default_subscriber

SEEDS = (42, 7)

_SCRIPTED_WEEK = e9_analysis._scripted_week


class Week(NamedTuple):
    result: Any
    room: Any
    model: Any
    heard: int


def _run_e9(seed: int, listen: bool) -> Week:
    """E9 as ``run_experiment`` runs it, keeping the week it ran; with
    ``listen``, a process-default subscriber counts what it hears."""
    weeks: List[Tuple[Any, Any, Any]] = []
    heard: List[str] = []

    def recording(*args: Any, **kwargs: Any):
        weeks.append(_SCRIPTED_WEEK(*args, **kwargs))
        return weeks[-1]

    with pytest.MonkeyPatch.context() as patch, \
            contextlib.ExitStack() as listeners:
        patch.setattr(e9_analysis, "_scripted_week", recording)
        if listen:
            listeners.callback(add_default_subscriber(
                "", lambda record: heard.append(record.category)))
        result = run_experiment("E9", seed=seed)
    ((room, model, _instrument),) = weeks
    return Week(result, room, model, len(heard))


@pytest.fixture(scope="module")
def weeks() -> Dict[Tuple[int, bool], Week]:
    return {(seed, listen): _run_e9(seed, listen)
            for seed in SEEDS for listen in (False, True)}


def test_the_default_week_is_untraced_and_stores_only_issues(weeks):
    for seed in SEEDS:
        tracer = weeks[seed, False].room.sim.tracer
        assert not tracer.enabled
        assert tracer.span_count == tracer.spans_begun == 0
        assert len(tracer) == tracer.records_appended \
            == len(tracer.issues()) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_untraced_and_stream_traced_weeks_agree(weeks, seed):
    quiet, listened = weeks[seed, False], weeks[seed, True]
    tracer = listened.room.sim.tracer
    assert tracer.enabled and tracer.mode == "stream"
    assert len(tracer) == tracer.span_count == 0 < tracer.spans_begun
    assert listened.heard == tracer.records_appended > len(
        quiet.room.sim.tracer)
    assert listened.result.rows == quiet.result.rows
    assert listened.result.notes == quiet.result.notes
    assert listened.model.report() == quiet.model.report()
    snapshot = quiet.room.sim.metrics.snapshot()
    assert {"session.adapter.projection", "vnc.adapter"} <= (
        set(snapshot["probes"]) | set(snapshot["latencies"]))
    assert (json.dumps(listened.room.sim.metrics.snapshot(), sort_keys=True)
            == json.dumps(snapshot, sort_keys=True))
