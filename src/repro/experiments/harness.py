"""Experiment harness: results, tables, and the experiment registry.

Every reproduction target (E1–E11, F1–F5) is a function returning an
:class:`ExperimentResult`; the benchmarks regenerate the paper's
tables/series by printing these, and EXPERIMENTS.md records the measured
shapes.  Results are plain rows so they can be asserted on in tests and
pretty-printed without extra dependencies.

Importing this module registers every experiment: it imports the
experiment modules at its end, so :func:`list_experiments` is complete
as soon as the registry exists and no experiment loads on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..kernel.errors import ExperimentError


@dataclass
class ExperimentResult:
    """One experiment's output table."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: optional per-row telemetry summaries (see repro.telemetry.summary);
    #: populated by sweep() when run_one returns a "telemetry" key.  Kept
    #: out of ``columns``/``rows`` so tables and assertions are unchanged.
    telemetry: List[Dict[str, Any]] = field(default_factory=list)
    #: how the result was produced (sweep() records workers / parallel /
    #: cached-vs-computed task counts and cache stats here).  Like
    #: ``telemetry``, never part of the table.
    meta: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ExperimentError(f"row has unknown columns {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        if name not in self.columns:
            raise ExperimentError(f"no column {name!r}")
        return [row.get(name) for row in self.rows]

    def select(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all given column=value criteria."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """Fixed-width table like the ones a paper prints."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        widths = {c: len(c) for c in self.columns}
        for row in self.rows:
            for c in self.columns:
                widths[c] = max(widths[c], len(fmt(row.get(c, ""))))
        header = " | ".join(c.ljust(widths[c]) for c in self.columns)
        rule = "-+-".join("-" * widths[c] for c in self.columns)
        lines = [f"== {self.experiment_id}: {self.title} ==", header, rule]
        for row in self.rows:
            lines.append(" | ".join(fmt(row.get(c, "")).ljust(widths[c])
                                    for c in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_table()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def experiment(experiment_id: str):
    """Decorator registering an experiment function under its id."""

    def wrap(fn: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = fn
        fn.experiment_id = experiment_id  # type: ignore[attr-defined]
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> List[str]:
    return sorted(_REGISTRY)


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    return get_experiment(experiment_id)(**kwargs)


# ---------------------------------------------------------------------------
# Registration: importing an experiment module runs its @experiment
# decorators.  The imports come last because each module imports
# ``experiment`` and ``ExperimentResult`` from here; a new experiment module
# goes on this list.
# ---------------------------------------------------------------------------

from . import (
    cellgrid,  # noqa: F401
    e1_vnc,  # noqa: F401
    e2_interference,  # noqa: F401
    e2_scale,  # noqa: F401
    e3_ranging,  # noqa: F401
    e4_discovery,  # noqa: F401
    e5_burden,  # noqa: F401
    e6_faculties,  # noqa: F401
    e7_harmony,  # noqa: F401
    e8_voice,  # noqa: F401
    e9_analysis,  # noqa: F401
    e10_energy,  # noqa: F401
    figures,  # noqa: F401
)
