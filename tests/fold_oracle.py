"""The live telemetry fold's oracle: the same fold over a stored trace.

:class:`StreamingAggregator` folds a run as it happens and takes its
record and span totals from the tracer's counts.
:class:`ReplayedAggregator` folds the same run after the fact from what
a ``store``-mode tracer kept: every stored issue, every stored span that
ended, and the totals of what was stored.  Tests hold the live fold to
it.
"""

from __future__ import annotations

from typing import Tuple

from repro.kernel.errors import ConfigurationError
from repro.kernel.scheduler import Simulator
from repro.telemetry.streaming import StreamingAggregator


class ReplayedAggregator(StreamingAggregator):
    """A :class:`StreamingAggregator` fed from a finished run's store."""

    _stored: Tuple[int, int] = (0, 0)

    def replay(self, sim: Simulator) -> "ReplayedAggregator":
        """Fold ``sim``'s stored trace, as :meth:`attach` would have live.

        Raises :class:`ConfigurationError` for a tracer in ``stream``
        mode, which stored nothing to fold, so an identity test cannot
        pass against an empty store.
        """
        tracer = sim.tracer
        if tracer.mode == "stream":
            raise ConfigurationError(
                "cannot replay a tracer in 'stream' mode: it stores no "
                "records or spans; attach() the aggregator before the run")
        self._sim = sim
        for record in tracer.issues():
            self._fold_issue(record)
        for span in tracer.spans:
            if span.end is not None:
                self._fold_span(span.category, span.start, span.end)
        self._stored = (len(tracer), tracer.span_count)
        return self

    def _totals(self) -> Tuple[int, int]:
        return self._stored
