"""Deterministic discrete-event simulation kernel.

The kernel is the substrate under every other package: the radio
environment, MAC, transport, discovery middleware, services, and the
simulated users all run as events on one :class:`Simulator`.
"""

from .lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "AddressError": "errors",
    "ConfigurationError": "errors",
    "ConstraintViolation": "errors",
    "DiscoveryError": "errors",
    "ExperimentError": "errors",
    "LeaseError": "errors",
    "ModelError": "errors",
    "NetworkError": "errors",
    "ProcessError": "errors",
    "ReproError": "errors",
    "ScheduleError": "errors",
    "ServiceError": "errors",
    "SessionError": "errors",
    "SimulationError": "errors",
    "SimulationFinished": "errors",
    "TransportError": "errors",
    "Event": "events",
    "Priority": "events",
    "Process": "process",
    "Signal": "process",
    "spawn": "process",
    "RandomStreams": "random",
    "PeriodicTask": "scheduler",
    "Simulator": "scheduler",
    "NULL_SPAN": "trace",
    "Span": "trace",
    "TraceRecord": "trace",
    "Tracer": "trace",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
