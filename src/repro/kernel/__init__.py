"""Deterministic discrete-event simulation kernel.

The kernel is the substrate under every other package: the radio
environment, MAC, transport, discovery middleware, services, and the
simulated users all run as events on one :class:`Simulator`.
"""

from .errors import (
    AddressError,
    ConfigurationError,
    ConstraintViolation,
    DiscoveryError,
    ExperimentError,
    LeaseError,
    ModelError,
    NetworkError,
    ProcessError,
    ReproError,
    ScheduleError,
    ServiceError,
    SessionError,
    SimulationError,
    SimulationFinished,
    TransportError,
)
from .batchq import BatchClass
from .events import Event, Priority
from .process import Process, Signal, spawn
from .random import RandomStreams
from .scheduler import PeriodicTask, Simulator
from .trace import NULL_SPAN, Span, TraceRecord, Tracer

__all__ = [
    "AddressError",
    "BatchClass",
    "ConfigurationError",
    "ConstraintViolation",
    "DiscoveryError",
    "Event",
    "ExperimentError",
    "LeaseError",
    "ModelError",
    "NULL_SPAN",
    "NetworkError",
    "PeriodicTask",
    "Priority",
    "Process",
    "ProcessError",
    "RandomStreams",
    "ReproError",
    "ScheduleError",
    "ServiceError",
    "SessionError",
    "Signal",
    "SimulationError",
    "SimulationFinished",
    "Simulator",
    "Span",
    "TraceRecord",
    "Tracer",
    "TransportError",
    "spawn",
]
