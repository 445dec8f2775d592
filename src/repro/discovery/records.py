"""Service records: items, proxies, attribute templates.

The Jini analog: a provider registers a :class:`ServiceItem` — identity,
typed attributes, and a :class:`ServiceProxy` (the *mobile code* a client
downloads to talk to the service; we model its size so proxy download
costs airtime, and its interface so clients can bind it).  Consumers match
items with :class:`ServiceTemplate`, Jini's ``ServiceTemplate`` semantics:
every given field must match, absent fields are wildcards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator


def new_service_id(sim: Simulator, prefix: str = "svc") -> str:
    """Mint a service id unique within ``sim``.

    The counter lives in ``sim``, so a run mints the same ids whatever
    ran earlier in the process.
    """
    return f"{prefix}-{sim.next_seq('discovery.service_seq'):04d}"


@dataclass(frozen=True)
class ServiceProxy:
    """The downloadable client-side object for one service.

    Attributes:
        provider: network address the proxy talks back to.
        port: stack port of the service endpoint.
        protocol: wire protocol the proxy implements (e.g. ``"vnc"``,
            ``"projector-control"``).
        code_bytes: size of the proxy code; transferred on first lookup —
            the cost of mobile code on a slow radio.
    """

    provider: str
    port: int
    protocol: str
    code_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.port < 0 or self.code_bytes < 0:
            raise ConfigurationError("bad proxy port/code size")


@dataclass(frozen=True)
class ServiceItem:
    """One registered service."""

    service_id: str
    service_type: str
    proxy: ServiceProxy
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.service_id or not self.service_type:
            raise ConfigurationError("service id and type are required")
        # Freeze the attribute mapping so items are safely shareable.
        object.__setattr__(self, "attributes", dict(self.attributes))

    @property
    def wire_bytes(self) -> int:
        """Approximate marshalled size: fixed header + attributes + proxy."""
        attr_bytes = sum(16 + len(str(k)) + len(str(v))
                         for k, v in self.attributes.items())
        return 64 + attr_bytes + self.proxy.code_bytes


@dataclass(frozen=True)
class ServiceTemplate:
    """A lookup query: all present fields must match, absent = wildcard."""

    service_type: Optional[str] = None
    service_id: Optional[str] = None
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))

    def matches(self, item: ServiceItem) -> bool:
        if self.service_id is not None and item.service_id != self.service_id:
            return False
        if self.service_type is not None and item.service_type != self.service_type:
            return False
        for key, wanted in self.attributes.items():
            if item.attributes.get(key) != wanted:
                return False
        return True

    @property
    def wire_bytes(self) -> int:
        return 32 + sum(16 + len(str(k)) + len(str(v))
                        for k, v in self.attributes.items())


#: Template matching everything (Jini's ``new ServiceTemplate(null, null, null)``).
MATCH_ALL = ServiceTemplate()
