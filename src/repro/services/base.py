"""RPC service framework: the plumbing under every Aroma service.

A :class:`RpcService` exposes named methods on a stack port; a
:class:`RpcClient` is the bound form of a downloaded
:class:`~repro.discovery.records.ServiceProxy` — it calls those methods
over the reliable transport with request/reply correlation and timeouts.
Session tokens ride in every call so services can enforce the hijack
protection of :mod:`repro.services.sessions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..discovery.records import ServiceItem, ServiceProxy, new_service_id
from ..kernel.errors import ConfigurationError, ServiceError, SessionError
from ..kernel.scheduler import Simulator



@dataclass(frozen=True)
class RpcCall:
    request_id: int
    method: str
    args: Dict[str, Any] = field(default_factory=dict)
    token: Optional[str] = None

    @property
    def wire_bytes(self) -> int:
        return 48 + sum(8 + len(str(k)) + len(str(v))
                        for k, v in self.args.items())


@dataclass(frozen=True)
class RpcResult:
    request_id: int
    ok: bool
    value: Any = None
    error: str = ""

    @property
    def wire_bytes(self) -> int:
        return 32 + len(str(self.value)) + len(self.error)


class RpcService:
    """A named service exposing methods on one device port.

    Handlers are ``fn(src_address, **args) -> value``; raise
    :class:`ServiceError`/:class:`SessionError` to return a failure to the
    caller.  Handlers needing the session token receive it as the keyword
    ``_token``.
    """

    def __init__(self, sim: Simulator, device, name: str, port: int,
                 protocol: str, code_bytes: int = 8192) -> None:
        self.sim = sim
        self.device = device
        self.name = name
        self.port = port
        self.protocol = protocol
        self.code_bytes = code_bytes
        self._methods: Dict[str, Callable[..., Any]] = {}
        self.endpoint = device.reliable(port, self._on_call)
        self.calls_served = 0
        self.calls_failed = 0
        self.service_id = new_service_id(sim, name)

    def expose(self, method: str, handler: Callable[..., Any]) -> None:
        if method in self._methods:
            raise ConfigurationError(f"method {method!r} already exposed")
        self._methods[method] = handler

    def service_item(self, service_type: str, **attributes: Any) -> ServiceItem:
        """Build the registrable item advertising this service."""
        proxy = ServiceProxy(self.device.name, self.port, self.protocol,
                             self.code_bytes)
        return ServiceItem(self.service_id, service_type, proxy, attributes)

    # ------------------------------------------------------------------
    def _on_call(self, src: str, call: Any, _segments: int) -> None:
        if not isinstance(call, RpcCall):
            return
        handler = self._methods.get(call.method)
        if handler is None:
            result = RpcResult(call.request_id, False,
                               error=f"no method {call.method!r}")
            self.calls_failed += 1
        else:
            try:
                kwargs = dict(call.args)
                if call.token is not None:
                    kwargs["_token"] = call.token
                value = handler(src, **kwargs)
                result = RpcResult(call.request_id, True, value)
                self.calls_served += 1
            except (ServiceError, SessionError) as exc:
                result = RpcResult(call.request_id, False, error=str(exc))
                self.calls_failed += 1
            except Exception as exc:  # noqa: BLE001 - server isolation
                # A handler bug must not take the whole simulated world
                # down with it: report an internal error to the caller
                # (as a real RPC server would) and surface the defect.
                result = RpcResult(call.request_id, False,
                                   error=f"internal error: {exc!r}")
                self.calls_failed += 1
                self.sim.issue("application", self.name,
                               f"handler {call.method!r} crashed: {exc!r}")
        self.endpoint.send(src, result, result.wire_bytes)

    def stop(self) -> None:
        self.endpoint.close()


class RpcClient:
    """Client-side binding of a service proxy.

    One client may be shared by everything on a device that talks to the
    same remote port; per-call callbacks are correlated by request id.
    """

    def __init__(self, sim: Simulator, device, proxy: ServiceProxy,
                 timeout: float = 3.0) -> None:
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        self.sim = sim
        self.device = device
        self.proxy = proxy
        self.timeout = timeout
        self.endpoint = device.reliable(proxy.port, self._on_result)
        self._pending: Dict[int, tuple] = {}
        self.calls_sent = 0
        self.timeouts = 0

    def call(self, method: str, args: Optional[Dict[str, Any]] = None,
             on_result: Optional[Callable[[Optional[RpcResult]], None]] = None,
             token: Optional[str] = None) -> int:
        """Invoke ``method``; ``on_result(None)`` signals a timeout."""
        call = RpcCall(self.sim.next_seq("services.rpc_seq"), method,
                       dict(args or {}), token)
        timer = self.sim.schedule(self.timeout, self._timeout, call.request_id)
        self._pending[call.request_id] = (on_result, timer)
        self.endpoint.send(self.proxy.provider, call, call.wire_bytes)
        self.calls_sent += 1
        return call.request_id

    def _timeout(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        self.timeouts += 1
        self.sim.trace("rpc.timeout", self.device.name,
                       f"call {request_id} to {self.proxy.provider} timed out")
        if entry[0] is not None:
            entry[0](None)

    def _on_result(self, src: str, result: Any, _segments: int) -> None:
        if not isinstance(result, RpcResult):
            return
        entry = self._pending.pop(result.request_id, None)
        if entry is None:
            return
        entry[1].cancel()
        if entry[0] is not None:
            entry[0](result)

    def close(self) -> None:
        self.endpoint.close()
