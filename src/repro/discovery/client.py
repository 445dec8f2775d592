"""Client-side discovery machinery: the Jini ``ServiceDiscoveryManager``
analog.

One :class:`ServiceDiscoveryClient` per device gives it everything the
Smart Projector scenario needs:

* find registrars (passive announcements + active probes);
* register services with **automatic lease renewal** — the provider-side
  half of the self-healing the paper asks for;
* look up services by template;
* subscribe to remote events with a deduplicating mailbox.

All request/reply traffic is correlated by request id over the reliable
transport; timeouts surface as ``None`` replies so callers can retry or
give up — visible behaviour, not hidden hangs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..kernel.errors import ConfigurationError, DiscoveryError
from ..kernel.scheduler import Simulator
from .events import EventMailbox, RemoteEvent
from .protocol import DiscoveryAgent, RegistryLocator
from .records import ServiceItem, ServiceTemplate
from .registry import (
    EVENT_PORT,
    REGISTRY_PORT,
    CancelRequest,
    LookupRequest,
    NotifyRequest,
    RegisterRequest,
    RenewRequest,
    Reply,
    new_request_id,
)

#: Fraction of a lease's duration after which the renewer renews.
RENEW_FRACTION = 0.45


def _fire_timeout(request_id: int, client: "ServiceDiscoveryClient") -> None:
    """Batched request-timeout callback (shared ``discovery.timeout``
    class; the owner column carries the request id)."""
    client._timeout(request_id)


def _fire_renewal(_owner: int, pack: tuple) -> None:
    """Batched lease-renewal callback: ``pack`` is (bound renew method,
    registration-or-subscription handle)."""
    fn, handle = pack
    fn(handle)


@dataclass
class ServiceRegistration:
    """Handle for one auto-renewed registration."""

    item: ServiceItem
    locator: RegistryLocator
    lease_id: Optional[int] = None
    lease_duration: float = 0.0
    active: bool = False
    renewals: int = 0
    failures: int = 0
    _renew_event: Any = field(default=None, repr=False)


@dataclass
class Subscription:
    """Handle for one auto-renewed event subscription."""

    template: ServiceTemplate
    locator: RegistryLocator
    lease_id: Optional[int] = None
    lease_duration: float = 0.0
    active: bool = False
    _renew_event: Any = field(default=None, repr=False)


class ServiceDiscoveryClient:
    """Discovery, lookup, registration and eventing for one device."""

    def __init__(self, sim: Simulator, device,
                 request_timeout: float = 2.0) -> None:
        if request_timeout <= 0:
            raise ConfigurationError("request timeout must be positive")
        if device.stack is None:
            raise ConfigurationError(f"{device.name!r} is not networked")
        self.sim = sim
        self.device = device
        self.request_timeout = request_timeout
        self.agent = DiscoveryAgent(sim, device)
        self.endpoint = device.reliable(REGISTRY_PORT, self._on_reply)
        self._pending: Dict[int, tuple] = {}  # request_id -> (callback, timer)
        self._event_handlers: List[Callable[[RemoteEvent], None]] = []
        self.mailbox = EventMailbox(self._dispatch_event)
        self._event_rx = device.reliable(EVENT_PORT, self._on_event)
        self.registrations: List[ServiceRegistration] = []
        self.subscriptions: List[Subscription] = []
        self.timeouts = 0
        # Request timeouts are the kernel's cancel-heaviest timer class
        # (nearly every one is cancelled by the reply); renewals are the
        # lease-storm class.  Both are batch classes shared across
        # clients.
        self._timeout_q = sim.batch_class(
            "discovery.timeout", _fire_timeout, cancellable=True,
            shared=True)
        self._renew_q = sim.batch_class(
            "discovery.renew", _fire_renewal, cancellable=True, shared=True)

    # ------------------------------------------------------------------
    # Low-level request/reply
    # ------------------------------------------------------------------
    def request(self, locator: RegistryLocator, message: Any,
                size_bytes: int, on_reply: Callable[[Optional[Reply]], None]) -> int:
        """Send one registry request; ``on_reply(None)`` on timeout."""
        request_id = message.request_id
        timer = self._timeout_q.schedule(self.request_timeout,
                                         owner=request_id, payload=self)
        self._pending[request_id] = (on_reply, timer)
        self.endpoint.send(locator.address, message, size_bytes)
        return request_id

    def _timeout(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        self.timeouts += 1
        self.sim.trace("discovery.timeout", self.device.name,
                       f"request {request_id} timed out")
        entry[0](None)

    def _on_reply(self, src: str, reply: Any, _segments: int) -> None:
        if not isinstance(reply, Reply):
            return
        entry = self._pending.pop(reply.request_id, None)
        if entry is None:
            return  # late reply after timeout
        entry[1].cancel()
        entry[0](reply)

    # ------------------------------------------------------------------
    # Registrar discovery
    # ------------------------------------------------------------------
    def discover(self, on_found: Optional[Callable[[RegistryLocator], None]] = None) -> None:
        if on_found is not None:
            self.agent.on_found(on_found)
        self.agent.discover()

    def registries(self) -> List[RegistryLocator]:
        return list(self.agent.known.values())

    def require_registry(self) -> RegistryLocator:
        locators = self.registries()
        if not locators:
            raise DiscoveryError(f"{self.device.name}: no registry known yet")
        return locators[0]

    # ------------------------------------------------------------------
    # Registration with auto-renewal
    # ------------------------------------------------------------------
    def register(self, item: ServiceItem, lease_duration: float,
                 locator: Optional[RegistryLocator] = None,
                 auto_renew: bool = True,
                 on_registered: Optional[Callable[[ServiceRegistration], None]] = None
                 ) -> ServiceRegistration:
        locator = locator or self.require_registry()
        registration = ServiceRegistration(item, locator)
        self.registrations.append(registration)
        message = RegisterRequest(new_request_id(self.sim), item, lease_duration)

        def handle(reply: Optional[Reply]) -> None:
            if reply is None or not reply.ok:
                registration.failures += 1
                # Retry registration after a backoff; the registrar may
                # simply not be reachable yet.
                self.sim.schedule(1.0, _resend)
                return
            registration.lease_id = reply.lease_id
            registration.lease_duration = reply.lease_duration or lease_duration
            registration.active = True
            if auto_renew:
                self._arm_renewal(registration)
            if on_registered is not None:
                on_registered(registration)

        def _resend() -> None:
            if registration.active:
                return
            retry = RegisterRequest(new_request_id(self.sim), item, lease_duration)
            self.request(locator, retry, 64 + item.wire_bytes, handle)

        self.request(locator, message, 64 + item.wire_bytes, handle)
        return registration

    def _arm_renewal(self, registration: ServiceRegistration) -> None:
        delay = registration.lease_duration * RENEW_FRACTION
        registration._renew_event = self._renew_q.schedule(
            delay, payload=(self._renew_registration, registration))

    def _renew_registration(self, registration: ServiceRegistration) -> None:
        if not registration.active or registration.lease_id is None:
            return
        message = RenewRequest(new_request_id(self.sim), registration.lease_id)

        def handle(reply: Optional[Reply]) -> None:
            if reply is None:
                registration.failures += 1
                self._arm_renewal(registration)  # try again next period
                return
            if not reply.ok:
                # Lease already gone: re-register from scratch.
                registration.active = False
                self.sim.issue("discovery", self.device.name,
                               f"lease lost for {registration.item.service_id}; "
                               "re-registering")
                self.register(registration.item,
                              registration.lease_duration,
                              registration.locator)
                return
            registration.renewals += 1
            self._arm_renewal(registration)

        self.request(registration.locator, message, 32, handle)

    def cancel_registration(self, registration: ServiceRegistration,
                            on_done: Optional[Callable[[bool], None]] = None) -> None:
        """The well-behaved path: explicitly relinquish the registration."""
        registration.active = False
        if registration._renew_event is not None:
            registration._renew_event.cancel()
        if registration.lease_id is None:
            if on_done:
                on_done(False)
            return
        message = CancelRequest(new_request_id(self.sim), registration.lease_id)
        self.request(registration.locator, message, 32,
                     lambda reply: on_done(bool(reply and reply.ok))
                     if on_done else None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, template: ServiceTemplate,
             on_result: Callable[[List[ServiceItem]], None],
             locator: Optional[RegistryLocator] = None,
             max_matches: int = 16) -> None:
        """Query a registrar; ``on_result([])`` on timeout or no match."""
        locator = locator or self.require_registry()
        message = LookupRequest(new_request_id(self.sim), template, max_matches)

        def handle(reply: Optional[Reply]) -> None:
            on_result(list(reply.items) if reply and reply.ok else [])

        self.request(locator, message, 32 + template.wire_bytes, handle)

    # ------------------------------------------------------------------
    # Remote events
    # ------------------------------------------------------------------
    def subscribe(self, template: ServiceTemplate,
                  on_event: Callable[[RemoteEvent], None],
                  lease_duration: float = 60.0,
                  locator: Optional[RegistryLocator] = None,
                  auto_renew: bool = True) -> Subscription:
        locator = locator or self.require_registry()
        subscription = Subscription(template, locator)
        self.subscriptions.append(subscription)
        self._event_handlers.append(on_event)
        message = NotifyRequest(new_request_id(self.sim), template,
                                self.device.name, lease_duration)

        def handle(reply: Optional[Reply]) -> None:
            if reply is None or not reply.ok:
                return
            subscription.lease_id = reply.lease_id
            subscription.lease_duration = reply.lease_duration or lease_duration
            subscription.active = True
            if auto_renew:
                self._arm_subscription_renewal(subscription)

        self.request(locator, message, 64 + template.wire_bytes, handle)
        return subscription

    def _arm_subscription_renewal(self, subscription: Subscription) -> None:
        delay = subscription.lease_duration * RENEW_FRACTION
        subscription._renew_event = self._renew_q.schedule(
            delay, payload=(self._renew_subscription, subscription))

    def _renew_subscription(self, subscription: Subscription) -> None:
        if not subscription.active or subscription.lease_id is None:
            return
        message = RenewRequest(new_request_id(self.sim), subscription.lease_id)

        def handle(reply: Optional[Reply]) -> None:
            if reply is not None and reply.ok:
                self._arm_subscription_renewal(subscription)
            else:
                subscription.active = False

        self.request(subscription.locator, message, 32, handle)

    def _on_event(self, src: str, event: Any, _segments: int) -> None:
        if isinstance(event, RemoteEvent):
            self.mailbox.deliver(event)

    def _dispatch_event(self, event: RemoteEvent) -> None:
        for handler in list(self._event_handlers):
            handler(event)
