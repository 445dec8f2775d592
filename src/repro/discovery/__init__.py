"""Jini-style service discovery middleware.

"Service discovery, self-configuration, and dynamic resource sharing" is
the second of the Aroma project's research areas; this package is its
implementation: multicast registrar discovery, leased registrations,
template lookup, mobile-code proxies, and remote events.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "RENEW_FRACTION": "client",
    "ServiceDiscoveryClient": "client",
    "ServiceRegistration": "client",
    "Subscription": "client",
    "ADDED": "events",
    "EXPIRED": "events",
    "EventMailbox": "events",
    "REMOVED": "events",
    "RemoteEvent": "events",
    "Lease": "leases",
    "LeaseTable": "leases",
    "ANNOUNCE_GROUP": "protocol",
    "AnnouncingRegistry": "protocol",
    "DiscoveryAgent": "protocol",
    "DiscoveryRequest": "protocol",
    "REQUEST_GROUP": "protocol",
    "RegistryLocator": "protocol",
    "MATCH_ALL": "records",
    "ServiceItem": "records",
    "ServiceProxy": "records",
    "ServiceTemplate": "records",
    "new_service_id": "records",
    "CancelRequest": "registry",
    "EVENT_PORT": "registry",
    "LookupRequest": "registry",
    "LookupService": "registry",
    "NotifyRequest": "registry",
    "REGISTRY_PORT": "registry",
    "RegisterRequest": "registry",
    "RenewRequest": "registry",
    "Reply": "registry",
    "new_request_id": "registry",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
