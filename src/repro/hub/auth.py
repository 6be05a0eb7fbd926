"""Admission identity: bearer tokens, tenants, and their service terms.

A *tenant* is the unit of isolation, accounting, and admission on the
hub: tokens authenticate to exactly one tenant, quotas are per tenant,
and a tenant's repositories live under its own
``/t/<tenant>/...`` namespace. The authenticator is deliberately tiny —
a token registry with constant-time comparison — because the hub's
security posture is *containment*, not cryptography: a request either
proves it belongs to the namespace it addresses or it is answered with
a typed denial before any repository state is touched.
"""

from __future__ import annotations

import hmac
import re
import threading
from dataclasses import dataclass

from ..errors import AuthenticationError, AuthorizationError, HubError

#: Tenant and repository names share one grammar: path-safe, no dots at
#: the front (hidden files), no separators (path traversal). Enforced at
#: both config time and request time; the HTTP route regex is composed
#: from the same fragment so the two can never diverge.
NAME_FRAGMENT = r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}"
NAME_PATTERN = re.compile(f"^{NAME_FRAGMENT}$")


def validate_name(kind: str, name: str) -> str:
    if not isinstance(name, str) or not NAME_PATTERN.match(name):
        raise HubError(
            f"invalid {kind} name {name!r}: must match {NAME_PATTERN.pattern}"
        )
    return name


@dataclass
class TenantConfig:
    """One tenant's identity and service terms.

    ``quota_bytes`` bounds tenant-*logical* usage (reachable bytes across
    the tenant's repositories, every chunk counted in full); ``None``
    means unlimited. A malformed term is refused here, naming the tenant
    and the field, so it fails at registration or at hub start-up rather
    than on the tenant's next request.
    """

    name: str
    tokens: tuple[str, ...] = ()
    quota_bytes: int | None = None

    def __post_init__(self) -> None:
        validate_name("tenant", self.name)
        # A bare string would iterate into one-character tokens, each of
        # which would authenticate as this tenant.
        if isinstance(self.tokens, (str, bytes)):
            raise self._invalid(
                "tokens", f"must be a list of strings, not one {type(self.tokens).__name__}"
            )
        try:
            self.tokens = tuple(self.tokens)
        except TypeError:
            raise self._invalid("tokens", "must be a list of strings") from None
        if not all(isinstance(token, str) and token for token in self.tokens):
            raise self._invalid("tokens", "must each be a non-empty string")
        quota = self.quota_bytes
        if quota is not None and (
            not isinstance(quota, int) or isinstance(quota, bool) or quota <= 0
        ):
            raise self._invalid(
                "quota_bytes", f"must be a positive integer or null, not {quota!r}"
            )

    def _invalid(self, field: str, why: str) -> HubError:
        return HubError(f"tenant {self.name!r}: {field!r} {why}")

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens), "quota_bytes": self.quota_bytes}

    @classmethod
    def from_dict(cls, name: str, entry: dict) -> "TenantConfig":
        """One tenant of ``hub.json``. A term this hub does not know is
        refused by name unless it is ``null`` — which is how hubs from
        before rate limiting was removed wrote its two fields: dropping
        a configured limit would change admission without telling anyone."""
        if not isinstance(entry, dict):
            raise HubError(f"tenant {name!r}: hub.json entry must be an object")
        for field in sorted(set(entry) - {"tokens", "quota_bytes"}):
            if entry[field] is not None:
                raise HubError(
                    f"tenant {name!r}: hub.json sets {field!r}, which this "
                    "hub does not support (per-tenant rate limits were "
                    "removed); delete it to start the hub"
                )
        return cls(
            name=name,
            tokens=entry.get("tokens", ()),
            quota_bytes=entry.get("quota_bytes"),
        )


class TokenAuthenticator:
    """Maps bearer tokens to tenants; rejects everything else.

    Lookup compares the presented token against every registered token
    with :func:`hmac.compare_digest` and never exits early, so response
    timing does not reveal which tenant (or how much of a token) almost
    matched.
    """

    def __init__(self) -> None:
        # Registration is a live operation (token rotation on a serving
        # hub); the lock keeps request-thread scans off a mutating dict.
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantConfig] = {}

    def add_tenant(self, config: TenantConfig) -> TenantConfig:
        """Register or replace a tenant.

        A token already registered to a *different* tenant is rejected
        here, at config time: with duplicates, :meth:`authenticate`
        would resolve the token to whichever tenant happened to iterate
        last — requests silently landing in the wrong namespace.
        """
        with self._lock:
            for other in self._tenants.values():
                if other.name == config.name:
                    continue
                if set(other.tokens) & set(config.tokens):
                    raise HubError(
                        f"token already registered to tenant {other.name!r}; "
                        "tokens must be unique across tenants"
                    )
            self._tenants[config.name] = config
        return config

    def tenant(self, name: str) -> TenantConfig:
        with self._lock:
            if name not in self._tenants:
                raise AuthenticationError(f"unknown tenant {name!r}")
            return self._tenants[name]

    def tenants(self) -> list[TenantConfig]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def has_tenant(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def authenticate(self, token: str | None) -> str:
        """The tenant a token belongs to; :class:`AuthenticationError`
        otherwise. The scan is exhaustive on purpose (constant-time-ish)."""
        if not token:
            raise AuthenticationError(
                "request carries no bearer token; this hub requires "
                "authentication for every operation"
            )
        matched: str | None = None
        with self._lock:
            configs = list(self._tenants.values())
        for config in configs:
            for registered in config.tokens:
                if hmac.compare_digest(
                    registered.encode("utf-8"), token.encode("utf-8")
                ):
                    matched = config.name
        if matched is None:
            raise AuthenticationError("bearer token is not recognized")
        return matched

    def authorize(self, token: str | None, tenant: str) -> TenantConfig:
        """Authenticate, then require the token's tenant to be ``tenant``.

        Tokens are namespace-scoped: there is no cross-tenant read grant,
        so a mismatch is an authorization failure even for pure reads.
        """
        owner = self.authenticate(token)
        if owner != tenant:
            raise AuthorizationError(
                f"token authenticates tenant {owner!r}, which cannot act "
                f"in tenant {tenant!r}'s namespace"
            )
        return self.tenant(owner)
