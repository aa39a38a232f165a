"""Tenant registry: identities, API keys, and per-tenant service config.

The gateway serves many independent parties — platforms, trust-and-safety
teams, researchers — over one shared scoring core (the Ex Machina
operating model).  Each tenant brings its own admission budget (token
bucket rate/burst plus an optional hard message quota) and its own alert
*preferences* (threshold overrides and enabled detection kinds, the
Rahaman & Sen per-user filtering layer).  Preferences only filter what
the tenant's feed delivers; they never change what the shared monitors
compute, so the isolation invariant is measured on the raw per-tenant
alert stream.

API keys are derived deterministically from the registry seed via
:func:`repro.util.rng.stable_hash` — no wall clock, no entropy pool —
so a registry built from the same seed authenticates the same keys on
every machine, which is what makes auth failures reproducible in the
bench.
"""

from __future__ import annotations

import dataclasses
import hmac
import math
from typing import Iterable, Mapping

from repro.service.monitor import Alert, AlertKind
from repro.util.rng import stable_hash

#: Domain-separation tag for API-key derivation; changing it rotates
#: every key derived from every seed.
_KEY_DOMAIN = "gateway-api-key"


def derive_api_key(tenant: str, seed: int) -> str:
    """Deterministic 16-hex-digit API key for ``tenant`` under ``seed``."""
    return f"{stable_hash(_KEY_DOMAIN, tenant, seed):016x}"


@dataclasses.dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission budget and alert preferences.

    ``rate_per_second``/``burst`` parameterize the tenant's token
    bucket (``burst`` is the bucket capacity; zero means the tenant can
    never be admitted — a suspended account, not an error).
    ``message_quota`` is a hard lifetime cap on admitted messages
    (0 = unlimited).  ``cth_threshold``/``dox_threshold`` override the
    monitor's alert thresholds *at delivery time*: an alert whose score
    falls below the tenant's override is suppressed from that tenant's
    feed.  ``enabled_kinds`` whitelists delivered alert kinds
    (``None`` = all kinds).
    """

    tenant: str
    rate_per_second: float = 100.0
    burst: int = 32
    message_quota: int = 0
    cth_threshold: float | None = None
    dox_threshold: float | None = None
    enabled_kinds: frozenset[AlertKind] | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant id must be a non-empty string")
        if "|" in self.tenant or ":" in self.tenant:
            # The tenant id becomes part of routing/state keys via
            # tenant_scope(); reserved separators would let one tenant
            # forge another's scope prefix.
            raise ValueError(
                f"tenant id {self.tenant!r} must not contain '|' or ':'"
            )
        if not (
            math.isfinite(self.rate_per_second) and self.rate_per_second >= 0
        ):
            raise ValueError(
                f"tenant {self.tenant!r}: rate_per_second must be finite "
                f"and >= 0, got {self.rate_per_second}"
            )
        if self.burst < 0:
            raise ValueError(
                f"tenant {self.tenant!r}: burst must be >= 0, got {self.burst}"
            )
        if self.message_quota < 0:
            raise ValueError(
                f"tenant {self.tenant!r}: message_quota must be >= 0, "
                f"got {self.message_quota}"
            )
        for name in ("cth_threshold", "dox_threshold"):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and 0.0 <= value <= 1.0
            ):
                raise ValueError(
                    f"tenant {self.tenant!r}: {name} must be in [0, 1], "
                    f"got {value!r}"
                )
        if self.enabled_kinds is not None:
            object.__setattr__(
                self, "enabled_kinds", frozenset(self.enabled_kinds)
            )

    def delivers(self, alert: Alert) -> bool:
        """Would this tenant's preference layer deliver ``alert``?

        Kind whitelist first, then the score-threshold overrides for
        the two score-bearing kinds.  Campaign/escalation alerts carry
        derived scores and pass on the kind filter alone.
        """
        if (
            self.enabled_kinds is not None
            and alert.kind not in self.enabled_kinds
        ):
            return False
        if alert.kind is AlertKind.CTH and self.cth_threshold is not None:
            return alert.score >= self.cth_threshold
        if alert.kind is AlertKind.DOX and self.dox_threshold is not None:
            return alert.score >= self.dox_threshold
        return True

    def as_dict(self) -> dict[str, object]:
        return {
            "tenant": self.tenant,
            "rate_per_second": self.rate_per_second,
            "burst": self.burst,
            "message_quota": self.message_quota,
            "cth_threshold": self.cth_threshold,
            "dox_threshold": self.dox_threshold,
            "enabled_kinds": (
                None if self.enabled_kinds is None
                else sorted(kind.value for kind in self.enabled_kinds)
            ),
        }


class TenantRegistry:
    """Seeded tenant directory with deterministic API-key auth."""

    def __init__(
        self, seed: int, tenants: Iterable[TenantConfig] = ()
    ) -> None:
        self.seed = seed
        self._tenants: dict[str, TenantConfig] = {}
        self._keys: dict[str, str] = {}
        for config in tenants:
            self.register(config)

    def register(self, config: TenantConfig) -> str:
        """Add (or replace) a tenant; returns its derived API key."""
        self._tenants[config.tenant] = config
        key = derive_api_key(config.tenant, self.seed)
        self._keys[config.tenant] = key
        return key

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def tenant_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._tenants))

    def config(self, tenant: str) -> TenantConfig:
        return self._tenants[tenant]

    def authenticate(self, tenant: str, api_key: str) -> bool:
        """True iff ``api_key`` is the registered key for ``tenant``."""
        expected = self._keys.get(tenant)
        # Constant-time over bytes: compare_digest rejects non-ASCII str.
        return expected is not None and hmac.compare_digest(
            api_key.encode("utf-8"), expected.encode("utf-8")
        )

    def credentials(self) -> dict[str, str]:
        """tenant id -> API key, for driving the gateway in tests/bench."""
        return {tenant: self._keys[tenant] for tenant in sorted(self._keys)}

    def as_dict(self) -> dict[str, object]:
        """Config snapshot (keys are derivable, so they are not secret
        here — but the snapshot still omits them by convention)."""
        return {
            "seed": self.seed,
            "tenants": [
                self._tenants[tenant].as_dict()
                for tenant in sorted(self._tenants)
            ],
        }


def default_credentials(
    registry: TenantRegistry,
    extra: Mapping[str, str] | None = None,
) -> dict[str, str]:
    """Registry credentials plus ``extra`` presented keys (e.g. forged
    ones for auth-rejection scenarios)."""
    creds = registry.credentials()
    if extra:
        for tenant in sorted(extra):
            creds[tenant] = extra[tenant]
    return creds
