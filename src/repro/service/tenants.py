"""Multi-tenancy: API keys, quotas, rate limits, per-tenant accounting.

The service authenticates requests with bearer API keys.  Keys are
random 256-bit tokens shown exactly once at provisioning time
(``pyetrify admin create-key`` or ``POST /v1/admin/tenants``); the
database stores only their SHA-256 hash, so a leaked backend file does
not leak usable credentials.

Operating modes
---------------
*Open mode* — a registry with **zero keys** authenticates everything as
the anonymous tenant: a fresh ``pyetrify serve`` behaves exactly like
the pre-tenancy service (no 401s, no quotas), which keeps single-user
and CI deployments friction-free.  *Auth mode* — the moment the first
key is provisioned, every request must carry a valid key
(``Authorization: Bearer pk_…`` or ``X-API-Key``); unknown or missing
keys get 401.

Per-tenant controls
-------------------
``quota_active_jobs``
    Cap on a tenant's concurrently pending+running jobs; submissions
    beyond it are rejected with 429 and a ``Retry-After`` hint (cached
    store hits never count — they enqueue nothing).
``rate_per_second`` / ``burst``
    A token bucket replenished continuously; each authenticated request
    spends one token.  Buckets live in process memory (the front is the
    only place requests enter), while quotas read the shared jobs table
    and therefore hold across any number of worker processes.

Accounting (submissions, cache hits, rejections) is persisted per tenant
in the shared database, in the same transaction style as the store's
counters, so ``/v1/admin/stats`` aggregates traffic across restarts and
across fronts.
"""

from __future__ import annotations

import contextlib
import hashlib
import secrets
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.service.backend import connect_sqlite

__all__ = ["Tenant", "TenantRegistry", "RateDecision", "ANONYMOUS"]

_SCHEMA = (
    """
CREATE TABLE IF NOT EXISTS tenants (
    id                TEXT PRIMARY KEY,
    name              TEXT UNIQUE NOT NULL,
    key_hash          TEXT UNIQUE NOT NULL,
    admin             INTEGER NOT NULL DEFAULT 0,
    quota_active_jobs INTEGER,
    rate_per_second   REAL,
    burst             INTEGER,
    created_at        REAL NOT NULL
)
""",
    """
CREATE TABLE IF NOT EXISTS tenant_counters (
    tenant TEXT NOT NULL,
    name   TEXT NOT NULL,
    value  INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (tenant, name)
)
""",
)

#: Name reported for unauthenticated traffic in open mode.
ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class Tenant:
    """One authenticated principal (or the anonymous open-mode tenant)."""

    id: Optional[str]  # None for the anonymous tenant
    name: str
    admin: bool = False
    quota_active_jobs: Optional[int] = None
    rate_per_second: Optional[float] = None
    burst: Optional[int] = None

    @property
    def anonymous(self) -> bool:
        return self.id is None

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "admin": self.admin,
            "quota_active_jobs": self.quota_active_jobs,
            "rate_per_second": self.rate_per_second,
            "burst": self.burst,
        }


@dataclass(frozen=True)
class RateDecision:
    """Outcome of one token-bucket spend attempt."""

    allowed: bool
    retry_after: float = 0.0


def _hash_key(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class TenantRegistry:
    """sqlite-backed tenant table + in-memory token buckets."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = connect_sqlite(path)
        self._conn.isolation_level = None
        with self._tx():
            for statement in _SCHEMA:
                self._conn.execute(statement)
        self._buckets: Dict[str, List[float]] = {}  # tenant id -> [tokens, stamp]
        self._bucket_lock = threading.Lock()

    @contextlib.contextmanager
    def _tx(self):
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    # -- provisioning ---------------------------------------------------
    def provision(
        self,
        name: str,
        admin: bool = False,
        quota_active_jobs: Optional[int] = None,
        rate_per_second: Optional[float] = None,
        burst: Optional[int] = None,
    ) -> Dict[str, object]:
        """Create a tenant; returns its record plus the one-time key.

        Raises :class:`KeyError` when ``name`` is already taken (the
        HTTP layer maps that to 409 Conflict).
        """
        key = "pk_" + secrets.token_hex(32)
        tenant_id = uuid.uuid4().hex
        with self._tx():
            taken = self._conn.execute(
                "SELECT 1 FROM tenants WHERE name = ?", (name,)
            ).fetchone()
            if taken is not None:
                raise KeyError(f"tenant name {name!r} already exists")
            self._conn.execute(
                "INSERT INTO tenants(id, name, key_hash, admin, quota_active_jobs, "
                "rate_per_second, burst, created_at) VALUES(?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    tenant_id,
                    name,
                    _hash_key(key),
                    1 if admin else 0,
                    quota_active_jobs,
                    rate_per_second,
                    burst,
                    time.time(),
                ),
            )
        tenant = Tenant(
            id=tenant_id,
            name=name,
            admin=admin,
            quota_active_jobs=quota_active_jobs,
            rate_per_second=rate_per_second,
            burst=burst,
        )
        return {"tenant": tenant.as_dict(), "api_key": key}

    def revoke(self, name: str) -> bool:
        """Delete a tenant's key; returns whether anything was removed."""
        with self._tx():
            cursor = self._conn.execute("DELETE FROM tenants WHERE name = ?", (name,))
            return cursor.rowcount > 0

    # -- authentication -------------------------------------------------
    def count(self) -> int:
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM tenants").fetchone()[0])

    @property
    def open_mode(self) -> bool:
        """True while no key exists — everything runs as anonymous."""
        return self.count() == 0

    def authenticate(self, key: Optional[str]) -> Optional[Tenant]:
        """The tenant a bearer key identifies, or ``None`` (→ 401).

        In open mode any request (keyed or not) maps to the anonymous
        tenant, preserving the pre-tenancy behaviour of fresh deploys.
        A valid key costs one indexed read (a known key implies auth
        mode); a request without one costs one count of the tenants.
        """
        if key:
            with self._lock:
                row = self._conn.execute(
                    "SELECT id, name, admin, quota_active_jobs, rate_per_second, burst "
                    "FROM tenants WHERE key_hash = ?",
                    (_hash_key(key),),
                ).fetchone()
            if row is not None:
                return Tenant(
                    id=row[0],
                    name=row[1],
                    admin=bool(row[2]),
                    quota_active_jobs=row[3],
                    rate_per_second=row[4],
                    burst=row[5],
                )
        return Tenant(id=None, name=ANONYMOUS) if self.open_mode else None

    def list_tenants(self) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, name, admin, quota_active_jobs, rate_per_second, burst "
                "FROM tenants ORDER BY name"
            ).fetchall()
        return [
            Tenant(
                id=r[0],
                name=r[1],
                admin=bool(r[2]),
                quota_active_jobs=r[3],
                rate_per_second=r[4],
                burst=r[5],
            ).as_dict()
            for r in rows
        ]

    # -- rate limiting --------------------------------------------------
    def spend_token(self, tenant: Tenant) -> RateDecision:
        """Take one token from the tenant's bucket (continuous refill).

        Tenants without a configured rate are unlimited.  The bucket
        starts full at ``burst`` (default: one second's worth, at least
        1) and refills at ``rate_per_second``; an empty bucket yields the
        seconds until the next token as the ``Retry-After`` hint.
        """
        if tenant.anonymous or not tenant.rate_per_second:
            return RateDecision(True)
        rate = float(tenant.rate_per_second)
        capacity = float(tenant.burst if tenant.burst else max(1.0, rate))
        now = time.monotonic()
        with self._bucket_lock:
            tokens, stamp = self._buckets.get(tenant.id, [capacity, now])
            tokens = min(capacity, tokens + (now - stamp) * rate)
            if tokens >= 1.0:
                self._buckets[tenant.id] = [tokens - 1.0, now]
                return RateDecision(True)
            self._buckets[tenant.id] = [tokens, now]
            return RateDecision(False, retry_after=max(0.001, (1.0 - tokens) / rate))

    # -- accounting -----------------------------------------------------
    def record(self, tenant: Tenant, event: str, delta: int = 1) -> None:
        """Bump a persistent per-tenant counter (``submitted``, ``cache_hits``,
        ``rejected_quota``, ``rejected_rate`` …); anonymous traffic is
        accounted under the anonymous name."""
        with self._tx():
            self._conn.execute(
                "INSERT INTO tenant_counters(tenant, name, value) VALUES(?, ?, ?) "
                "ON CONFLICT(tenant, name) DO UPDATE SET value = value + excluded.value",
                (tenant.name, event, delta),
            )

    def counters(self) -> Dict[str, Dict[str, int]]:
        """All persistent per-tenant counters, keyed by tenant name."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, name, value FROM tenant_counters"
            ).fetchall()
        out: Dict[str, Dict[str, int]] = {}
        for tenant, name, value in rows:
            out.setdefault(str(tenant), {})[str(name)] = int(value)
        return out

    def counters_for(self, tenant: Tenant) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, value FROM tenant_counters WHERE tenant = ?",
                (tenant.name,),
            ).fetchall()
        return {str(name): int(value) for name, value in rows}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
