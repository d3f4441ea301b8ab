"""Persistent, content-addressed result store (sqlite3 + JSON payloads).

One row per request fingerprint (:mod:`repro.service.fingerprint`); the
payload is the JSON-serialisable outcome of the encoding run (the
``BatchItem.as_dict()`` shape produced by the worker pool).  The store
survives restarts — a result written before :meth:`ResultStore.close` is
served after reopening the same path — and keeps hit/miss/evict
accounting for the ``/stats`` endpoint.

Concurrency: connection-per-component on a WAL-journaled database with a
busy timeout (:mod:`repro.service.backend`), and every mutation in a
``BEGIN IMMEDIATE`` transaction — so N worker processes and the HTTP
front can share one store file.  Two workers resolving the same
fingerprint concurrently land on one row (the write is an UPSERT inside
the write lock) and the LRU sequence is derived *inside* the
transaction (``MAX(access_seq)+1``), never from in-process state that
another process could be advancing at the same time.

Accounting exists at two scopes: the in-process counters
(:attr:`hits` / :attr:`misses` / :attr:`evictions`, process lifetime —
what one front's ``/stats`` reports as its own traffic) and the shared
``store_counters`` table, incremented in the same transaction as the
lookup they describe, which aggregates across every process on the
backend (reported as ``shared`` in :meth:`stats`).

Reads that *serve* a result (:meth:`get`) count towards the hit rate;
reads that merely *poll* for one (:meth:`peek`, used by
``GET /jobs/{id}`` and the event streams) touch no accounting at all, so
a client polling a slow job cannot dilute the cache statistics.

An optional ``max_entries`` bound turns the store into an LRU cache:
inserting beyond the bound evicts the least-recently-served rows and
increments the eviction counters.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Dict, Optional

from repro.service.backend import connect_sqlite

__all__ = ["ResultStore"]

_SCHEMA = (
    """
CREATE TABLE IF NOT EXISTS results (
    fingerprint  TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    payload      TEXT NOT NULL,
    created_at   REAL NOT NULL,
    access_seq   INTEGER NOT NULL,
    access_count INTEGER NOT NULL DEFAULT 0
)
""",
    "CREATE INDEX IF NOT EXISTS idx_results_access ON results(access_seq)",
    """
CREATE TABLE IF NOT EXISTS store_counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
)
""",
)


class ResultStore:
    """Content-addressed persistence for encoding results.

    Parameters
    ----------
    path:
        Filesystem path of the sqlite database.  The file (and the
        ``results`` table) is created on first use; the job queue of
        :mod:`repro.service.queue` shares the same file with its own
        table.
    max_entries:
        Optional LRU bound; ``None`` means unbounded.
    """

    def __init__(self, path: str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.path = path
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._conn = connect_sqlite(path)
        self._conn.isolation_level = None
        with self._tx():
            for statement in _SCHEMA:
                self._conn.execute(statement)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @contextlib.contextmanager
    def _tx(self):
        """``BEGIN IMMEDIATE`` under the in-process lock (see queue)."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    def _count(self, name: str, delta: int = 1) -> None:
        """Bump a shared counter (call inside an open transaction)."""
        self._conn.execute(
            "INSERT INTO store_counters(name, value) VALUES(?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, delta),
        )

    # -- reads ----------------------------------------------------------
    def get(self, fingerprint: str, count_miss: bool = True) -> Optional[Dict[str, object]]:
        """The payload stored under ``fingerprint``, counting hit/miss.

        A hit also refreshes the row's LRU position and access count.
        ``count_miss=False`` leaves a miss uncounted, for a caller whose
        miss falls through to a path that looks the fingerprint up again.
        """
        with self._tx():
            row = self._conn.execute(
                "SELECT payload FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if row is None:
                if count_miss:
                    self.misses += 1
                    self._count("misses")
                return None
            self.hits += 1
            self._count("hits")
            self._conn.execute(
                "UPDATE results SET access_seq = "
                "(SELECT COALESCE(MAX(access_seq), 0) + 1 FROM results), "
                "access_count = access_count + 1 WHERE fingerprint = ?",
                (fingerprint,),
            )
            return json.loads(row[0])

    def peek(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """Like :meth:`get` but without touching any accounting."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0])

    # -- writes ---------------------------------------------------------
    def put(self, fingerprint: str, name: str, payload: Dict[str, object]) -> None:
        """Store (or overwrite) the payload for ``fingerprint``.

        Concurrent puts of the same fingerprint (two workers that both
        resolved a coalesced request) serialise on the write lock and
        land on one row; insertion and LRU eviction are one atomic step,
        so a bounded store can never transiently exceed ``max_entries``
        for another process.
        """
        blob = json.dumps(payload, sort_keys=True)
        with self._tx():
            self._conn.execute(
                "INSERT INTO results(fingerprint, name, payload, created_at, access_seq) "
                "VALUES(?, ?, ?, strftime('%s','now'), "
                "(SELECT COALESCE(MAX(access_seq), 0) + 1 FROM results)) "
                "ON CONFLICT(fingerprint) DO UPDATE SET "
                "payload = excluded.payload, access_seq = excluded.access_seq",
                (fingerprint, name, blob),
            )
            if self.max_entries is not None:
                excess = self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()[0] - self.max_entries
                if excess > 0:
                    victims = self._conn.execute(
                        "SELECT fingerprint FROM results ORDER BY access_seq ASC LIMIT ?",
                        (excess,),
                    ).fetchall()
                    self._conn.executemany(
                        "DELETE FROM results WHERE fingerprint = ?", victims
                    )
                    self.evictions += len(victims)
                    self._count("evictions", len(victims))

    # -- accounting -----------------------------------------------------
    def shared_counters(self) -> Dict[str, int]:
        """The cross-process counters (all processes on this backend)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, value FROM store_counters"
            ).fetchall()
        counters = {"hits": 0, "misses": 0, "evictions": 0}
        for name, value in rows:
            counters[str(name)] = int(value)
        return counters

    def stats(self) -> Dict[str, object]:
        """Hit/miss/evict counters (process lifetime and shared) and size."""
        lookups = self.hits + self.misses
        return {
            "path": self.path,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / lookups, 4) if lookups else None,
            "shared": self.shared_counters(),
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
