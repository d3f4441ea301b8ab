"""Durable FIFO job queue for the encoding service.

Jobs live in a sqlite table (by default in the same database file as the
result store), so a queue survives restarts: pending jobs submitted
before a shutdown are still claimable after reopening, and jobs that were
mid-flight when the process died are recovered back to ``pending`` by
:meth:`JobQueue.recover` on startup.

Lifecycle::

    pending --claim--> running --finish--> done
                          |                failed   (after retry)
                          |                timeout  (after retry)
                          +--retry-once--> pending

``finish`` implements retry-once semantics: the first non-``done``
completion of a job re-queues it (status back to ``pending``, error
recorded); the second makes the failure final.  Claiming is strictly
FIFO by submission order.

Multi-process safety: every mutation runs in a ``BEGIN IMMEDIATE``
transaction on a WAL-journaled connection (see
:mod:`repro.service.backend`), so N independent worker processes —
``pyetrify worker`` — can claim from one queue file without ever
double-claiming a job: the immediate transaction takes the write lock
*before* the candidate rows are selected, and competitors wait on the
busy timeout instead of reading a stale pending set.

Every transition is also appended to a ``job_events`` table inside the
same transaction (atomic with the status change), giving the SSE /
long-poll endpoints of the HTTP API a durable, cross-process event feed:
a worker process finishing a job is observed by the front process by
reading the shared table, no in-memory pubsub required.

Each job carries a self-contained JSON request (``.g`` text, settings
dictionary, ``max_states``) so it can be re-run after a restart without
any in-memory state, plus the request fingerprint linking it to the
result store and the tenant that submitted it (``None`` outside
multi-tenant deployments).
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.service.backend import connect_sqlite

__all__ = ["JobQueue", "JobRecord", "JobEvent", "ACTIVE_STATUSES", "FINAL_STATUSES"]

#: Statuses of jobs still owned by the queue/pool.
ACTIVE_STATUSES = ("pending", "running")
#: Terminal statuses.
FINAL_STATUSES = ("done", "failed", "timeout")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    id           TEXT UNIQUE NOT NULL,
    fingerprint  TEXT NOT NULL,
    name         TEXT NOT NULL,
    request      TEXT NOT NULL,
    status       TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status, seq);
CREATE INDEX IF NOT EXISTS idx_jobs_fingerprint ON jobs(fingerprint, seq);
CREATE TABLE IF NOT EXISTS job_events (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id     TEXT NOT NULL,
    event      TEXT NOT NULL,
    detail     TEXT,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_job_events_job ON job_events(job_id, seq);
"""

#: Columns added after PR 2; existing databases are migrated in place.
_MIGRATIONS = (
    ("jobs", "tenant", "TEXT"),
    ("jobs", "claimed_by", "TEXT"),
    ("jobs", "request_id", "TEXT"),
)

_COLUMNS = (
    "id, fingerprint, name, request, status, attempts, "
    "submitted_at, started_at, finished_at, error, tenant, claimed_by, request_id"
)


@dataclass
class JobRecord:
    """One job as stored in the queue (JSON-serialisable via ``as_dict``)."""

    id: str
    fingerprint: str
    name: str
    request: Dict[str, object]
    status: str
    attempts: int
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    tenant: Optional[str] = None
    claimed_by: Optional[str] = None
    request_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "tenant": self.tenant,
            "claimed_by": self.claimed_by,
            "request_id": self.request_id,
        }


@dataclass
class JobEvent:
    """One row of the durable per-job event feed."""

    seq: int
    job_id: str
    event: str
    detail: Optional[str]
    created_at: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "event": self.event,
            "detail": self.detail,
            "created_at": self.created_at,
        }


def _record(row) -> JobRecord:
    return JobRecord(
        id=row[0],
        fingerprint=row[1],
        name=row[2],
        request=json.loads(row[3]),
        status=row[4],
        attempts=int(row[5]),
        submitted_at=row[6],
        started_at=row[7],
        finished_at=row[8],
        error=row[9],
        tenant=row[10],
        claimed_by=row[11],
        request_id=row[12],
    )


class JobQueue:
    """Durable FIFO queue of encoding jobs (see module docstring)."""

    def __init__(self, path: str, max_attempts: int = 2) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.path = path
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._conn = connect_sqlite(path)
        # Explicit transactions only: the implicit autocommit-per-DML of
        # the default isolation level cannot give cross-process claim
        # atomicity (the SELECT would run outside the write lock).
        self._conn.isolation_level = None
        with self._tx():
            for statement in _SCHEMA.strip().split(";\n"):
                if statement.strip():
                    self._conn.execute(statement)
            self._migrate()

    def _migrate(self) -> None:
        """Add columns introduced after the table was first created."""
        for table, column, decl in _MIGRATIONS:
            present = {
                row[1] for row in self._conn.execute(f"PRAGMA table_info({table})")
            }
            if column not in present:
                self._conn.execute(f"ALTER TABLE {table} ADD COLUMN {column} {decl}")

    @contextlib.contextmanager
    def _tx(self):
        """A ``BEGIN IMMEDIATE`` transaction under the in-process lock.

        IMMEDIATE takes the database write lock up front, so the reads
        inside (e.g. selecting claimable rows) see a state no concurrent
        *process* can invalidate before our writes commit; the
        in-process lock serialises the handler threads of one process on
        the shared connection.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    def _emit(self, job_id: str, event: str, detail: Optional[str] = None) -> None:
        """Append one event row (call inside an open transaction)."""
        self._conn.execute(
            "INSERT INTO job_events(job_id, event, detail, created_at) VALUES(?, ?, ?, ?)",
            (job_id, event, detail, time.time()),
        )

    # -- submission -----------------------------------------------------
    def submit(
        self,
        fingerprint: str,
        name: str,
        request: Dict[str, object],
        tenant: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> str:
        """Enqueue a job; returns its id.

        Submissions coalesce on ``(fingerprint, tenant)``: if the same
        tenant already has a pending/running job for the same request,
        its id is returned and no new row is created — concurrent
        duplicate submissions share one encoding run.  Different tenants
        deliberately do *not* coalesce onto each other's active jobs
        (job visibility is tenant-scoped); they still dedupe through the
        content-addressed result store the moment the first run lands.

        ``request_id`` is the HTTP request id that caused the enqueue
        (a coalesced duplicate keeps the original's), stamped onto the
        row so one id links front access log, job record and worker
        spans.
        """
        with self._tx():
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs "
                "WHERE fingerprint = ? AND status IN ('pending', 'running') "
                "AND tenant IS ? "
                "ORDER BY seq ASC LIMIT 1",
                (fingerprint, tenant),
            ).fetchone()
            if row is not None:
                return row[0]
            job_id = uuid.uuid4().hex
            self._conn.execute(
                "INSERT INTO jobs(id, fingerprint, name, request, status, submitted_at, "
                "tenant, request_id) VALUES(?, ?, ?, ?, 'pending', ?, ?, ?)",
                (
                    job_id,
                    fingerprint,
                    name,
                    json.dumps(request, sort_keys=True),
                    time.time(),
                    tenant,
                    request_id,
                ),
            )
            self._emit(job_id, "pending", "submitted")
            return job_id

    def active_job_for(self, fingerprint: str, tenant: Optional[str] = None) -> Optional[str]:
        """Id of this tenant's active job for a fingerprint, if any.

        The read-only twin of the coalescing check inside :meth:`submit`,
        used by the facade to decide whether a submission would coalesce
        (and therefore must bypass the backlog bound — a duplicate of a
        queued job adds no load).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT id FROM jobs "
                "WHERE fingerprint = ? AND status IN ('pending', 'running') "
                "AND tenant IS ? ORDER BY seq ASC LIMIT 1",
                (fingerprint, tenant),
            ).fetchone()
        return row[0] if row is not None else None

    # -- claiming -------------------------------------------------------
    def claim(self, limit: int = 1, worker: Optional[str] = None) -> List[JobRecord]:
        """Atomically move up to ``limit`` oldest pending jobs to running.

        Safe to call from many processes at once: the IMMEDIATE
        transaction means exactly one claimer sees any given pending row.
        ``worker`` is recorded on the claimed rows for observability
        (which worker process ran which job).
        """
        claimed: List[JobRecord] = []
        with self._tx():
            rows = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE status = 'pending' "
                "ORDER BY seq ASC LIMIT ?",
                (max(0, limit),),
            ).fetchall()
            now = time.time()
            for row in rows:
                self._conn.execute(
                    "UPDATE jobs SET status = 'running', attempts = attempts + 1, "
                    "started_at = ?, claimed_by = ? WHERE id = ?",
                    (now, worker, row[0]),
                )
                self._emit(row[0], "running", worker)
                record = _record(row)
                record.status = "running"
                record.attempts += 1
                record.started_at = now
                record.claimed_by = worker
                claimed.append(record)
        return claimed

    # -- completion -----------------------------------------------------
    def finish(
        self, job_id: str, status: str, error: Optional[str] = None, retry: bool = True
    ) -> str:
        """Record the outcome of a claimed job; returns the stored status.

        ``status="done"`` is always final.  A ``"failed"`` or
        ``"timeout"`` outcome re-queues the job as ``pending`` while it
        has attempts left (retry-once with the default ``max_attempts=2``)
        and only then becomes final.  ``retry=False`` makes a failure
        final at once: the fault lies in the request, and another
        attempt would fail the same way.
        """
        if status not in FINAL_STATUSES:
            raise ValueError(f"finish() takes a final status, got {status!r}")
        with self._tx():
            row = self._conn.execute(
                "SELECT attempts, status FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job id {job_id!r}")
            attempts, current = int(row[0]), row[1]
            if current != "running":
                raise ValueError(f"job {job_id!r} is {current!r}, not running")
            if retry and status != "done" and attempts < self.max_attempts:
                stored = "pending"
                self._conn.execute(
                    "UPDATE jobs SET status = 'pending', error = ? WHERE id = ?",
                    (error, job_id),
                )
                self._emit(job_id, "pending", f"retrying after {status}: {error}")
            else:
                stored = status
                self._conn.execute(
                    "UPDATE jobs SET status = ?, error = ?, finished_at = ? WHERE id = ?",
                    (status, error, time.time(), job_id),
                )
                self._emit(job_id, status, error)
            return stored

    def recover(self) -> int:
        """Re-queue jobs left ``running`` by a crashed process.

        Called on service startup *before* worker processes attach (in a
        multi-worker deployment, boot the front first): jobs that other
        live workers still own would be re-queued too, so this is a
        boot-time recovery, not a liveness check.  The interrupted
        attempt still counts against ``max_attempts``, and a job that
        already used its last attempt is finalised as ``failed`` instead
        of being re-queued — otherwise a job that *kills* the process
        (OOM, segfault in a C extension) would crash-loop the service
        across restarts.  Returns the number of jobs put back to
        ``pending``.
        """
        with self._tx():
            dead = self._conn.execute(
                "SELECT id FROM jobs WHERE status = 'running' AND attempts >= ?",
                (self.max_attempts,),
            ).fetchall()
            self._conn.execute(
                "UPDATE jobs SET status = 'failed', finished_at = ?, "
                "error = COALESCE(error, 'process died while the job was running') "
                "WHERE status = 'running' AND attempts >= ?",
                (time.time(), self.max_attempts),
            )
            for (job_id,) in dead:
                self._emit(job_id, "failed", "process died while the job was running")
            requeued = self._conn.execute(
                "SELECT id FROM jobs WHERE status = 'running'"
            ).fetchall()
            cursor = self._conn.execute(
                "UPDATE jobs SET status = 'pending' WHERE status = 'running'"
            )
            for (job_id,) in requeued:
                self._emit(job_id, "pending", "recovered after restart")
            return cursor.rowcount

    # -- events ---------------------------------------------------------
    def events_for(self, job_id: str, after: int = 0, limit: int = 1000) -> List[JobEvent]:
        """The durable event feed of one job, strictly after ``after``.

        Reading is transaction-free (WAL readers never block writers);
        the feed is append-only, so polling with the last seen ``seq`` is
        a complete, gap-free stream even across processes.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, job_id, event, detail, created_at FROM job_events "
                "WHERE job_id = ? AND seq > ? ORDER BY seq ASC LIMIT ?",
                (job_id, after, max(0, limit)),
            ).fetchall()
        return [JobEvent(int(r[0]), r[1], r[2], r[3], r[4]) for r in rows]

    # -- inspection -----------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return _record(row) if row is not None else None

    def job_for_fingerprint(self, fingerprint: str) -> Optional[JobRecord]:
        """The most recent job for a fingerprint, if any."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE fingerprint = ? "
                "ORDER BY seq DESC LIMIT 1",
                (fingerprint,),
            ).fetchone()
        return _record(row) if row is not None else None

    def depth(self) -> int:
        """Number of pending jobs."""
        with self._lock:
            return int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE status = 'pending'"
                ).fetchone()[0]
            )

    def counts(self) -> Dict[str, int]:
        """Job counts by status (all statuses present, zeros included)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in ACTIVE_STATUSES + FINAL_STATUSES}
        for status, count in rows:
            counts[status] = int(count)
        return counts

    def counts_by_tenant(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant job counts by status (anonymous jobs under ``""``)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT COALESCE(tenant, ''), status, COUNT(*) FROM jobs GROUP BY 1, 2"
            ).fetchall()
        out: Dict[str, Dict[str, int]] = {}
        for tenant, status, count in rows:
            out.setdefault(str(tenant), {})[str(status)] = int(count)
        return out

    def active_count(self, tenant: Optional[str]) -> int:
        """Pending+running jobs owned by one tenant (quota accounting)."""
        with self._lock:
            return int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM jobs "
                    "WHERE tenant IS ? AND status IN ('pending', 'running')",
                    (tenant,),
                ).fetchone()[0]
            )

    def counts_by_engine(self) -> Dict[str, int]:
        """Job counts by requested engine (``settings.engine`` of the
        persisted request; requests predating the engine setting count as
        ``explicit``).

        Aggregated inside sqlite with ``json_extract`` so a ``/stats``
        poll never pulls the full request payloads (which embed whole
        ``.g`` texts) into memory; the pure-Python fallback only runs on
        sqlite builds without the JSON1 extension.
        """
        with self._lock:
            try:
                rows = self._conn.execute(
                    "SELECT COALESCE(json_extract(request, '$.settings.engine'), "
                    "'explicit'), COUNT(*) FROM jobs GROUP BY 1"
                ).fetchall()
                return {str(engine): int(count) for engine, count in rows}
            except sqlite3.OperationalError:  # pragma: no cover - no JSON1
                rows = self._conn.execute("SELECT request FROM jobs").fetchall()
        counts: Dict[str, int] = {}
        for (request,) in rows:
            try:
                engine = (json.loads(request).get("settings") or {}).get(
                    "engine", "explicit"
                )
            except (TypeError, ValueError):
                engine = "explicit"
            counts[engine] = counts.get(engine, 0) + 1
        return counts

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
