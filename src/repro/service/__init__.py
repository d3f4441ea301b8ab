"""The encoding service: jobs, content-addressed results, HTTP API.

This package turns the batch engine into a distributed service tier:

* :mod:`repro.service.fingerprint` — canonical content-addressing of
  ``(STG, SolverSettings, max_states)`` requests, so identical
  submissions dedupe to one stored result;
* :mod:`repro.service.backend` — the queue/store backend abstraction
  (sqlite by default; Redis/Postgres drivers can register their URL
  scheme), handing out connection-per-component durable state;
* :mod:`repro.service.store` — a persistent result store with
  hit/miss/evict accounting, keyed by fingerprint, multi-process safe;
* :mod:`repro.service.queue` — a durable FIFO job queue with
  pending/running/done/failed/timeout states, retry-once semantics,
  atomic cross-process claims and a durable per-job event feed;
* :mod:`repro.service.workers` — a worker pool draining the queue
  through :func:`repro.engine.batch.encode_many` under per-job
  wall-clock timeouts; N independent ``pyetrify worker`` processes can
  attach to the same backend;
* :mod:`repro.service.tenants` — API keys, per-tenant quotas, rate
  limits and accounting;
* :mod:`repro.service.asgi` — the async ASGI front serving the
  versioned ``/v1`` JSON API, SSE job-event streams included
  (``pyetrify serve``);
* :mod:`repro.service.client` — a stdlib client for that API
  (:func:`repro.api.connect`).

:class:`EncodingService` is the facade gluing the layers together; it is
re-exported as :class:`repro.api.EncodingService`.

Typical in-process use::

    from repro.api import EncodingService
    from repro.stg.parser import read_g_file

    with EncodingService("service.db") as svc:
        outcome = svc.submit(read_g_file("controller.g"))
        payload = svc.wait(outcome["fingerprint"], timeout=60)
        print(payload["summary"]["inserted"])

Everything is stdlib-only (sqlite3, asyncio, threading); there is no
new dependency.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.core.planes import KERNELS
from repro.core.solver import ENGINES, SolverSettings
from repro.service.backend import ServiceBackend, SqliteBackend, open_backend
from repro.service.fingerprint import (
    canonical_request,
    canonical_settings,
    request_fingerprint,
    settings_from_dict,
)
from repro.service.queue import FINAL_STATUSES, JobEvent, JobQueue, JobRecord
from repro.service.store import ResultStore
from repro.service.tenants import Tenant, TenantRegistry
from repro.service.workers import WorkerPool
from repro.stg.stg import STG
from repro.stg.writer import stg_to_g_text

__all__ = [
    "BacklogFull",
    "EncodingService",
    "FingerprintMismatch",
    "QuotaExceeded",
    "ResultStore",
    "JobQueue",
    "JobRecord",
    "JobEvent",
    "WorkerPool",
    "ServiceBackend",
    "SqliteBackend",
    "Tenant",
    "TenantRegistry",
    "open_backend",
    "canonical_request",
    "canonical_settings",
    "request_fingerprint",
    "settings_from_dict",
]


class BacklogFull(Exception):
    """The pending queue is at ``max_backlog``; submission refused.

    Raised by :meth:`EncodingService.submit` only for submissions that
    would *enqueue new work* — cached results and coalescing duplicates
    of already-queued jobs always go through.  The HTTP layer maps this
    to ``503 Service Unavailable`` with a ``Retry-After`` hint.
    """

    def __init__(self, max_backlog: int) -> None:
        super().__init__(
            f"job backlog is full ({max_backlog} pending); retry shortly"
        )
        self.max_backlog = max_backlog


class QuotaExceeded(Exception):
    """A tenant is at its ``quota_active_jobs`` cap; submission refused.

    Like :class:`BacklogFull`, this only refuses submissions that would
    *enqueue new work*: cached results and coalescing duplicates of the
    tenant's own active jobs add no load and always go through.  The
    HTTP layer maps this to ``429`` with a ``Retry-After`` hint.
    """

    def __init__(self, tenant: str, active: int, quota: int) -> None:
        super().__init__(
            f"tenant {tenant!r} has {active} active jobs (quota {quota}); "
            "wait for them to finish"
        )
        self.tenant = tenant
        self.active = active
        self.quota = quota


class FingerprintMismatch(Exception):
    """A client-asserted fingerprint disagrees with the computed one.

    Raised by :meth:`EncodingService.submit` when the caller pins the
    expected content address of a request and the submitted content
    hashes elsewhere — the HTTP layer maps this to ``409 Conflict``.
    """

    def __init__(self, asserted: str, computed: str) -> None:
        super().__init__(
            "request fingerprint mismatch: the submitted content hashes to "
            f"{computed[:12]}…, not the asserted {asserted[:12]}…"
        )
        self.detail = {"asserted": asserted, "computed": computed}


class EncodingService:
    """Facade over backend + store + queue + tenants + worker pool.

    Parameters
    ----------
    store_path:
        Backend URL or bare sqlite path of the durable state (results,
        jobs, events, tenants — see :func:`repro.service.backend.open_backend`).
        Reopening the same backend after a restart serves previously
        stored results and recovers interrupted jobs.
    jobs:
        Worker-pool width (see :class:`repro.service.workers.WorkerPool`).
    timeout:
        Per-job wall-clock bound in seconds, ``None`` = unbounded.
    max_entries:
        Optional LRU bound on the result store.
    search_jobs:
        Server-side default for in-solve sharding
        (``SolverSettings.search_jobs``), applied to jobs that do not
        request a width themselves; always budget-clamped against
        ``jobs`` (see :class:`repro.service.workers.WorkerPool`).
        Fingerprint-irrelevant, so it never splits the result store.
    max_backlog:
        Optional bound on the pending queue depth; the HTTP front
        answers 503 to submissions beyond it (``None`` = unbounded).
    autostart:
        Start the in-process worker pool immediately (default).  Pass
        ``False`` for a front that only accepts/serves jobs while
        independent ``pyetrify worker`` processes drain the shared
        queue (``pyetrify serve --no-workers``), or to inspect queue
        contents without draining them.
    recover:
        Re-queue jobs left ``running`` by a dead process (default).
        Worker processes attach with ``recover=False`` — recovery is a
        boot-time action of the front, which starts first; a late
        worker recovering would steal live jobs from its siblings.
    """

    def __init__(
        self,
        store_path: str,
        jobs: int = 1,
        timeout: Optional[float] = None,
        max_entries: Optional[int] = None,
        autostart: bool = True,
        search_jobs: Optional[int] = None,
        max_backlog: Optional[int] = None,
        recover: bool = True,
    ) -> None:
        self.backend = open_backend(store_path)
        self.store = self.backend.open_store(max_entries=max_entries)
        self.queue = self.backend.open_queue()
        self.tenants = self.backend.open_tenants()
        self.max_backlog = max_backlog
        self.recovered_jobs = self.queue.recover() if recover else 0
        self.pool = WorkerPool(
            self.queue,
            self.store,
            jobs=jobs,
            timeout=timeout,
            search_jobs=search_jobs,
        )
        self._started_at = time.time()
        if autostart:
            self.pool.start()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        stg: STG,
        settings: Optional[SolverSettings] = None,
        max_states: Optional[int] = 200000,
        engine: Optional[str] = None,
        search_jobs: Optional[int] = None,
        kernel: Optional[str] = None,
        synth: bool = False,
        tenant: Optional[str] = None,
        expected_fingerprint: Optional[str] = None,
        quota_active_jobs: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Submit one encoding request; dedupes against the result store.

        Returns a JSON-serialisable outcome: ``{"fingerprint", "status",
        "cached", "job_id", "result"}``.  A store hit answers instantly
        (``cached=True``, ``status="done"``, the payload embedded); a
        miss enqueues a durable job (``status="pending"``) — or coalesces
        onto an already active job for the same fingerprint.

        ``max_states`` defaults to 200000 on every service surface (this
        facade, the HTTP API, ``submit_benchmark``) so the same logical
        request content-addresses identically no matter how it arrives;
        pass ``None`` explicitly for an unbounded state graph.

        ``engine`` overlays ``settings.engine`` (``"explicit"`` /
        ``"symbolic"`` / ``"auto"``).  The engine is part of the request
        fingerprint: an explicit encoding and a symbolic verdict of the
        same STG are different results and dedupe separately.

        ``search_jobs`` is the request's *explicit* in-solve sharding
        width (``None`` falls back to ``settings.search_jobs``, where the
        default ``1`` means "unspecified" and inherits the server-wide
        default).  The width is execution-only: it is persisted on the
        job (not in the canonical settings), capped by the worker pool
        against the service budget, and deliberately absent from the
        request fingerprint — a sharded solve stores the identical
        payload a serial one would.

        ``kernel`` is the request's explicit block-evaluation kernel
        (``"bigint"``/``"planes"``/``"auto"``; ``None`` falls back to
        ``settings.kernel``, where ``"auto"`` means "unspecified").
        Performance-only like ``search_jobs``: persisted on the job
        record, absent from the fingerprint — both kernels store the
        identical payload.

        ``synth=True`` makes this a *synthesis* job: the worker runs the
        full :mod:`repro.synth` tier after the encode and the stored
        result's ``synth`` field carries the verified netlist.  Unlike
        the execution-only knobs above, synthesis changes the stored
        payload, so it *is* part of the request fingerprint — a synth
        job and a plain encode of the same STG dedupe separately.

        ``tenant`` is the owning tenant's name (``None`` for anonymous
        traffic): recorded on the job, scoping coalescing and quota
        accounting to that tenant.  ``expected_fingerprint`` optionally
        pins the content address the caller expects; a mismatch raises
        :class:`FingerprintMismatch` (HTTP 409) instead of silently
        running a different request than the client believes it sent.
        ``quota_active_jobs`` caps the tenant's concurrent pending+running
        jobs (:class:`QuotaExceeded` → HTTP 429); cached hits and
        coalescing duplicates are exempt, like the backlog bound.
        ``request_id`` is the originating HTTP request's correlation id
        (``X-Request-Id``): stamped onto the job record and echoed in
        its progress heartbeats, so one id follows the request from the
        front through the queue into the worker's telemetry.
        """
        if engine is not None:
            if engine not in ENGINES:
                raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
            settings = dataclasses.replace(settings or SolverSettings(), engine=engine)
        elif settings is not None and settings.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {settings.engine!r}; expected one of {ENGINES}"
            )
        fingerprint = request_fingerprint(
            stg, settings=settings, max_states=max_states, synth=synth
        )
        if expected_fingerprint is not None and expected_fingerprint != fingerprint:
            raise FingerprintMismatch(expected_fingerprint, fingerprint)
        payload = self.store.get(fingerprint)
        if payload is not None:
            return {
                "fingerprint": fingerprint,
                "status": "done",
                "cached": True,
                "job_id": None,
                "result": payload,
            }
        request = {
            "g": stg_to_g_text(stg),
            "settings": canonical_settings(settings),
            "max_states": max_states,
        }
        if synth:
            request["synth"] = True
        # The canonical settings drop execution-only knobs, so the
        # requested width travels on the job record itself; ``1`` from
        # the dataclass default is "unspecified", an explicit value via
        # the parameter (the HTTP layer forwards the raw field, so a
        # client's literal ``"search_jobs": 1`` arrives here) is kept.
        if search_jobs is None and settings is not None and settings.search_jobs != 1:
            search_jobs = settings.search_jobs
        if search_jobs is not None:
            request["search_jobs"] = int(search_jobs)
        # Same treatment for the kernel knob: "auto" from the dataclass
        # default is "unspecified", anything explicit rides on the job.
        if kernel is None and settings is not None and settings.kernel != "auto":
            kernel = settings.kernel
        if kernel is not None:
            if kernel not in KERNELS:
                raise ValueError(
                    f"unknown kernel {kernel!r}; expected one of {KERNELS}"
                )
            request["kernel"] = kernel
        # Quota and backlog bounds only refuse *new* work: a submission
        # that coalesces onto an already-queued job adds no load, so it
        # goes through even when the tenant or the queue is at its cap.
        # (Benign race: a sibling front may enqueue between this check
        # and queue.submit — both are load shedders, not invariants.)
        if self.queue.active_job_for(fingerprint, tenant) is None:
            if quota_active_jobs is not None:
                active = self.queue.active_count(tenant)
                if active >= quota_active_jobs:
                    raise QuotaExceeded(
                        tenant or "anonymous", active, quota_active_jobs
                    )
            if (
                self.max_backlog is not None
                and self.queue.depth() >= self.max_backlog
            ):
                raise BacklogFull(self.max_backlog)
        job_id = self.queue.submit(
            fingerprint, stg.name, request, tenant=tenant, request_id=request_id
        )
        return {
            "fingerprint": fingerprint,
            "status": "pending",
            "cached": False,
            "job_id": job_id,
            "result": None,
        }

    def submit_benchmark(
        self,
        name: str,
        table: str = "table2",
        settings: Optional[SolverSettings] = None,
        max_states: Optional[int] = 200000,
        engine: Optional[str] = None,
        search_jobs: Optional[int] = None,
        kernel: Optional[str] = None,
        synth: bool = False,
        tenant: Optional[str] = None,
        expected_fingerprint: Optional[str] = None,
        quota_active_jobs: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Submit a named library benchmark.

        Without explicit ``settings`` the case's own library settings are
        used (frontier width 16, relaxed cases with ``allow_input_delay``)
        — the same regime as ``pyetrify bench``.  Cases the explicit
        pipeline cannot enumerate (``explicit_ok=False``) or solve
        (``solve=False``) are accepted with a symbolic engine and run
        census + detection: for ``solve=False`` rows the signal budget is
        zeroed exactly like the benchmark sweep — even over supplied
        ``settings``, because those rows are *marked* unsolvable and a
        hybrid-solve attempt would only burn the job's timeout (submit
        the raw ``.g`` text instead to override the library's verdict).
        """
        from repro.bench_stg.library import get_case

        case = get_case(name, table=table)
        if settings is None:
            settings = case.solver_settings()
        effective_engine = engine if engine is not None else settings.engine
        if effective_engine != "explicit" and not case.solve:
            settings = dataclasses.replace(settings, max_signals=0)
        return self.submit(
            case.build(),
            settings=settings,
            max_states=max_states,
            engine=engine,
            search_jobs=search_jobs,
            kernel=kernel,
            synth=synth,
            tenant=tenant,
            expected_fingerprint=expected_fingerprint,
            quota_active_jobs=quota_active_jobs,
            request_id=request_id,
        )

    # -- retrieval ------------------------------------------------------
    def result(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored payload for a fingerprint (counts hit/miss)."""
        return self.store.get(fingerprint)

    def job(self, job_id: str) -> Optional[JobRecord]:
        return self.queue.get(job_id)

    def events_for(self, job_id: str, after: int = 0) -> List[JobEvent]:
        """The durable event feed of one job, strictly after ``after``."""
        return self.queue.events_for(job_id, after=after)

    def wait(self, fingerprint: str, timeout: float = 60.0) -> Dict[str, object]:
        """Block until the result for ``fingerprint`` is stored.

        Polls without skewing the hit/miss accounting.  Raises
        :class:`RuntimeError` if the job reached a final non-``done``
        state — or finished ``done`` but its result has since been
        LRU-evicted from a ``max_entries``-bounded store (waiting longer
        cannot bring it back; resubmit instead) — and
        :class:`TimeoutError` if nothing happened in time.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            payload = self.store.peek(fingerprint)
            if payload is not None:
                return payload
            job = self.queue.job_for_fingerprint(fingerprint)
            if job is not None and job.status in FINAL_STATUSES:
                if job.status != "done":
                    raise RuntimeError(
                        f"job for {fingerprint[:12]}… finished as {job.status}: {job.error}"
                    )
                # The worker writes the store before marking done, so a
                # fresh peek after observing "done" is authoritative:
                # still absent means the result was evicted since.
                payload = self.store.peek(fingerprint)
                if payload is not None:
                    return payload
                raise RuntimeError(
                    f"result for {fingerprint[:12]}… was evicted from the store; resubmit"
                )
            time.sleep(0.01)
        raise TimeoutError(f"no result for {fingerprint[:12]}… within {timeout}s")

    # -- accounting -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Queue depth, per-status counts, worker and store statistics."""
        from repro import __version__

        return {
            "version": __version__,
            "api": "v1",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "backend": self.backend.describe(),
            "queue": {
                "depth": self.queue.depth(),
                "max_backlog": self.max_backlog,
                "by_status": self.queue.counts(),
                "by_engine": self.queue.counts_by_engine(),
            },
            "workers": self.pool.stats(),
            "store": self.store.stats(),
            "tenancy": {
                "open_mode": self.tenants.open_mode,
                "tenants": self.tenants.count(),
            },
            "recovered_jobs": self.recovered_jobs,
        }

    def admin_stats(self) -> Dict[str, object]:
        """The per-tenant breakdown behind ``GET /v1/admin/stats``."""
        return {
            "service": self.stats(),
            "tenants": self.tenants.list_tenants(),
            "jobs_by_tenant": self.queue.counts_by_tenant(),
            "counters_by_tenant": self.tenants.counters(),
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and close the database connections."""
        if self.pool.running:
            self.pool.stop()
        self.queue.close()
        self.store.close()
        self.tenants.close()

    def __enter__(self) -> "EncodingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
