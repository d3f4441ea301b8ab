"""Worker pool: drains the job queue through the batch encoding engine.

A single dispatcher thread claims jobs from the
:class:`~repro.service.queue.JobQueue` in FIFO order and encodes them
with the worker body of :func:`repro.engine.batch.encode_many`
(:func:`repro.engine.batch._encode_one`), so service results are
byte-identical to ``pyetrify bench`` runs.  With ``jobs=1`` each job is
encoded in-process (no fork) — what the tests and small deployments
use.  With ``jobs>1`` the dispatcher owns one *persistent*
:class:`~concurrent.futures.ProcessPoolExecutor` and feeds it one job
per worker slot: process startup is paid once for the pool's lifetime,
jobs complete independently (a slow job never blocks the others' results
from landing), and a broken pool (a worker killed by the OS) fails only
the in-flight jobs and is rebuilt.  Pool workers start from a
``forkserver`` context: the service process runs threads that hold
sqlite's mutexes (the HTTP front's executor, the dispatcher itself), and
a plain ``fork`` could hand a worker one of them locked forever.

The dispatcher is crash-proof by construction: every interaction with
the queue, the store and the engine is guarded, an unexpected error
fails the affected job (or is counted in ``dispatch_errors``) and the
loop keeps running — a single poisonous job cannot silently wedge the
service while ``/v1/healthz`` keeps answering.

Every job runs under the per-job wall-clock ``timeout`` of the engine
(:mod:`repro.utils.deadline`): an item that exceeds it comes back as
``status="timeout"`` and is retried once by the queue before the timeout
becomes final.  Completed payloads are written to the result store under
the request fingerprint *before* the job is marked done — a client that
sees ``status="done"`` is guaranteed a store hit (unless the result is
later LRU-evicted by ``max_entries``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional

from repro.engine.batch import BatchItem, _encode_one, _obs_envelope, resolve_engine
from repro.obs import REGISTRY, get_logger
from repro.service.fingerprint import settings_from_dict
from repro.service.queue import JobQueue, JobRecord
from repro.service.store import ResultStore
from repro.stg.parser import parse_g

__all__ = ["WorkerPool"]

_log = get_logger("service.workers")

#: Seconds between queue polls of the idle dispatcher and of the ASGI event
#: feed.  Both poll because other processes share the queue.  Alternatives
#: measured on the perfbench ``service`` workload (seeds 11-12,
#: ``--seconds 35``, 2-vCPU VM), so nobody retries them:
#:
#: * push wake-ups with the in-process solve: ``latency_p50_ms`` 4.2 ->
#:   8.3-9.3 ms, the woken solve takes the GIL from warm requests;
#: * a 0.5 ms GIL switch interval on top: p50 stays at 8.1-8.4 ms;
#: * a solve that yields to active requests: p50 is restored, ``encode_s``
#:   stays flat;
#: * a forked solver process: ``encode_s`` 1.40 -> 0.99-1.04 s, but the
#:   counted ``peak_rss_mb`` 46.7 -> 81 MB, past the benchmark's 10% bound.
#:
#: Per 100 requests about 30 cold solves of the ten specs (~27-38 ms each)
#: hold the server's one GIL for 0.8-1.1 s of its 1.2-1.4 s: the solve is
#: the lever, not the poll.
#:
#: Re-measured once the front answered repeated bodies on its event loop
#: (seeds 43-44): with push wake-ups of the dispatcher and the long-poll on
#: top of that, ``latency_p50_ms`` read 3.81 / 3.66 ms against 3.12 / 3.24
#: ms for the commit with neither (about 1.5 ms with the loop answers
#: alone), while ``encode_s`` fell 15% / 22% and ``latency_p95_ms`` 12% /
#: 19%.  The wake-up still costs the median.
POLL_INTERVAL = 0.05

#: Exception classes that are a property of the request itself (an
#: unsafe or inconsistent STG, unparsable ``.g`` text, a state space
#: beyond the request's ``max_states``): a job failing with one of them
#: fails for good on its first attempt.  Worker deaths and timeouts keep
#: the retry.
SPEC_FAULTS = frozenset(
    {"InconsistentSTGError", "GFormatError", "StateSpaceLimitExceeded"}
)

_CLAIM_LATENCY = REGISTRY.histogram(
    "pyetrify_claim_latency_seconds",
    "Queue wait between job submission and worker claim",
)
_SOLVE_SECONDS = REGISTRY.histogram(
    "pyetrify_solve_seconds",
    "Wall-clock time of one job's encoding in a worker slot",
)
_JOBS_PROCESSED = REGISTRY.counter(
    "pyetrify_jobs_processed_total",
    "Jobs finished by this process's worker pool, by stored status",
    labelnames=("status",),
)


class WorkerPool:
    """Background dispatcher encoding queued jobs (see module docstring).

    Parameters
    ----------
    queue / store:
        The shared durable queue and result store.
    jobs:
        Number of concurrent encodings; ``1`` encodes in-process, ``>1``
        uses a persistent process pool with one job per worker slot.
    timeout:
        Per-job wall-clock bound in seconds (``None`` = unbounded),
        forwarded to the engine's cooperative deadline.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        jobs: int = 1,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.queue = queue
        self.store = store
        self.jobs = jobs
        self.timeout = timeout
        # Recorded on every claim (jobs.claimed_by): in a multi-process
        # deployment each ``pyetrify worker`` names itself host:pid so
        # /v1 job records show which process ran what.
        self.name = name or f"{os.uname().nodename}:{os.getpid()}"
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        self.busy_seconds = 0.0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_timeout = 0
        self.jobs_retried = 0
        self.dispatch_errors = 0
        self.last_error: Optional[str] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerPool":
        if self._thread is not None:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-workers", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        if wait and self._thread is not None:
            self._thread.join()
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- dispatcher -----------------------------------------------------
    def _run(self) -> None:
        if self.jobs == 1:
            self._run_serial()
        else:
            self._run_pooled()

    def _run_serial(self) -> None:
        while not self._stop.is_set():
            job = self._claim_one()
            if job is None:
                self._stop.wait(POLL_INTERVAL)
                continue
            started = time.monotonic()
            try:
                payload = self._payload(job)
                if payload is not None:
                    # _encode_one never raises: engine errors come back
                    # as status="error"/"timeout" items.
                    solve_started = time.monotonic()
                    item = _encode_one(payload)
                    _SOLVE_SECONDS.observe(time.monotonic() - solve_started)
                    self._complete(job, item)
            finally:
                self.busy_seconds += time.monotonic() - started

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=multiprocessing.get_context("forkserver")
        )

    def _run_pooled(self) -> None:
        pool = self._new_pool()
        in_flight: Dict[object, tuple] = {}  # future -> (job, started_at)
        try:
            while not self._stop.is_set():
                # top up: one job per free worker slot, strictly FIFO
                while len(in_flight) < self.jobs:
                    job = self._claim_one()
                    if job is None:
                        break
                    payload = self._payload(job)
                    if payload is None:  # unparsable request, already failed
                        continue
                    try:
                        future = pool.submit(_encode_one, payload)
                    except Exception as error:  # pool shut down / broken
                        self._note_error(error)
                        self._finish(job, "failed", f"{type(error).__name__}: {error}")
                        continue
                    in_flight[future] = (job, time.monotonic())
                if not in_flight:
                    self._stop.wait(POLL_INTERVAL)
                    continue
                done, _ = futures_wait(
                    in_flight, timeout=POLL_INTERVAL, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    job, started = in_flight.pop(future)
                    elapsed = time.monotonic() - started
                    self.busy_seconds += elapsed
                    try:
                        item = future.result()
                    except BrokenProcessPool as error:
                        # a worker process was killed (OOM, signal): fail
                        # this job and rebuild the pool below.
                        self._note_error(error)
                        self._finish(job, "failed", "worker process died while encoding")
                        broken = True
                        continue
                    except Exception as error:  # pragma: no cover - defensive
                        self._note_error(error)
                        self._finish(job, "failed", f"{type(error).__name__}: {error}")
                        continue
                    _SOLVE_SECONDS.observe(elapsed)
                    self._complete(job, item)
                if broken:
                    for future, (job, started) in in_flight.items():
                        self.busy_seconds += time.monotonic() - started
                        self._finish(job, "failed", "worker process died while encoding")
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- per-job steps (each guarded so the dispatcher cannot die) ------
    def _claim_one(self) -> Optional[JobRecord]:
        try:
            claimed = self.queue.claim(limit=1, worker=self.name)
        except Exception as error:
            self._note_error(error)
            self._stop.wait(POLL_INTERVAL)
            return None
        if claimed:
            _CLAIM_LATENCY.observe(max(0.0, time.time() - claimed[0].submitted_at))
            return claimed[0]
        return None

    def _payload(self, job: JobRecord):
        """The ``_encode_one`` payload for a job, or ``None`` after failing it.

        A persisted request that no longer parses (hand-edited store,
        version drift) must fail that one job, not kill the dispatcher.
        """
        try:
            stg = parse_g(job.request["g"], name=job.name)
            settings = settings_from_dict(job.request.get("settings"))
            max_states = job.request.get("max_states")
            engine = resolve_engine(settings)
            kernel = job.request.get("kernel")
            if kernel is not None and kernel != settings.kernel:
                # Persisted outside the canonical settings (the
                # fingerprint strips execution-only knobs) — reapply the
                # requested block-evaluation kernel before solving.
                settings = dataclasses.replace(settings, kernel=str(kernel))
            obs = _obs_envelope(
                progress=(self.queue.path, job.id, job.request_id)
            )
            synth = bool(job.request.get("synth"))
            return (stg, settings, True, max_states, self.timeout, engine, obs, synth)
        except Exception as error:
            self._finish(job, "failed", f"invalid persisted request: {error}", retry=False)
            return None

    def _complete(self, job: JobRecord, item: BatchItem) -> None:
        try:
            if item.status == "ok":
                payload = dict(item.as_dict())
                payload["fingerprint"] = job.fingerprint
                self.store.put(job.fingerprint, job.name, payload)
                self._finish(job, "done")
            elif item.status == "timeout":
                self._finish(job, "timeout", item.error)
            else:
                retry = item.error_type not in SPEC_FAULTS
                self._finish(job, "failed", item.error, retry=retry)
        except Exception as error:
            self._note_error(error)
            self._finish(job, "failed", f"cannot persist result: {error}")

    def _finish(
        self, job: JobRecord, status: str, error: Optional[str] = None, retry: bool = True
    ) -> None:
        try:
            stored = self.queue.finish(job.id, status, error=error, retry=retry)
        except Exception as finish_error:
            self._note_error(finish_error)
            return
        _JOBS_PROCESSED.labels(status=stored).inc()
        if stored == "pending":
            self.jobs_retried += 1
        elif stored == "done":
            self.jobs_done += 1
        elif stored == "timeout":
            self.jobs_timeout += 1
        else:
            self.jobs_failed += 1

    def _note_error(self, error: Exception) -> None:
        self.dispatch_errors += 1
        self.last_error = f"{type(error).__name__}: {error}"

    # -- accounting -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Throughput counters and utilisation of the worker slots."""
        elapsed = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        capacity = elapsed * self.jobs
        return {
            "name": self.name,
            "jobs": self.jobs,
            "running": self.running,
            "timeout": self.timeout,
            "done": self.jobs_done,
            "failed": self.jobs_failed,
            "timed_out": self.jobs_timeout,
            "retried": self.jobs_retried,
            "dispatch_errors": self.dispatch_errors,
            "last_error": self.last_error,
            "busy_seconds": round(self.busy_seconds, 3),
            "utilisation": round(self.busy_seconds / capacity, 4) if capacity > 0 else 0.0,
        }
