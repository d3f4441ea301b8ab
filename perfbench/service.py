"""The ``service`` workload: ``pyetrify serve`` under two closed-loop clients.

The server runs in its own process on loopback with a fresh store and one
worker (``--jobs 1``).  Two :class:`ServiceClient` threads each submit the
``.g`` text of one of the ten smallest Table-2 rows, wait for the result,
and only then send the next request.  About 70% of requests repeat one of
the client's own earlier requests, which must be answered from the store;
the rest are new specs under a unique model name, so they are solved.

The clients run in slices of about a second.  Between slices they pause
with no request in flight, and the main thread times the host's pace
(``library.pace``) while the server is idle; each request's time is scaled
by the mean pace on either side of its slice, like a library operation's.

In a traced run the first half of the time is untraced and the second half
is traced: after each cold request the client also fetches the job record
to split its latency into queue wait, run and notification.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import checks
import library
import run
import specs
import stats

#: Server starts measured for ``setup_s``; the last one serves the run.
SERVE_STARTS = 5
#: Requests per "pass": ``encode_s`` is the client time per 100 completions.
PASS_REQUESTS = 100
REQUEST_TIMEOUT = 60.0
CLIENTS = 2
#: Client time between two pace samples.
SLICE_S = 1.0


class Server:
    """One ``pyetrify serve`` process with a fresh store in the work dir."""

    def __init__(self, index: int) -> None:
        stem = run.WORK / f"serve-{os.getpid()}-{index}"
        self.files = [Path(f"{stem}{suffix}") for suffix in (".db", ".db-wal", ".db-shm", ".out")]
        for path in self.files:
            path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        self._out = open(f"{stem}.out", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
             "--store", f"{stem}.db", "-q"],
            stdout=self._out,
            stderr=subprocess.STDOUT,
            cwd=run.ROOT,
            env=env,
        )
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``/v1/healthz`` answers."""
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            if self.url is None:
                text = self.files[-1].read_text(encoding="utf-8")
                marker = "listening on "
                if marker in text:
                    self.url = text.split(marker, 1)[1].split()[0]
            if self.url is not None:
                try:
                    if ServiceClient(self.url, timeout=5).healthz():
                        return
                except OSError:
                    pass
            time.sleep(0.005)
        raise TimeoutError("serve did not answer /v1/healthz in time")

    def children(self) -> List[int]:
        pids = []
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        return pids

    def peak_rss_mb(self) -> float:
        """Peak RSS of the serve process plus its worker processes."""
        total = 0.0
        for pid in [self.proc.pid] + self.children():
            try:
                total += stats.peak_rss_mb(str(pid))
            except OSError:
                pass
        return total

    def stop(self) -> None:
        """Interrupt the server, wait for it and its workers, remove its files."""
        children = []
        if self.proc.poll() is None:
            try:
                children = self.children()
            except OSError:
                pass
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in children:
            _wait_gone(pid)
        self._out.close()
        for path in self.files:
            path.unlink(missing_ok=True)


def _wait_gone(pid: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists():
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


class Gate:
    """Lets the clients send requests only while a slice is open."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._open = False
        self._busy = 0
        self.finished = False
        self.slice = 0
        self.traced = False

    def enter(self):
        """Client side, before a request: wait for an open slice and return
        ``(slice, traced)``, or ``None`` once the run is over."""
        with self._cond:
            self._cond.wait_for(lambda: self._open or self.finished)
            if self.finished:
                return None
            self._busy += 1
            return self.slice, self.traced

    def leave(self) -> None:
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()

    def open(self, traced: bool) -> None:
        with self._cond:
            self.slice += 1
            self.traced = traced
            self._open = True
            self._cond.notify_all()

    def close(self) -> None:
        """Stop new requests and wait until none is in flight."""
        with self._cond:
            self._open = False
            self._cond.wait_for(lambda: self._busy == 0)

    def finish(self) -> None:
        with self._cond:
            self.finished = True
            self._cond.notify_all()


class Request:
    """One submit → result round trip."""

    def __init__(self, kind: str, spec: str, name: str, slice_: int, traced: bool) -> None:
        self.kind = kind
        self.spec = spec
        self.name = name
        self.slice = slice_
        self.traced = traced
        self.seconds = 0.0
        #: ``seconds`` at the reference host speed.
        self.scaled = 0.0
        self.submit_ms = 0.0
        self.layers: Dict[str, float] = {}
        self.job_id: Optional[str] = None
        self.verdict: Dict[str, object] = {}
        self.solved = False
        self.error: Optional[str] = None


def _wait_traced(client, outcome, request: Request) -> dict:
    """``client.wait`` by hand, noting when the final event arrived."""
    job_id = str(outcome["job_id"])
    final = None
    for event in client.events(job_id, deadline=time.monotonic() + REQUEST_TIMEOUT):
        if event["event"] in ("done", "failed", "timeout"):
            final, received = event["event"], time.time()
            break
    if final != "done":
        raise RuntimeError(f"job {job_id} ended as {final}")
    started = time.perf_counter()
    payload = client.result(str(outcome["fingerprint"]))
    request.layers["result_ms"] = 1000 * (time.perf_counter() - started)
    request.layers["received"] = received
    return payload


def _client_loop(index: int, seed: int, url: str, inputs, gate: Gate, records: List[Request]) -> None:
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=REQUEST_TIMEOUT)
    for kind, spec_name, request_name in specs.request_sequence(seed, index):
        admitted = gate.enter()
        if admitted is None:
            return
        try:
            records.append(_request(client, inputs, kind, spec_name, request_name, *admitted))
        finally:
            gate.leave()


def _request(client, inputs, kind, spec_name, request_name, slice_, traced) -> Request:
    """One submit → result round trip, timed and checked; a failure is
    recorded on the request, not raised."""
    spec = inputs[spec_name]
    request = Request(kind, spec_name, request_name, slice_, traced)
    text = specs.renamed(spec, request_name)
    settings = {"search": specs.search_settings(spec.allow_input_delay)}
    started = time.perf_counter()
    try:
        outcome = client.submit(text, settings=settings)
        request.submit_ms = 1000 * (time.perf_counter() - started)
        request.job_id = outcome.get("job_id")
        if kind == "warm":
            if not outcome.get("cached"):
                raise checks.CheckFailed(f"{request_name}: repeat missed the store")
            payload = outcome["result"]
        elif outcome.get("cached"):
            raise checks.CheckFailed(f"{request_name}: new spec answered from the store")
        elif request.traced:
            payload = _wait_traced(client, outcome, request)
        else:
            payload = client.wait(outcome, timeout=REQUEST_TIMEOUT)
        request.seconds = time.perf_counter() - started
        summary = payload["summary"]
        checks.check_service_summary(summary, request_name)
        request.solved = bool(summary["solved"])
        request.verdict = {
            "fingerprint_sha256": checks.verdict_hash(summary),
            "inserted": [record["signal"] for record in summary["insertions"]],
        }
        if request.traced and kind == "cold":
            job = client.job(str(outcome["job_id"]))
            request.layers["queue_wait_ms"] = 1000 * (job["started_at"] - job["submitted_at"])
            request.layers["run_ms"] = 1000 * (job["finished_at"] - job["started_at"])
            request.layers["notify_ms"] = 1000 * (request.layers["received"] - job["finished_at"])
    except Exception as error:  # a failed request must not stop the client
        request.error = f"{request_name}: {type(error).__name__}: {error}"
        traceback.print_exc(file=sys.stderr)
    return request


def _check_repeats(records: List[Request], pinned) -> List[str]:
    """Fail results that differ from another result for the same spec;
    return the specs whose verdict moved from the pins."""
    first: Dict[str, Dict] = {}
    for request in records:
        if request.error is not None:
            continue
        earlier = first.setdefault(request.spec, request.verdict)
        if earlier != request.verdict:
            request.error = f"{request.name}: encoding differs from another {request.spec} result"
            print(request.error, file=sys.stderr)
    observed = {f"encode:{spec}": verdict for spec, verdict in first.items()}
    return checks.verdict_changes(observed, pinned)


def _scale(records: List[Request], slices: Dict[int, float], paces: List[float]) -> Dict[int, float]:
    """Scale each request and each slice's client time by the mean pace on
    either side of its slice; return the scaled slice times."""
    speed = {
        index: 2 * library.PACE_REFERENCE_S / (paces[index - 1] + paces[index]) for index in slices
    }
    for request in records:
        request.scaled = request.seconds * speed[request.slice]
    return {index: seconds * speed[index] for index, seconds in slices.items()}


def _latency_metrics(records: List[Request], slices: Dict[int, float]) -> Dict[str, float]:
    """``encode_s`` is the scaled client time of the requests' slices per
    100 completed requests; latencies are scaled and taken over the whole
    run."""
    ok = [r for r in records if r.error is None]
    times = [r.scaled for r in ok]
    return {
        "encode_s": stats.ratio(
            PASS_REQUESTS * sum(slices[index] for index in {r.slice for r in records}), len(ok)
        ),
        "spec_geomean_ms": 1000 * stats.geomean(times),
        "latency_p50_ms": 1000 * stats.percentile(times, 0.5),
        "latency_p95_ms": 1000 * stats.percentile(times, 0.95),
        "solved_specs": len({r.spec for r in ok if r.solved}),
    }


def _service_layers(records: List[Request], overhead: float, store) -> Dict:
    traced = [r for r in records if r.traced and r.error is None]
    untraced = [r for r in records if not r.traced and r.error is None]
    cold = [r for r in traced if r.kind == "cold"]
    metrics = {name: 0 for name in run.PER_LAYER}
    for name in ("queue_wait_ms", "run_ms", "notify_ms", "result_ms"):
        metrics[f"service.{name}"] = stats.median([r.layers[name] for r in cold])
    metrics["service.submit_ms"] = stats.median([r.submit_ms for r in traced])
    metrics["service.store_hit_ratio"] = store.get("hit_rate") or 0.0
    for kind in ("warm", "cold"):
        times = [1000 * r.scaled for r in untraced if r.kind == kind]
        metrics[f"service.{kind}_p50_ms"] = stats.percentile(times, 0.5)
        metrics[f"service.{kind}_p90_ms"] = stats.percentile(times, 0.9)
    metrics["obs.trace_overhead_ratio"] = overhead
    return metrics


def run_service(args) -> dict:
    from repro.service.client import ServiceClient

    inputs = specs.service_specs()
    pinned = run.load_pins("service")
    servers, samples = [], []
    try:
        for index in range(SERVE_STARTS):
            started = time.perf_counter()
            server = Server(index)
            servers.append(server)
            server.wait_ready()
            samples.append(time.perf_counter() - started)
            if index < SERVE_STARTS - 1:
                server.stop()
        server = servers[-1]

        gate = Gate()
        records: List[Request] = []
        threads = [
            threading.Thread(
                target=_client_loop, args=(index, args.seed, server.url, inputs, gate, records)
            )
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + args.seconds
        traced_from = deadline - args.seconds / 2 if args.trace else deadline
        paces = [library.pace()]
        slices: Dict[int, float] = {}
        try:
            while time.perf_counter() < deadline:
                opened = time.perf_counter()
                gate.open(traced=opened >= traced_from)
                time.sleep(min(SLICE_S, deadline - opened))
                gate.close()
                slices[gate.slice] = time.perf_counter() - opened
                paces.append(library.pace())
        finally:
            gate.finish()
            for thread in threads:
                thread.join()
        store = ServiceClient(server.url).stats()["store"]
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    slices = _scale(records, slices, paces)
    changed = _check_repeats(records, pinned)
    print(f"verdict_changes service: {len(changed)} {' '.join(changed)}".rstrip())
    job_ids = [r.job_id for r in records if r.kind == "cold" and r.job_id]
    if args.trace:
        untraced = [r for r in records if not r.traced]
        traced = [r for r in records if r.traced]
        overhead = stats.ratio(
            _latency_metrics(traced, slices)["encode_s"],
            _latency_metrics(untraced, slices)["encode_s"],
        )
        metrics = _service_layers(records, overhead, store)
        metrics["service.coalesced"] = len(job_ids) - len(set(job_ids))
        metrics["verdict_changes"] = len(changed)
    else:
        metrics = _latency_metrics(records, slices)
        metrics["setup_s"] = stats.median(samples)
        metrics["peak_rss_mb"] = rss
    return run.result_line([r.error for r in records], metrics, args.trace)
