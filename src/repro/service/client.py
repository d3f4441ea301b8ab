"""Stdlib client for the service's ``/v1`` HTTP API.

:class:`ServiceClient` wraps ``urllib`` so scripts and benchmarks can
talk to a running ``pyetrify serve`` without hand-rolling requests::

    from repro.api import connect

    client = connect("http://127.0.0.1:8080", api_key="pk_…")
    outcome = client.submit_benchmark("alloc-outbound")
    payload = client.wait(outcome)               # streams job events
    print(payload["summary"]["inserted"])

Error handling mirrors the wire protocol: every non-2xx answer raises
:class:`ServiceError` carrying the envelope fields (``status``,
``code``, ``message``, ``detail``, ``retry_after``), so callers branch
on ``error.code == "rate_limited"`` instead of parsing bodies.

``wait`` prefers the long-poll event feed (one round-trip per state
change, no busy polling) and falls back to status polling for servers
without it.  :meth:`ServiceClient.events` iterates the feed itself.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx API answer, decoded from the ``/v1`` error envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[object] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail
        self.retry_after = retry_after


class ServiceClient:
    """One service endpoint + optional API key (see module docstring)."""

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout

    # -- wire plumbing --------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        request.add_header("Content-Type", "application/json")
        if self.api_key:
            request.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise self._decode_error(error)

    @staticmethod
    def _decode_error(error: urllib.error.HTTPError) -> ServiceError:
        code, message, detail = "error", str(error.reason), None
        try:
            payload = json.loads(error.read().decode("utf-8"))
            envelope = payload.get("error")
            if isinstance(envelope, dict):
                code = str(envelope.get("code", code))
                message = str(envelope.get("message", message))
                detail = envelope.get("detail")
        except (ValueError, AttributeError):
            pass
        retry_after = None
        header = error.headers.get("Retry-After") if error.headers else None
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return ServiceError(error.code, code, message, detail, retry_after)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        g_text: str,
        settings: Optional[Dict[str, object]] = None,
        max_states: Optional[int] = 200000,
        engine: Optional[str] = None,
        fingerprint: Optional[str] = None,
        synth: bool = False,
    ) -> Dict[str, object]:
        """Submit raw ``.g`` text; returns the submission outcome.

        ``fingerprint`` optionally pins the expected content address
        (the server answers 409 on a mismatch).  ``synth=True`` submits
        a synthesis job: the stored result's ``synth`` field carries the
        verified netlist (equations / Verilog / BLIF).
        """
        body: Dict[str, object] = {"g": g_text, "max_states": max_states}
        if settings is not None:
            body["settings"] = settings
        if engine is not None:
            body["engine"] = engine
        if fingerprint is not None:
            body["fingerprint"] = fingerprint
        if synth:
            body["synth"] = True
        return self._request("POST", "/v1/jobs", body)

    def submit_benchmark(
        self,
        name: str,
        table: str = "table2",
        settings: Optional[Dict[str, object]] = None,
        max_states: Optional[int] = 200000,
        engine: Optional[str] = None,
        synth: bool = False,
    ) -> Dict[str, object]:
        """Submit a named library benchmark."""
        body: Dict[str, object] = {
            "benchmark": name,
            "table": table,
            "max_states": max_states,
        }
        if settings is not None:
            body["settings"] = settings
        if engine is not None:
            body["engine"] = engine
        if synth:
            body["synth"] = True
        return self._request("POST", "/v1/jobs", body)

    # -- retrieval ------------------------------------------------------
    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, fingerprint: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/results/{fingerprint}")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/v1/stats")

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/v1/healthz")

    # -- events ---------------------------------------------------------
    def poll_events(
        self, job_id: str, after: int = 0, wait: float = 25.0
    ) -> Dict[str, object]:
        """One long-poll round: events after ``after`` (or a timeout)."""
        return self._request(
            "GET",
            f"/v1/jobs/{job_id}/events?wait={wait}&after={after}",
            timeout=wait + self.timeout,
        )

    def events(
        self, job_id: str, after: int = 0, deadline: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Iterate a job's event feed until it reaches a final state.

        Long-poll based (works through any proxy); each yielded dict is
        one durable event row.  Stops on the terminal event or when the
        optional wall-clock ``deadline`` (``time.monotonic`` based)
        passes.
        """
        while True:
            wait = 25.0
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            page = self.poll_events(job_id, after=after, wait=wait)
            for event in page["events"]:
                yield event
            after = int(page["next_after"])
            if page["final"]:
                return
            if deadline is not None and time.monotonic() >= deadline:
                return

    # -- convenience ----------------------------------------------------
    def wait(self, outcome: Dict[str, object], timeout: float = 300.0) -> Dict[str, object]:
        """Block until a submission outcome has a result payload.

        ``outcome`` is the dict returned by :meth:`submit` /
        :meth:`submit_benchmark`.  Cached submissions return instantly;
        otherwise the job's event feed is followed until the job is
        final, then the result is fetched by fingerprint.  Raises
        :class:`ServiceError` (``code="job_failed"``) when the job
        finishes in a non-``done`` state and :class:`TimeoutError` when
        nothing final happened in time.
        """
        if outcome.get("cached") and outcome.get("result") is not None:
            return outcome["result"]  # type: ignore[return-value]
        job_id = outcome.get("job_id")
        fingerprint = str(outcome["fingerprint"])
        deadline = time.monotonic() + timeout
        final: Optional[str] = None
        if job_id:
            for event in self.events(str(job_id), deadline=deadline):
                if event["event"] in ("done", "failed", "timeout"):
                    final = str(event["event"])
                    break
        if final is None:
            raise TimeoutError(f"no final state for job {job_id!r} within {timeout}s")
        if final != "done":
            job = self.job(str(job_id))
            raise ServiceError(
                200, "job_failed", f"job finished as {final}: {job.get('error')}"
            )
        return self.result(fingerprint)

    # -- admin ----------------------------------------------------------
    def admin_stats(self) -> Dict[str, object]:
        return self._request("GET", "/v1/admin/stats")

    def list_tenants(self) -> List[Dict[str, object]]:
        return self._request("GET", "/v1/admin/tenants")["tenants"]  # type: ignore[index]

    def create_tenant(self, name: str, **options) -> Dict[str, object]:
        """Provision a tenant (admin); returns the record + one-time key."""
        body: Dict[str, object] = {"name": name}
        body.update(options)
        return self._request("POST", "/v1/admin/tenants", body)
