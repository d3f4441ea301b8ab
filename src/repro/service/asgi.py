"""Async HTTP front for the encoding service: ASGI app + asyncio server.

This replaces the PR-2 ``ThreadingHTTPServer`` with two cleanly split
pieces, both stdlib-only:

* :func:`create_app` — an **ASGI 3** application serving the versioned
  ``/v1`` API.  Being a plain ASGI callable, it also runs under
  uvicorn/hypercorn unchanged when those are available; nothing in this
  repo requires them.
* :class:`AsgiHTTPServer` / :func:`serve_asgi` — a minimal asyncio
  HTTP/1.1 server that hosts the app without any dependency, speaking
  keep-alive for framed responses and close-delimited streaming for
  Server-Sent Events.

The event loop never runs encoding work.  It makes two kinds of short
sqlite call itself: authentication (one read of the tenants table), and
for a ``POST /v1/jobs`` body it has accepted before, the store read that
answers it plus the hit's two accounting UPSERTs.  Every other store,
queue and tenant call — parsing and enqueueing a new body included —
runs on a thread pool via ``run_in_executor``, while the actual solves
happen in worker processes — in-process
(:class:`~repro.service.workers.WorkerPool`) or external
(``pyetrify worker``) — so hundreds of concurrent clients stream events
and hit the warm cache with bounded latency even while cold solves are
in flight.

API surface (see ``API.md`` for schemas and curl examples)::

    GET  /v1/healthz                 liveness (never auth-gated)
    POST /v1/jobs                    submit (auth, rate limit, quota, backlog)
    GET  /v1/jobs/{id}               job status + result when done
    GET  /v1/jobs/{id}/events        SSE stream (default) or ?wait= long-poll
    GET  /v1/results/{fingerprint}   content-addressed result
    GET  /v1/stats                   service statistics
    GET  /v1/metrics                 Prometheus text exposition
    GET  /v1/tenants/me              the calling tenant + its accounting
    GET  /v1/admin/stats             per-tenant breakdown   (admin key)
    GET  /v1/admin/tenants           list tenants           (admin key)
    POST /v1/admin/tenants           provision an API key   (admin key)

Every ``/v1`` error is the uniform envelope ``{"error": {"code",
"message", "detail"}}`` with the matching status (400 bad_request, 401
unauthorized, 403 forbidden, 404 not_found, 409 conflict, 429
rate_limited + ``Retry-After``, 503 unavailable).  A path outside
``/v1`` is a 404 in the same envelope.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import hashlib
import json
import threading
import time
import urllib.parse
import uuid
from typing import Dict, List, Optional, Tuple

from repro.obs import REGISTRY, get_logger, span_event
from repro.service import BacklogFull, FingerprintMismatch, QuotaExceeded
from repro.service.events import SSE_HEADERS, format_sse, is_terminal_event
from repro.service.metrics import render_service_metrics
from repro.service.tenants import Tenant
from repro.service.workers import POLL_INTERVAL

__all__ = ["ApiError", "create_app", "AsgiHTTPServer", "serve_asgi"]

_log = get_logger("service.http")

_HTTP_REQUESTS = REGISTRY.counter(
    "pyetrify_http_requests_total",
    "HTTP requests by normalized route, method and status",
    labelnames=("route", "method", "status"),
)
_HTTP_LATENCY = REGISTRY.histogram(
    "pyetrify_http_request_duration_seconds",
    "HTTP request wall-clock latency by normalized route",
    labelnames=("route",),
)
_TENANT_REQUESTS = REGISTRY.counter(
    "pyetrify_tenant_requests_total",
    "Authenticated requests by tenant",
    labelnames=("tenant",),
)
_SSE_SUBSCRIBERS = REGISTRY.gauge(
    "pyetrify_sse_subscribers", "Live SSE event-stream subscribers"
)

_KNOWN_ROUTES = frozenset(
    {
        "/",
        "/healthz",
        "/stats",
        "/metrics",
        "/jobs",
        "/tenants/me",
        "/admin/stats",
        "/admin/tenants",
    }
)


def _route_label(route: str) -> str:
    """Collapse path parameters so metric label cardinality stays fixed."""
    if route.startswith("/jobs/"):
        return "/jobs/{id}/events" if route.endswith("/events") else "/jobs/{id}"
    if route.startswith("/results/"):
        return "/results/{fingerprint}"
    return route if route in _KNOWN_ROUTES else "other"

_MAX_BODY_BYTES = 4 * 1024 * 1024
#: Bound of the front's map from a digest of an accepted ``POST /v1/jobs``
#: body to that body's fingerprint (least recently used out).
_ACCEPTED_BODIES = 4096
#: Long-poll waits are capped so a stuck client cannot pin a slot forever.
_MAX_LONGPOLL_WAIT = 60.0
_SSE_HEARTBEAT = 15.0

#: Request headers a browser may send cross-origin to this API.
_CORS_ALLOW_HEADERS = "Authorization, Content-Type, X-API-Key, X-Request-Id, Last-Event-ID"
_CORS_MAX_AGE = "600"

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ApiError(Exception):
    """One API failure, carried as (status, code, message, detail).

    Rendered as the uniform ``/v1`` envelope.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[object] = None,
        headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail
        self.headers = headers or []

    @classmethod
    def bad_request(cls, message: str, detail: Optional[object] = None) -> "ApiError":
        return cls(400, "bad_request", message, detail)

    @classmethod
    def unauthorized(cls, message: str = "a valid API key is required") -> "ApiError":
        return cls(
            401, "unauthorized", message,
            headers=[("WWW-Authenticate", 'Bearer realm="pyetrify"')],
        )

    @classmethod
    def not_found(cls, message: str) -> "ApiError":
        return cls(404, "not_found", message)

    @classmethod
    def conflict(cls, message: str, detail: Optional[object] = None) -> "ApiError":
        return cls(409, "conflict", message, detail)

    @classmethod
    def rate_limited(cls, message: str, retry_after: float) -> "ApiError":
        return cls(
            429, "rate_limited", message,
            detail={"retry_after": round(retry_after, 3)},
            headers=[("Retry-After", str(max(1, int(retry_after + 0.999))))],
        )

    @classmethod
    def unavailable(cls, message: str, retry_after: float = 5.0) -> "ApiError":
        return cls(
            503, "unavailable", message,
            headers=[("Retry-After", str(max(1, int(retry_after))))],
        )

    def envelope(self) -> Dict[str, object]:
        return {
            "error": {"code": self.code, "message": self.message, "detail": self.detail}
        }


class _Request:
    """Parsed view of one ASGI HTTP scope + body."""

    def __init__(self, scope: Dict[str, object], body: bytes) -> None:
        self.method = str(scope["method"]).upper()
        self.raw_path = str(scope["path"])
        self.query = urllib.parse.parse_qs(
            (scope.get("query_string") or b"").decode("latin-1")
        )
        self.headers = {
            key.decode("latin-1").lower(): value.decode("latin-1")
            for key, value in scope.get("headers") or []
        }
        self.body = body
        # The correlation id: the client's X-Request-Id if it sent one
        # (bounded — it becomes a response header and a log field),
        # otherwise freshly minted.  Echoed on the response, stamped
        # onto submitted jobs, carried into progress heartbeats.
        header_id = self.headers.get("x-request-id", "").strip()
        self.id = header_id[:64] if header_id else uuid.uuid4().hex[:16]

    def json_body(self) -> Dict[str, object]:
        if not self.body:
            raise ApiError.bad_request("request body required")
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError.bad_request(f"invalid JSON body: {error}")
        if not isinstance(data, dict):
            raise ApiError.bad_request("JSON body must be an object")
        return data

    def api_key(self) -> Optional[str]:
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return self.headers.get("x-api-key")

    def query_int(self, name: str) -> Optional[int]:
        values = self.query.get(name)
        if not values:
            return None
        try:
            return int(values[0])
        except ValueError:
            raise ApiError.bad_request(f"query parameter {name!r} must be an integer")

    def query_float(self, name: str) -> Optional[float]:
        values = self.query.get(name)
        if not values:
            return None
        try:
            return float(values[0])
        except ValueError:
            raise ApiError.bad_request(f"query parameter {name!r} must be a number")


class _ObservedSend:
    """ASGI ``send`` wrapper: echoes ``X-Request-Id`` (plus any per-request
    CORS headers), records the status."""

    __slots__ = ("_send", "request_id", "status", "extra_headers")

    def __init__(self, send, request_id: str, extra_headers=()) -> None:
        self._send = send
        self.request_id = request_id
        self.status: Optional[int] = None
        self.extra_headers = list(extra_headers)

    async def __call__(self, message) -> None:
        if message["type"] == "http.response.start":
            self.status = int(message["status"])
            headers = list(message.get("headers") or [])
            headers.append((b"x-request-id", self.request_id.encode("latin-1")))
            for name, value in self.extra_headers:
                headers.append((name.encode("latin-1"), value.encode("latin-1")))
            message = dict(message, headers=headers)
        await self._send(message)


class _ServiceApp:
    """The ASGI application over one :class:`EncodingService`.

    ``cors_origins`` enables CORS for browser clients: a list of allowed
    origins (exact match), or ``["*"]`` to allow any.  When enabled,
    allowed cross-origin requests get ``Access-Control-Allow-Origin`` on
    every response (errors and SSE streams included) and ``OPTIONS``
    preflights are answered without authentication — browsers never send
    credentials on a preflight.  Disallowed origins get no CORS headers,
    which is how the protocol says "no".
    """

    def __init__(self, service, verbose: bool = False, cors_origins=None) -> None:
        self.service = service
        self.verbose = verbose
        self.cors_origins = [str(origin) for origin in (cors_origins or [])]
        self._cors_any = "*" in self.cors_origins
        # digest of a raw POST /v1/jobs body -> the fingerprint it was
        # accepted under; touched only on the event loop
        self._accepted: "collections.OrderedDict[bytes, str]" = collections.OrderedDict()

    def _cors_headers(self, request: "_Request") -> List[Tuple[str, str]]:
        """Per-request CORS response headers ([] = none apply)."""
        if not self.cors_origins:
            return []
        origin = request.headers.get("origin")
        if not origin:
            return []
        if not self._cors_any and origin not in self.cors_origins:
            return []
        return [
            ("Access-Control-Allow-Origin", "*" if self._cors_any else origin),
            ("Vary", "Origin"),
            ("Access-Control-Expose-Headers", "X-Request-Id"),
        ]

    # -- ASGI entry -----------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":  # uvicorn sends these; the stdlib host doesn't
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - websockets etc.
            return
        body = await self._read_body(receive)
        request = _Request(scope, body)
        path = request.raw_path.rstrip("/") or "/"
        versioned = path == "/v1" or path.startswith("/v1/")
        route = path[3:] or "/"
        observed = _ObservedSend(send, request.id, self._cors_headers(request))
        started = time.perf_counter()
        span_event(
            "http.request", "b", request.id,
            method=request.method, path=request.raw_path,
        )
        try:
            if body is None:
                raise ApiError.bad_request(
                    f"request body exceeds {_MAX_BODY_BYTES} bytes"
                )
            if not versioned:
                raise ApiError.not_found(
                    f"no such endpoint: {request.method} {request.raw_path}"
                    " (the API is served under /v1)"
                )
            await self._dispatch(request, route, receive, observed)
        except ApiError as error:
            await self._send_error(observed, error)
        except Exception as error:  # pragma: no cover - defensive catch-all
            fallback = ApiError(500, "internal", f"{type(error).__name__}: {error}")
            await self._send_error(observed, fallback)
        finally:
            elapsed = time.perf_counter() - started
            # a request that ended without a response start (client gone
            # mid-stream) is accounted under status 0
            status = observed.status if observed.status is not None else 0
            label = _route_label(route) if versioned else "other"
            _HTTP_REQUESTS.labels(
                route=label, method=request.method, status=str(status)
            ).inc()
            _HTTP_LATENCY.labels(route=label).observe(elapsed)
            span_event("http.request", "e", request.id, status=status)
            _log.log(
                "info" if self.verbose else "debug",
                "request",
                id=request.id,
                method=request.method,
                path=request.raw_path,
                status=status,
                seconds=round(elapsed, 6),
            )

    async def _lifespan(self, receive, send) -> None:  # pragma: no cover - uvicorn only
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    @staticmethod
    async def _read_body(receive) -> Optional[bytes]:
        chunks: List[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                return b""
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > _MAX_BODY_BYTES:
                return None  # turned into a 400 by the caller
            chunks.append(chunk)
            if not message.get("more_body"):
                return b"".join(chunks)

    # -- plumbing -------------------------------------------------------
    async def _call(self, fn, *args, **kwargs):
        """Run a blocking service/database call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, functools.partial(fn, *args, **kwargs))

    async def _send_json(
        self,
        send,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(blob)).encode("ascii")),
        ]
        for name, value in extra_headers or []:
            headers.append((name.encode("latin-1"), value.encode("latin-1")))
        await send({"type": "http.response.start", "status": status, "headers": headers})
        await send({"type": "http.response.body", "body": blob})

    async def _send_text(self, send, status: int, text: str) -> None:
        blob = text.encode("utf-8")
        headers = [
            (b"content-type", b"text/plain; version=0.0.4; charset=utf-8"),
            (b"content-length", str(len(blob)).encode("ascii")),
        ]
        await send({"type": "http.response.start", "status": status, "headers": headers})
        await send({"type": "http.response.body", "body": blob})

    async def _send_error(self, send, error: ApiError) -> None:
        await self._send_json(send, error.status, error.envelope(), error.headers)

    # -- auth -----------------------------------------------------------
    def _authenticate(self, request: _Request) -> Tenant:
        """The caller's tenant (401 otherwise); runs on the event loop."""
        tenant = self.service.tenants.authenticate(request.api_key())
        if tenant is None:
            raise ApiError.unauthorized()
        _TENANT_REQUESTS.labels(
            tenant="anonymous" if tenant.anonymous else tenant.name
        ).inc()
        return tenant

    def _require_admin(self, request: _Request) -> Tenant:
        tenant = self._authenticate(request)
        if tenant.anonymous:
            # open mode has no admin identity: provision the first key
            # via the CLI, which has filesystem access to the backend
            raise ApiError.unauthorized("admin endpoints require a provisioned admin key")
        if not tenant.admin:
            raise ApiError(403, "forbidden", "this endpoint requires an admin key")
        return tenant

    # -- routing --------------------------------------------------------
    async def _dispatch(self, request, route: str, receive, send) -> None:
        method = request.method
        if method == "OPTIONS":
            await self._preflight(request, send)
            return
        if route == "/healthz" and method == "GET":
            from repro import __version__

            await self._send_json(
                send, 200, {"ok": True, "version": __version__, "api": "v1"}
            )
            return
        if route == "/stats" and method == "GET":
            self._authenticate(request)
            stats = await self._call(self.service.stats)
            await self._send_json(send, 200, stats)
            return
        if route == "/metrics" and method == "GET":
            self._authenticate(request)
            text = await self._call(render_service_metrics, self.service)
            await self._send_text(send, 200, text)
            return
        if route == "/jobs" and method == "POST":
            await self._post_job(request, send)
            return
        if route.startswith("/jobs/") and method == "GET":
            rest = route[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._job_events(request, rest[: -len("/events")], receive, send)
                return
            await self._get_job(request, rest, send)
            return
        if route.startswith("/results/") and method == "GET":
            await self._get_result(request, route[len("/results/"):], send)
            return
        if route == "/tenants/me" and method == "GET":
            tenant = self._authenticate(request)
            counters = await self._call(self.service.tenants.counters_for, tenant)
            active = await self._call(self.service.queue.active_count, tenant.id and tenant.name)
            await self._send_json(
                send, 200,
                {"tenant": tenant.as_dict(), "counters": counters, "active_jobs": active},
            )
            return
        if route == "/admin/stats" and method == "GET":
            self._require_admin(request)
            stats = await self._call(self.service.admin_stats)
            await self._send_json(send, 200, stats)
            return
        if route == "/admin/tenants":
            await self._admin_tenants(request, method, send)
            return
        raise ApiError.not_found(f"no such endpoint: {request.method} {request.raw_path}")

    async def _preflight(self, request: _Request, send) -> None:
        """Answer ``OPTIONS`` (CORS preflight or plain capability probe).

        Unauthenticated by design: preflights carry no credentials.  The
        ``Access-Control-Allow-Origin`` / ``Vary`` pair rides in through
        :class:`_ObservedSend` when the origin is allowed; a disallowed
        origin gets a bare 204 with no CORS headers and the browser
        blocks the actual request.
        """
        headers: List[Tuple[bytes, bytes]] = [(b"allow", b"GET, POST, OPTIONS")]
        if self._cors_headers(request):
            headers.extend(
                [
                    (b"access-control-allow-methods", b"GET, POST, OPTIONS"),
                    (b"access-control-allow-headers", _CORS_ALLOW_HEADERS.encode("latin-1")),
                    (b"access-control-max-age", _CORS_MAX_AGE.encode("latin-1")),
                ]
            )
        await send({"type": "http.response.start", "status": 204, "headers": headers})
        await send({"type": "http.response.body", "body": b""})

    # -- handlers -------------------------------------------------------
    async def _post_job(self, request: _Request, send) -> None:
        """Submit one body.

        A body accepted before is answered on the event loop when its
        result is stored: one store read, with the same hit accounting as
        :meth:`EncodingService.submit`.  Any other body, or a repeat whose
        result is not stored (still pending, or evicted), takes
        :meth:`_submit_body` on the executor, which counts the miss and
        enqueues or coalesces.
        """
        tenant = self._authenticate(request)
        key = hashlib.blake2b(request.body, digest_size=16).digest()
        fingerprint = self._accepted.get(key)
        body = request.json_body() if fingerprint is None else None
        decision = self.service.tenants.spend_token(tenant)
        if not decision.allowed:
            await self._call(self.service.tenants.record, tenant, "rejected_rate")
            raise ApiError.rate_limited(
                f"rate limit exceeded for tenant {tenant.name!r}", decision.retry_after
            )
        if fingerprint is not None:
            outcome = self.service.cached(fingerprint, count_miss=False)
            if outcome is not None:
                self._accepted.move_to_end(key)
                self.service.tenants.record(tenant, "cache_hits")
                await self._send_json(send, 200, outcome)
                return
            body = request.json_body()
        outcome = await self._call(self._submit_body, body, tenant, request.id)
        self._accepted[key] = outcome["fingerprint"]
        self._accepted.move_to_end(key)
        while len(self._accepted) > _ACCEPTED_BODIES:
            self._accepted.popitem(last=False)
        status = 200 if outcome["cached"] else 202
        await self._send_json(send, status, outcome)

    def _submit_body(
        self,
        body: Dict[str, object],
        tenant: Tenant,
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Validate one submission body and run it through the facade.

        Runs in the executor (parsing ``.g`` text and fingerprinting are
        CPU-ish); raises :class:`ApiError` for every client fault.
        ``request_id`` travels onto the job record so the worker's
        progress heartbeats correlate back to this HTTP request.
        """
        from repro.service import settings_from_dict
        from repro.stg.parser import parse_g

        settings = None
        if body.get("settings") is not None:
            if not isinstance(body["settings"], dict):
                raise ApiError.bad_request('"settings" must be an object')
            try:
                settings = settings_from_dict(body["settings"])
            except (TypeError, ValueError) as error:
                raise ApiError.bad_request(f'invalid "settings" object: {error}')
        max_states = body.get("max_states", 200000)
        if max_states is not None and type(max_states) is not int:  # bool is an int subclass
            raise ApiError.bad_request('"max_states" must be an integer or null')
        engine = body.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise ApiError.bad_request('"engine" must be a string')
        # The raw field distinguishes an explicit "kernel": "auto" from an
        # absent one ("auto" is also the dataclass default, so only the
        # raw body shows intent); settings_from_dict has checked its type.
        kernel = None
        if settings is not None and "kernel" in body["settings"]:
            kernel = body["settings"]["kernel"]
        synth = body.get("synth", False)
        if not isinstance(synth, bool):
            raise ApiError.bad_request('"synth" must be a boolean')
        expected_fp = body.get("fingerprint")
        if expected_fp is not None and not isinstance(expected_fp, str):
            raise ApiError.bad_request('"fingerprint" must be a string')

        if ("g" in body) == ("benchmark" in body):
            raise ApiError.bad_request('provide exactly one of "g" or "benchmark"')

        tenant_name = None if tenant.anonymous else tenant.name
        try:
            if "g" in body:
                if not isinstance(body["g"], str):
                    raise ApiError.bad_request('"g" must be a string of .g text')
                try:
                    stg = parse_g(body["g"])
                except Exception as error:
                    raise ApiError.bad_request(f"cannot parse .g body: {error}")
                outcome = self.service.submit(
                    stg,
                    settings=settings,
                    max_states=max_states,
                    engine=engine,
                    kernel=kernel,
                    synth=synth,
                    tenant=tenant_name,
                    expected_fingerprint=expected_fp,
                    quota_active_jobs=tenant.quota_active_jobs,
                    request_id=request_id,
                )
            else:
                table = body.get("table", "table2")
                try:
                    outcome = self.service.submit_benchmark(
                        str(body["benchmark"]),
                        table=str(table),
                        settings=settings,
                        max_states=max_states,
                        engine=engine,
                        kernel=kernel,
                        synth=synth,
                        tenant=tenant_name,
                        expected_fingerprint=expected_fp,
                        quota_active_jobs=tenant.quota_active_jobs,
                        request_id=request_id,
                    )
                except KeyError as error:
                    raise ApiError.bad_request(
                        str(error.args[0]) if error.args else str(error)
                    )
        except FingerprintMismatch as error:
            raise ApiError.conflict(str(error), detail=error.detail)
        except QuotaExceeded as error:
            self.service.tenants.record(tenant, "rejected_quota")
            raise ApiError.rate_limited(str(error), retry_after=5.0)
        except BacklogFull as error:
            raise ApiError.unavailable(str(error))
        except ApiError:
            raise
        except ValueError as error:  # e.g. an unknown engine name
            raise ApiError.bad_request(str(error))
        self.service.tenants.record(
            tenant, "cache_hits" if outcome["cached"] else "submitted"
        )
        return outcome

    def _visible_job(self, job_id: str, tenant: Tenant):
        """The job, if this tenant may see it (admin and owners only)."""
        job = self.service.job(job_id)
        if job is None:
            raise ApiError.not_found(f"unknown job id {job_id!r}")
        if tenant.anonymous or tenant.admin:
            return job
        if job.tenant is not None and job.tenant != tenant.name:
            # reveal nothing about other tenants' jobs, not even existence
            raise ApiError.not_found(f"unknown job id {job_id!r}")
        return job

    async def _get_job(self, request: _Request, job_id: str, send) -> None:
        tenant = self._authenticate(request)
        job = await self._call(self._visible_job, job_id, tenant)
        payload: Dict[str, object] = job.as_dict()
        if job.status == "done":
            # peek, not get: polling must not skew the hit/miss counters.
            payload["result"] = await self._call(self.service.store.peek, job.fingerprint)
            # a done job whose payload is gone was LRU-evicted from a
            # max_entries-bounded store; tell the client to resubmit
            # instead of leaving an ambiguous null.
            payload["result_evicted"] = payload["result"] is None
        await self._send_json(send, 200, payload)

    async def _get_result(self, request: _Request, fingerprint: str, send) -> None:
        self._authenticate(request)
        result = await self._call(self.service.result, fingerprint)
        if result is None:
            raise ApiError.not_found(f"no result for fingerprint {fingerprint!r}")
        await self._send_json(send, 200, result)

    # -- event streaming ------------------------------------------------
    async def _job_events(self, request: _Request, job_id: str, receive, send) -> None:
        tenant = self._authenticate(request)
        await self._call(self._visible_job, job_id, tenant)  # 404 before streaming
        after = request.query_int("after") or 0
        last_event_id = request.headers.get("last-event-id")
        if last_event_id:
            try:
                after = max(after, int(last_event_id))
            except ValueError:
                pass
        accept = request.headers.get("accept", "")
        wait = request.query_float("wait")
        if wait is not None and "text/event-stream" not in accept:
            await self._long_poll(job_id, after, min(wait, _MAX_LONGPOLL_WAIT), send)
        else:
            await self._sse_stream(job_id, after, receive, send)

    async def _long_poll(self, job_id: str, after: int, wait: float, send) -> None:
        """JSON fallback: block until the feed grows, then return it."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, wait)
        while True:
            events = await self._call(self.service.queue.events_for, job_id, after)
            if events or loop.time() >= deadline:
                break
            await asyncio.sleep(POLL_INTERVAL)
        payload = {
            "events": [event.as_dict() for event in events],
            "next_after": events[-1].seq if events else after,
            "final": bool(events) and is_terminal_event(events[-1]),
        }
        await self._send_json(send, 200, payload)

    async def _sse_stream(self, job_id: str, after: int, receive, send) -> None:
        """Server-Sent Events: push every feed row until the job is final."""
        await send(
            {"type": "http.response.start", "status": 200, "headers": list(SSE_HEADERS)}
        )
        loop = asyncio.get_running_loop()
        disconnected = asyncio.ensure_future(self._until_disconnect(receive))
        last_beat = loop.time()
        _SSE_SUBSCRIBERS.inc()
        try:
            while True:
                events = await self._call(self.service.queue.events_for, job_id, after)
                for event in events:
                    after = event.seq
                    await send(
                        {
                            "type": "http.response.body",
                            "body": format_sse(event),
                            "more_body": True,
                        }
                    )
                    last_beat = loop.time()
                    if is_terminal_event(event):
                        await send({"type": "http.response.body", "body": b""})
                        return
                if disconnected.done():
                    return
                if loop.time() - last_beat >= _SSE_HEARTBEAT:
                    # comment frame: keeps proxies and clients from timing out
                    await send(
                        {
                            "type": "http.response.body",
                            "body": b": heartbeat\n\n",
                            "more_body": True,
                        }
                    )
                    last_beat = loop.time()
                await asyncio.sleep(POLL_INTERVAL)
        finally:
            _SSE_SUBSCRIBERS.dec()
            disconnected.cancel()

    @staticmethod
    async def _until_disconnect(receive) -> None:
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                return

    # -- admin ----------------------------------------------------------
    async def _admin_tenants(self, request: _Request, method: str, send) -> None:
        self._require_admin(request)
        if method == "GET":
            tenants = await self._call(self.service.tenants.list_tenants)
            await self._send_json(send, 200, {"tenants": tenants})
            return
        if method != "POST":
            raise ApiError(405, "method_not_allowed", f"{method} not supported here")
        body = request.json_body()
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ApiError.bad_request('"name" (non-empty string) is required')
        quota = body.get("quota_active_jobs")
        if quota is not None and (not isinstance(quota, int) or quota < 1):
            raise ApiError.bad_request('"quota_active_jobs" must be a positive integer')
        rate = body.get("rate_per_second")
        if rate is not None and (
            not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate <= 0
        ):
            raise ApiError.bad_request('"rate_per_second" must be a positive number')
        burst = body.get("burst")
        if burst is not None and (not isinstance(burst, int) or burst < 1):
            raise ApiError.bad_request('"burst" must be a positive integer')
        try:
            created = await self._call(
                self.service.tenants.provision,
                name,
                admin=bool(body.get("admin", False)),
                quota_active_jobs=quota,
                rate_per_second=rate,
                burst=burst,
            )
        except KeyError as error:
            raise ApiError.conflict(str(error.args[0]) if error.args else str(error))
        await self._send_json(send, 201, created)


def create_app(service, verbose: bool = False, cors_origins=None):
    """The ASGI 3 application for one :class:`EncodingService`.

    ``cors_origins`` is an optional list of allowed browser origins
    (``["*"]`` = any); without it no CORS headers are emitted.
    """
    return _ServiceApp(service, verbose=verbose, cors_origins=cors_origins)


# ----------------------------------------------------------------------
# The stdlib asyncio host
# ----------------------------------------------------------------------
class AsgiHTTPServer:
    """Minimal asyncio HTTP/1.1 host for the service's ASGI app.

    Mirrors the lifecycle of the ``ThreadingHTTPServer`` it replaces so
    every existing harness keeps working: constructed bound (``port`` is
    final immediately, port 0 = ephemeral), ``serve_forever()`` blocks
    the calling thread, ``shutdown()`` (from any thread) stops it,
    ``server_close()`` releases the socket and loop.

    Framing: responses whose app sends a single body chunk are sent with
    ``Content-Length`` on a keep-alive connection; streamed responses
    (SSE) are close-delimited, which every HTTP/1.1 client understands.
    """

    def __init__(
        self, address: Tuple[str, int], service, verbose: bool = False, cors_origins=None
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.app = create_app(service, verbose=verbose, cors_origins=cors_origins)
        self._loop = asyncio.new_event_loop()
        host, port = address
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle_connection, host=host, port=port)
        )
        self.server_address = self._server.sockets[0].getsockname()[:2]
        self._stopped = threading.Event()
        self._serving = False

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    # -- lifecycle ------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        asyncio.set_event_loop(self._loop)
        self._serving = True
        self._stopped.clear()
        try:
            self._loop.run_forever()
        finally:
            self._serving = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread and wait for it."""
        if not self._serving:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._stopped.wait(timeout=10.0)

    def server_close(self) -> None:
        """Close the listening socket, drain tasks, free the loop."""
        self.shutdown()
        self._server.close()
        try:
            self._loop.run_until_complete(self._server.wait_closed())
            pending = [task for task in asyncio.all_tasks(self._loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self._loop.close()

    # -- connection handling --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            keep_alive = True
            while keep_alive:
                parsed = await self._read_request(reader, writer)
                if parsed is None:
                    return
                scope, body, keep_alive_requested = parsed
                keep_alive = await self._run_app(
                    scope, body, reader, writer, keep_alive_requested
                )
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader, writer):
        """Parse one request head + body; None on EOF/garbage."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            await self._raw_response(writer, 431, b'{"error": "request head too large"}')
            return None
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            await self._raw_response(writer, 400, b'{"error": "malformed request line"}')
            return None
        headers: List[Tuple[bytes, bytes]] = []
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers.append(
                (name.strip().lower().encode("latin-1"), value.strip().encode("latin-1"))
            )
        header_map = {name: value for name, value in headers}
        length = 0
        if b"content-length" in header_map:
            try:
                length = int(header_map[b"content-length"])
            except ValueError:
                await self._raw_response(writer, 400, b'{"error": "invalid Content-Length"}')
                return None
        body = b""
        if length > 0:
            if length > _MAX_BODY_BYTES:
                # drain nothing; close after answering (the app never sees it)
                await self._raw_response(
                    writer, 400,
                    b'{"error": "request body exceeds limit"}',
                )
                return None
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version.rpartition("/")[2] or "1.1",
            "method": method.upper(),
            "scheme": "http",
            "path": urllib.parse.unquote(path),
            "raw_path": path.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": headers,
            "client": writer.get_extra_info("peername"),
            "server": self.server_address,
        }
        connection = header_map.get(b"connection", b"").lower()
        keep_alive = connection != b"close" and scope["http_version"] != "1.0"
        # the structured per-request access log (status, latency, id)
        # lives in the app's __call__; nothing to print here
        return scope, body, keep_alive

    async def _run_app(self, scope, body, reader, writer, keep_alive: bool) -> bool:
        """Drive the ASGI app for one request; returns keep-alive."""
        state = {
            "status": 200,
            "headers": [],
            "started": False,
            "streaming": False,
            "buffer": b"",
            "sent_body": False,
            "delivered": False,
        }

        async def receive():
            if not state["delivered"]:
                state["delivered"] = True
                return {"type": "http.request", "body": body, "more_body": False}
            # Past the body, the only thing left to observe is the peer
            # closing (SSE cancellation); pipelined requests are not
            # supported on streams and read as a disconnect.
            try:
                chunk = await reader.read(65536)
            except (ConnectionError, OSError):
                chunk = b""
            if chunk:
                return {"type": "http.request", "body": b"", "more_body": False}
            return {"type": "http.disconnect"}

        async def send(message):
            if message["type"] == "http.response.start":
                state["status"] = message["status"]
                state["headers"] = list(message.get("headers") or [])
                state["started"] = True
                return
            if message["type"] != "http.response.body":  # pragma: no cover
                return
            chunk = message.get("body", b"")
            more = bool(message.get("more_body"))
            if not state["sent_body"] and not state["streaming"]:
                if more:
                    # first chunk of a stream: close-delimited framing
                    state["streaming"] = True
                    await self._write_head(
                        writer, state["status"], state["headers"], None
                    )
                    state["sent_body"] = True
                    if chunk:
                        writer.write(chunk)
                        await writer.drain()
                    return
                # single-shot response: framed with Content-Length
                await self._write_head(
                    writer, state["status"], state["headers"], len(chunk)
                )
                if chunk:
                    writer.write(chunk)
                await writer.drain()
                state["sent_body"] = True
                return
            if chunk:
                writer.write(chunk)
                await writer.drain()

        await self.app(scope, receive, send)
        if not state["sent_body"]:
            # app returned without a body (shouldn't happen): empty 500
            await self._write_head(writer, 500, [], 0)
        return keep_alive and not state["streaming"]

    async def _write_head(self, writer, status: int, headers, content_length) -> None:
        phrase = _STATUS_PHRASES.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {phrase}\r\n".encode("latin-1")]
        seen_connection = False
        for name, value in headers:
            lines.append(name + b": " + value + b"\r\n")
            if name.lower() == b"connection":
                seen_connection = True
        if content_length is not None:
            lines.append(f"content-length: {content_length}\r\n".encode("ascii"))
        elif not seen_connection:
            lines.append(b"connection: close\r\n")
        lines.append(b"\r\n")
        writer.write(b"".join(lines))
        await writer.drain()

    async def _raw_response(self, writer, status: int, body: bytes) -> None:
        await self._write_head(
            writer, status,
            [(b"content-type", b"application/json")],
            len(body),
        )
        writer.write(body)
        await writer.drain()


def serve_asgi(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
    cors_origins=None,
) -> AsgiHTTPServer:
    """Bind an :class:`AsgiHTTPServer` (port ``0`` = ephemeral).

    The server is returned bound but not serving; call
    ``serve_forever()`` (blocking) or drive it from a thread — the tests
    and :func:`repro.cli.main` do both.  ``cors_origins`` enables CORS
    for browser clients (see :func:`create_app`).
    """
    return AsgiHTTPServer((host, port), service, verbose=verbose, cors_origins=cors_origins)
