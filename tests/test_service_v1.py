"""Tests for the versioned ``/v1`` API of the ASGI service front.

Boots the real asyncio server (:mod:`repro.service.asgi`) on an
ephemeral port and exercises every ``/v1`` route with ``urllib`` —
asserting the uniform error envelope ``{"error": {"code", "message",
"detail"}}`` on every error path (unversioned paths included) and the
SSE and long-poll event feeds.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import connect, serve
from repro.bench_stg.library import load_benchmark
from repro.service import EncodingService, FingerprintMismatch
from repro.service.client import ServiceError
from repro.stg.writer import stg_to_g_text


@pytest.fixture
def service_server(tmp_path):
    service = EncodingService(str(tmp_path / "svc.db"), jobs=1)
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _request(base, method, path, body=None, headers=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _assert_envelope(payload, code):
    """Every /v1 error is the uniform envelope with this code."""
    assert set(payload) == {"error"}
    envelope = payload["error"]
    assert set(envelope) == {"code", "message", "detail"}
    assert envelope["code"] == code
    assert isinstance(envelope["message"], str) and envelope["message"]


# ----------------------------------------------------------------------
# success paths
# ----------------------------------------------------------------------
def test_v1_healthz_and_stats(service_server):
    from repro import __version__

    _, base = service_server
    status, _, body = _request(base, "GET", "/v1/healthz")
    assert status == 200
    assert body == {"ok": True, "version": __version__, "api": "v1"}

    status, _, stats = _request(base, "GET", "/v1/stats")
    assert status == 200
    assert stats["api"] == "v1"
    assert stats["backend"]["scheme"] == "sqlite"
    assert stats["tenancy"] == {"open_mode": True, "tenants": 0}
    assert stats["queue"]["max_backlog"] is None


def test_v1_submit_wait_and_fetch_result(service_server):
    service, base = service_server
    status, _, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 202
    assert outcome["status"] == "pending" and outcome["job_id"]

    payload = service.wait(outcome["fingerprint"], timeout=120)
    assert payload["summary"]["solved"] is True

    status, _, result = _request(base, "GET", f"/v1/results/{outcome['fingerprint']}")
    assert status == 200
    assert result["summary"]["solved"] is True

    status, _, job = _request(base, "GET", f"/v1/jobs/{outcome['job_id']}")
    assert status == 200
    assert job["status"] == "done"
    assert job["result"]["fingerprint"] == outcome["fingerprint"]
    assert job["result_evicted"] is False
    assert job["claimed_by"]  # the pool names itself host:pid

    status, _, second = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 200
    assert second["cached"] is True


# ----------------------------------------------------------------------
# the error envelope, on every /v1 error path
# ----------------------------------------------------------------------
def test_v1_400_bad_request_envelope(service_server):
    _, base = service_server
    for body in (
        {},  # neither g nor benchmark
        {"g": "x", "benchmark": "nak-pa"},  # both
        {"g": 42},
        {"g": "not a .g file"},
        {"benchmark": "no-such-benchmark"},
        {"benchmark": "nak-pa", "settings": "hello"},
        {"benchmark": "nak-pa", "settings": {"search": "hello"}},
        {"benchmark": "nak-pa", "max_states": "many"},
        {"benchmark": "nak-pa", "engine": 3},
        {"benchmark": "nak-pa", "engine": "bogus"},
        {"benchmark": "nak-pa", "settings": {"search_jobs": 0}},
        {"benchmark": "nak-pa", "fingerprint": 12},
    ):
        status, _, payload = _request(base, "POST", "/v1/jobs", body)
        assert status == 400, body
        _assert_envelope(payload, "bad_request")

    # malformed JSON body
    request = urllib.request.Request(
        base + "/v1/jobs", data=b"{not json", method="POST"
    )
    try:
        urllib.request.urlopen(request, timeout=30)
        raise AssertionError("expected a 400")
    except urllib.error.HTTPError as error:
        assert error.code == 400
        _assert_envelope(json.loads(error.read()), "bad_request")


def test_v1_404_envelope(service_server):
    _, base = service_server
    for path in ("/v1/jobs/nope", "/v1/results/nope", "/v1/no-such-route"):
        status, _, payload = _request(base, "GET", path)
        assert status == 404, path
        _assert_envelope(payload, "not_found")


def test_v1_409_fingerprint_mismatch_envelope(service_server):
    _, base = service_server
    status, _, payload = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa", "fingerprint": "deadbeef"}
    )
    assert status == 409
    _assert_envelope(payload, "conflict")
    assert payload["error"]["detail"]["asserted"] == "deadbeef"
    assert payload["error"]["detail"]["computed"]


def test_facade_raises_fingerprint_mismatch(tmp_path):
    with EncodingService(str(tmp_path / "svc.db"), autostart=False) as service:
        with pytest.raises(FingerprintMismatch) as excinfo:
            service.submit_benchmark("nak-pa", expected_fingerprint="deadbeef")
        assert excinfo.value.detail["asserted"] == "deadbeef"


def test_v1_503_backlog_full_envelope(tmp_path):
    service = EncodingService(str(tmp_path / "svc.db"), autostart=False, max_backlog=1)
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        status, _, first = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
        assert status == 202  # workers are off: stays pending
        status, headers, payload = _request(
            base, "POST", "/v1/jobs", {"benchmark": "mux2"}
        )
        assert status == 503
        _assert_envelope(payload, "unavailable")
        assert int(headers["Retry-After"]) >= 1
        # the same fingerprint coalesces before the backlog check: a
        # duplicate of the queued job is not an overload
        status, _, dup = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
        assert status == 202 and dup["job_id"] == first["job_id"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()


# ----------------------------------------------------------------------
# event feeds: long-poll and SSE
# ----------------------------------------------------------------------
def test_v1_long_poll_event_feed(service_server):
    _, base = service_server
    status, _, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 202
    job_id = outcome["job_id"]

    seen = []
    after = 0
    for _ in range(100):
        status, _, page = _request(
            base, "GET", f"/v1/jobs/{job_id}/events?wait=30&after={after}"
        )
        assert status == 200
        seen.extend(event["event"] for event in page["events"])
        after = page["next_after"]
        if page["final"]:
            break
    assert seen[0] == "pending"
    assert seen[-1] == "done"
    assert "running" in seen
    # cursor semantics: re-reading from 0 replays the whole feed
    status, _, replay = _request(base, "GET", f"/v1/jobs/{job_id}/events?wait=0")
    assert [event["event"] for event in replay["events"]] == seen
    # an expired wait on a final feed returns no events and final=False
    status, _, empty = _request(
        base, "GET", f"/v1/jobs/{job_id}/events?wait=0&after={after}"
    )
    assert empty["events"] == [] and empty["final"] is False


def test_v1_sse_stream(service_server):
    _, base = service_server
    status, _, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": "mux2"})
    assert status == 202
    request = urllib.request.Request(
        base + f"/v1/jobs/{outcome['job_id']}/events",
        headers={"Accept": "text/event-stream"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.headers["Content-Type"].startswith("text/event-stream")
        raw = response.read()  # server closes the stream on the final event
    frames = [frame for frame in raw.decode("utf-8").split("\n\n") if frame.strip()]
    events = []
    for frame in frames:
        lines = dict(
            line.split(": ", 1) for line in frame.splitlines() if ": " in line
        )
        if "event" in lines:
            events.append((int(lines["id"]), lines["event"], json.loads(lines["data"])))
    assert events[0][1] == "pending"
    assert events[-1][1] == "done"
    # ids are the queue sequence numbers, strictly increasing
    ids = [event[0] for event in events]
    assert ids == sorted(ids)
    # Last-Event-ID resumption: everything after the first event replays
    request = urllib.request.Request(
        base + f"/v1/jobs/{outcome['job_id']}/events",
        headers={"Accept": "text/event-stream", "Last-Event-ID": str(ids[0])},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        resumed = response.read().decode("utf-8")
    assert f"id: {ids[0]}\n" not in resumed
    assert "event: done" in resumed


def test_v1_events_404_before_streaming(service_server):
    _, base = service_server
    status, _, payload = _request(base, "GET", "/v1/jobs/nope/events?wait=0")
    assert status == 404
    _assert_envelope(payload, "not_found")


# ----------------------------------------------------------------------
# unversioned paths and old clients
# ----------------------------------------------------------------------
def test_unversioned_paths_are_a_v1_404(service_server):
    _, base = service_server
    for method, path, body in (
        ("GET", "/healthz", None),
        ("GET", "/stats", None),
        ("POST", "/jobs", {"benchmark": "nak-pa"}),
        ("GET", "/jobs/nope", None),
        ("GET", "/jobs/nope/events", None),
        ("GET", "/results/deadbeef", None),
    ):
        status, headers, payload = _request(base, method, path, body)
        assert status == 404, path
        _assert_envelope(payload, "not_found")
        assert "/v1" in payload["error"]["message"]
        assert "Deprecation" not in headers


def test_old_clients_sending_core_budget_are_accepted(service_server):
    """``core_budget`` is no longer a setting; a request that still
    carries it is the same request as one without it."""
    service, base = service_server
    g_text = stg_to_g_text(load_benchmark("vme2int"))
    status, _, budgeted = _request(
        base,
        "POST",
        "/v1/jobs",
        {"g": g_text, "engine": "symbolic", "settings": {"core_budget": 4}},
    )
    assert status == 202
    result = service.wait(budgeted["fingerprint"], timeout=120.0)
    assert result["summary"]["engine_mode"] == "hybrid"
    status, _, plain = _request(
        base, "POST", "/v1/jobs", {"g": g_text, "engine": "symbolic"}
    )
    assert status == 200 and plain["cached"] is True
    assert plain["fingerprint"] == budgeted["fingerprint"]


# ----------------------------------------------------------------------
# the client and the api module surface
# ----------------------------------------------------------------------
def test_service_client_end_to_end(service_server):
    _, base = service_server
    client = connect(base)
    assert client.healthz()["ok"] is True
    outcome = client.submit_benchmark("nak-pa")
    payload = client.wait(outcome, timeout=120)
    assert payload["summary"]["solved"] is True
    # cached now: wait() returns the embedded result without a job
    cached = client.submit_benchmark("nak-pa")
    assert cached["cached"] is True
    assert client.wait(cached)["fingerprint"] == outcome["fingerprint"]
    # raw .g submission with a pinned fingerprint round-trips
    g_text = stg_to_g_text(load_benchmark("nak-pa"))
    with pytest.raises(ServiceError) as excinfo:
        client.submit(g_text, fingerprint="deadbeef")
    assert excinfo.value.status == 409
    assert excinfo.value.code == "conflict"


def test_api_module_surface():
    import repro.api as api

    assert "serve" in api.__all__ and "connect" in api.__all__
    assert callable(api.serve) and callable(api.connect)
    with pytest.raises(AttributeError):
        api.no_such_attribute


def test_backend_url_round_trip(tmp_path):
    from repro.service.backend import open_backend

    path = str(tmp_path / "svc.db")
    backend = open_backend(f"sqlite:///{path.lstrip('/')}")
    assert backend.path == path.lstrip("/")
    absolute = open_backend(f"sqlite:////{path.lstrip('/')}")
    assert absolute.path == path
    assert open_backend(path).path == path
    with pytest.raises(ValueError, match="unknown backend scheme"):
        open_backend("redis://localhost:6379/0")
    # a service boots from a URL too
    with EncodingService(f"sqlite:////{path.lstrip('/')}", autostart=False) as service:
        assert service.backend.describe() == {"scheme": "sqlite", "path": path}


# ----------------------------------------------------------------------
# CORS (browser clients)
# ----------------------------------------------------------------------
@pytest.fixture
def cors_server(tmp_path):
    """A server allowing cross-origin requests from one exact origin."""
    service = EncodingService(str(tmp_path / "svc.db"), jobs=1)
    server = serve(service, port=0, cors_origins=["http://app.example"])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _raw_request(base, method, path, headers=None):
    """Status + headers of a response whose body may be empty (OPTIONS).

    Returns the case-insensitive header mapping (the ASGI app emits its
    own headers lowercase, per-request extras in canonical case).
    """
    request = urllib.request.Request(base + path, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.headers
    except urllib.error.HTTPError as error:
        error.read()
        return error.code, error.headers


def test_cors_disabled_by_default(service_server):
    _, base = service_server
    status, headers, _ = _request(
        base, "GET", "/v1/healthz", headers={"Origin": "http://app.example"}
    )
    assert status == 200
    assert "Access-Control-Allow-Origin" not in headers
    # preflight still answers (plain capability probe), without CORS grants
    status, headers = _raw_request(
        base, "OPTIONS", "/v1/jobs", headers={"Origin": "http://app.example"}
    )
    assert status == 204
    assert headers["Allow"] == "GET, POST, OPTIONS"
    assert "Access-Control-Allow-Methods" not in headers


def test_cors_allowed_origin_echoed(cors_server):
    _, base = cors_server
    status, headers, _ = _request(
        base, "GET", "/v1/healthz", headers={"Origin": "http://app.example"}
    )
    assert status == 200
    assert headers["Access-Control-Allow-Origin"] == "http://app.example"
    assert headers["Vary"] == "Origin"
    assert headers["Access-Control-Expose-Headers"] == "X-Request-Id"


def test_cors_headers_ride_on_error_responses(cors_server):
    _, base = cors_server
    status, headers, payload = _request(
        base, "GET", "/v1/results/deadbeef", headers={"Origin": "http://app.example"}
    )
    assert status == 404
    _assert_envelope(payload, "not_found")
    assert headers["Access-Control-Allow-Origin"] == "http://app.example"


def test_cors_disallowed_origin_gets_no_headers(cors_server):
    _, base = cors_server
    status, headers, _ = _request(
        base, "GET", "/v1/healthz", headers={"Origin": "http://evil.example"}
    )
    assert status == 200
    assert "Access-Control-Allow-Origin" not in headers


def test_cors_preflight(cors_server):
    _, base = cors_server
    status, headers = _raw_request(
        base,
        "OPTIONS",
        "/v1/jobs",
        headers={
            "Origin": "http://app.example",
            "Access-Control-Request-Method": "POST",
            "Access-Control-Request-Headers": "Authorization, Content-Type",
        },
    )
    assert status == 204
    assert headers["Access-Control-Allow-Origin"] == "http://app.example"
    assert headers["Access-Control-Allow-Methods"] == "GET, POST, OPTIONS"
    assert "Authorization" in headers["Access-Control-Allow-Headers"]
    assert headers["Access-Control-Max-Age"] == "600"


def test_cors_wildcard_origin(tmp_path):
    service = EncodingService(str(tmp_path / "svc.db"), jobs=1, autostart=False)
    server = serve(service, port=0, cors_origins=["*"])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.port}"
        _, headers, _ = _request(
            base, "GET", "/v1/healthz", headers={"Origin": "http://anywhere.example"}
        )
        assert headers["Access-Control-Allow-Origin"] == "*"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


# ----------------------------------------------------------------------
# synth jobs
# ----------------------------------------------------------------------
def test_v1_synth_job_end_to_end(service_server):
    service, base = service_server
    status, _, outcome = _request(
        base, "POST", "/v1/jobs", {"benchmark": "vme2int", "synth": True}
    )
    assert status == 202
    payload = service.wait(outcome["fingerprint"], timeout=120)
    assert payload["summary"]["solved"] is True
    synth = payload["synth"]
    assert synth["status"] == "ok"
    assert synth["verified"] is True
    assert synth["summary"]["literals"] > 0
    assert "module" in synth["verilog"] and ".model" in synth["blif"]

    # same case without synth is a distinct fingerprint (different job)
    status, _, plain = _request(base, "POST", "/v1/jobs", {"benchmark": "vme2int"})
    assert status == 202
    assert plain["fingerprint"] != outcome["fingerprint"]


def test_v1_synth_field_must_be_bool(service_server):
    _, base = service_server
    status, _, payload = _request(
        base, "POST", "/v1/jobs", {"benchmark": "vme2int", "synth": "yes"}
    )
    assert status == 400
    _assert_envelope(payload, "bad_request")


def test_client_submits_synth_jobs(service_server):
    _, base = service_server
    client = connect(base)
    outcome = client.submit_benchmark("vme2int", synth=True)
    payload = client.wait(outcome, timeout=120)
    assert payload["synth"]["verified"] is True
