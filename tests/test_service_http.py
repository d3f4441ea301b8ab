"""Tests for the HTTP front end of the encoding service.

Boots a real :class:`~repro.service.asgi.AsgiHTTPServer` on an
ephemeral port with an in-process worker pool and exercises the ``/v1``
JSON API with ``urllib`` — the same path a curl user takes.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import serve
from repro.service import EncodingService
from repro.bench_stg.library import load_benchmark
from repro.stg.writer import stg_to_g_text


@pytest.fixture
def service_server(tmp_path):
    """An EncodingService + bound HTTP server on an ephemeral port."""
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


def _await_done(base, job_id, timeout=120.0):
    """Poll the job endpoint until it reports done (the store write that
    unblocks ``service.wait`` precedes the queue status update)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = _request(base, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if job["status"] == "done":
            return job
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} never reported done")


def _request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz_reports_version(service_server):
    _, base = service_server
    status, body = _request(base, "GET", "/v1/healthz")
    from repro import __version__

    assert status == 200
    assert body == {"ok": True, "version": __version__, "api": "v1"}


def test_submit_g_body_then_duplicate_hits_store(service_server):
    service, base = service_server
    g_text = stg_to_g_text(load_benchmark("vme2int"))

    status, first = _request(base, "POST", "/v1/jobs", {"g": g_text})
    assert status == 202
    assert first["status"] == "pending" and first["job_id"]

    payload = service.wait(first["fingerprint"], timeout=120.0)

    # the duplicate answers instantly with 200 and the embedded result
    status, second = _request(base, "POST", "/v1/jobs", {"g": g_text})
    assert status == 200
    assert second["cached"] is True
    assert second["result"] == payload

    # and the job endpoint shows the finished job with its result
    job = _await_done(base, first["job_id"])
    assert job["result"] == payload
    assert job["result_evicted"] is False


def test_submit_benchmark_and_fetch_result_by_fingerprint(service_server):
    service, base = service_server
    status, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 202
    service.wait(outcome["fingerprint"], timeout=120.0)

    status, result = _request(base, "GET", f"/v1/results/{outcome['fingerprint']}")
    assert status == 200
    assert result["name"] == "nak-pa"
    assert result["fingerprint"] == outcome["fingerprint"]
    assert result["status"] == "ok"


def test_stats_endpoint_counts_queue_and_store(service_server):
    service, base = service_server
    status, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 202
    _await_done(base, outcome["job_id"])
    _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})  # store hit

    status, stats = _request(base, "GET", "/v1/stats")
    assert status == 200
    assert stats["queue"]["depth"] == 0
    assert stats["queue"]["by_status"]["done"] == 1
    assert stats["store"]["hits"] >= 1
    assert "utilisation" in stats["workers"]


def test_settings_influence_fingerprint(service_server):
    _, base = service_server
    g_text = stg_to_g_text(load_benchmark("vme2int"))
    _, narrow = _request(
        base, "POST", "/v1/jobs", {"g": g_text, "settings": {"search": {"frontier_width": 2}}}
    )
    _, wide = _request(
        base, "POST", "/v1/jobs", {"g": g_text, "settings": {"search": {"frontier_width": 16}}}
    )
    assert narrow["fingerprint"] != wide["fingerprint"]


def test_engine_is_fingerprint_relevant(service_server):
    _, base = service_server
    g_text = stg_to_g_text(load_benchmark("vme2int"))
    _, explicit = _request(base, "POST", "/v1/jobs", {"g": g_text})
    _, symbolic = _request(base, "POST", "/v1/jobs", {"g": g_text, "engine": "symbolic"})
    _, via_settings = _request(
        base, "POST", "/v1/jobs", {"g": g_text, "settings": {"engine": "symbolic"}}
    )
    assert explicit["fingerprint"] != symbolic["fingerprint"]
    # top-level "engine" and settings.engine are the same request
    assert symbolic["fingerprint"] == via_settings["fingerprint"]


def test_symbolic_job_roundtrip_and_per_engine_stats(service_server):
    service, base = service_server
    # par16 is infeasible explicitly (131074 states); the symbolic engine
    # answers with a census + CSC verdict.
    status, outcome = _request(
        base, "POST", "/v1/jobs", {"benchmark": "par16", "table": "table1", "engine": "symbolic"}
    )
    assert status == 202
    result = service.wait(outcome["fingerprint"], timeout=120.0)
    assert result["engine"] == "symbolic"
    assert result["table_row"]["states"] == 131074
    assert result["summary"]["engine_mode"] == "symbolic-only"
    assert result["summary"]["csc_holds"] is False
    assert result["census"]["states"] == 131074

    status, stats = _request(base, "GET", "/v1/stats")
    assert status == 200
    assert stats["queue"]["by_engine"].get("symbolic", 0) >= 1


def test_unknown_engine_is_a_400(service_server):
    _, base = service_server
    status, payload = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa", "engine": "quantum"}
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "engine" in payload["error"]["message"]


@pytest.mark.parametrize(
    "method, path, body, expected",
    [
        ("GET", "/nope", None, 404),
        ("POST", "/nope", {}, 404),
        ("GET", "/jobs/doesnotexist", None, 404),
        ("GET", "/results/deadbeef", None, 404),
        ("POST", "/jobs", {}, 400),  # neither g nor benchmark
        ("POST", "/jobs", {"g": "x", "benchmark": "y"}, 400),  # both
        ("POST", "/jobs", {"g": ".model broken\n.inputs a\n"}, 400),  # unparsable
        ("POST", "/jobs", {"benchmark": "no-such-benchmark"}, 400),
        ("POST", "/jobs", {"benchmark": "nak-pa", "max_states": "lots"}, 400),
        ("POST", "/jobs", {"benchmark": "nak-pa", "settings": 7}, 400),
        ("POST", "/jobs", {"benchmark": "nak-pa", "settings": {"search": "hello"}}, 400),
    ],
)
def test_error_statuses(service_server, method, path, body, expected):
    _, base = service_server
    status, payload = _request(base, method, "/v1" + path, body)
    assert status == expected
    assert payload["error"]["code"] == {400: "bad_request", 404: "not_found"}[expected]
    assert payload["error"]["message"]


def test_malformed_json_body_is_a_400(service_server):
    _, base = service_server
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=b"this is not json",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


@pytest.mark.parametrize("width", [2, 0, 5000])
def test_old_client_search_jobs_is_ignored_and_dedupes(service_server, width):
    """A client that still sends the removed in-solve sharding width is
    accepted: the key is ignored like any unknown settings key, so the
    request dedupes to the fingerprint of the same request without it."""
    service, base = service_server
    g_text = stg_to_g_text(load_benchmark("vme2int"))

    status, plain = _request(base, "POST", "/v1/jobs", {"g": g_text})
    assert status == 202
    status, old = _request(
        base, "POST", "/v1/jobs", {"g": g_text, "settings": {"search_jobs": width}}
    )
    assert status in (200, 202)  # a store hit, or coalesced onto the first job
    assert old["fingerprint"] == plain["fingerprint"]
    if not old["cached"]:
        assert old["job_id"] == plain["job_id"]
    job = _await_done(base, plain["job_id"])
    assert "search_jobs" not in service.job(job["id"]).request


@pytest.mark.parametrize(
    "command, ready",
    [(["serve", "--port", "0"], "listening on"), (["worker"], "draining")],
    ids=["serve", "worker"],
)
def test_sigterm_stops_every_process_of_the_service(tmp_path, command, ready):
    """SIGTERM takes the SIGINT path: the process closes its service and
    exits 0, leaving no pool worker, forkserver or resource tracker
    behind in its process group."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *command, "--jobs", "2"]
        + ["--store", str(tmp_path / "svc.db")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    pgid = process.pid
    try:
        for line in process.stdout:
            if ready in line:
                break
        else:
            pytest.fail(f"pyetrify {command[0]} exited before it was ready")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 0
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "processes left in the service's group"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        process.wait(timeout=10)
        process.stdout.close()
