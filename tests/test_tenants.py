"""Tests for multi-tenancy and multi-process service deployments.

Covers the tenant registry (keys, quotas, token buckets, accounting),
the HTTP enforcement paths (401 / 403 / 429 with ``Retry-After``), the
isolation of per-tenant state, and the distributed deployment shape:
independent worker processes (``pyetrify worker``) draining one shared
backend while the front only serves the API, plus cross-process result
store accounting.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import serve
from repro.service import EncodingService
from repro.service.store import ResultStore
from repro.service.tenants import ANONYMOUS, Tenant, TenantRegistry


# ----------------------------------------------------------------------
# registry unit behaviour
# ----------------------------------------------------------------------
def test_registry_open_mode_then_auth_mode(tmp_path):
    registry = TenantRegistry(str(tmp_path / "svc.db"))
    assert registry.open_mode
    anon = registry.authenticate(None)
    assert anon is not None and anon.anonymous and anon.name == ANONYMOUS
    assert registry.authenticate("pk_whatever").anonymous  # open mode: any key

    created = registry.provision("alice", quota_active_jobs=3)
    key = created["api_key"]
    assert key.startswith("pk_") and len(key) == 3 + 64
    assert key not in json.dumps(created["tenant"])  # only the hash is stored

    assert not registry.open_mode
    assert registry.authenticate(None) is None
    assert registry.authenticate("pk_wrong") is None
    alice = registry.authenticate(key)
    assert alice.name == "alice" and alice.quota_active_jobs == 3 and not alice.admin
    registry.close()


def test_registry_key_survives_reopen_and_revoke(tmp_path):
    path = str(tmp_path / "svc.db")
    with TenantRegistry(path) as registry:
        key = registry.provision("alice")["api_key"]
    with TenantRegistry(path) as reopened:
        assert reopened.authenticate(key).name == "alice"
        assert reopened.revoke("alice") is True
        assert reopened.revoke("alice") is False
        assert reopened.open_mode


def test_registry_duplicate_name_raises(tmp_path):
    with TenantRegistry(str(tmp_path / "svc.db")) as registry:
        registry.provision("alice")
        with pytest.raises(KeyError, match="already exists"):
            registry.provision("alice")


def test_token_bucket_refills_continuously(tmp_path):
    with TenantRegistry(str(tmp_path / "svc.db")) as registry:
        fast = Tenant(id="t1", name="fast", rate_per_second=1000.0, burst=2)
        assert registry.spend_token(fast).allowed
        assert registry.spend_token(fast).allowed
        # bucket drained; at 1000/s the next token is ~1ms away
        decision = registry.spend_token(fast)
        if not decision.allowed:
            assert 0 < decision.retry_after <= 0.1
            time.sleep(decision.retry_after)
            assert registry.spend_token(fast).allowed
        # unlimited tenants never throttle
        free = Tenant(id="t2", name="free")
        assert all(registry.spend_token(free).allowed for _ in range(100))
        # anonymous traffic is never rate limited
        anon = Tenant(id=None, name=ANONYMOUS, rate_per_second=1.0)
        assert all(registry.spend_token(anon).allowed for _ in range(10))


def test_per_tenant_counters_accumulate(tmp_path):
    with TenantRegistry(str(tmp_path / "svc.db")) as registry:
        alice = Tenant(id="t1", name="alice")
        bob = Tenant(id="t2", name="bob")
        registry.record(alice, "submitted")
        registry.record(alice, "submitted")
        registry.record(bob, "cache_hits", delta=5)
        assert registry.counters_for(alice) == {"submitted": 2}
        assert registry.counters() == {
            "alice": {"submitted": 2},
            "bob": {"cache_hits": 5},
        }


# ----------------------------------------------------------------------
# HTTP enforcement
# ----------------------------------------------------------------------
@pytest.fixture
def auth_server(tmp_path):
    """A served EncodingService with admin/limited/plain tenants provisioned."""
    service = EncodingService(str(tmp_path / "svc.db"), jobs=1)
    keys = {
        "admin": service.tenants.provision("root", admin=True)["api_key"],
        "quota1": service.tenants.provision("quota1", quota_active_jobs=1)["api_key"],
        "slow": service.tenants.provision(
            "slow", rate_per_second=0.5, burst=1
        )["api_key"],
        "plain": service.tenants.provision("plain")["api_key"],
    }
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{server.port}", keys
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _request(base, method, path, body=None, key=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    request = urllib.request.Request(base + path, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def test_missing_or_bad_key_is_401(auth_server):
    _, base, keys = auth_server
    for key in (None, "pk_wrong"):
        status, headers, payload = _request(base, "GET", "/v1/stats", key=key)
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"
        assert "Bearer" in headers["WWW-Authenticate"]
    # healthz stays open for liveness probes
    status, _, _ = _request(base, "GET", "/v1/healthz")
    assert status == 200
    # submission enforces auth too, with the same envelope
    status, _, payload = _request(base, "POST", "/v1/jobs", {"benchmark": "nak-pa"})
    assert status == 401 and payload["error"]["code"] == "unauthorized"
    # X-API-Key works as an alternative to the Authorization header
    request = urllib.request.Request(
        base + "/v1/stats", headers={"X-API-Key": keys["plain"]}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200


def test_quota_exhaustion_is_429_with_retry_after(auth_server):
    _, base, keys = auth_server
    status, _, first = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa"}, key=keys["quota1"]
    )
    assert status == 202
    status, headers, payload = _request(
        base, "POST", "/v1/jobs", {"benchmark": "mux2"}, key=keys["quota1"]
    )
    assert status == 429
    assert payload["error"]["code"] == "rate_limited"
    assert int(headers["Retry-After"]) >= 1
    # a duplicate of the tenant's own active job coalesces: no new load,
    # so the quota does not reject it
    status, _, dup = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa"}, key=keys["quota1"]
    )
    assert status == 202 and dup["job_id"] == first["job_id"]


def test_rate_limit_is_429_with_retry_after(auth_server):
    _, base, keys = auth_server
    # burst 1 at 0.5/s: the first submission spends the only token
    status, _, _ = _request(
        base, "POST", "/v1/jobs", {"benchmark": "mux2"}, key=keys["slow"]
    )
    assert status in (200, 202)
    status, headers, payload = _request(
        base, "POST", "/v1/jobs", {"benchmark": "seq8"}, key=keys["slow"]
    )
    assert status == 429
    assert payload["error"]["code"] == "rate_limited"
    assert payload["error"]["detail"]["retry_after"] > 0
    assert int(headers["Retry-After"]) >= 1
    # GETs are not throttled — only submissions spend tokens
    status, _, _ = _request(base, "GET", "/v1/stats", key=keys["slow"])
    assert status == 200


def test_admin_surface_requires_admin_key(auth_server):
    _, base, keys = auth_server
    for path in ("/v1/admin/stats", "/v1/admin/tenants"):
        status, _, payload = _request(base, "GET", path, key=keys["plain"])
        assert status == 403
        assert payload["error"]["code"] == "forbidden"
        status, _, _ = _request(base, "GET", path, key=keys["admin"])
        assert status == 200
    # provisioning over HTTP: admin only, 409 on duplicates
    status, _, created = _request(
        base, "POST", "/v1/admin/tenants", {"name": "eve", "rate_per_second": 2},
        key=keys["admin"],
    )
    assert status == 201 and created["api_key"].startswith("pk_")
    status, _, payload = _request(
        base, "POST", "/v1/admin/tenants", {"name": "eve"}, key=keys["admin"]
    )
    assert status == 409 and payload["error"]["code"] == "conflict"
    status, _, payload = _request(
        base, "POST", "/v1/admin/tenants", {"name": ""}, key=keys["admin"]
    )
    assert status == 400 and payload["error"]["code"] == "bad_request"


def test_per_tenant_isolation_of_jobs_and_stats(auth_server):
    _, base, keys = auth_server
    status, _, outcome = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa"}, key=keys["plain"]
    )
    assert status == 202
    job_id = outcome["job_id"]
    # another tenant cannot see the job — not even its existence
    status, _, payload = _request(base, "GET", f"/v1/jobs/{job_id}", key=keys["slow"])
    assert status == 404 and payload["error"]["code"] == "not_found"
    status, _, _ = _request(
        base, "GET", f"/v1/jobs/{job_id}/events?wait=0", key=keys["slow"]
    )
    assert status == 404
    # the owner and the admin can
    for key in (keys["plain"], keys["admin"]):
        status, _, job = _request(base, "GET", f"/v1/jobs/{job_id}", key=key)
        assert status == 200 and job["tenant"] == "plain"
    # /v1/tenants/me shows only the caller's accounting
    status, _, me = _request(base, "GET", "/v1/tenants/me", key=keys["plain"])
    assert me["tenant"]["name"] == "plain"
    assert me["counters"].get("submitted", 0) >= 1
    status, _, other = _request(base, "GET", "/v1/tenants/me", key=keys["slow"])
    assert "submitted" not in other["counters"] or other["counters"]["submitted"] == 0
    # admin stats aggregate per tenant
    status, _, admin_stats = _request(base, "GET", "/v1/admin/stats", key=keys["admin"])
    assert "plain" in admin_stats["jobs_by_tenant"]
    assert admin_stats["counters_by_tenant"]["plain"]["submitted"] >= 1


def test_identical_requests_of_two_tenants_do_not_share_a_job(auth_server):
    _, base, keys = auth_server
    status, _, first = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa"}, key=keys["plain"]
    )
    status, _, second = _request(
        base, "POST", "/v1/jobs", {"benchmark": "nak-pa"}, key=keys["admin"]
    )
    if not second["cached"]:
        # queued before plain's run landed: distinct, tenant-owned jobs
        assert second["job_id"] != first["job_id"]
    # both converge on one content-addressed result
    assert second["fingerprint"] == first["fingerprint"]


# ----------------------------------------------------------------------
# multi-process deployments
# ----------------------------------------------------------------------
def _worker_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_two_worker_processes_share_one_store(tmp_path):
    """End to end: a --no-workers front + two ``pyetrify worker`` processes.

    The front only accepts jobs; two independent OS processes drain the
    shared sqlite queue.  Every job must complete exactly once (no
    double-claims), results land in the shared store, and the claimed_by
    stamps prove external processes ran them.
    """
    db = str(tmp_path / "svc.db")
    service = EncodingService(db, autostart=False)
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--store", db],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        for _ in range(2)
    ]
    try:
        outcomes = []
        for name in ("nak-pa", "mux2", "seq8", "mod4-counter"):
            status, _, outcome = _request(base, "POST", "/v1/jobs", {"benchmark": name})
            assert status == 202
            outcomes.append(outcome)
        payloads = [service.wait(o["fingerprint"], timeout=180) for o in outcomes]
        assert all(p["summary"] is not None for p in payloads)
        # the front's own pool never ran anything
        assert service.pool.jobs_done == 0 and not service.pool.running
        claimed = {service.job(o["job_id"]).claimed_by for o in outcomes}
        worker_names = {f"{os.uname().nodename}:{p.pid}" for p in workers}
        assert claimed and claimed <= worker_names
        # each job ran exactly once (attempts == 1, status done)
        for outcome in outcomes:
            job = service.job(outcome["job_id"])
            assert job.status == "done" and job.attempts == 1
    finally:
        for process in workers:
            process.terminate()
        for process in workers:
            process.wait(timeout=30)
        server.shutdown()
        server.server_close()
        service.close()


def test_store_accounting_across_connections(tmp_path):
    """Two connections (= two processes) on one store: no double-insert,
    shared counters aggregate, per-process counters stay process-local."""
    path = str(tmp_path / "store.db")
    a = ResultStore(path)
    b = ResultStore(path)
    try:
        a.put("fp1", "case", {"value": 1})
        b.put("fp1", "case", {"value": 2})  # same fingerprint: upsert, not insert
        assert len(a) == 1 and len(b) == 1
        assert a.get("fp1") == {"value": 2}
        assert b.get("fp1") == {"value": 2}
        assert b.get("missing") is None
        # per-connection (process-lifetime) counters are independent ...
        assert (a.hits, a.misses) == (1, 0)
        assert (b.hits, b.misses) == (1, 1)
        # ... while the shared table aggregates both sides
        shared = a.shared_counters()
        assert shared["hits"] == 2 and shared["misses"] == 1
        # peek touches no accounting anywhere
        before = (a.hits, a.misses, a.shared_counters())
        assert b.peek("fp1") == {"value": 2}
        assert (a.hits, a.misses, a.shared_counters()) == before
    finally:
        a.close()
        b.close()


def test_store_put_from_subprocess_is_visible(tmp_path):
    """A result written by another OS process is served here (WAL mode)."""
    path = str(tmp_path / "store.db")
    with ResultStore(path) as store:
        script = (
            "from repro.service.store import ResultStore\n"
            f"s = ResultStore({path!r})\n"
            "s.put('fp-child', 'case', {'from': 'child'})\n"
            "s.close()\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], env=_worker_env(), check=True, timeout=60
        )
        assert store.get("fp-child") == {"from": "child"}
        assert store.shared_counters()["hits"] == 1


def test_lru_eviction_stays_atomic_across_connections(tmp_path):
    path = str(tmp_path / "store.db")
    a = ResultStore(path, max_entries=2)
    b = ResultStore(path, max_entries=2)
    try:
        a.put("fp1", "case", {"n": 1})
        b.put("fp2", "case", {"n": 2})
        assert a.get("fp1") == {"n": 1}  # refresh fp1's LRU position via a
        b.put("fp3", "case", {"n": 3})  # evicts fp2 (LRU seq is SQL-side)
        assert len(a) == 2
        assert a.peek("fp2") is None
        assert a.peek("fp1") == {"n": 1} and a.peek("fp3") == {"n": 3}
        assert b.evictions == 1 and a.evictions == 0
        assert a.shared_counters()["evictions"] == 1
    finally:
        a.close()
        b.close()
