"""Service benchmark: end-to-end submit→result throughput, cold vs warm.

Boots a full :class:`repro.service.EncodingService` (durable queue +
content-addressed store + worker pool) with its HTTP front end on an
ephemeral port, then measures two sweeps over the smallest library
benchmarks submitted through real HTTP requests:

* ``cold``  — empty store: every submission enqueues a job, the worker
  pool encodes it, the client polls until the result lands;
* ``warm``  — the same submissions again: every one must answer
  instantly from the store (HTTP 200, ``cached=true``).

The record written to ``BENCH_service.json`` tracks both the wall-clock
totals and the store hit rate, so regressions in either the serving path
or the dedupe logic show up in CI artifact diffs.  Runnable standalone
(``PYTHONPATH=src python benchmarks/bench_service.py``) or through
pytest (``pytest benchmarks/bench_service.py -s``).
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import threading
import time
import urllib.request

from repro.api import serve
from repro.engine.batch import select_smallest_cases, suite_cases
from repro.service import EncodingService

RECORD_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
SMALLEST = 6
JOBS = 2
POLL_INTERVAL = 0.02
WAIT_TIMEOUT = 300.0


def _post_job(base: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=60) as response:
        return json.loads(response.read())


def _await_result(base: str, job_id: str) -> dict:
    deadline = time.monotonic() + WAIT_TIMEOUT
    while time.monotonic() < deadline:
        job = _get(base, f"/v1/jobs/{job_id}")
        if job["status"] == "done":
            return job["result"]
        if job["status"] in ("failed", "timeout"):
            raise RuntimeError(f"job {job_id} finished as {job['status']}: {job['error']}")
        time.sleep(POLL_INTERVAL)
    raise TimeoutError(f"job {job_id} not done within {WAIT_TIMEOUT}s")


def _sweep(base: str, names: list, expect_cached: bool) -> dict:
    """Submit every benchmark; returns wall-clock and per-case latency."""
    per_case = []
    started = time.monotonic()
    for name in names:
        case_started = time.monotonic()
        status, outcome = _post_job(base, {"benchmark": name})
        if expect_cached:
            assert status == 200 and outcome["cached"], (
                f"warm submission of {name} missed the store (HTTP {status})"
            )
            result = outcome["result"]
        else:
            assert status == 202, f"cold submission of {name} got HTTP {status}"
            result = _await_result(base, outcome["job_id"])
        per_case.append(
            {
                "name": name,
                "seconds": round(time.monotonic() - case_started, 3),
                "solved": result["solved"],
                "cached": outcome["cached"],
            }
        )
    wall = time.monotonic() - started
    return {
        "wall_seconds": round(wall, 3),
        "jobs_per_second": round(len(names) / wall, 3) if wall > 0 else None,
        "per_case": per_case,
    }


def run_service_benchmark(record_path: pathlib.Path = RECORD_PATH) -> dict:
    """Boot the service, run the cold and warm sweeps, write the record."""
    names = [
        case.name for case in select_smallest_cases(suite_cases("table2"), SMALLEST)
    ]
    with tempfile.TemporaryDirectory(prefix="pyetrify-bench-") as tmp:
        with EncodingService(f"{tmp}/service.db", jobs=JOBS) as service:
            server = serve(service, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.port}"
            try:
                cold = _sweep(base, names, expect_cached=False)
                warm = _sweep(base, names, expect_cached=True)
                stats = _get(base, "/v1/stats")
            finally:
                server.shutdown()
                server.server_close()

    record = {
        "benchmark": "bench_service",
        "suite": "table2",
        "smallest": SMALLEST,
        "jobs": JOBS,
        "cases": names,
        "cold": cold,
        "warm": warm,
        "warm_speedup": round(cold["wall_seconds"] / warm["wall_seconds"], 3)
        if warm["wall_seconds"] > 0
        else None,
        "store": stats["store"],
        "queue": stats["queue"]["by_status"],
        "worker_utilisation": stats["workers"]["utilisation"],
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def test_service_throughput(report_sink):
    """Warm submissions must all hit the store and beat the cold sweep."""
    record = run_service_benchmark()
    report_sink.setdefault("Encoding service: cold vs warm submit→result", []).append(
        {
            "cases": len(record["cases"]),
            "cold_s": record["cold"]["wall_seconds"],
            "warm_s": record["warm"]["wall_seconds"],
            "warm_speedup": record["warm_speedup"],
            "hit_rate": record["store"]["hit_rate"],
        }
    )
    assert all(case["cached"] for case in record["warm"]["per_case"])
    assert record["queue"]["done"] == len(record["cases"])
    assert record["warm"]["wall_seconds"] < record["cold"]["wall_seconds"]


if __name__ == "__main__":
    outcome = run_service_benchmark()
    print(json.dumps(outcome, indent=2, sort_keys=True))
    ok = all(case["cached"] for case in outcome["warm"]["per_case"])
    sys.exit(0 if ok else 1)
