"""Tests for the encoding service: fingerprints, store, queue, workers.

The end-to-end tests boot :class:`repro.service.EncodingService`
in-process (``jobs=1`` — no fork) against a temporary sqlite file and
assert the acceptance criteria of the service PR: dedupe on identical
submissions, store-hit accounting, byte-for-byte identity with
``encode_stg``, and persistence across a close/reopen cycle.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import encode_many, encode_stg
from repro.bench_stg.library import get_case, load_benchmark
from repro.core.search import SearchSettings
from repro.core.solver import SolverSettings
from repro.service import (
    EncodingService,
    JobQueue,
    ResultStore,
    canonical_request,
    canonical_settings,
    request_fingerprint,
    settings_from_dict,
)
from repro.stg.parser import parse_g
from repro.stg.writer import stg_to_g_text
from repro.utils.deadline import DeadlineExceeded, check_deadline, deadline, remaining_time


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_write_parse_round_trip(self):
        stg = load_benchmark("vme2int")
        reparsed = parse_g(stg_to_g_text(stg))
        assert request_fingerprint(stg) == request_fingerprint(reparsed)

    def test_none_settings_equal_defaults(self):
        stg = load_benchmark("vme2int")
        assert request_fingerprint(stg, settings=None) == request_fingerprint(
            stg, settings=SolverSettings()
        )

    def test_verbose_is_presentation_only(self):
        stg = load_benchmark("vme2int")
        assert request_fingerprint(stg, settings=SolverSettings(verbose=True)) == (
            request_fingerprint(stg, settings=SolverSettings(verbose=False))
        )

    def test_dropped_search_jobs_key_is_fingerprint_neutral(self):
        """Settings from a client that still sends the removed in-solve
        sharding width address the same stored result as without it."""
        stg = load_benchmark("vme2int")
        assert request_fingerprint(stg, settings=settings_from_dict({"search_jobs": 4})) == (
            request_fingerprint(stg, settings=SolverSettings())
        )

    def test_sensitive_to_settings_and_bounds(self):
        stg = load_benchmark("vme2int")
        base = request_fingerprint(stg)
        assert base != request_fingerprint(
            stg, settings=SolverSettings(search=SearchSettings(frontier_width=4))
        )
        assert base != request_fingerprint(stg, max_states=1000)

    def test_sensitive_to_stg_content(self):
        assert request_fingerprint(load_benchmark("vme2int")) != request_fingerprint(
            load_benchmark("seq8")
        )

    def test_canonical_request_is_json_serialisable(self):
        stg = load_benchmark("vme2int")
        canonical = canonical_request(stg, settings=SolverSettings(), max_states=5000)
        round_tripped = json.loads(json.dumps(canonical, sort_keys=True))
        assert round_tripped["max_states"] == 5000
        assert round_tripped["stg"]["name"] == "vme2int"

    def test_settings_dict_round_trip(self):
        settings = SolverSettings(
            search=SearchSettings(frontier_width=5, allow_input_delay=True),
            max_signals=7,
        )
        rebuilt = settings_from_dict(canonical_settings(settings))
        assert canonical_settings(rebuilt) == canonical_settings(settings)

    def test_settings_from_dict_ignores_unknown_fields(self):
        rebuilt = settings_from_dict(
            {"search": {"frontier_width": 3, "not_a_knob": 1}, "bogus": True}
        )
        assert rebuilt.search.frontier_width == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"search": {"frontier_width": "wide"}},
            {"search": {"frontier_width": 8.0}},
            {"search": {"frontier_width": True}},
            {"search": {"allow_input_delay": "no"}},
            {"search": {"allow_input_delay": 0}},
            {"search": "regions"},
            {"max_signals": "many"},
            {"max_signals": None},
            {"kernel": 5},
            {"engine": ["symbolic"]},
        ],
    )
    def test_settings_from_dict_rejects_mistyped_known_fields(self, data):
        """Every known field must have its default's exact type (a bool is
        no int, a string is no bool)."""
        with pytest.raises(TypeError):
            settings_from_dict(data)


# ----------------------------------------------------------------------
# deadline utility
# ----------------------------------------------------------------------
class TestDeadline:
    def test_noop_without_deadline(self):
        check_deadline()  # must not raise
        assert remaining_time() is None

    def test_expired_deadline_raises(self):
        with deadline(0.0):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        check_deadline()  # cleared on exit

    def test_nested_deadline_only_tightens(self):
        with deadline(100.0):
            with deadline(1000.0):
                assert remaining_time() <= 100.0
            with deadline(0.0):
                time.sleep(0.001)
                with pytest.raises(DeadlineExceeded):
                    check_deadline()
            assert remaining_time() <= 100.0


class TestEncodeManyTimeout:
    def test_timed_out_item_reports_timeout_status(self):
        stg = load_benchmark("vme2int")
        result = encode_many([stg], timeout=1e-9)
        (item,) = result.items
        assert item.status == "timeout"
        assert not item.solved
        assert "timeout" in item.error

    def test_generous_timeout_matches_unbounded_run(self):
        stg = load_benchmark("vme2int")
        bounded = encode_many([stg], timeout=600.0)
        unbounded = encode_many([stg])
        assert bounded.items[0].status == "ok"
        assert bounded.fingerprints() == unbounded.fingerprints()


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_hit_miss_accounting(self, tmp_path):
        with ResultStore(str(tmp_path / "s.db")) as store:
            assert store.get("fp1") is None
            store.put("fp1", "case", {"x": 1})
            assert store.get("fp1") == {"x": 1}
            assert (store.hits, store.misses) == (1, 1)
            assert store.stats()["hit_rate"] == 0.5

    def test_peek_does_not_count(self, tmp_path):
        with ResultStore(str(tmp_path / "s.db")) as store:
            store.put("fp1", "case", {"x": 1})
            assert store.peek("fp1") == {"x": 1}
            assert store.peek("nope") is None
            assert (store.hits, store.misses) == (0, 0)

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "s.db")
        with ResultStore(path) as store:
            store.put("fp1", "case", {"payload": [1, 2, 3]})
        with ResultStore(path) as store:
            assert store.get("fp1") == {"payload": [1, 2, 3]}
            assert "fp1" in store

    def test_lru_eviction(self, tmp_path):
        with ResultStore(str(tmp_path / "s.db"), max_entries=2) as store:
            store.put("a", "a", {"v": 1})
            store.put("b", "b", {"v": 2})
            assert store.get("a") is not None  # refresh a: b is now LRU
            store.put("c", "c", {"v": 3})
            assert store.evictions == 1
            assert "b" not in store
            assert "a" in store and "c" in store
            assert len(store) == 2


# ----------------------------------------------------------------------
# job queue
# ----------------------------------------------------------------------
class TestJobQueue:
    @staticmethod
    def _queue(tmp_path, **kwargs):
        return JobQueue(str(tmp_path / "q.db"), **kwargs)

    def test_fifo_claim_order(self, tmp_path):
        with self._queue(tmp_path) as queue:
            ids = [queue.submit(f"fp{i}", f"job{i}", {"i": i}) for i in range(3)]
            claimed = queue.claim(limit=10)
            assert [job.id for job in claimed] == ids
            assert all(job.status == "running" for job in claimed)
            assert queue.depth() == 0

    def test_submissions_coalesce_on_fingerprint(self, tmp_path):
        with self._queue(tmp_path) as queue:
            first = queue.submit("fp", "job", {})
            assert queue.submit("fp", "job", {}) == first
            assert queue.counts()["pending"] == 1
            (job,) = queue.claim()
            assert queue.submit("fp", "job", {}) == first  # still active
            queue.finish(job.id, "done")
            assert queue.submit("fp", "job", {}) != first  # final: new job

    def test_retry_once_then_final_failure(self, tmp_path):
        with self._queue(tmp_path) as queue:
            queue.submit("fp", "job", {})
            (job,) = queue.claim()
            assert queue.finish(job.id, "failed", error="boom") == "pending"
            (retried,) = queue.claim()
            assert retried.attempts == 2
            assert queue.finish(retried.id, "failed", error="boom") == "failed"
            assert queue.get(job.id).status == "failed"
            assert queue.claim() == []

    def test_finish_without_retry_is_final_at_once(self, tmp_path):
        with self._queue(tmp_path) as queue:
            queue.submit("fp", "job", {})
            (job,) = queue.claim()
            assert queue.finish(job.id, "failed", error="spec", retry=False) == "failed"
            assert queue.get(job.id).attempts == 1
            assert queue.claim() == []

    def test_timeout_follows_retry_once(self, tmp_path):
        with self._queue(tmp_path) as queue:
            queue.submit("fp", "job", {})
            (job,) = queue.claim()
            assert queue.finish(job.id, "timeout") == "pending"
            (retried,) = queue.claim()
            assert queue.finish(retried.id, "timeout") == "timeout"

    def test_finish_validates_status_and_state(self, tmp_path):
        with self._queue(tmp_path) as queue:
            job_id = queue.submit("fp", "job", {})
            with pytest.raises(ValueError):
                queue.finish(job_id, "running")
            with pytest.raises(ValueError):
                queue.finish(job_id, "done")  # not claimed yet
            with pytest.raises(KeyError):
                queue.finish("nope", "done")

    def test_recover_requeues_running_jobs(self, tmp_path):
        path = str(tmp_path / "q.db")
        with JobQueue(path) as queue:
            queue.submit("fp", "job", {"payload": True})
            queue.claim()
        with JobQueue(path) as queue:  # simulated crash + restart
            assert queue.recover() == 1
            (job,) = queue.claim()
            assert job.request == {"payload": True}
            assert job.attempts == 2

    def test_recover_finalises_jobs_out_of_attempts(self, tmp_path):
        # A job that *kills* the process on every attempt must not
        # crash-loop the service: once attempts are exhausted, recover()
        # buries it as failed instead of re-queueing it.
        path = str(tmp_path / "q.db")
        with JobQueue(path) as queue:
            job_id = queue.submit("fp", "job", {})
            queue.claim()
        with JobQueue(path) as queue:  # crash #1
            assert queue.recover() == 1
            queue.claim()
        with JobQueue(path) as queue:  # crash #2: attempts exhausted
            assert queue.recover() == 0
            job = queue.get(job_id)
            assert job.status == "failed"
            assert "died" in job.error
            assert queue.claim() == []


# ----------------------------------------------------------------------
# end-to-end service
# ----------------------------------------------------------------------
def _settle(svc, timeout=10.0):
    """Wait until no job is pending/running (the store write precedes the
    queue status update, so counters can lag a returned ``wait()``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        counts = svc.queue.counts()
        if counts["pending"] == 0 and counts["running"] == 0:
            return
        time.sleep(0.01)
    raise TimeoutError(f"queue did not settle: {svc.queue.counts()}")


def _result_identity(payload):
    """The timing-free identity of a stored payload (BatchItem shape)."""
    summary = {k: v for k, v in payload["summary"].items() if k != "cpu_seconds"}
    row = {k: v for k, v in payload["table_row"].items() if k != "cpu"}
    return json.dumps({"summary": summary, "table_row": row}, sort_keys=True)


class TestEncodingServiceEndToEnd:
    def test_submit_twice_dedupes_and_matches_encode_stg(self, tmp_path):
        case = get_case("vme2int")
        settings = case.solver_settings()
        stg = case.build()
        with EncodingService(str(tmp_path / "svc.db"), jobs=1) as svc:
            first = svc.submit(stg, settings=settings, max_states=200000)
            assert first["status"] == "pending" and not first["cached"]
            payload = svc.wait(first["fingerprint"], timeout=120.0)
            _settle(svc)

            hits_before = svc.store.hits
            jobs_before = svc.queue.counts()
            second = svc.submit(case.build(), settings=settings, max_states=200000)

            # identical payloads, served from the store, no new job
            assert second["cached"] and second["status"] == "done"
            assert second["result"] == payload
            assert svc.store.hits == hits_before + 1
            assert svc.queue.counts() == jobs_before

            # byte-for-byte identity with a direct encode_stg run
            report = encode_stg(stg, settings=settings, max_states=200000)
            expected = json.dumps(
                {
                    "summary": {
                        k: v
                        for k, v in report.result.summary().items()
                        if k != "cpu_seconds"
                    },
                    "table_row": {
                        k: v for k, v in report.table_row().items() if k != "cpu"
                    },
                },
                sort_keys=True,
            )
            assert _result_identity(payload) == expected

    def test_result_persists_across_restart(self, tmp_path):
        path = str(tmp_path / "svc.db")
        case = get_case("nak-pa")
        with EncodingService(path, jobs=1) as svc:
            outcome = svc.submit_benchmark("nak-pa")
            payload = svc.wait(outcome["fingerprint"], timeout=120.0)
        with EncodingService(path, jobs=1) as svc:
            again = svc.submit_benchmark("nak-pa")
            assert again["cached"] and again["result"] == payload
            assert svc.store.hits == 1
        assert case.build().name == "nak-pa"  # sanity: same case both times

    def test_pending_job_survives_restart_and_completes(self, tmp_path):
        path = str(tmp_path / "svc.db")
        stg = load_benchmark("vme2int")
        with EncodingService(path, jobs=1, autostart=False) as svc:
            outcome = svc.submit(stg)
            assert svc.queue.depth() == 1
        with EncodingService(path, jobs=1) as svc:  # workers start now
            payload = svc.wait(outcome["fingerprint"], timeout=120.0)
            assert payload["solved"] is True
            _settle(svc)
            assert svc.queue.get(outcome["job_id"]).status == "done"

    def test_timeout_job_is_retried_once_then_final(self, tmp_path):
        stg = load_benchmark("vme2int")
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, timeout=1e-9) as svc:
            outcome = svc.submit(stg)
            with pytest.raises(RuntimeError, match="timeout"):
                svc.wait(outcome["fingerprint"], timeout=60.0)
            job = svc.queue.get(outcome["job_id"])
            assert job.status == "timeout"
            assert job.attempts == 2  # retry-once
            assert svc.pool.jobs_timeout == 1 and svc.pool.jobs_retried == 1

    def test_submit_default_max_states_matches_http_default(self, tmp_path):
        # Every service surface canonicalises an omitted max_states to
        # 200000, so the same request dedupes across entry points.
        stg = load_benchmark("vme2int")
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, autostart=False) as svc:
            outcome = svc.submit(stg)
            assert outcome["fingerprint"] == request_fingerprint(stg, max_states=200000)

    def test_wait_reports_eviction_instead_of_spinning(self, tmp_path):
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, max_entries=1) as svc:
            first = svc.submit_benchmark("nak-pa")
            svc.wait(first["fingerprint"], timeout=120.0)
            second = svc.submit_benchmark("combuf2")  # evicts nak-pa
            svc.wait(second["fingerprint"], timeout=120.0)
            assert svc.store.evictions == 1
            with pytest.raises(RuntimeError, match="evicted"):
                svc.wait(first["fingerprint"], timeout=5.0)

    def test_dispatcher_survives_poisonous_persisted_request(self, tmp_path):
        # A persisted job whose .g text no longer parses must fail that
        # job on its first attempt (a retry would fail the same way) and
        # leave the dispatcher alive for the next submission.
        with EncodingService(str(tmp_path / "svc.db"), jobs=1) as svc:
            bad_id = svc.queue.submit("fp-bad", "broken", {"g": "not a .g file at all"})
            good = svc.submit_benchmark("nak-pa")
            payload = svc.wait(good["fingerprint"], timeout=120.0)
            assert payload["solved"] is True
            for _ in range(500):
                job = svc.queue.get(bad_id)
                if job.status == "failed":
                    break
                time.sleep(0.01)
            assert job.status == "failed"
            assert job.attempts == 1  # a spec fault is not retried
            assert "invalid persisted request" in job.error
            assert svc.pool.running

    def test_unbounded_unsafe_stg_fails_fast_and_the_worker_drains_on(self, tmp_path):
        # Every a- firing puts one more token on ``sink``: the elaboration
        # must reject the net as unsafe at once (not explore it until the
        # state budget or the job timeout), and the worker must go on to
        # the next job.
        from repro.stg import STG

        unsafe = STG.from_arcs(
            "unbounded",
            inputs=[],
            outputs=["a"],
            arcs=[("a+", "a-"), ("a-", "a+"), ("a-", "sink")],
            marking=[("a-", "a+")],
        )
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, timeout=60.0) as svc:
            bad = svc.submit(unsafe)
            good = svc.submit_benchmark("nak-pa")
            with pytest.raises(RuntimeError, match="finished as failed"):
                svc.wait(bad["fingerprint"], timeout=60.0)
            payload = svc.wait(good["fingerprint"], timeout=120.0)
            assert payload["solved"] is True
            _settle(svc)
            job = svc.queue.get(bad["job_id"])
            assert job.status == "failed"
            assert "InconsistentSTGError" in job.error and "is not safe" in job.error
            assert job.attempts == 1  # a spec fault is not retried
            assert svc.queue.get(good["job_id"]).status == "done"
            assert svc.pool.running

    def test_exceeded_state_budget_fails_on_the_first_attempt(self, tmp_path):
        # a state space beyond the request's max_states is a property of
        # the request: a second attempt would exceed it the same way
        with EncodingService(str(tmp_path / "svc.db"), jobs=1) as svc:
            outcome = svc.submit_benchmark("par4", max_states=5)
            with pytest.raises(RuntimeError, match="finished as failed"):
                svc.wait(outcome["fingerprint"], timeout=60.0)
            _settle(svc)
            job = svc.queue.get(outcome["job_id"])
            assert job.status == "failed"
            assert "StateSpaceLimitExceeded" in job.error
            assert job.attempts == 1

    def test_pooled_dispatcher_completes_jobs_with_process_workers(self, tmp_path):
        # jobs>1 exercises the persistent-ProcessPoolExecutor path.
        with EncodingService(str(tmp_path / "svc.db"), jobs=2) as svc:
            outcomes = [svc.submit_benchmark(name) for name in ("nak-pa", "combuf2")]
            payloads = [svc.wait(o["fingerprint"], timeout=300.0) for o in outcomes]
            assert [p["solved"] for p in payloads] == [True, True]
            # the store write precedes the queue/counter updates, so poll
            # briefly instead of asserting the counters instantly
            for _ in range(500):
                if svc.pool.jobs_done == 2:
                    break
                time.sleep(0.01)
            assert svc.pool.jobs_done == 2
            assert svc.queue.counts()["done"] == 2

    def test_concurrent_submissions_solve_each_fingerprint_once(self, tmp_path):
        """16 threads submit at once: two cold specs coalesce onto one job
        each, and every submission of a pre-seeded spec is a store hit.
        The pool starts after the burst, so no job can finish between a
        submission's store miss and its enqueue, and nothing forks while
        the client threads run."""
        path = str(tmp_path / "svc.db")
        with EncodingService(path, jobs=1) as seeder:
            seeded = seeder.submit_benchmark("vme2int")
            seeder.wait(seeded["fingerprint"], timeout=120.0)
            _settle(seeder)

        names = ("nak-pa", "combuf2", "vme2int")
        clients = 16
        outcomes = [None] * clients
        with EncodingService(path, jobs=2, autostart=False) as svc:
            barrier = threading.Barrier(clients, timeout=60.0)

            def client(index):
                barrier.wait()
                outcomes[index] = svc.submit_benchmark(names[index % len(names)])

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)

            by_name = {name: [] for name in names}
            for index, outcome in enumerate(outcomes):
                by_name[names[index % len(names)]].append(outcome)
            assert all(o["cached"] and o["status"] == "done" for o in by_name["vme2int"])
            for name in ("nak-pa", "combuf2"):
                assert not any(o["cached"] for o in by_name[name])
                assert len({o["job_id"] for o in by_name[name]}) == 1
            assert svc.queue.counts()["pending"] == 2

            # Wait on the pool's in-memory counter, not on the store: a
            # thread inside sqlite while the pool forks its workers leaves
            # them a held sqlite mutex, and their progress writes hang.
            svc.pool.start()
            deadline = time.monotonic() + 300.0
            while svc.pool.jobs_done < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.pool.jobs_done == 2
            _settle(svc)
            assert svc.queue.counts()["done"] == 3  # the seed and one solve per spec

    def test_stats_shape(self, tmp_path):
        with EncodingService(str(tmp_path / "svc.db"), jobs=1) as svc:
            outcome = svc.submit_benchmark("nak-pa")
            svc.wait(outcome["fingerprint"], timeout=120.0)
            _settle(svc)
            stats = svc.stats()
            assert stats["queue"]["by_status"]["done"] == 1
            assert stats["workers"]["done"] == 1
            assert 0.0 <= stats["workers"]["utilisation"]
            assert stats["store"]["entries"] == 1
            assert stats["version"]
            json.dumps(stats)  # must be JSON-serialisable as served by /stats


# ----------------------------------------------------------------------
# job records persisted by older code or edited by hand
# ----------------------------------------------------------------------
def _persist_raw_job(svc, stg, settings_dict, **extra):
    """Queue a job record as stored, bypassing ``submit``'s checks."""
    fingerprint = request_fingerprint(stg, max_states=200000)
    request = {
        "g": stg_to_g_text(stg),
        "settings": settings_dict,
        "max_states": 200000,
        **extra,
    }
    return fingerprint, svc.queue.submit(fingerprint, stg.name, request)


class TestPersistedRequests:
    def test_record_with_top_level_search_jobs_still_runs(self, tmp_path):
        """Job records written before in-solve sharding was removed carry
        the width outside the settings; the worker ignores it."""
        stg = load_benchmark("vme2int")
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, autostart=False) as svc:
            fingerprint, job_id = _persist_raw_job(
                svc, stg, canonical_settings(None), search_jobs=4
            )
            svc.pool.start()
            svc.wait(fingerprint, timeout=120.0)
            _settle(svc)
            assert svc.job(job_id).status == "done"

    def test_record_with_mistyped_settings_fails_once(self, tmp_path):
        """A persisted request that no longer validates fails on its
        first attempt, without a retry."""
        stg = load_benchmark("vme2int")
        with EncodingService(str(tmp_path / "svc.db"), jobs=1, autostart=False) as svc:
            settings = canonical_settings(None)
            settings["max_signals"] = "many"
            _fingerprint, job_id = _persist_raw_job(svc, stg, settings)
            svc.pool.start()
            _settle(svc)
            job = svc.job(job_id)
            assert job.status == "failed"
            assert job.attempts == 1
            assert job.error.startswith("invalid persisted request")
