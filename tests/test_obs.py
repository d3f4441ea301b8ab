"""Tests for the observability tier (:mod:`repro.obs`) and its wiring.

Covers metric semantics (counters, gauges, log-bucket histograms, the
allocation-free disabled mode, the Prometheus text rendition), the
structured logging facade, hierarchical spans and their Chrome-trace
export — including trace propagation into ``encode_many`` worker
processes — progress hooks, the presentation-only invariant (fingerprints byte-identical with observability on vs off),
and the service surface: ``GET /v1/metrics``, ``X-Request-Id``
propagation onto job records, and live ``progress`` heartbeats over the
durable event feed and SSE.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench_stg import generators as gen
from repro.bench_stg.library import get_case
from repro.obs import (
    MetricsRegistry,
    adopt_trace_context,
    collect_phases,
    configure_logging,
    export_chrome_trace,
    get_logger,
    log_buckets,
    progress_hook,
    render_prometheus,
    span,
    span_event,
    start_trace,
    stop_trace,
    trace_context,
    tracing_active,
    use_progress_hook,
)
from repro.obs.progress import emit_progress
from repro.stg.state_graph import build_state_graph


@pytest.fixture
def captured_log():
    """Aim the global log facade at a StringIO for one test."""
    stream = io.StringIO()
    configure_logging("debug", stream=stream)
    try:
        yield stream
    finally:
        configure_logging("info", stream=sys.stderr)


@pytest.fixture
def active_trace(tmp_path):
    """A live trace spooling under tmp_path; always stopped afterwards."""
    trace_id = start_trace(str(tmp_path / "spool"))
    try:
        yield trace_id
    finally:
        stop_trace(cleanup=True)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter._unlabeled().value == 3.5
        with pytest.raises(ValueError):
            counter._unlabeled().inc(-1)
        gauge = registry.gauge("g", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge._unlabeled().value == 13.0

    def test_labels_positional_and_keyword(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "", labelnames=("route", "status"))
        family.labels("/jobs", "200").inc()
        family.labels(route="/jobs", status="200").inc()
        family.labels("/jobs", "404").inc()
        assert family.labels("/jobs", "200").value == 2.0
        assert family.labels("/jobs", "404").value == 1.0
        with pytest.raises(ValueError):
            family.labels("/jobs")  # wrong arity
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no unlabeled default

    def test_registry_is_idempotent_but_schema_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("a",))

    def test_log_buckets_ladder(self):
        buckets = log_buckets(start=0.001, factor=4.0, count=4)
        assert buckets == (0.001, 0.004, 0.016, 0.064)
        with pytest.raises(ValueError):
            log_buckets(start=0)

    def test_histogram_bucketing_and_cumulative(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_seconds", "", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            family.observe(value)
        child = family._unlabeled()
        assert child.counts == [1, 2, 1, 1]  # last slot = +Inf overflow
        assert child.count == 5
        assert child.total == pytest.approx(56.05)
        cumulative = child.cumulative()
        assert cumulative[-1][0] == float("inf")
        assert [count for _bound, count in cumulative] == [1, 3, 4, 5]

    def test_disabled_registry_mutators_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", buckets=(1.0,))
        counter.inc(100)
        gauge.set(100)
        histogram.observe(100)
        assert counter._unlabeled().value == 0.0
        assert gauge._unlabeled().value == 0.0
        assert histogram._unlabeled().count == 0

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs processed", labelnames=("status",)).labels(
            status="done"
        ).inc(3)
        registry.gauge("depth", "Queue depth").set(7)
        registry.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0)).observe(0.5)
        registry.counter("untouched_total", "never incremented")
        text = render_prometheus(registry)
        assert "# HELP jobs_total Jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{status="done"} 3' in text
        assert "depth 7" in text
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text
        assert "untouched_total" not in text  # registered but never used

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", labelnames=("name",)).labels(
            name='a"b\\c\nd'
        ).inc()
        text = render_prometheus(registry)
        assert 'name="a\\"b\\\\c\\nd"' in text


# ----------------------------------------------------------------------
# logging facade
# ----------------------------------------------------------------------
class TestLogging:
    def test_structured_line_format_and_quoting(self, captured_log):
        get_logger("test.unit").info("it_happened", count=3, label="two words", rate=0.5)
        line = captured_log.getvalue().strip()
        assert " INFO test.unit it_happened " in line
        assert "count=3" in line
        assert 'label="two words"' in line
        assert "rate=0.5" in line

    def test_threshold_filters(self, captured_log):
        configure_logging("warning")
        logger = get_logger("test.unit")
        logger.info("hidden")
        logger.warning("shown")
        output = captured_log.getvalue()
        assert "hidden" not in output
        assert "shown" in output

    def test_verbose_solver_logs_insertions_and_why_it_stops(self, captured_log):
        """A ``verbose`` solve logs every insertion and the reason it stops
        early: no valid insertion, or a committed one that leaves as many
        conflicts (reachable once the search stops requiring progress)."""
        import dataclasses

        from repro.core import solve_csc

        case = get_case("duplicator")
        settings = dataclasses.replace(case.solver_settings(), verbose=True)
        solve_csc(build_state_graph(case.build()), settings)
        output = captured_log.getvalue()
        assert "INFO solver inserted name=duplicator signal=csc0 conflicts_before=2" in output
        assert "INFO solver no_valid_insertion name=duplicator conflicts=1" in output

        lenient = dataclasses.replace(
            settings, search=dataclasses.replace(settings.search, require_actual_progress=False)
        )
        solve_csc(build_state_graph(case.build()), lenient)
        assert (
            "INFO solver insertion_not_reducing name=duplicator signal=csc1 "
            "conflicts_before=1 conflicts_after=1" in captured_log.getvalue()
        )

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")


# ----------------------------------------------------------------------
# spans and traces
# ----------------------------------------------------------------------
class TestTrace:
    def test_span_is_inert_without_listeners(self):
        assert not tracing_active()
        with span("anything", name="ok"):
            pass  # no trace, no accumulator: must cost nothing and not raise

    def test_collect_phases_sums_by_name(self):
        with collect_phases() as phases:
            with span("alpha"):
                pass
            with span("alpha"):
                pass
            with span("beta", name="annotation is fine"):
                pass
        assert set(phases) == {"alpha", "beta"}
        assert phases["alpha"] > 0.0

    def test_collect_phases_nests(self):
        with collect_phases() as outer:
            with collect_phases() as inner:
                with span("x"):
                    pass
            with span("y"):
                pass
        assert set(inner) == {"x"}
        assert set(outer) == {"x", "y"}

    def test_export_chrome_trace_schema(self, tmp_path, active_trace):
        with span("work", name="case1", size=10):
            with span("inner"):
                pass
        span_event("request", "b", "req-1", method="GET")
        span_event("request", "e", "req-1", status=200)
        out = tmp_path / "trace.json"
        count = export_chrome_trace(str(out))
        assert count == 4
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert document["otherData"]["trace_id"] == active_trace
        by_name = {event["name"]: event for event in events}
        assert by_name["work"]["ph"] == "X"
        assert by_name["work"]["args"] == {"name": "case1", "size": 10}
        assert by_name["work"]["dur"] >= by_name["inner"]["dur"]
        for event in events:
            assert isinstance(event["ts"], int)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        phases = [event["ph"] for event in events if event["name"] == "request"]
        assert sorted(phases) == ["b", "e"]

    def test_span_args_set_inside_the_block_reach_the_event(self, tmp_path, active_trace):
        with span("work", size=10) as attrs:
            attrs["outcome"] = "ok"
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        (event,) = json.loads(out.read_text())["traceEvents"]
        assert event["args"] == {"size": 10, "outcome": "ok"}

    def test_search_sip_spans_carry_outcome(self, tmp_path, active_trace):
        """Every validity check is tagged: ``ok`` for the committed
        insertion, ``no_progress`` for a valid one that leaves as many
        conflicts, otherwise the first rejection kind."""
        from repro.core import solve_csc
        from repro.core.indexed import REJECTION_KINDS

        inserted = 0
        for name in ("par4", "master-read"):
            case = get_case(name)
            result = solve_csc(build_state_graph(case.build()), case.solver_settings())
            inserted += result.num_inserted
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        outcomes = [
            event["args"]["outcome"]
            for event in json.loads(out.read_text())["traceEvents"]
            if event["name"] == "search.sip"
        ]
        assert set(outcomes) <= {"ok", "no_progress", *REJECTION_KINDS}
        assert outcomes.count("ok") == inserted
        assert "persistency" in outcomes  # par4
        assert "no_progress" in outcomes  # master-read

    @pytest.mark.parametrize("kernel", ["auto", "bigint"])
    def test_search_evaluate_spans_count_passes_and_sip_spans_side_tables(
        self, tmp_path, active_trace, kernel
    ):
        """``search.evaluate`` spans carry the plane passes their batch
        took (none on the big-int kernel), and the search derives one side
        table per ``search.sip`` span, i.e. per examined candidate."""
        from repro.core import solve_csc
        from repro.core.planes import resolve_kernel
        from repro.engine import caches

        case = get_case("master-read")
        settings = case.solver_settings()
        settings.kernel = kernel
        before = caches.STATS.snapshot()["side_tables"]
        solve_csc(build_state_graph(case.build()), settings)
        side_tables = caches.STATS.snapshot()["side_tables"] - before
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        sip_spans = [event for event in events if event["name"] == "search.sip"]
        evaluate_spans = [event["args"] for event in events if event["name"] == "search.evaluate"]
        assert side_tables == len(sip_spans) > 0
        assert evaluate_spans and all("passes" in args for args in evaluate_spans)
        passes = sum(args["passes"] for args in evaluate_spans)
        if resolve_kernel(kernel) == "bigint":
            assert passes == 0
        else:
            # master-read's batches each fit one pass
            assert passes > 0 and all(args["passes"] <= 1 for args in evaluate_spans)

    def test_search_bricks_spans_carry_brick_counts(self, tmp_path, active_trace):
        """``search.bricks`` spans report the brick count and how many
        per-event entries were carried over or computed afresh: the
        first search of a solve computes everything, a search on an
        expanded graph carries the untouched excitation regions."""
        from repro.core import solve_csc
        from repro.engine import caches

        case = get_case("master-read")
        result = solve_csc(build_state_graph(case.build()), case.solver_settings())
        assert result.num_inserted >= 1
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        spans = [
            event["args"]
            for event in json.loads(out.read_text())["traceEvents"]
            if event["name"] == "search.bricks"
        ]
        assert len(spans) > result.num_inserted
        first, *later = spans
        assert first["carried"] == 0 and first["recomputed"] > 0
        assert any(args["carried"] > 0 for args in later)
        search = case.solver_settings().search
        expected = len(
            caches.get_brick_masks(result.final_sg, search.brick_mode, search.region_budget)
        )
        assert all(args["bricks"] > 0 for args in spans)
        assert spans[-1]["bricks"] == expected

    def test_search_bricks_spans_count_region_expansion_work(
        self, tmp_path, active_trace, monkeypatch
    ):
        """``explored`` counts the candidate sets region expansion visited,
        ``arc_scans`` the events it still ran the per-arc test on, and
        ``memo_hits`` the expansions a graph's per-seed memo answered.  On
        master-read, ``explored`` equals the per-arc-only expansion's
        count summed over the *distinct* seeds of every searched graph
        (each seed is expanded once per graph), ``memo_hits`` is the
        number of repeated seeds, and ``arc_scans`` is well below the
        per-arc expansion's calls."""
        from references import reference_region_masks_containing

        from repro.core import search, solve_csc
        from repro.core.indexed import indexed_state_graph
        from repro.utils.ordered import stable_sorted

        searched = []
        find_plan = search._find_insertion_plan_indexed

        def recording_find(sg, *args, **kwargs):
            searched.append(sg)
            return find_plan(sg, *args, **kwargs)

        monkeypatch.setattr(search, "_find_insertion_plan_indexed", recording_find)
        case = get_case("master-read")
        settings = case.solver_settings()
        solve_csc(build_state_graph(case.build()), settings)
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        spans = [
            event["args"]
            for event in json.loads(out.read_text())["traceEvents"]
            if event["name"] == "search.bricks"
        ]
        assert len(spans) == len(searched)
        per_arc_calls = 0
        for args, sg in zip(spans, searched):
            isg = indexed_state_graph(sg)
            seeds = [
                seed
                for event in stable_sorted(sg.ts.events)
                for seed in (isg.er_mask(event), isg.sr_mask(event))
                if seed
            ]
            explored = 0
            for seed in set(seeds):
                _regions, visited, calls = reference_region_masks_containing(
                    isg, seed, settings.search.region_budget
                )
                explored += visited
                per_arc_calls += calls
            assert args["explored"] == explored
            assert args["memo_hits"] == len(seeds) - len(set(seeds)) > 0
        scans = sum(args["arc_scans"] for args in spans)
        assert 0 < scans < per_arc_calls

    def test_symbolic_explore_span_carries_saturation_counts(self, tmp_path, active_trace):
        """The ``explore`` span counts the firings of transitions at their
        top level (the census's ``iterations``), the nodes saturated and
        the recursive image steps; the safety check has its own span."""
        from repro.symbolic import SymbolicStateGraph

        ssg = SymbolicStateGraph(gen.vme_controller())
        census = ssg.census()
        out = tmp_path / "trace.json"
        export_chrome_trace(str(out))
        spans = [
            event["args"]
            for event in json.loads(out.read_text())["traceEvents"]
            if event["name"] == "bdd.apply"
        ]
        assert [args["phase"] for args in spans] == ["explore", "safety"]
        explore = spans[0]
        assert explore["firings"] == census.iterations
        # every level's firing loop fires each of its transitions at least
        # once, and every level is saturated once, on the initial cube's
        # one path
        assert explore["firings"] >= census.transitions
        assert explore["saturated"] == ssg.num_state_vars
        assert explore["images"] > 0

    def test_trace_context_round_trip(self, active_trace):
        ctx = trace_context()
        assert ctx["trace_id"] == active_trace
        adopt_trace_context(ctx)  # idempotent: same trace keeps the writer
        assert trace_context() == ctx
        adopt_trace_context(None)  # no-op
        assert tracing_active()

    def test_stop_trace_cleanup_removes_spool(self, tmp_path):
        spool = tmp_path / "spool"
        start_trace(str(spool))
        with span("something"):
            pass
        assert spool.exists()
        stop_trace(cleanup=True)
        assert not spool.exists()
        assert not tracing_active()

    def test_encode_many_pool_workers_join_the_trace(self, tmp_path, active_trace):
        """Solver spans emitted inside ``encode_many(jobs=2)``'s worker
        processes land in the trace with the worker's pid — the context
        crosses the process boundary."""
        from repro.api import encode_many

        encode_many(
            [gen.vme_controller(), gen.mixed_controller(1, 1)], jobs=2, max_states=5000
        )
        out = tmp_path / "pool.json"
        export_chrome_trace(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        evaluate = [e for e in events if e["name"] == "search.evaluate"]
        assert evaluate, "pool workers produced no search.evaluate spans"
        assert any(event["pid"] != os.getpid() for event in evaluate)

    def test_solve_trace_file_follows_the_chrome_trace_event_schema(self, tmp_path, capsys):
        """``pyetrify solve --trace`` writes a document Perfetto and
        ``chrome://tracing`` load: complete slices with a positive
        duration, async markers with an id, integer timestamps and ids,
        and the solver's phase spans among them."""
        from repro.cli import main
        from repro.stg.writer import write_g

        spec = tmp_path / "vme2int.g"
        out = tmp_path / "trace.json"
        write_g(get_case("vme2int").build(), str(spec))
        assert main(["solve", str(spec), "--trace", str(out)]) == 0
        capsys.readouterr()
        assert not tracing_active()

        document = json.loads(out.read_text())
        assert isinstance(document, dict)
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert isinstance(event["name"], str) and event["name"], event
            assert event["ph"] in ("X", "b", "e"), event
            for key in ("ts", "pid", "tid"):
                assert isinstance(event[key], int), event
            if event["ph"] == "X":
                assert isinstance(event["dur"], int) and event["dur"] >= 1, event
            else:
                assert "id" in event, event
        names = {event["name"] for event in events}
        assert {"reachability", "solve", "solver.search", "search.sip"} <= names


# ----------------------------------------------------------------------
# progress hooks
# ----------------------------------------------------------------------
class TestProgress:
    def test_hook_receives_copies_and_restores(self):
        records = []
        assert progress_hook() is None
        with use_progress_hook(records.append):
            emit_progress(stage="test", value=1)
        emit_progress(stage="test", value=2)  # no hook: dropped
        assert records == [{"stage": "test", "value": 1}]
        assert progress_hook() is None

    def test_hook_exceptions_are_swallowed(self):
        def broken(record):
            raise RuntimeError("telemetry must never break the solve")

        with use_progress_hook(broken):
            emit_progress(stage="test")  # must not raise

    def test_solver_emits_progress_records(self):
        from repro.api import encode_stg

        case = get_case("vme2int")
        records = []
        with use_progress_hook(records.append):
            encode_stg(case.build(), settings=case.solver_settings(), max_states=5000)
        stages = {record["stage"] for record in records}
        assert "solver" in stages and "search" in stages
        inserted = [r for r in records if r["stage"] == "solver"]
        assert inserted and {"signal", "conflicts_remaining", "iteration"} <= set(
            inserted[0]
        )
        searched = [r for r in records if r["stage"] == "search"]
        assert searched and {"frontier", "candidates_ranked", "cache"} <= set(
            searched[0]
        )


# ----------------------------------------------------------------------
# presentation-only invariant
# ----------------------------------------------------------------------
def test_observability_never_changes_results(tmp_path):
    """Fingerprints are byte-identical with every channel wide open."""
    from repro.api import encode_stg

    case = get_case("vme2int")
    plain = encode_stg(case.build(), settings=case.solver_settings(), max_states=5000)

    start_trace(str(tmp_path / "spool"))
    sink = io.StringIO()
    configure_logging("debug", stream=sink)
    try:
        with use_progress_hook(lambda record: None), collect_phases():
            traced = encode_stg(
                case.build(), settings=case.solver_settings(), max_states=5000
            )
    finally:
        stop_trace(cleanup=True)
        configure_logging("info", stream=sys.stderr)
    assert traced.result.fingerprint() == plain.result.fingerprint()


# ----------------------------------------------------------------------
# service surface
# ----------------------------------------------------------------------
@pytest.fixture
def service_server(tmp_path):
    from repro.api import serve
    from repro.service import EncodingService

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


def test_request_id_echo_and_job_stamp(service_server):
    service, base = service_server
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=json.dumps({"benchmark": "vme2int"}).encode(),
        headers={"X-Request-Id": "trace-me-42"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.headers["X-Request-Id"] == "trace-me-42"
        outcome = json.loads(response.read())
    job = service.job(outcome["job_id"])
    assert job.request_id == "trace-me-42"
    assert job.as_dict()["request_id"] == "trace-me-42"
    # a request without the header gets a freshly minted id
    with urllib.request.urlopen(base + "/v1/healthz", timeout=30) as response:
        assert len(response.headers["X-Request-Id"]) == 16


def test_progress_heartbeats_reach_the_event_feed(service_server):
    service, base = service_server
    outcome = service.submit_benchmark("vme2int", request_id="req-7")
    service.wait(outcome["fingerprint"], timeout=120)
    job = service.queue.job_for_fingerprint(outcome["fingerprint"])
    events = service.events_for(job.id)
    kinds = [event.event for event in events]
    assert kinds[0] == "pending" and kinds[-1] == "done"
    progress = [event for event in events if event.event == "progress"]
    assert progress, "no progress heartbeat reached job_events"
    record = json.loads(progress[0].detail)
    assert record["request_id"] == "req-7"
    assert record["stage"] in {"solver", "search"}


def test_progress_streams_over_sse(service_server):
    service, base = service_server
    status_request = urllib.request.Request(
        base + "/v1/jobs", data=json.dumps({"benchmark": "nak-pa"}).encode()
    )
    with urllib.request.urlopen(status_request, timeout=30) as response:
        outcome = json.loads(response.read())
    request = urllib.request.Request(
        base + f"/v1/jobs/{outcome['job_id']}/events",
        headers={"Accept": "text/event-stream"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        raw = response.read().decode("utf-8")
    names = [
        line.split(": ", 1)[1]
        for line in raw.splitlines()
        if line.startswith("event: ")
    ]
    assert names[-1] == "done"
    assert "progress" in names  # mid-solve heartbeat, streamed live


def test_v1_metrics_endpoint(service_server):
    service, base = service_server
    outcome = service.submit_benchmark("vme2int")
    service.wait(outcome["fingerprint"], timeout=120)
    with urllib.request.urlopen(base + "/v1/healthz", timeout=30):
        pass
    with urllib.request.urlopen(base + "/v1/metrics", timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    assert "# TYPE pyetrify_http_requests_total counter" in text
    assert 'route="/healthz",method="GET",status="200"' in text
    assert "# TYPE pyetrify_queue_depth gauge" in text
    assert "pyetrify_jobs_processed_total" in text
    assert "pyetrify_claim_latency_seconds_bucket" in text
    assert "pyetrify_store_entries 1" in text
    assert "pyetrify_http_request_duration_seconds_bucket" in text
    # the legacy surface has no metrics route
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/metrics", timeout=30)
    assert excinfo.value.code == 404


def _solve_count(base):
    """``pyetrify_solve_seconds_count`` (0 while the family is untouched)."""
    with urllib.request.urlopen(base + "/v1/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    for line in text.splitlines():
        if line.startswith("pyetrify_solve_seconds_count "):
            assert "# TYPE pyetrify_solve_seconds histogram" in text
            return float(line.split()[1])
    return 0.0


def test_v1_metrics_observe_every_solve(service_server):
    service, base = service_server
    before = _solve_count(base)
    outcome = service.submit_benchmark("nak-pa")
    service.wait(outcome["fingerprint"], timeout=120)
    assert _solve_count(base) == before + 1
