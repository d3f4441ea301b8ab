"""Cross-engine conformance harness.

There are several ways to produce an encoding, and this module is the
one parameterized harness that pins every one of them to the golden
records of ``tests/library_pins.json`` (read through
``tests/library_pins.py``):

* ``indexed`` — :func:`repro.api.encode_stg` with the default kernel
  (the bit-plane kernel wherever numpy imports);
* ``bigint`` — the same, on the scalar ``bigint`` block-evaluation
  kernel (the fallback without numpy);
* ``batch`` — :func:`repro.engine.batch.encode_many` with two worker
  processes, so every result crosses a process boundary;
* ``service`` — an in-process :class:`repro.service.EncodingService`:
  the STG travels as ``.g`` text, the settings through the type-checked
  ``settings_from_dict``, and the result comes back from the store;
* ``hybrid`` — the symbolic tier's hybrid bridge.

The records were computed by the object-space engine the indexed one
replaced, before it was deleted.  Every engine must agree with its
case's record on:

* the SHA-256 of ``EncodingResult.fingerprint()`` (insertions, costs,
  conflict and state counts, solved flag) as sorted-key JSON;
* the inserted-signal *names* and the per-insertion :class:`Cost`
  tuples;
* for the explicit engines, the benchmark table row minus its timing,
  logic estimate included (``batch`` and ``service`` carry the result
  as its JSON summary, which is checked in place of the in-memory
  records).

Covered inputs: every solvable+enumerable library case of both tables
(the ``pyetrify bench --all`` regime, each with its own library solver
settings) plus the coupled ``pipeline(n)`` generator family, and every
STG of the finite generator grid the hypothesis strategy
:func:`random_stgs` draws from, solved at default settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.api import EncodingService, encode_many, encode_stg
from repro.bench_stg import generators as gen
from library_pins import PINS, fingerprint_sha256, pin

from repro.bench_stg.library import BenchmarkCase, TABLE1_CASES, TABLE2_CASES
from repro.core.cost import Cost
from repro.core.csc import has_csc
from repro.core.solver import solve_csc
from repro.service.fingerprint import FINGERPRINT_VERSION
from repro.stg import build_state_graph
from repro.symbolic import symbolic_encode

# ----------------------------------------------------------------------
# inputs: solvable+enumerable library cases + the pipeline(n) family
# ----------------------------------------------------------------------
_LIBRARY = [
    case for case in TABLE2_CASES + TABLE1_CASES if case.solve and case.explicit_ok
]
_PIPELINE_FAMILY = [
    BenchmarkCase(
        f"pipeline{n}",
        (lambda n=n: gen.pipeline(n)),
        f"{n} coupled pipeline toggle stages (conformance family)",
        "table1",
        mode="relaxed",
    )
    for n in (1, 2)  # pipeline3 and pipeline4 are Table-1 library rows
]
CASES = _LIBRARY + _PIPELINE_FAMILY
# Case names repeat across tables (e.g. master-read), so ids carry an index.
_IDS = [f"{i:02d}-{case.name}" for i, case in enumerate(CASES)]

#: The engines pinned to the golden records.
ENGINES = ("indexed", "bigint", "batch", "service", "hybrid")

_MAX_STATES = 200000


def _record(case: BenchmarkCase) -> Dict[str, object]:
    """The golden record of one case."""
    return PINS["conformance"][f"{case.table}/{case.name}"]


def _sha256(fingerprint) -> str:
    return hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode("utf-8")).hexdigest()


def _assert_result_conforms(result, record) -> None:
    assert _sha256(result.fingerprint()) == record["fingerprint_sha256"]
    assert result.inserted_signals == record["signals"]
    assert [list(insertion.cost) for insertion in result.records] == record["costs"]


def _assert_report_conforms(report, record) -> None:
    _assert_result_conforms(report.result, record)
    assert {k: v for k, v in report.table_row().items() if k != "cpu"} == record["row"]


def _assert_item_conforms(item: Dict[str, object], record) -> None:
    """A JSON result record (``BatchItem.as_dict()``, a stored service
    payload) against the golden record: summary minus timing, table row
    minus timing, and the inserted signals with their costs."""
    assert item["status"] == "ok", item["error"]
    assert item["engine"] == "explicit"
    assert item["solved"] == record["row"]["solved"]
    summary = {key: value for key, value in item["summary"].items() if key != "cpu_seconds"}
    assert _sha256(summary) == record["fingerprint_sha256"]
    insertions = item["summary"]["insertions"]
    assert [insertion["signal"] for insertion in insertions] == record["signals"]
    assert [list(Cost(**insertion["cost"])) for insertion in insertions] == record["costs"]
    row = {key: value for key, value in item["table_row"].items() if key != "cpu"}
    assert row == record["row"]


@pytest.fixture(scope="module")
def batch_records():
    """Every case encoded by one ``encode_many`` run on two worker
    processes, keyed by case index."""
    result = encode_many(
        [case.build() for case in CASES],
        settings=[case.solver_settings() for case in CASES],
        jobs=2,
        max_states=_MAX_STATES,
    )
    assert len(result.items) == len(CASES)
    return {index: item.as_dict() for index, item in enumerate(result.items)}


@pytest.fixture(scope="module")
def service_records(tmp_path_factory):
    """Every case submitted to one in-process service (one worker
    thread) and read back from its result store, keyed by case index."""
    path = str(tmp_path_factory.mktemp("conformance") / "svc.db")
    with EncodingService(path, jobs=1) as service:
        submitted = [
            service.submit(case.build(), settings=case.solver_settings(), max_states=_MAX_STATES)
            for case in CASES
        ]
        return {
            index: service.wait(outcome["fingerprint"], timeout=600.0)
            for index, outcome in enumerate(submitted)
        }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case_index", range(len(CASES)), ids=_IDS)
def test_engine_conforms_to_golden_record(case_index, engine, request):
    case = CASES[case_index]
    record = _record(case)
    settings = case.solver_settings()

    if engine in ("batch", "service"):
        records = request.getfixturevalue(f"{engine}_records")
        _assert_item_conforms(records[case_index], record)
        return
    if engine == "bigint":
        settings = dataclasses.replace(settings, kernel="bigint")

    if engine == "hybrid":
        outcome = symbolic_encode(case.build(), settings=settings)
        if not record["signals"] and record["row"]["solved"]:
            # no conflicts: the symbolic tier never materializes anything
            assert outcome.mode == "symbolic"
            assert outcome.solved
            return
        assert outcome.mode == "hybrid"
        # the materialized conflict core is the explicit graph, object
        # for object — not just fingerprint-equal
        explicit_sg = build_state_graph(case.build(), max_states=_MAX_STATES)
        assert outcome.result.initial_sg.states == explicit_sg.states
        assert outcome.result.initial_sg.encoding == explicit_sg.encoding
        _assert_result_conforms(outcome.result, record)
        return

    report = encode_stg(case.build(), settings=settings, max_states=_MAX_STATES)
    _assert_report_conforms(report, record)
    if report.solved:
        assert has_csc(report.result.final_sg)
    if engine == "indexed":
        pinned = pin(case)
        if "solved" in pinned:
            assert report.solved == pinned["solved"]
        if "fingerprint_sha256" in pinned:
            assert fingerprint_sha256(report) == pinned["fingerprint_sha256"]
            assert report.result.num_inserted == pinned["inserted"]


def test_library_pins_cover_the_library_at_the_current_fingerprint_version():
    """Every Table-2 row and every Table-1 row but pipeline12 (pinned in
    tests/test_symbolic.py) has pins, every conformance case and every
    member of the generator grid has a golden record, and all of them
    were recorded under the current ``FINGERPRINT_VERSION``: changing a
    pin means bumping it."""
    assert PINS["fingerprint_version"] == FINGERPRINT_VERSION
    assert list(PINS["table2"]) == [case.name for case in TABLE2_CASES]
    assert list(PINS["table1"]) == [
        case.name for case in TABLE1_CASES if case.name != "pipeline12"
    ]
    assert list(PINS["conformance"]) == [f"{case.table}/{case.name}" for case in CASES]
    assert list(PINS["generators"]) == list(GENERATOR_GRID)


# ----------------------------------------------------------------------
# the generator grid: every STG random_stgs can draw
# ----------------------------------------------------------------------
#: Every member of :func:`random_stgs`'s domain, keyed by its generator
#: call, in the order of the strategy's families.
GENERATOR_GRID = {
    **{f"sequencer({n})": (lambda n=n: gen.sequencer(n)) for n in range(2, 6)},
    **{
        f"mixed_controller({p},{s})": (lambda p=p, s=s: gen.mixed_controller(p, s))
        for p in range(0, 3)
        for s in range(1 if p == 0 else 0, 4)
    },
    **{f"parallel_toggles({n})": (lambda n=n: gen.parallel_toggles(n)) for n in range(1, 4)},
    **{
        f"independent_toggles({n})": (lambda n=n: gen.independent_toggles(n))
        for n in range(1, 4)
    },
    **{f"ripple_counter({n})": (lambda n=n: gen.ripple_counter(n)) for n in range(2, 5)},
    **{f"pipeline({n})": (lambda n=n: gen.pipeline(n)) for n in range(1, 4)},
    **{
        f"handshake_wire_chain({n})": (lambda n=n: gen.handshake_wire_chain(n))
        for n in range(1, 5)
    },
}


@pytest.mark.parametrize("key", list(GENERATOR_GRID))
def test_generator_grid_conforms_to_golden_record(key):
    """Every STG of the grid, solved at default settings, gives its
    golden record."""
    report = encode_stg(GENERATOR_GRID[key](), max_states=20000)
    _assert_report_conforms(report, PINS["generators"][key])


# ----------------------------------------------------------------------
# hypothesis: representation-level checks under random STGs
# ----------------------------------------------------------------------
@st.composite
def random_stgs(draw):
    """Random STGs (bounded sizes, all generator families)."""
    family = draw(
        st.sampled_from(
            [
                "sequencer",
                "mixed",
                "parallel",
                "independent",
                "counter",
                "chain",
                "pipeline",
            ]
        )
    )
    if family == "sequencer":
        return gen.sequencer(draw(st.integers(min_value=2, max_value=5)))
    if family == "mixed":
        num_parallel = draw(st.integers(min_value=0, max_value=2))
        min_sequential = 1 if num_parallel == 0 else 0
        num_sequential = draw(st.integers(min_value=min_sequential, max_value=3))
        return gen.mixed_controller(num_parallel, num_sequential)
    if family == "parallel":
        return gen.parallel_toggles(draw(st.integers(min_value=1, max_value=3)))
    if family == "independent":
        return gen.independent_toggles(draw(st.integers(min_value=1, max_value=3)))
    if family == "counter":
        return gen.ripple_counter(draw(st.integers(min_value=2, max_value=4)))
    if family == "pipeline":
        return gen.pipeline(draw(st.integers(min_value=1, max_value=3)))
    return gen.handshake_wire_chain(draw(st.integers(min_value=1, max_value=4)))


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs(), mode=st.sampled_from(["regions", "excitation"]))
def test_random_stgs_bitset_adjacency_matches_object_space(stg, mode):
    """Random STGs: the brick masks and their bitset adjacency equal the
    object-space compute_bricks and brick_adjacency."""
    from references import brick_adjacency, compute_bricks

    from repro.core.indexed import bits_of, indexed_brick_bundle, indexed_state_graph

    sg = build_state_graph(stg, max_states=20000)
    bricks = compute_bricks(sg.ts, mode=mode)
    masks, adjacency = indexed_brick_bundle(sg, mode)
    isg = indexed_state_graph(sg)
    assert masks == [isg.mask_of(brick) for brick in bricks]
    assert {i: set(bits_of(row)) for i, row in enumerate(adjacency)} == brick_adjacency(
        sg.ts, bricks
    )


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs())
def test_random_stgs_elaborate_and_synthesize_like_object_space_references(stg):
    """Random STGs: the integer elaboration builds the reference's graph,
    every order included, and the index-space extraction and excitation
    check of the solved graph give the object-space answers."""
    from references import (
        elaboration_outcome,
        reference_build_state_graph,
        reference_check_excitation,
        reference_classify_codes,
        reference_trigger_signals,
    )

    from repro.logic import CSCViolationError, classify_codes, trigger_signals
    from repro.logic.nextstate import extract_all_functions
    from repro.synth import build_network, verify_network

    assert elaboration_outcome(build_state_graph, stg, max_states=20000) == elaboration_outcome(
        reference_build_state_graph, stg, max_states=20000
    )

    def classification(classify, sg, signal):
        try:
            return classify(sg, signal)
        except CSCViolationError as error:
            return str(error)

    sg = build_state_graph(stg, max_states=20000)
    result = solve_csc(sg)
    for graph in (sg, result.final_sg):
        for signal in graph.non_input_signals:
            assert classification(classify_codes, graph, signal) == classification(
                reference_classify_codes, graph, signal
            )
            assert trigger_signals(graph, signal) == reference_trigger_signals(graph, signal)
    if result.solved:
        final = result.final_sg
        network = build_network(
            final.name, final.signals, final.input_signals, extract_all_functions(final)
        )
        assert (
            verify_network(network, final).as_dict()
            == reference_check_excitation(network, final).as_dict()
        )
