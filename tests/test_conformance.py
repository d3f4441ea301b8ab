"""Cross-engine conformance harness.

Besides the frozen legacy object-space pipeline (``use_caches(False)``)
there are several ways to produce an encoding, and per-PR differential
files stopped scaling.  This module is the one parameterized harness
that pins every one of them to the legacy oracle:

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

Every engine must agree with the oracle on:

* ``EncodingResult.fingerprint()`` (insertions, costs, conflict and
  state counts, solved flag) must be byte-identical, JSON round-trip
  included;
* the inserted-signal *names* and the per-insertion :class:`Cost`
  tuples must match exactly;
* for the explicit engines, the benchmark table row (logic estimate
  included) must match as well (``batch`` and ``service`` carry the
  result as its JSON summary, which is checked in place of the
  in-memory records);
* every expanded graph the legacy oracle materialises must equal the
  object-space insertion of ``tests/references.py``, every order
  included (the oracle's ``insert_signal`` shares the indexed replay).

Covered inputs: every solvable+enumerable library case of both tables
(the ``pyetrify bench --all`` regime, each with its own library solver
settings) plus the coupled ``pipeline(n)`` generator family, and
hypothesis-generated STGs from the parametric families.  The hypothesis
block solves random STGs on the legacy and the indexed engine, which
must fingerprint identically (derandomized via the repository-wide
``--repro-seed`` profile, like every hypothesis suite here).

This file subsumes the solver-identity assertions that previously lived
in ``tests/test_indexed_differential.py`` (library + random indexed vs
legacy) and ``tests/test_symbolic_differential.py`` (hybrid bridge vs
explicit solver); those files keep their representation-level checks
(bitmask helper twins, census/ER/SR agreement).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.api import EncodingService, encode_many, encode_stg
from repro.bench_stg import generators as gen
from references import insertion_outcome, reference_insert_signal, state_graph_layout

from repro.bench_stg.library import BenchmarkCase, TABLE1_CASES, TABLE2_CASES
from repro.core import search, sip
from repro.core.csc import has_csc
from repro.core.insertion import insert_signal
from repro.core.solver import solve_csc
from repro.engine import use_caches
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
    for n in (1, 2)  # pipeline3 is already a Table-1 library row
]
CASES = _LIBRARY + _PIPELINE_FAMILY
# Case names repeat across tables (e.g. master-read), so ids carry an index.
_IDS = [f"{i:02d}-{case.name}" for i, case in enumerate(CASES)]

#: The engines pinned against the legacy oracle.
ENGINES = ("indexed", "bigint", "batch", "service", "hybrid")

_MAX_STATES = 200000
_reference_cache: Dict[int, Dict[str, object]] = {}


def _reference(case_index: int) -> Dict[str, object]:
    """The legacy-oracle record of one case (computed once per test run).

    Every insertion the oracle materialises is checked against the
    object-space reference on the way; ``insertions`` records one
    ``(signal, matched)`` pair per insertion.
    """
    record = _reference_cache.get(case_index)
    if record is None:
        case = CASES[case_index]
        insertions = []

        def checked_insert(sg, partition, signal, *args, **kwargs):
            expected = insertion_outcome(
                reference_insert_signal, sg, partition, signal, *args, **kwargs
            )
            try:
                new_sg = insert_signal(sg, partition, signal, *args, **kwargs)
            except ValueError as error:
                insertions.append((signal, (type(error).__name__, str(error)) == expected))
                raise
            insertions.append((signal, ("graph", state_graph_layout(new_sg)) == expected))
            return new_sg

        with use_caches(False), _patched_insert_signal(checked_insert):
            report = encode_stg(
                case.build(), settings=case.solver_settings(), max_states=_MAX_STATES
            )
        record = {
            "fingerprint": report.result.fingerprint(),
            "fingerprint_json": json.dumps(report.result.fingerprint(), sort_keys=True),
            "signals": report.result.inserted_signals,
            "costs": [insertion.cost for insertion in report.result.records],
            "row": {k: v for k, v in report.table_row().items() if k != "cpu"},
            "area": report.area_literals,
            "solved": report.solved,
            "insertions": insertions,
        }
        _reference_cache[case_index] = record
    return record


@contextlib.contextmanager
def _patched_insert_signal(replacement):
    """Route the solver's ``insert_signal`` calls through ``replacement``."""
    modules = (search, sip)
    for module in modules:
        module.insert_signal = replacement
    try:
        yield
    finally:
        for module in modules:
            module.insert_signal = insert_signal


def _assert_result_conforms(result, reference) -> None:
    assert result.fingerprint() == reference["fingerprint"]
    assert json.dumps(result.fingerprint(), sort_keys=True) == reference["fingerprint_json"]
    assert result.inserted_signals == reference["signals"]
    assert [insertion.cost for insertion in result.records] == reference["costs"]


def _assert_item_conforms(item: Dict[str, object], reference) -> None:
    """A JSON result record (``BatchItem.as_dict()``, a stored service
    payload) against the oracle: summary minus timing, table row minus
    timing, and the inserted signals with their costs."""
    assert item["status"] == "ok", item["error"]
    assert item["engine"] == "explicit"
    assert item["solved"] == reference["solved"]
    summary = {key: value for key, value in item["summary"].items() if key != "cpu_seconds"}
    assert json.dumps(summary, sort_keys=True) == reference["fingerprint_json"]
    insertions = item["summary"]["insertions"]
    assert [insertion["signal"] for insertion in insertions] == reference["signals"]
    assert [insertion["cost"] for insertion in insertions] == [
        cost.as_dict() for cost in reference["costs"]
    ]
    row = {key: value for key, value in item["table_row"].items() if key != "cpu"}
    assert row == reference["row"]


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
def test_engine_conforms_to_legacy_oracle(case_index, engine, request):
    case = CASES[case_index]
    reference = _reference(case_index)
    settings = case.solver_settings()

    if engine in ("batch", "service"):
        records = request.getfixturevalue(f"{engine}_records")
        _assert_item_conforms(records[case_index], reference)
        return
    if engine == "bigint":
        settings = dataclasses.replace(settings, kernel="bigint")

    if engine == "hybrid":
        outcome = symbolic_encode(case.build(), settings=settings)
        if not reference["signals"] and reference["solved"]:
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
        _assert_result_conforms(outcome.result, reference)
        return

    report = encode_stg(case.build(), settings=settings, max_states=_MAX_STATES)
    _assert_result_conforms(report.result, reference)
    assert {k: v for k, v in report.table_row().items() if k != "cpu"} == reference["row"]
    assert report.area_literals == reference["area"]
    if report.solved:
        with use_caches(False):
            assert has_csc(report.result.final_sg)


@pytest.mark.parametrize("case_index", range(len(CASES)), ids=_IDS)
def test_legacy_insertions_match_object_space_reference(case_index):
    """The oracle decides by materialising, so it builds an expanded graph
    for every candidate it checks; each equals the reference's."""
    reference = _reference(case_index)
    insertions = reference["insertions"]
    assert len(insertions) >= len(reference["signals"])
    assert [signal for signal, matched in insertions if not matched] == []


# ----------------------------------------------------------------------
# hypothesis: legacy == indexed under random STGs
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


@hsettings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs())
def test_random_stgs_indexed_matches_legacy(stg):
    """Random STGs: the indexed engine fingerprints like the legacy oracle."""
    with use_caches(False):
        legacy = solve_csc(build_state_graph(stg, max_states=20000))
    indexed = solve_csc(build_state_graph(stg, max_states=20000))
    assert json.dumps(indexed.fingerprint(), sort_keys=True) == json.dumps(
        legacy.fingerprint(), sort_keys=True
    )


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs(), mode=st.sampled_from(["regions", "excitation"]))
def test_random_stgs_bitset_adjacency_matches_object_space(stg, mode):
    """Random STGs: the brick masks and their bitset adjacency equal the
    object-space compute_bricks and brick_adjacency."""
    from repro.core.bricks import brick_adjacency, compute_bricks
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
