"""Cross-engine conformance harness.

With four ways to produce an encoding — the frozen legacy object-space
pipeline (``use_caches(False)``), the indexed engine, the symbolic tier's
hybrid bridge, and the sharded in-solve search (``search_jobs > 1``) —
per-PR differential files stopped scaling.  This module is the one
parameterized harness that pins every engine to the legacy oracle:

* ``EncodingResult.fingerprint()`` (insertions, costs, conflict and
  state counts, solved flag) must be byte-identical, JSON round-trip
  included;
* the inserted-signal *names* and the per-insertion :class:`Cost`
  tuples must match exactly;
* for the explicit engines, the benchmark table row (logic estimate
  included) must match as well.

Covered inputs: every solvable+enumerable library case of both tables
(the ``pyetrify bench --all`` regime, each with its own library solver
settings) plus the coupled ``pipeline(n)`` generator family, and
hypothesis-generated STGs from the parametric families.  The hypothesis
stress block is the deterministic-merge torture test of the sharded
search: random STGs solved at ``search_jobs ∈ {1, 2, 4}`` must
fingerprint identically (derandomized via the repository-wide
``--repro-seed`` profile, like every hypothesis suite here).

This file subsumes the solver-identity assertions that previously lived
in ``tests/test_indexed_differential.py`` (library + random indexed vs
legacy) and ``tests/test_symbolic_differential.py`` (hybrid bridge vs
explicit solver); those files keep their representation-level checks
(bitmask helper twins, census/ER/SR agreement).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.api import encode_stg
from repro.bench_stg import generators as gen
from repro.bench_stg.library import BenchmarkCase, TABLE1_CASES, TABLE2_CASES
from repro.core.csc import has_csc
from repro.core.solver import SolverSettings, solve_csc
from repro.engine import use_caches
from repro.engine.shard import use_shard_mode
from repro.service.fingerprint import request_fingerprint
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

#: The engines pinned against the legacy oracle.  ``sharded*`` run the
#: real worker pool (fork where the platform has it), so the
#: generate/evaluate/merge split is exercised end to end.
ENGINES = ("indexed", "sharded2", "sharded4", "hybrid")

_MAX_STATES = 200000
_reference_cache: Dict[int, Dict[str, object]] = {}


def _reference(case_index: int) -> Dict[str, object]:
    """The legacy-oracle record of one case (computed once per session)."""
    record = _reference_cache.get(case_index)
    if record is None:
        case = CASES[case_index]
        with use_caches(False):
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
        }
        _reference_cache[case_index] = record
    return record


def _assert_result_conforms(result, reference) -> None:
    assert result.fingerprint() == reference["fingerprint"]
    assert json.dumps(result.fingerprint(), sort_keys=True) == reference["fingerprint_json"]
    assert result.inserted_signals == reference["signals"]
    assert [insertion.cost for insertion in result.records] == reference["costs"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case_index", range(len(CASES)), ids=_IDS)
def test_engine_conforms_to_legacy_oracle(case_index, engine):
    case = CASES[case_index]
    reference = _reference(case_index)
    settings = case.solver_settings()

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

    if engine.startswith("sharded"):
        settings = dataclasses.replace(settings, search_jobs=int(engine[len("sharded"):]))
    report = encode_stg(case.build(), settings=settings, max_states=_MAX_STATES)
    _assert_result_conforms(report.result, reference)
    assert {k: v for k, v in report.table_row().items() if k != "cpu"} == reference["row"]
    assert report.area_literals == reference["area"]
    if report.solved:
        with use_caches(False):
            assert has_csc(report.result.final_sg)


def test_search_jobs_is_fingerprint_irrelevant():
    """Requests differing only in ``search_jobs`` dedupe to one store key
    (the sharded search is byte-identical to the serial one, so a width
    difference must not split the content-addressed result store)."""
    stg = gen.vme_controller()
    assert request_fingerprint(stg, SolverSettings()) == request_fingerprint(
        stg, SolverSettings(search_jobs=8)
    )
    assert request_fingerprint(stg, SolverSettings(search_jobs=2)) == request_fingerprint(
        stg, SolverSettings(search_jobs=4)
    )


# ----------------------------------------------------------------------
# hypothesis: the deterministic merge under random STGs
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
def test_random_stgs_sharded_matches_serial_and_legacy(stg):
    """Random STGs: legacy == indexed == sharded at every worker count.

    The sharded runs use the thread executor — same generate/evaluate/
    merge path as the process pool (the conformance tests above fork for
    real), without paying a fork per hypothesis example.
    """
    with use_caches(False):
        legacy = solve_csc(build_state_graph(stg, max_states=20000))
    fingerprints = {json.dumps(legacy.fingerprint(), sort_keys=True)}
    sg = build_state_graph(stg, max_states=20000)
    for jobs in (1, 2, 4):
        with use_shard_mode("thread"):
            result = solve_csc(sg, SolverSettings(search_jobs=jobs))
        fingerprints.add(json.dumps(result.fingerprint(), sort_keys=True))
    assert len(fingerprints) == 1
