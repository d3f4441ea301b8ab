"""Unit tests for the symbolic encoding tier (:mod:`repro.symbolic`)."""

from __future__ import annotations

import io
import sys

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.bench_stg import generators as gen
from repro.bench_stg.library import get_case
from repro.core.solver import solve_csc
from repro.engine.batch import encode_many, run_benchmark_suite, suite_cases
from repro.obs import configure_logging
from repro.petri.reachability import build_reachability_graph
from repro.stg import build_state_graph
from repro.stg.state_graph import InconsistentSTGError
from repro.stg.stg import STG
from repro.symbolic import (
    SymbolicStateGraph,
    conflict_core,
    detect_csc_conflicts,
    materialize_core,
    state_variable_order,
    symbolic_census,
    symbolic_check_csc,
    symbolic_encode,
)


# ----------------------------------------------------------------------
# variable ordering
# ----------------------------------------------------------------------
class TestVariableOrder:
    def test_covers_every_place_and_signal_exactly_once(self):
        for stg in (gen.vme_controller(), gen.parallel_toggles(4), gen.pipeline(3)):
            order = state_variable_order(stg)
            assert len(order) == len(set(order))
            places = {name for kind, name in order if kind == "place"}
            signals = {name for kind, name in order if kind == "signal"}
            assert places == set(stg.net.places)
            assert signals == set(stg.signals)

    def test_component_locality_on_independent_toggles(self):
        # Stage variables must be contiguous: for every stage, the span
        # of its variable positions equals the stage's variable count.
        stg = gen.independent_toggles(6)
        order = state_variable_order(stg)
        position = {key: i for i, key in enumerate(order)}
        for stage in range(1, 7):
            members = [
                position[("signal", f"a{stage}")],
                position[("signal", f"b{stage}")],
            ]
            members += [
                position[("place", place)]
                for place in stg.net.places
                if f"a{stage}" in str(place) or f"b{stage}" in str(place)
            ]
            assert max(members) - min(members) + 1 == len(members)


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
class TestCensus:
    def test_census_fields_on_vme(self):
        census = symbolic_census(gen.vme_controller())
        assert census.states == 14
        assert census.places == 11
        assert census.transitions == 10
        assert census.signals == 5
        assert census.iterations >= 1
        assert census.bdd_nodes > 2
        record = census.as_dict()
        assert record["states"] == 14
        assert "hit_rate" in record["cache"]

    def test_large_product_state_space(self):
        # 6^10 states — far beyond explicit enumeration in a test budget.
        census = symbolic_census(gen.independent_toggles(10))
        assert census.states == 6**10

    def test_counts_match_explicit_reachability(self):
        for stg in (gen.parallel_toggles(5), gen.pipeline(3), gen.ripple_counter(3)):
            explicit = build_reachability_graph(stg.net).num_markings
            assert SymbolicStateGraph(stg).count_states() == explicit

    def test_signal_that_never_switches_keeps_declared_value(self):
        stg = STG.from_arcs(
            "lazy",
            inputs=["a"],
            outputs=["b", "z"],
            arcs=[("a+", "b+"), ("b+", "a-"), ("a-", "b-"), ("b-", "a+")],
            marking=[("b-", "a+")],
            initial_values={"z": 1},
        )
        ssg = SymbolicStateGraph(stg)
        assert ssg.count_states() == build_state_graph(stg).num_states
        assert ssg.infer_initial_values()["z"] == 1

    def test_inferred_initial_values_match_explicit_encoding(self):
        for stg in (gen.vme_controller(), gen.sequencer(3), gen.pipeline(2)):
            sg = build_state_graph(stg)
            ssg = SymbolicStateGraph(stg)
            values = ssg.infer_initial_values()
            expected = dict(zip(sg.signals, sg.code(sg.initial_state)))
            assert values == expected

    def test_dummy_transitions_rejected(self):
        stg = gen.vme_controller()
        stg.add_dummy_transition("eps")
        with pytest.raises(NotImplementedError):
            SymbolicStateGraph(stg)

    def test_weighted_arcs_rejected(self):
        stg = gen.vme_controller()
        stg.net.add_place("extra")
        stg.net.add_arc("dsr+", "extra", weight=2)
        with pytest.raises(ValueError):
            SymbolicStateGraph(stg)

    def test_inconsistent_stg_rejected(self):
        stg = STG.from_arcs(
            "bad",
            inputs=["a"],
            outputs=[],
            arcs=[("a+/1", "a+/2"), ("a+/2", "a+/1")],
            marking=[("a+/2", "a+/1")],
        )
        with pytest.raises(InconsistentSTGError):
            build_state_graph(stg)  # the explicit front end rejects it...
        with pytest.raises(InconsistentSTGError):
            SymbolicStateGraph(stg).census()  # ...and so does the symbolic one

    def test_unsafe_initial_marking_rejected(self):
        stg = gen.vme_controller()
        stg.net.set_initial_marking({"<dtack-,dsr+>": 2})
        with pytest.raises(InconsistentSTGError):
            SymbolicStateGraph(stg).census()

    def test_unsafe_net_rejected(self):
        # two independent producers feed one shared place: after both
        # fire it holds two tokens (a bounded net, so both pipelines
        # terminate and must reject it)
        stg = STG.from_arcs(
            "unsafe",
            inputs=["a", "b"],
            outputs=["c"],
            arcs=[("p1", "a+"), ("p2", "b+"), ("a+", "q"), ("b+", "q"), ("q", "c+")],
            marking=["p1", "p2"],
        )
        with pytest.raises(InconsistentSTGError):
            build_state_graph(stg)
        with pytest.raises(InconsistentSTGError):
            SymbolicStateGraph(stg).census()


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_csc_clean_case(self):
        report = symbolic_check_csc(gen.handshake_wire_chain(3))
        assert report.csc_holds
        assert report.usc_pairs == 0
        assert report.csc_pairs == 0
        assert report.conflict_state_count == 0
        assert report.witnesses == []

    def test_vme_single_conflict(self):
        report = symbolic_check_csc(gen.vme_controller())
        assert not report.csc_holds
        assert report.usc_pairs == 1
        assert report.csc_pairs == 1
        assert report.conflict_state_count == 2
        assert len(report.witnesses) == 1
        witness = report.witnesses[0]
        assert witness["first_marking"] != witness["second_marking"]

    def test_witnesses_are_real_conflicts(self):
        stg = gen.duplicator_element()
        sg = build_state_graph(stg)
        report = symbolic_check_csc(stg, witness_limit=8)
        from repro.petri.net import Marking

        by_marking = {state: state for state in sg.states}
        for witness in report.witnesses:
            first = Marking({place: 1 for place in witness["first_marking"]})
            second = Marking({place: 1 for place in witness["second_marking"]})
            assert first in by_marking and second in by_marking
            assert sg.code(first) == sg.code(second)
            first_sig = frozenset(sg.enabled_noninput_edges(first))
            second_sig = frozenset(sg.enabled_noninput_edges(second))
            assert first_sig != second_sig

    def test_witness_limit_respected(self):
        report = symbolic_check_csc(gen.parallel_toggles(4), witness_limit=3)
        assert len(report.witnesses) == 3
        assert report.csc_pairs > 3

    def test_conflict_core_saturates_strongly_connected_graph(self):
        stg = gen.vme_controller()
        ssg = SymbolicStateGraph(stg)
        report = detect_csc_conflicts(ssg)
        core = conflict_core(ssg, report.conflict_states)
        assert core == ssg.explore()


# ----------------------------------------------------------------------
# witness completeness (regression: the picker returns *partial* cubes)
# ----------------------------------------------------------------------
def _with_dont_care_place(stg):
    """Graft a token-collapsing input loop onto ``stg``.

    ``free+`` consumes two places but produces one, so after
    ``free+; free-`` the net has silently lost the token in ``dc_p``:
    two reachable states differ *only* in that place, with identical
    codes and identical non-input signatures.  The conflict relation is
    then independent of ``dc_p``'s variable and ``pick_cube`` returns a
    cube with that level absent — the don't-care case the witness loop
    must complete before decoding and subtracting.
    """
    stg.add_input("free")
    stg.add_place("dc_p", 1)
    stg.add_place("dc_q", 1)
    stg.add_place("dc_s")
    stg.connect("dc_p", "free+")
    stg.connect("dc_q", "free+")
    stg.connect("free+", "dc_s")
    stg.connect("dc_s", "free-")
    stg.connect("free-", "dc_q")
    return stg


def _conflicted_stgs():
    """Generator families whose members have CSC conflicts of varying
    multiplicity (so witness requests exercise the subtraction loop),
    half of them grafted with a don't-care place."""
    families = st.one_of(
        st.integers(min_value=2, max_value=4).map(gen.parallel_toggles),
        st.integers(min_value=2, max_value=3).map(gen.ripple_counter),
        st.integers(min_value=1, max_value=3).map(gen.pipeline),
        st.integers(min_value=1, max_value=2).map(
            lambda n: gen.mixed_controller(n, 1)
        ),
    )
    return st.tuples(families, st.booleans()).map(
        lambda pair: _with_dont_care_place(pair[0]) if pair[1] else pair[0]
    )


class TestWitnessCompleteness:
    """The witness loop must fill the requested quota, one fully
    specified reachable conflict pair per entry.

    Regression for subtracting the *partial* cube ``pick_cube`` returns:
    an unconstrained level meant the subtraction swallowed a whole
    family of distinct conflicts, under-filling the list, and the
    decoded markings were completions the picker never checked.
    """

    @hsettings(max_examples=20, deadline=None)
    @given(stg=_conflicted_stgs(), limit=st.integers(min_value=1, max_value=12))
    def test_witness_quota_and_pair_validity(self, stg, limit):
        report = symbolic_check_csc(stg, witness_limit=limit)
        assert len(report.witnesses) == min(limit, report.csc_pairs)

        from repro.petri.net import Marking

        sg = build_state_graph(stg)
        reachable = set(sg.states)
        seen_pairs = set()
        for witness in report.witnesses:
            first = Marking({place: 1 for place in witness["first_marking"]})
            second = Marking({place: 1 for place in witness["second_marking"]})
            assert first in reachable and second in reachable
            assert sg.code(first) == sg.code(second)
            assert frozenset(sg.enabled_noninput_edges(first)) != frozenset(
                sg.enabled_noninput_edges(second)
            )
            pair = frozenset((first, second))
            assert pair not in seen_pairs  # each unordered conflict once
            seen_pairs.add(pair)

    def test_dont_care_cube_is_completed(self):
        """Regression: the conflict relation of this STG is independent
        of the grafted ``dc_p`` place, so ``pick_cube`` returns a cube
        missing that level.  Feeding the partial cube straight into the
        mirror subtraction swallowed all four (p, p') completions as one
        witness and under-filled the list."""
        stg = _with_dont_care_place(gen.vme_controller())
        ssg = SymbolicStateGraph(stg)
        report = detect_csc_conflicts(ssg, witness_limit=64)
        partial = ssg.bdd.pick_cube(report.relation)
        all_levels = ssg.unprimed_levels + ssg.primed_levels
        assert len(partial) < len(all_levels)  # the don't-care is real
        assert report.csc_pairs == 5
        assert len(report.witnesses) == 5
        markings = {
            (tuple(w["first_marking"]), tuple(w["second_marking"]))
            for w in report.witnesses
        }
        assert len(markings) == 5  # fully specified, pairwise distinct


# ----------------------------------------------------------------------
# hybrid bridge
# ----------------------------------------------------------------------
class TestBridge:
    def test_materialized_full_core_equals_explicit_graph(self):
        stg = gen.vme_controller()
        explicit = build_state_graph(stg)
        ssg = SymbolicStateGraph(stg)
        sg = materialize_core(ssg, ssg.explore())
        assert sg.states == explicit.states  # same objects, same order
        assert sg.encoding == explicit.encoding
        assert sg.initial_state == explicit.initial_state
        assert sg.ts.num_transitions == explicit.ts.num_transitions

    def test_materialize_rejects_incomplete_core(self):
        stg = gen.vme_controller()
        ssg = SymbolicStateGraph(stg)
        report = detect_csc_conflicts(ssg)
        # the raw conflict states exclude the initial state
        with pytest.raises(ValueError):
            materialize_core(ssg, report.conflict_states)

    def test_mode_symbolic_when_csc_holds(self):
        outcome = symbolic_encode(gen.handshake_wire_chain(3))
        assert outcome.mode == "symbolic"
        assert outcome.solved
        assert outcome.result is None
        assert outcome.conflicts_remaining == 0
        assert outcome.summary()["engine_mode"] == "symbolic"

    def test_mode_hybrid_solves_small_conflicted_case(self):
        outcome = symbolic_encode(gen.vme_controller())
        assert outcome.mode == "hybrid"
        assert outcome.solved
        assert outcome.inserted_signals == ["csc0"]
        assert outcome.materialized_states == 14
        assert outcome.report.core_states == 14
        row = outcome.table_row()
        assert row["mode"] == "hybrid" and row["states"] == 14

    def test_detection_only_beyond_core_budget_still_reports_core(self):
        from repro.core.solver import SolverSettings

        # Zero signal budget keeps par8 detection-only (its 514-state
        # core would otherwise be materialized and solved).
        outcome = symbolic_encode(
            gen.parallel_toggles(8), settings=SolverSettings(max_signals=0)
        )
        assert outcome.mode == "symbolic-only"
        assert not outcome.solved
        assert outcome.result is None
        assert outcome.report.core_states == 514  # computed on every path
        assert outcome.conflicts_remaining == outcome.report.csc_pairs

    def test_core_over_budget_is_detection_only(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        try:
            outcome = symbolic_encode(gen.vme_controller(), max_states=4)
        finally:
            configure_logging("info", stream=sys.stderr)
        assert outcome.mode == "symbolic-only"
        assert outcome.result is None
        assert not outcome.solved
        assert outcome.materialized_states is None
        assert outcome.report.core_states == 14
        line = stream.getvalue()
        assert "core_exceeds_budget" in line
        assert "core_states=14" in line and "max_states=4" in line

    def test_pipeline4_core_is_solved_explicitly(self):
        """pipeline4's 750-state conflict core is the whole graph: the
        bridge materializes it and returns the explicit encoding."""
        case = get_case("pipeline4", table="table1")
        settings = case.solver_settings(frontier_width=2)
        outcome = symbolic_encode(case.build(), settings=settings)
        assert outcome.mode == "hybrid"
        assert outcome.materialized_states == 750
        explicit = solve_csc(build_state_graph(case.build()), settings)
        assert outcome.result.fingerprint() == explicit.fingerprint()
        assert outcome.solved
        assert outcome.result.num_inserted == 5
        assert outcome.result.final_sg.num_states == 2144

    def test_zero_signal_budget_is_detection_only(self):
        from repro.core.solver import SolverSettings

        outcome = symbolic_encode(
            gen.vme_controller(), settings=SolverSettings(max_signals=0)
        )
        assert outcome.mode == "symbolic-only"
        assert outcome.report.core_states == 14  # computed even when not solving


# ----------------------------------------------------------------------
# engine dispatch (batch)
# ----------------------------------------------------------------------
class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            encode_many([gen.vme_controller()], engine="quantum")

    def test_symbolic_item_carries_census_and_engine(self):
        result = encode_many([gen.vme_controller()], engine="symbolic")
        item = result.items[0]
        assert item.engine == "symbolic"
        assert item.status == "ok" and item.solved
        assert item.census["states"] == 14
        assert item.summary["engine_mode"] == "hybrid"
        assert item.fingerprint()["engine"] == "symbolic"
        assert "census" not in item.fingerprint()

    def test_auto_routes_small_graphs_through_explicit_pipeline(self):
        auto = encode_many([gen.vme_controller()], engine="auto")
        explicit = encode_many([gen.vme_controller()], engine="explicit")
        item = auto.items[0]
        assert item.engine == "auto"
        assert item.census["states"] == 14
        # same encoding as the explicit pipeline (timing stripped), census on top
        assert item.fingerprint()["summary"] == explicit.items[0].fingerprint()["summary"]
        assert item.fingerprint()["table_row"] == explicit.items[0].fingerprint()["table_row"]
        assert "area" in item.table_row  # logic estimate ran

    def test_auto_stays_symbolic_beyond_budget(self):
        result = encode_many(
            [gen.parallel_toggles(16)], engine="auto", max_states=1000
        )
        item = result.items[0]
        assert item.status == "ok"
        assert item.summary["engine_mode"] == "symbolic-only"
        assert item.table_row["states"] == 131074

    def test_settings_engine_field_selects_engine(self):
        from repro.core.solver import SolverSettings

        result = encode_many(
            [gen.vme_controller()], settings=SolverSettings(engine="symbolic")
        )
        assert result.items[0].engine == "symbolic"

    def test_symbolic_serial_and_parallel_runs_identical(self):
        stgs = [gen.vme_controller(), gen.sequencer(3), gen.handshake_wire_chain(2)]
        serial = encode_many(stgs, engine="symbolic", jobs=1)
        parallel = encode_many(stgs, engine="symbolic", jobs=2)
        assert serial.fingerprints() == parallel.fingerprints()

    def test_symbolic_timeout_reports_timeout_status(self):
        result = encode_many(
            [gen.independent_toggles(12)], engine="symbolic", timeout=0.05
        )
        assert result.items[0].status == "timeout"

    def test_suite_cases_symbolic_admits_all_rows(self):
        explicit = suite_cases("table1", engine="explicit")
        symbolic = suite_cases("table1", engine="symbolic")
        assert {case.name for case in explicit} < {case.name for case in symbolic}
        assert any(not case.explicit_ok for case in symbolic)

    def test_symbolic_suite_smallest_smoke(self):
        result = run_benchmark_suite(table="table2", engine="symbolic", smallest=3)
        assert len(result.items) == 3
        assert all(item.status == "ok" for item in result.items)
        assert all(item.engine == "symbolic" for item in result.items)


# ----------------------------------------------------------------------
# the pipeline generator family
# ----------------------------------------------------------------------
class TestPipelineGenerator:
    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_safe_consistent_live(self, stages):
        stg = gen.pipeline(stages)
        result = build_reachability_graph(stg.net)
        assert result.safe
        assert not result.deadlocks
        assert build_state_graph(stg).is_consistent()

    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 5])
    def test_state_count_grows_geometrically(self, stages):
        # one free stage (6 states) and factor 5 per coupled stage
        assert SymbolicStateGraph(gen.pipeline(stages)).count_states() == 6 * 5 ** (
            stages - 1
        )

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            gen.pipeline(0)
