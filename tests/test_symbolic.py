"""Unit tests for the symbolic encoding tier (:mod:`repro.symbolic`)."""

from __future__ import annotations

import io
import sys
import threading
import time

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.bench_stg import generators as gen
from repro.bench_stg.library import get_case
from repro.core.solver import solve_csc
from repro.engine.batch import encode_many, run_benchmark_suite, suite_cases
from repro.obs import configure_logging
from repro.petri.reachability import build_reachability_graph
from repro.stg import build_state_graph
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import InconsistentSTGError
from repro.stg.stg import STG, net_components
from repro.symbolic import (
    SymbolicStateGraph,
    detect_csc_conflicts,
    ensure_core,
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

    def test_each_level_stops_after_one_quiet_cycle(self):
        # both transitions of a toggle sit at the level of signal a, and
        # both toggle it: a+ grows the initial node, a- fires without
        # growing it, and a+ fires once more to confirm — it reads the
        # cofactor its own firing grew, so it cannot count as quiet at
        # once — ending the one quiet cycle
        stg = STG.from_arcs(
            "toggle",
            inputs=[],
            outputs=["a"],
            arcs=[("a+", "a-"), ("a-", "a+")],
            marking=[("a-", "a+")],
        )
        census = SymbolicStateGraph(stg).census()
        assert census.states == build_state_graph(stg).num_states == 2
        assert census.iterations == 3

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
        with pytest.raises(InconsistentSTGError, match="signal .a. forced to both"):
            build_state_graph(stg)  # the explicit front end rejects it...
        # ...and so does the symbolic one, naming the transition that fires
        # with its signal already at the post-firing value
        with pytest.raises(InconsistentSTGError) as raised:
            SymbolicStateGraph(stg).census()
        message = str(raised.value)
        assert message.startswith("transition 'a+/2' of 'bad' is enabled")
        assert "'a' value already matches its post-firing value" in message
        assert message.endswith("the STG is not consistent")

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
        unsafe = "the underlying Petri net of 'unsafe' is not safe"
        with pytest.raises(InconsistentSTGError, match=unsafe):
            build_state_graph(stg)
        with pytest.raises(InconsistentSTGError, match=unsafe):
            SymbolicStateGraph(stg).census()

    def test_census_seconds_cover_the_safety_check(self, monkeypatch):
        checked = SymbolicStateGraph._check_safe_and_consistent

        def slow_check(ssg, reached):
            time.sleep(0.2)
            checked(ssg, reached)

        monkeypatch.setattr(SymbolicStateGraph, "_check_safe_and_consistent", slow_check)
        census = SymbolicStateGraph(gen.vme_controller()).census()
        assert census.states == 14
        assert census.seconds >= 0.2


class TestRecursionLimit:
    def test_entry_points_restore_the_recursion_limit(self, monkeypatch):
        raised = []
        saturate = SymbolicStateGraph._saturate

        def spy(ssg, initial):
            raised.append(sys.getrecursionlimit())
            return saturate(ssg, initial)

        monkeypatch.setattr(SymbolicStateGraph, "_saturate", spy)
        limit = sys.getrecursionlimit()
        stg = gen.pipeline(3)
        symbolic_census(stg)
        assert sys.getrecursionlimit() == limit
        symbolic_check_csc(stg)
        assert sys.getrecursionlimit() == limit
        symbolic_encode(stg)
        assert sys.getrecursionlimit() == limit
        assert len(raised) == 3 and min(raised) > limit

    def test_overlapping_scopes_restore_the_limit(self):
        # worker threads enter and leave scopes in any interleaving; the
        # last one out must restore the limit the first one in found
        stg = gen.vme_controller()
        limit = sys.getrecursionlimit()
        errors = []

        def work():
            try:
                for _ in range(20):
                    SymbolicStateGraph(stg).census()
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sys.getrecursionlimit() == limit

    def test_deep_saturation_fits_the_raised_limit(self):
        # 503 state variables: saturation stacks more frames than the
        # interpreter's default limit allows
        stg = gen.parallel_toggles(100)
        limit = sys.getrecursionlimit()
        assert symbolic_census(stg).states == 2**101 + 2  # the par closed form
        assert sys.getrecursionlimit() == limit


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

    def test_pipeline12_check_beyond_enumeration(self):
        # the largest coupled Table-1 row: one component, 2.9e8 states
        report = symbolic_check_csc(get_case("pipeline12", table="table1").build())
        assert report.states == 292_968_750
        assert report.csc_pairs == 5_878_595_666
        assert not report.csc_holds

    def test_witness_limit_respected(self):
        report = symbolic_check_csc(gen.parallel_toggles(4), witness_limit=3)
        assert len(report.witnesses) == 3
        assert report.csc_pairs > 3

    def test_conflict_core_saturates_strongly_connected_graph(self):
        stg = gen.vme_controller()
        ssg = SymbolicStateGraph(stg)
        report = detect_csc_conflicts(ssg)
        core = ensure_core(ssg, report)
        assert core == ssg.explore()
        assert report.core_states == report.states == 14

    def test_conflict_core_of_csc_clean_graph_is_empty(self):
        ssg = SymbolicStateGraph(gen.handshake_wire_chain(3))
        report = detect_csc_conflicts(ssg)
        assert report.csc_holds
        assert ensure_core(ssg, report) == ssg.bdd.false
        assert report.core_states == 0


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
        # the bridge builds the conflicted graph with the symbolically
        # inferred initial values: the very graph the explicit front end
        # builds (same state objects, same order, same encoding)
        for stg in (gen.vme_controller(), gen.pipeline(2), gen.duplicator_element()):
            explicit = build_state_graph(stg)
            ssg = SymbolicStateGraph(stg)
            sg = build_state_graph(stg, initial_values=ssg.infer_initial_values())
            assert sg.states == explicit.states
            assert sg.encoding == explicit.encoding
            assert sg.initial_state == explicit.initial_state
            assert sg.ts.num_transitions == explicit.ts.num_transitions
            assert sg.num_states == ssg.count_states()

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
        # a coupled spec whose check takes seconds: composition makes the
        # disjoint toggles rows, and saturation the par rows, far too fast
        # to outlast the bound
        result = encode_many([gen.pipeline(12)], engine="symbolic", timeout=0.05)
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
# composition over disjoint components
# ----------------------------------------------------------------------
def _disjoint_union(parts, name="union"):
    """The disjoint union of ``parts``, signals and places renamed apart."""
    union = STG(name)
    for index, part in enumerate(parts):
        tag = f"u{index}_"
        for signal, signal_type in part.signal_types.items():
            union.add_signal(tag + signal, signal_type)
        for place in part.net.places:
            union.add_place(tag + place)
        for transition in part.net.transitions:
            label = part.label_of(transition)
            renamed = union.add_transition(
                SignalEdge(tag + label.signal, label.direction, label.index)
            )
            for place, weight in part.net.preset(transition).items():
                union.net.add_arc(tag + place, renamed, weight)
            for place, weight in part.net.postset(transition).items():
                union.net.add_arc(renamed, tag + place, weight)
        for signal, value in part.initial_values.items():
            union.set_initial_value(tag + signal, value)
    union.set_marking(
        {
            f"u{index}_{place}": count
            for index, part in enumerate(parts)
            for place, count in part.initial_marking.items()
        }
    )
    return union


def _monolithic_check(stg, witness_limit=4):
    ssg = SymbolicStateGraph(stg)
    report = detect_csc_conflicts(ssg, witness_limit=witness_limit)
    ensure_core(ssg, report)
    return report


#: Small specifications (at most 16 states) whose unions of three stay
#: cheap to enumerate for the witness checks.
_SMALL_PARTS = (
    gen.vme_controller,
    lambda: gen.handshake_wire_chain(2),
    lambda: gen.handshake_wire_chain(3),
    lambda: gen.parallel_toggles(2),
    gen.duplicator_element,
    lambda: gen.pipeline(1),
    lambda: gen.ripple_counter(2),
    lambda: get_case("mod4-counter", "table2").build(),
    lambda: get_case("sbuf-read-ctl", "table2").build(),
)

_VERDICT_FIELDS = (
    "states", "usc_pairs", "csc_pairs", "csc_holds", "conflict_state_count", "core_states",
)


def _assert_composed_matches_monolithic(stg, witness_limit):
    from repro.petri.net import Marking

    composed = symbolic_check_csc(stg, witness_limit=witness_limit)
    monolithic = _monolithic_check(stg, witness_limit=witness_limit)
    for name in _VERDICT_FIELDS:
        assert getattr(composed, name) == getattr(monolithic, name), name
    assert symbolic_census(stg).states == monolithic.states
    assert len(composed.witnesses) == min(witness_limit, monolithic.csc_pairs)

    sg = build_state_graph(stg)
    reachable = set(sg.states)
    seen = set()
    for witness in composed.witnesses:
        first = Marking({place: 1 for place in witness["first_marking"]})
        second = Marking({place: 1 for place in witness["second_marking"]})
        assert first in reachable and second in reachable
        code = "".join(str(bit) for bit in sg.code(first))
        assert code == witness["code"] == "".join(str(bit) for bit in sg.code(second))
        assert frozenset(sg.enabled_noninput_edges(first)) != frozenset(
            sg.enabled_noninput_edges(second)
        )
        pair = frozenset((first, second))
        assert pair not in seen
        seen.add(pair)
    return composed


class TestComposition:
    def test_net_components_of_a_connected_stg_is_the_stg_itself(self):
        stg = gen.vme_controller()
        assert net_components(stg) == [stg]

    def test_net_components_split_the_members_apart(self):
        stg = gen.independent_toggles(3)
        parts = net_components(stg)
        assert len(parts) == 3
        assert [part.name for part in parts] == [stg.name] * 3
        assert sum(len(part.signals) for part in parts) == len(stg.signals)
        assert sum(part.net.num_places for part in parts) == stg.net.num_places
        assert sum(part.net.num_transitions for part in parts) == stg.net.num_transitions
        order = {t: i for i, t in enumerate(stg.net.transitions)}
        firsts = [order[part.net.transitions[0]] for part in parts]
        assert firsts == sorted(firsts)  # ordered by first transition
        for part in parts:
            assert part.net.transitions == sorted(part.net.transitions, key=order.get)
            assert part.signals == [s for s in stg.signals if s in part.signal_types]

    def test_isolated_place_and_signal_join_the_first_component(self):
        stg = gen.independent_toggles(2)
        stg.add_place("lonely", 1)
        stg.add_output("idle")
        first, second = net_components(stg)
        assert "lonely" in first.net.places and "idle" in first.signals
        assert "lonely" not in second.net.places
        report = symbolic_check_csc(stg)
        for name in _VERDICT_FIELDS:
            assert getattr(report, name) == getattr(_monolithic_check(stg), name)

    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 5, 6])
    def test_toggles_match_the_monolithic_check(self, stages):
        stg = gen.independent_toggles(stages)
        report = _assert_composed_matches_monolithic(stg, witness_limit=6)
        assert report.as_dict()["components"] == stages

    @hsettings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(_SMALL_PARTS) - 1),
            min_size=2,
            max_size=3,
        ),
        limit=st.integers(min_value=0, max_value=12),
    )
    def test_disjoint_unions_match_the_monolithic_check(self, picks, limit):
        stg = _disjoint_union([_SMALL_PARTS[pick]() for pick in picks])
        report = _assert_composed_matches_monolithic(stg, witness_limit=limit)
        assert len(report.parts) == len(picks)
        assert report.relation is None and report.conflict_states is None

    def test_single_component_rows_keep_the_monolithic_report(self):
        """Combining one component is the identity: every connected
        library row's census and verdict are those of its one symbolic
        graph, witnesses included (the two slowest rows left out)."""
        from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES

        def strip(record):
            return {k: v for k, v in record.items() if k not in ("seconds", "cache")}

        for case in TABLE1_CASES + TABLE2_CASES:
            stg = case.build()
            if case.name in ("pipeline8", "pipeline12") or len(net_components(stg)) > 1:
                continue
            assert strip(symbolic_check_csc(stg).as_dict()) == strip(
                _monolithic_check(stg).as_dict()
            ), case.name
            assert strip(symbolic_census(stg).as_dict()) == strip(
                SymbolicStateGraph(stg).census().as_dict()
            ), case.name

    def test_pipe_rows_are_the_only_multi_component_rows(self):
        from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES

        split = {
            case.name: len(net_components(case.build()))
            for case in TABLE1_CASES + TABLE2_CASES
        }
        assert {name: n for name, n in split.items() if n > 1} == {
            "pipe8": 8, "pipe16": 16, "pipe24": 24,
        }

    def test_no_entry_point_builds_a_multi_component_graph(self, monkeypatch, capsys):
        from repro.cli import main

        components = []
        original = SymbolicStateGraph.__init__

        def recording_init(self, stg, *args, **kwargs):
            components.append(len(net_components(stg)))
            original(self, stg, *args, **kwargs)

        monkeypatch.setattr(SymbolicStateGraph, "__init__", recording_init)
        stg = gen.independent_toggles(3)
        symbolic_census(stg)
        symbolic_check_csc(stg)
        symbolic_encode(stg)
        encode_many([stg], engine="symbolic")
        encode_many([stg], engine="auto")
        main(["census", "--benchmark", "pipe8", "--table", "table1"])
        main(["check-csc", "--benchmark", "pipe8", "--table", "table1"])
        capsys.readouterr()
        assert components and set(components) == {1}
        assert len(components) == 5 * 3 + 2 * 8

    def test_composed_encode_solves_like_the_explicit_pipeline(self):
        stg = gen.independent_toggles(2)
        settings = get_case("pipe8", "table1").solver_settings()
        outcome = symbolic_encode(stg, settings=settings)
        explicit = solve_csc(build_state_graph(stg), settings)
        assert outcome.mode == "hybrid"
        assert outcome.result.fingerprint() == explicit.fingerprint()
        assert outcome.census.states == 36
        assert outcome.census.as_dict()["components"] == 2

    @pytest.mark.parametrize("kind", ["unsafe", "inconsistent"])
    def test_a_bad_component_raises_the_monolithic_error(self, kind):
        if kind == "unsafe":
            bad = STG.from_arcs(
                "bad",
                inputs=[],
                outputs=["a"],
                arcs=[("a+", "a-"), ("a-", "a+"), ("a-", "sink")],
                marking=[("a-", "a+")],
            )
        else:
            bad = STG.from_arcs(
                "bad",
                inputs=["a"],
                outputs=[],
                arcs=[("a+/1", "a+/2"), ("a+/2", "a+/1")],
                marking=[("a+/2", "a+/1")],
            )
        stg = _disjoint_union([gen.vme_controller(), bad], name="whole")
        assert len(net_components(stg)) == 2
        with pytest.raises(InconsistentSTGError) as monolithic:
            SymbolicStateGraph(stg).census()
        assert "'whole'" in str(monolithic.value)
        for entry_point in (symbolic_census, symbolic_check_csc):
            with pytest.raises(InconsistentSTGError) as composed:
                entry_point(stg)
            assert str(composed.value) == str(monolithic.value)


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
