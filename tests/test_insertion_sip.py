"""Tests for event insertion (Figure 2) and SIP checking (Section 3)."""

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from references import (
    compute_bricks,
    csc_conflicts_from_scratch,
    delayed_events,
    ipartition_from_block,
    reference_check_insertion,
)

from repro.core import check_insertion, csc_conflicts, insert_signal
from repro.core.insertion import IllegalInsertionError
from repro.core.ipartition import IPartition
from repro.stg import SignalEdge, SignalType
from repro.ts import language_equivalent


class TestInsertSignal:
    def test_vme_insertion_basic_properties(self, vme_sg):
        """Insert a signal on a hand-chosen block and check the Figure-2
        scheme: states split, codes extended, behaviour preserved."""
        conflicts = csc_conflicts(vme_sg)
        conflict = conflicts[0]
        # Use any block that firmly separates the conflicting pair.
        block = None
        for brick in compute_bricks(vme_sg.ts):
            partition = ipartition_from_block(vme_sg.ts, brick)
            if partition.splus and partition.sminus and partition.separates(
                conflict.first, conflict.second
            ):
                block = brick
                break
        if block is None:
            pytest.skip("no single brick separates the VME conflict")
        partition = ipartition_from_block(vme_sg.ts, block)
        new_sg = insert_signal(vme_sg, partition, "x")
        assert "x" in new_sg.signals
        assert new_sg.num_states == vme_sg.num_states + len(partition.splus) + len(
            partition.sminus
        ) or new_sg.num_states <= vme_sg.num_states + len(partition.splus) + len(partition.sminus)
        assert new_sg.is_consistent()
        assert new_sg.is_deterministic()

    def test_insertion_adds_exactly_one_signal_column(self, toggle_sg):
        partition = ipartition_from_block(toggle_sg.ts, set(list(toggle_sg.states)[:3]))
        if not partition.splus or not partition.sminus:
            pytest.skip("degenerate partition for this ordering")
        new_sg = insert_signal(toggle_sg, partition, "x")
        for state in new_sg.states:
            assert len(new_sg.code(state)) == len(toggle_sg.signals) + 1

    def test_duplicate_signal_name_rejected(self, vme_sg):
        partition = ipartition_from_block(vme_sg.ts, {vme_sg.initial_state})
        with pytest.raises(ValueError):
            insert_signal(vme_sg, partition, "dsr")

    def test_uncovered_partition_rejected(self, vme_sg):
        partition = IPartition(
            s0=frozenset({vme_sg.initial_state}),
            splus=frozenset(),
            s1=frozenset(),
            sminus=frozenset(),
        )
        with pytest.raises(IllegalInsertionError):
            insert_signal(vme_sg, partition, "x")

    def test_trace_equivalence_modulo_inserted_signal(self, sequencer2_sg):
        from repro.core import SearchSettings, find_insertion_plan

        plan = find_insertion_plan(sequencer2_sg, "x", SearchSettings())
        assert plan is not None
        hidden = {SignalEdge.rise("x"), SignalEdge.fall("x")}
        assert language_equivalent(sequencer2_sg.ts, plan.new_sg.ts, hidden=hidden)


class TestCheckInsertion:
    def test_valid_insertion_accepted(self, vme_sg):
        from repro.core import SearchSettings, find_insertion_plan

        plan = find_insertion_plan(vme_sg, "x", SearchSettings())
        assert plan is not None
        assert plan.check.ok
        assert plan.check.new_sg is not None

    def test_degenerate_partition_rejected(self, vme_sg):
        partition = IPartition(
            s0=frozenset(vme_sg.states),
            splus=frozenset(),
            s1=frozenset(),
            sminus=frozenset(),
        )
        check = check_insertion(vme_sg, partition)
        assert not check.ok
        assert any("never switch" in reason for reason in check.reasons)

    def test_input_delay_detected_and_relaxable(self, toggle_sg):
        """In the toggle, a minimal border on the a=1 block delays the input
        a- — rejected in strict mode, accepted when explicitly allowed."""
        # Block = {states with a=1 and b=0 or 1 before the first a-}.
        states = sorted(toggle_sg.states, key=lambda s: repr(s))
        block = {s for s in toggle_sg.states if toggle_sg.value(s, "a") == 1 and toggle_sg.value(s, "b") == 0}
        block |= {s for s in toggle_sg.states if toggle_sg.value(s, "b") == 1}
        partition = ipartition_from_block(toggle_sg.ts, block)
        if not partition.splus or not partition.sminus:
            pytest.skip("ordering produced a degenerate partition")
        delayed = delayed_events(toggle_sg.ts, partition)
        if not any(toggle_sg.is_input_edge(e) for e in delayed):
            pytest.skip("this block does not delay an input")
        strict = check_insertion(toggle_sg, partition, allow_input_delay=False)
        assert not strict.ok
        assert any("delayed" in reason for reason in strict.reasons)

    def test_relaxed_mode_solves_toggle(self, toggle_sg):
        from repro.core import SearchSettings, SolverSettings, solve_csc

        settings = SolverSettings(search=SearchSettings(allow_input_delay=True))
        result = solve_csc(toggle_sg, settings)
        assert result.solved
        assert result.num_inserted >= 1


# ----------------------------------------------------------------------
# index-space insertion decisions vs the object-space oracle
# ----------------------------------------------------------------------
def _oracle_decision(sg, partition, persistent_before, allow_input_delay=False):
    """``(ok, first rejection kind, remaining conflicts)`` from the
    object-space check on the materialised graph."""
    check = reference_check_insertion(
        sg,
        partition,
        signal="x",
        persistent_before=persistent_before,
        allow_input_delay=allow_input_delay,
    )
    remaining = len(csc_conflicts_from_scratch(check.new_sg)) if check.ok else None
    return check.ok, check.kind, remaining


def _index_decision(sg, partition, allow_input_delay=False):
    from repro.core.indexed import indexed_state_graph

    index = indexed_state_graph(sg)
    verdict = index.decide_insertion(
        index.side_table(partition),
        "x",
        index.persistent_events(),
        allow_input_delay=allow_input_delay,
    )
    return verdict.ok, verdict.kind, verdict.remaining_conflicts


def _assert_decisions_match(sg, partition, allow_input_delay=False):
    from repro.core.indexed import indexed_state_graph

    persistent_before = set(indexed_state_graph(sg).persistent_events())
    expected = _oracle_decision(sg, partition, persistent_before, allow_input_delay)
    assert _index_decision(sg, partition, allow_input_delay) == expected
    return expected[1] or "ok"


def _random_partitions(sg, rng, count):
    """Legal partitions from random blocks, the same with S0/S1 states
    moved into the excitation regions, and arbitrary side tables."""
    states = sg.states
    for trial in range(count):
        block = {state for state in states if rng.random() < 0.5}
        partition = ipartition_from_block(sg.ts, block)
        if trial % 3 == 1:
            into_plus = {state for state in partition.s0 if rng.random() < 0.5}
            into_minus = {state for state in partition.s1 if rng.random() < 0.3}
            partition = IPartition(
                s0=partition.s0 - into_plus,
                splus=partition.splus | into_plus,
                s1=partition.s1 - into_minus,
                sminus=partition.sminus | into_minus,
            )
        elif trial % 3 == 2:
            sides = [rng.randrange(4) for _ in states]
            partition = IPartition(
                *(
                    frozenset(s for s, side in zip(states, sides) if side == code)
                    for code in range(4)
                )
            )
        yield partition


def _handmade_sg(triples, codes):
    """A two-output-signal state graph over hand-written arcs."""
    from repro.stg.state_graph import StateGraph
    from repro.ts.transition_system import TransitionSystem

    ts = TransitionSystem.from_triples(triples, initial="s0")
    return StateGraph(
        ts,
        ["a", "b"],
        {"a": SignalType.OUTPUT, "b": SignalType.OUTPUT},
        {state: codes[state] for state in ts.states},
    )


def _noncommutative_sg():
    """``a+ b+`` and ``b+ a+`` from ``s0`` end in different states."""
    a_rise, a_fall = SignalEdge.rise("a"), SignalEdge.fall("a")
    b_rise, b_fall = SignalEdge.rise("b"), SignalEdge.fall("b")
    return _handmade_sg(
        [
            ("s0", a_rise, "s1"),
            ("s0", b_rise, "s2"),
            ("s1", b_rise, "s3"),
            ("s2", a_rise, "s4"),
            ("s3", a_fall, "s2"),
            ("s4", b_fall, "s1"),
            ("s1", a_fall, "s0"),
            ("s2", b_fall, "s0"),
        ],
        {
            "s0": (0, 0),
            "s1": (1, 0),
            "s2": (0, 1),
            "s3": (1, 1),
            "s4": (1, 1),
        },
    )


def _nondeterministic_sg():
    """``a+`` from ``s0`` leads to two different states."""
    a_rise, a_fall = SignalEdge.rise("a"), SignalEdge.fall("a")
    return _handmade_sg(
        [
            ("s0", a_rise, "s1"),
            ("s0", a_rise, "s2"),
            ("s1", a_fall, "s0"),
            ("s2", a_fall, "s0"),
        ],
        {"s0": (0, 0), "s1": (1, 0), "s2": (1, 0)},
    )


class TestIndexSpaceDecision:
    """``IndexedStateGraph.decide_insertion`` must give the object-space
    check's verdict on the materialised graph: the same ok flag, the same
    first rejection kind and the same remaining CSC conflict count."""

    def test_library_rows_match_object_space_oracle(self, monkeypatch):
        """Every candidate ``solve_csc`` decides on the 24 Table-2 rows."""
        from repro.bench_stg.library import TABLE2_CASES
        from repro.core import indexed, search, solve_csc
        from repro.stg.state_graph import build_state_graph

        graphs = {}
        decided = []
        find_plan = search._find_insertion_plan_indexed
        decide = indexed.IndexedStateGraph.decide_insertion

        def recording_find(sg, *args, **kwargs):
            graphs[id(indexed.indexed_state_graph(sg))] = sg
            return find_plan(sg, *args, **kwargs)

        def recording_decide(index, side, signal, persistent_before, **kwargs):
            verdict = decide(index, side, signal, persistent_before, **kwargs)
            decided.append((index, bytes(side), signal, set(persistent_before), kwargs, verdict))
            return verdict

        monkeypatch.setattr(search, "_find_insertion_plan_indexed", recording_find)
        monkeypatch.setattr(indexed.IndexedStateGraph, "decide_insertion", recording_decide)
        for case in TABLE2_CASES:
            solve_csc(build_state_graph(case.build()), case.solver_settings())

        assert len(decided) > len(TABLE2_CASES)
        kinds = set()
        for index, side, signal, persistent_before, kwargs, verdict in decided:
            sg = graphs[id(index)]
            partition = index.partition_of(side)
            ok, kind, remaining = _oracle_decision(
                sg, partition, persistent_before, kwargs["allow_input_delay"]
            )
            if not kwargs["count_conflicts"]:
                remaining = None
            assert (verdict.ok, verdict.kind, verdict.remaining_conflicts) == (
                ok,
                kind,
                remaining,
            ), (sg.name, signal)
            kinds.add(kind or "ok")
        assert {"ok", "persistency"} <= kinds

    @pytest.mark.parametrize("fixture", ["vme_sg", "toggle_sg"])
    def test_crafted_partitions_match_object_space_oracle(self, fixture, request):
        import random

        sg = request.getfixturevalue(fixture)
        rng = random.Random(fixture)
        kinds = set()
        for partition in _random_partitions(sg, rng, 300):
            for allow_input_delay in (False, True):
                kinds.add(_assert_decisions_match(sg, partition, allow_input_delay))
        everything = IPartition(
            s0=frozenset(sg.states), splus=frozenset(), s1=frozenset(), sminus=frozenset()
        )
        kinds.add(_assert_decisions_match(sg, everything))
        uncovered = IPartition(
            s0=frozenset(sg.states[1:]),
            splus=frozenset(),
            s1=frozenset(),
            sminus=frozenset(sg.states[:1]),
        )
        kinds.add(_assert_decisions_match(sg, uncovered))
        expected = {"ok", "degenerate", "input_delay", "illegal"}
        if fixture == "vme_sg":
            expected.add("persistency")
        assert expected <= kinds

    def test_determinism_and_commutativity_rejections_match(self):
        """A deterministic, commutative parent cannot lose either property
        by an insertion, so these two kinds need hand-made parents."""
        cases = (
            (_nondeterministic_sg(), {"s0"}, "determinism"),
            (_noncommutative_sg(), {"s0"}, "commutativity"),
        )
        for sg, block, kind in cases:
            partition = ipartition_from_block(sg.ts, block)
            assert _assert_decisions_match(sg, partition) == kind
            check = check_insertion(sg, partition)
            assert not check.ok and check.kind == kind and check.new_sg is None

    def test_index_of_a_nondeterministic_graph_keeps_the_first_successor(self):
        from repro.core.indexed import IndexedStateGraph

        index = IndexedStateGraph(_nondeterministic_sg())
        first = index.states.index("s1")
        assert not index.deterministic
        assert index.succ_maps[index.states.index("s0")] == {SignalEdge.rise("a"): first}

    def test_check_insertion_materialises_only_valid_insertions(self, vme_sg):
        from repro.core import SearchSettings, find_insertion_plan

        plan = find_insertion_plan(vme_sg, "x", SearchSettings())
        check = check_insertion(vme_sg, plan.partition, signal="x")
        assert check.ok and check.kind is None
        assert check.new_sg.num_states == plan.new_sg.num_states
        assert check.delayed == plan.check.delayed
        with pytest.raises(ValueError):
            check_insertion(vme_sg, plan.partition, signal="dsr")

    def test_search_materialises_only_committed_insertions(self, monkeypatch):
        """master-read decides 23 candidates for 4 insertions; only the 4
        committed ones become expanded state graphs."""
        from repro.bench_stg.library import get_case
        from repro.core import search, solve_csc
        from repro.stg.state_graph import build_state_graph

        built = []

        def counting_insert(*args, **kwargs):
            built.append(args[2])
            return insert_signal(*args, **kwargs)

        monkeypatch.setattr(search, "insert_signal", counting_insert)
        case = get_case("master-read")
        result = solve_csc(build_state_graph(case.build()), case.solver_settings())
        assert result.num_inserted >= 1
        assert built == result.inserted_signals


_FAMILIES = ("sequencer", "mixed", "parallel", "counter", "chain", "pipeline")


@st.composite
def _stg_and_partition_seed(draw):
    from repro.bench_stg import generators as gen

    family = draw(st.sampled_from(_FAMILIES))
    if family == "sequencer":
        stg = gen.sequencer(draw(st.integers(min_value=2, max_value=4)))
    elif family == "mixed":
        stg = gen.mixed_controller(
            draw(st.integers(min_value=1, max_value=2)),
            draw(st.integers(min_value=0, max_value=2)),
        )
    elif family == "parallel":
        stg = gen.parallel_toggles(draw(st.integers(min_value=1, max_value=3)))
    elif family == "counter":
        stg = gen.ripple_counter(draw(st.integers(min_value=2, max_value=3)))
    elif family == "pipeline":
        stg = gen.pipeline(draw(st.integers(min_value=1, max_value=2)))
    else:
        stg = gen.handshake_wire_chain(draw(st.integers(min_value=1, max_value=3)))
    return stg, draw(st.integers(min_value=0, max_value=2**16))


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stg_and_partition_seed())
def test_random_stg_decisions_match_object_space_oracle(drawn):
    import random

    from repro.stg.state_graph import build_state_graph

    stg, seed = drawn
    sg = build_state_graph(stg, max_states=5000)
    rng = random.Random(seed)
    for partition in _random_partitions(sg, rng, 6):
        _assert_decisions_match(sg, partition, allow_input_delay=bool(rng.getrandbits(1)))


# ----------------------------------------------------------------------
# insert_signal vs the object-space reference
# ----------------------------------------------------------------------
def _assert_insertion_matches_reference(sg, partition, signal="x"):
    """The same expanded graph (every order included) or the same error."""
    from references import insertion_outcome, reference_insert_signal

    expected = insertion_outcome(reference_insert_signal, sg, partition, signal)
    assert insertion_outcome(insert_signal, sg, partition, signal) == expected
    return expected[0]


class TestInsertionMatchesObjectSpaceReference:
    """``insert_signal`` builds the expanded graph from the parent's index;
    the object-space replay of ``references.reference_insert_signal``
    must give the same graph, state order and every adjacency order
    included, and the same errors."""

    def test_library_insertions_match_reference(self, monkeypatch):
        """Every insertion materialised while solving the 24 Table-2 rows
        and the Table-1 rows the library solves."""
        from references import reference_insert_signal, state_graph_layout

        from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES
        from repro.core import search, sip, solve_csc
        from repro.stg.state_graph import build_state_graph

        compared = []

        def checked_insert(sg, partition, signal, *args, replay=None, **kwargs):
            # The search hands over the replay of its accepted verdict; the
            # reference replays in object space on its own.
            expected = state_graph_layout(
                reference_insert_signal(sg, partition, signal, *args, **kwargs)
            )
            new_sg = insert_signal(sg, partition, signal, *args, replay=replay, **kwargs)
            compared.append((sg.name, signal, state_graph_layout(new_sg) == expected))
            return new_sg

        monkeypatch.setattr(search, "insert_signal", checked_insert)
        monkeypatch.setattr(sip, "insert_signal", checked_insert)
        inserted = 0
        for case in TABLE2_CASES + [case for case in TABLE1_CASES if case.solve]:
            result = solve_csc(build_state_graph(case.build()), case.solver_settings())
            inserted += result.num_inserted
        assert inserted > 0 and len(compared) >= inserted
        assert [entry for entry in compared if not entry[2]] == []

    @pytest.mark.parametrize("fixture", ["vme_sg", "toggle_sg"])
    def test_crafted_partitions_match_reference(self, fixture, request):
        """Legal, uncovered and illegal-crossing partitions, and a signal
        name that already exists."""
        import random

        sg = request.getfixturevalue(fixture)
        rng = random.Random(fixture)
        outcomes = set()
        for partition in _random_partitions(sg, rng, 120):
            outcomes.add(_assert_insertion_matches_reference(sg, partition))
        uncovered = IPartition(
            s0=frozenset(sg.states[1:]),
            splus=frozenset(),
            s1=frozenset(),
            sminus=frozenset(),
        )
        outcomes.add(_assert_insertion_matches_reference(sg, uncovered))
        partition = ipartition_from_block(sg.ts, set(sg.states[: len(sg.states) // 2]))
        outcomes.add(_assert_insertion_matches_reference(sg, partition, sg.signals[0]))
        assert outcomes == {"graph", "IllegalInsertionError", "ValueError"}


    def test_deadlocked_states_match_reference(self):
        """A parent state without successors keeps its copy after ``x``
        only through the ``x`` arc, so that copy is placed by the ``x+`` /
        ``x-`` arcs, which no live STG exercises."""
        a_rise, b_rise = SignalEdge.rise("a"), SignalEdge.rise("b")
        sg = _handmade_sg(
            [("s0", a_rise, "s1"), ("s0", b_rise, "s2")],
            {"s0": (0, 0), "s1": (1, 0), "s2": (0, 1)},
        )
        s0, ends = frozenset({"s0"}), frozenset({"s1", "s2"})
        empty = frozenset()
        for partition in (
            IPartition(s0=s0, splus=ends, s1=empty, sminus=empty),
            IPartition(s0=empty, splus=empty, s1=s0, sminus=ends),
        ):
            assert _assert_insertion_matches_reference(sg, partition) == "graph"
            assert insert_signal(sg, partition, "x").num_states == 5


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stg_and_partition_seed())
def test_random_stg_insertions_match_object_space_reference(drawn):
    import random

    from repro.stg.state_graph import build_state_graph

    stg, seed = drawn
    sg = build_state_graph(stg, max_states=5000)
    rng = random.Random(seed)
    for partition in _random_partitions(sg, rng, 6):
        _assert_insertion_matches_reference(sg, partition)
