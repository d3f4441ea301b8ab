"""Tests for state-graph elaboration, encoding inference and consistency."""

import pytest

from repro.bench_stg import generators as gen
from repro.stg import (
    STG,
    InconsistentSTGError,
    SignalEdge,
    build_state_graph,
    infer_encoding,
)
from repro.ts import TransitionSystem


class TestBuildStateGraph:
    def test_vme_size_and_codes(self, vme_sg):
        assert vme_sg.num_states == 14
        assert vme_sg.signals == ["dsr", "ldtack", "lds", "d", "dtack"]
        assert vme_sg.code(vme_sg.initial_state) == (0, 0, 0, 0, 0)

    def test_consistency_and_speed_independence(self, vme_sg):
        report = vme_sg.speed_independence_report()
        assert report == {
            "deterministic": True,
            "commutative": True,
            "output_persistent": True,
            "consistent": True,
        }

    def test_enabled_edges(self, vme_sg):
        enabled = vme_sg.enabled_edges(vme_sg.initial_state)
        assert SignalEdge.rise("dsr") in enabled

    def test_next_value_toggles_when_excited(self, vme_sg):
        state = vme_sg.initial_state
        assert vme_sg.value(state, "dsr") == 0
        assert vme_sg.next_value(state, "dsr") == 1  # dsr+ is enabled
        assert vme_sg.next_value(state, "d") == 0  # d is stable at 0

    def test_code_str_marks_excited_signals(self, vme_sg):
        text = vme_sg.code_str(vme_sg.initial_state)
        assert "*" in text

    def test_inconsistent_stg_rejected(self):
        stg = STG("bad")
        stg.add_input("a")
        stg.add_output("b")
        # b rises twice in a row: not consistent.
        stg.connect("a+", "b+/1")
        stg.connect("b+/1", "b+/2")
        stg.connect("b+/2", "a-")
        stg.connect("a-", "a+")
        stg.set_marking([("a-", "a+")])
        with pytest.raises(InconsistentSTGError):
            build_state_graph(stg)

    def test_unsafe_stg_rejected(self):
        stg = STG("unsafe")
        stg.add_input("a")
        stg.add_output("b")
        stg.add_place("p", tokens=1)
        stg.add_place("q", tokens=1)
        stg.add_transition("a+")
        stg.add_transition("b+")
        stg.net.add_arc("p", "a+")
        stg.net.add_arc("a+", "q")
        stg.net.add_arc("q", "b+")
        with pytest.raises(InconsistentSTGError):
            build_state_graph(stg)

    def test_dummy_transitions_not_supported(self):
        stg = STG("d")
        stg.add_input("a")
        stg.add_dummy_transition("eps")
        with pytest.raises(NotImplementedError):
            build_state_graph(stg)

    def test_max_states_bound(self):
        from repro.petri.reachability import StateSpaceLimitExceeded

        with pytest.raises(StateSpaceLimitExceeded):
            build_state_graph(gen.parallel_toggles(6), max_states=10)

    def test_restrict_and_copy(self, vme_sg):
        clone = vme_sg.copy()
        assert clone.num_states == vme_sg.num_states
        keep = set(list(vme_sg.states)[:5])
        sub = vme_sg.restrict(keep)
        assert sub.num_states == 5


class TestInferEncoding:
    def test_infers_consistent_values(self):
        ts = TransitionSystem.from_triples(
            [
                ("m0", SignalEdge.rise("a"), "m1"),
                ("m1", SignalEdge.rise("b"), "m2"),
                ("m2", SignalEdge.fall("a"), "m3"),
                ("m3", SignalEdge.fall("b"), "m0"),
            ],
            initial="m0",
        )
        encoding = infer_encoding(ts, ["a", "b"])
        assert encoding["m0"] == (0, 0)
        assert encoding["m2"] == (1, 1)

    def test_conflicting_constraints_detected(self):
        ts = TransitionSystem.from_triples(
            [
                ("m0", SignalEdge.rise("a"), "m1"),
                ("m1", SignalEdge.rise("a"), "m2"),
            ],
            initial="m0",
        )
        with pytest.raises(InconsistentSTGError):
            infer_encoding(ts, ["a"])

    def test_unconstrained_signal_defaults(self):
        ts = TransitionSystem.from_triples(
            [("m0", SignalEdge.rise("a"), "m1")], initial="m0"
        )
        encoding = infer_encoding(ts, ["a", "idle"], initial_values={"idle": 1})
        assert encoding["m0"] == (0, 1)
        assert encoding["m1"] == (1, 1)

    def test_declared_initial_value_contradiction(self):
        ts = TransitionSystem.from_triples(
            [("m0", SignalEdge.rise("a"), "m1")], initial="m0"
        )
        with pytest.raises(InconsistentSTGError):
            infer_encoding(ts, ["a"], initial_values={"a": 1})

    def test_consistency_violation_listing(self, vme_sg):
        assert vme_sg.consistency_violations() == []
        # Corrupt one code and check it is reported.
        state = next(iter(vme_sg.states))
        vme_sg.encoding[state] = tuple(1 - v for v in vme_sg.encoding[state])
        assert vme_sg.consistency_violations()


# ----------------------------------------------------------------------
# integer elaboration against the object-space reference
# ----------------------------------------------------------------------
from references import (  # noqa: E402
    elaboration_outcome,
    reference_build_state_graph,
    reference_infer_encoding,
)
from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES  # noqa: E402
from repro.petri.reachability import StateSpaceLimitExceeded  # noqa: E402
from repro.utils.deadline import deadline  # noqa: E402

_ENUMERABLE = [case for case in TABLE2_CASES + TABLE1_CASES if case.explicit_ok]


def _unbounded_unsafe_stg():
    """``a-`` feeds ``a+`` and a sink place: every cycle adds a token."""
    return STG.from_arcs(
        "unbounded",
        inputs=[],
        outputs=["a"],
        arcs=[("a+", "a-"), ("a-", "a+"), ("a-", "sink")],
        marking=[("a-", "a+")],
    )


def _inconsistent_stgs():
    """STGs every elaboration must reject with the reference's message."""
    rising_twice = STG("rising-twice")
    rising_twice.add_input("a")
    rising_twice.add_output("b")
    rising_twice.connect("a+", "b+/1")
    rising_twice.connect("b+/1", "b+/2")
    rising_twice.connect("b+/2", "a-")
    rising_twice.connect("a-", "a+")
    rising_twice.set_marking([("a-", "a+")])
    cycle = STG.from_arcs(
        "cycle",
        inputs=["a"],
        outputs=[],
        arcs=[("a+/1", "a+/2"), ("a+/2", "a+/1")],
        marking=[("a+/2", "a+/1")],
    )
    # b toggles on one branch only: b's value disagrees where they join
    branches = STG.from_arcs(
        "branches",
        inputs=["a"],
        outputs=["b"],
        arcs=[("p", "a+/1"), ("a+/1", "b+"), ("b+", "a-/1"), ("a-/1", "p"),
              ("p", "a+/2"), ("a+/2", "a-/2"), ("a-/2", "p")],
        marking=["p"],
    )
    declared = gen.vme_controller()
    declared.name = "declared"
    declared.set_initial_value("dsr", 1)
    unsafe = STG("unsafe")
    unsafe.add_input("a")
    unsafe.add_output("b")
    unsafe.add_place("p", tokens=1)
    unsafe.add_place("q", tokens=1)
    unsafe.add_transition("a+")
    unsafe.add_transition("b+")
    unsafe.net.add_arc("p", "a+")
    unsafe.net.add_arc("a+", "q")
    unsafe.net.add_arc("q", "b+")
    heavy = gen.vme_controller()
    heavy.name = "heavy"
    heavy.net.add_place("extra")
    heavy.net.add_arc("dsr+", "extra", weight=2)
    heavy.net.add_arc("extra", "dsr-", weight=2)
    doubly_marked = gen.vme_controller()
    doubly_marked.name = "doubly-marked"
    marked = doubly_marked.net.initial_marking.places()[0]
    doubly_marked.net.set_initial_marking({marked: 2})
    return [rising_twice, cycle, branches, declared, unsafe, heavy, doubly_marked]


class TestIntegerElaborationMatchesReference:
    """``build_state_graph`` (integer markings, integer propagation) builds
    the graph of the P/T reachability graph plus dictionary inference:
    same states, encoding and successor, predecessor and per-event lists,
    every order included."""

    @pytest.mark.parametrize("case", _ENUMERABLE, ids=[case.name for case in _ENUMERABLE])
    def test_library_rows(self, case):
        stg = case.build()
        assert elaboration_outcome(build_state_graph, stg) == elaboration_outcome(
            reference_build_state_graph, stg
        )

    @pytest.mark.parametrize("stg", _inconsistent_stgs(), ids=lambda stg: stg.name)
    def test_rejections_carry_the_reference_message(self, stg):
        outcome = elaboration_outcome(build_state_graph, stg)
        assert outcome[0] == "InconsistentSTGError"
        assert outcome == elaboration_outcome(reference_build_state_graph, stg)

    def test_weight_two_preset_never_fires(self):
        # A transition needing two tokens from one place is dead in a safe
        # net, exactly as in the P/T token game.
        stg = gen.vme_controller()
        stg.net.add_place("spare")
        stg.net.add_transition("dead")
        stg._labels["dead"] = SignalEdge.rise("dsr", 9)
        stg.net.add_arc("spare", "dead", weight=2)
        stg.net.add_arc("dead", "spare")
        outcome = elaboration_outcome(build_state_graph, stg)
        assert outcome[0] == "graph"
        assert outcome == elaboration_outcome(reference_build_state_graph, stg)

    def test_initial_value_override(self):
        stg = gen.vme_controller()
        stg.add_internal("idle")
        for values in ({"idle": 1}, {"idle": 0}, {"dsr": 1}):
            assert elaboration_outcome(
                build_state_graph, stg, initial_values=values
            ) == elaboration_outcome(reference_build_state_graph, stg, initial_values=values)

    def test_state_bound_raises_like_the_reference(self):
        stg = gen.parallel_toggles(6)
        for bound in (1, 10, 129):
            with pytest.raises(StateSpaceLimitExceeded) as new:
                build_state_graph(stg, max_states=bound)
            with pytest.raises(StateSpaceLimitExceeded) as old:
                reference_build_state_graph(stg, max_states=bound)
            assert str(new.value) == str(old.value)
        assert build_state_graph(stg, max_states=130).num_states == 130

    def test_unbounded_unsafe_stg_is_rejected_at_once(self):
        # The token count of ``sink`` grows without bound; the elaboration
        # stops at the first doubled token instead of exploring forever.
        with deadline(5.0):
            with pytest.raises(InconsistentSTGError, match="is not safe"):
                build_state_graph(_unbounded_unsafe_stg())

    def test_unbounded_unsafe_stg_is_not_reported_as_too_large(self):
        with deadline(5.0):
            with pytest.raises(InconsistentSTGError, match="is not safe"):
                build_state_graph(_unbounded_unsafe_stg(), max_states=50000)


class TestInferEncodingMatchesReference:
    def _systems(self):
        a_up, a_down = SignalEdge.rise("a"), SignalEdge.fall("a")
        b_up, b_down = SignalEdge.rise("b"), SignalEdge.fall("b")
        return [
            ([("m0", a_up, "m1"), ("m1", b_up, "m2"), ("m2", a_down, "m3"), ("m3", b_down, "m0")], ["a", "b"], None),
            ([("m0", a_up, "m1"), ("m1", a_up, "m2")], ["a"], None),
            ([("m0", a_up, "m1")], ["a", "idle"], {"idle": 1}),
            ([("m0", a_up, "m1")], ["a"], {"a": 1}),
            # b is not in the layout but must still be consistent
            ([("m0", b_up, "m1"), ("m1", a_up, "m2"), ("m2", b_up, "m0")], ["a"], None),
            ([("m0", a_up, "m1"), ("m1", b_up, "m2"), ("m0", b_up, "m2")], ["a", "b"], None),
            ([("m0", a_up, "m1"), ("m1", "tau", "m0")], ["a"], None),
        ]

    def test_same_encoding_or_error(self):
        for triples, signals, initial in self._systems():
            ts = TransitionSystem.from_triples(triples, initial="m0")
            outcomes = []
            for infer in (infer_encoding, reference_infer_encoding):
                try:
                    outcomes.append(("ok", list(infer(ts, signals, initial).items())))
                except (ValueError, TypeError) as error:
                    outcomes.append((type(error).__name__, str(error)))
            assert outcomes[0] == outcomes[1], triples
