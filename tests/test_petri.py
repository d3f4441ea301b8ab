"""Tests for repro.petri: Petri nets, the token game and reachability."""

import pytest

from repro.petri import PetriNet, build_reachability_graph, is_safe, place_bounds
from repro.petri.net import Marking
from repro.petri.properties import has_source_and_sink_isolation, is_free_choice
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.utils.deadline import deadline


def handshake_net() -> PetriNet:
    """req+ -> ack+ -> req- -> ack- cycle as a four-place ring."""
    net = PetriNet("handshake")
    events = ["req+", "ack+", "req-", "ack-"]
    for event in events:
        net.add_transition(event)
    for i in range(4):
        net.add_place(f"p{i}")
    for i, event in enumerate(events):
        net.add_arc(f"p{i}", event)
        net.add_arc(event, f"p{(i + 1) % 4}")
    net.add_place("p0")  # idempotent
    net.set_initial_marking({"p0": 1})
    return net


class TestMarking:
    def test_canonical_and_hashable(self):
        first = Marking({"a": 1, "b": 0})
        second = Marking({"a": 1})
        assert first == second
        assert hash(first) == hash(second)

    def test_count_and_contains(self):
        marking = Marking({"a": 2})
        assert marking.count("a") == 2
        assert "a" in marking and "b" not in marking

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Marking({"a": -1})

    def test_add_deltas(self):
        marking = Marking({"a": 1})
        moved = marking.add({"a": -1, "b": +1})
        assert moved == Marking({"b": 1})

    def test_is_safe(self):
        assert Marking({"a": 1}).is_safe()
        assert not Marking({"a": 2}).is_safe()


class TestPetriNet:
    def test_arc_endpoints_validated(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        with pytest.raises(ValueError):
            net.add_arc("p", "p2")

    def test_enabling_and_firing(self):
        net = handshake_net()
        m0 = net.initial_marking
        assert net.enabled_transitions(m0) == ["req+"]
        m1 = net.fire(m0, "req+")
        assert net.enabled_transitions(m1) == ["ack+"]

    def test_firing_disabled_transition_raises(self):
        net = handshake_net()
        with pytest.raises(ValueError):
            net.fire(net.initial_marking, "ack+")

    def test_copy(self):
        net = handshake_net()
        clone = net.copy()
        assert clone.num_places == net.num_places
        assert clone.num_transitions == net.num_transitions
        assert clone.initial_marking == net.initial_marking

    def test_presets_and_postsets(self):
        net = handshake_net()
        assert net.preset("req+") == {"p0": 1}
        assert net.postset("req+") == {"p1": 1}
        assert net.place_postset("p0") == {"req+": 1}


class TestReachability:
    def test_handshake_has_four_markings(self):
        result = build_reachability_graph(handshake_net())
        assert result.num_markings == 4
        assert result.safe
        assert result.deadlocks == []

    def test_relabelling(self):
        result = build_reachability_graph(handshake_net(), label=lambda t: t.upper())
        assert "REQ+" in result.graph.events

    def test_state_space_limit(self):
        with pytest.raises(StateSpaceLimitExceeded):
            build_reachability_graph(handshake_net(), max_markings=2)

    def test_unsafe_net_detected(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        result = build_reachability_graph(net)
        assert not result.safe
        assert not is_safe(net)

    def test_place_bounds(self):
        bounds = place_bounds(handshake_net())
        assert all(bound <= 1 for bound in bounds.values())


def unbounded_sink_net() -> PetriNet:
    """``a+ a-``, ``a- a+ sink``: every a- firing adds a token on ``sink``."""
    from repro.stg import STG

    return STG.from_arcs(
        "unbounded",
        inputs=[],
        outputs=["a"],
        arcs=[("a+", "a-"), ("a-", "a+"), ("a-", "sink")],
        marking=[("a-", "a+")],
    ).net


class TestUnboundedNets:
    """Both checks must end on an unbounded net instead of exploring it
    forever; the 3 s deadline turns a hang into a failure."""

    def test_is_safe_returns_false(self):
        with deadline(3.0):
            assert not is_safe(unbounded_sink_net())

    def test_place_bounds_names_the_unbounded_net(self):
        with deadline(3.0):
            with pytest.raises(ValueError, match="'unbounded' is unbounded"):
                place_bounds(unbounded_sink_net())

    def test_place_bounds_of_an_unsafe_bounded_net(self):
        net = PetriNet("two-tokens")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        with deadline(3.0):
            assert place_bounds(net) == {"p": 1, "q": 2}


class TestStructuralProperties:
    def test_free_choice(self):
        assert is_free_choice(handshake_net())

    def test_non_free_choice(self):
        net = PetriNet()
        net.add_place("p", 1)
        net.add_place("q", 1)
        for t in ("t1", "t2"):
            net.add_transition(t)
        net.add_arc("p", "t1")
        net.add_arc("p", "t2")
        net.add_arc("q", "t2")
        assert not is_free_choice(net)

    def test_source_sink_isolation(self):
        net = handshake_net()
        assert has_source_and_sink_isolation(net)
        net.add_transition("floating")
        assert not has_source_and_sink_isolation(net)
