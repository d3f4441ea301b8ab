"""Tests for repro.ts: the transition-system substrate."""

import pytest

from repro.ts import (
    TransitionSystem,
    is_commutative,
    is_deterministic,
    is_event_persistent,
    is_weakly_connected,
    persistent_events,
)
from repro.ts.properties import is_subset_connected


def simple_cycle() -> TransitionSystem:
    return TransitionSystem.from_triples(
        [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s0")], initial="s0"
    )


class TestConstruction:
    def test_add_transition_creates_states_and_events(self):
        ts = TransitionSystem()
        ts.add_transition("x", "e", "y")
        assert ts.has_state("x") and ts.has_state("y")
        assert ts.has_event("e")
        assert ts.num_transitions == 1

    def test_duplicate_transitions_ignored(self):
        ts = TransitionSystem()
        ts.add_transition("x", "e", "y")
        ts.add_transition("x", "e", "y")
        assert ts.num_transitions == 1

    def test_from_triples_defaults_initial_to_first_source(self):
        ts = simple_cycle()
        assert ts.initial_state == "s0"

    def test_successors_and_predecessors(self):
        ts = simple_cycle()
        assert ts.successors("s0") == [("a", "s1")]
        assert ts.predecessors("s1") == [("a", "s0")]

    def test_enabled_events_deduplicates(self):
        ts = TransitionSystem()
        ts.add_transition("x", "e", "y")
        ts.add_transition("x", "e", "z")
        assert ts.enabled_events("x") == ["e"]

    def test_successor_lookup(self):
        ts = simple_cycle()
        assert ts.successor("s0", "a") == "s1"
        assert ts.successor("s0", "b") is None

    def test_transitions_of(self):
        ts = simple_cycle()
        assert ts.transitions_of("b") == [("s1", "s2")]


def _layout(ts: TransitionSystem) -> tuple:
    return (
        ts.name,
        ts.initial_state,
        list(ts._succ.items()),
        [(state, ts.predecessors(state)) for state in ts.states],
        [(event, ts.transitions_of(event)) for event in ts.events],
    )


#: Arcs with a nondeterministic ``a`` from s0, a self loop and an
#: isolated state s4; events repeat across states.
_ARCS = [
    ("s0", "a", "s1"),
    ("s0", "a", "s2"),
    ("s1", "b", "s3"),
    ("s2", "b", "s3"),
    ("s3", "c", "s3"),
    ("s3", "d", "s0"),
]


def _bulk_and_incremental(name="bulk"):
    """The same TS built by :meth:`TransitionSystem.from_adjacency` and by
    :meth:`TransitionSystem.add_transition` in ``transitions()`` order."""
    states = ["s0", "s1", "s2", "s3", "s4"]
    position = {state: i for i, state in enumerate(states)}
    adjacency = [[] for _ in states]
    for source, event, target in _ARCS:
        adjacency[position[source]].append((event, position[target]))
    bulk = TransitionSystem.from_adjacency(states, adjacency, initial=0, name=name)
    incremental = TransitionSystem(name)
    for state in states:
        incremental.add_state(state)
    for source, event, target in _ARCS:
        incremental.add_transition(source, event, target)
    incremental.set_initial("s0")
    return bulk, incremental


class TestBulkConstruction:
    """A TS built in one pass from adjacency lists is the TS that
    ``add_transition`` builds, and behaves like it afterwards."""

    def test_same_structure_as_add_transition(self):
        bulk, incremental = _bulk_and_incremental()
        assert _layout(bulk) == _layout(incremental)
        assert bulk.events == ["a", "b", "c", "d"]

    def test_queries(self):
        bulk, _ = _bulk_and_incremental()
        assert bulk.num_transitions == len(_ARCS)
        for source, event, target in _ARCS:
            assert bulk.has_transition(source, event, target)
        assert not bulk.has_transition("s0", "b", "s1")
        assert not bulk.has_transition("s9", "a", "s1")
        assert not bulk.has_transition("s1", "a", "s0")

    def test_add_transition_still_dedupes(self):
        bulk, _ = _bulk_and_incremental()
        bulk.add_transition("s0", "a", "s1")
        assert bulk.num_transitions == len(_ARCS)
        assert bulk.successors("s0") == [("a", "s1"), ("a", "s2")]
        bulk.add_transition("s4", "e", "s0")
        bulk.add_transition("s4", "e", "s0")
        assert bulk.num_transitions == len(_ARCS) + 1
        assert bulk.has_transition("s4", "e", "s0")
        assert bulk.predecessors("s0") == [("d", "s3"), ("e", "s4")]

    def test_derived_systems_match(self):
        bulk, incremental = _bulk_and_incremental()
        assert _layout(bulk.copy()) == _layout(incremental.copy())
        assert _layout(bulk.copy("other")) == _layout(incremental.copy("other"))
        keep = {"s0", "s1", "s3", "s4"}
        assert _layout(bulk.restrict(keep)) == _layout(incremental.restrict(keep))
        assert _layout(bulk.restrict_to_reachable()) == _layout(
            incremental.restrict_to_reachable()
        )
        mapping = {"a": "b", "c": "z"}
        assert _layout(bulk.relabel_events(mapping)) == _layout(
            incremental.relabel_events(mapping)
        )
        # relabelling a onto b merges no arcs here, but b becomes the
        # first event: per-event lists follow the new labels
        assert bulk.relabel_events(mapping).events == ["b", "z", "d"]


class TestReachabilityAndRestriction:
    def test_reachable_states(self):
        ts = simple_cycle()
        ts.add_transition("zz", "d", "s0")  # unreachable from s0
        assert ts.reachable_states() == {"s0", "s1", "s2"}

    def test_restrict_to_reachable(self):
        ts = simple_cycle()
        ts.add_transition("zz", "d", "s0")
        reduced = ts.restrict_to_reachable()
        assert reduced.num_states == 3
        assert not reduced.has_state("zz")

    def test_restrict_keeps_initial_if_possible(self):
        ts = simple_cycle()
        reduced = ts.restrict({"s0", "s1"})
        assert reduced.initial_state == "s0"
        assert reduced.num_transitions == 1

    def test_copy_is_independent(self):
        ts = simple_cycle()
        clone = ts.copy()
        clone.add_transition("s2", "d", "s3")
        assert ts.num_transitions == 3
        assert clone.num_transitions == 4

    def test_relabel_events(self):
        ts = simple_cycle()
        renamed = ts.relabel_events({"a": "alpha"})
        assert renamed.has_event("alpha")
        assert not renamed.has_event("a")

    def test_rename_states(self):
        ts = simple_cycle()
        renamed = ts.rename_states({"s0": "start"})
        assert renamed.initial_state == "start"
        assert renamed.successor("start", "a") == "s1"


class TestProperties:
    def test_deterministic(self):
        ts = simple_cycle()
        assert is_deterministic(ts)
        ts.add_transition("s0", "a", "s2")
        assert not is_deterministic(ts)

    def test_commutative_diamond(self):
        diamond = TransitionSystem.from_triples(
            [("p", "a", "q"), ("p", "b", "r"), ("q", "b", "t"), ("r", "a", "t")],
            initial="p",
        )
        assert is_commutative(diamond)

    def test_non_commutative(self):
        broken = TransitionSystem.from_triples(
            [
                ("p", "a", "q"),
                ("p", "b", "r"),
                ("q", "b", "t1"),
                ("r", "a", "t2"),
            ],
            initial="p",
        )
        assert not is_commutative(broken)

    def test_single_order_does_not_break_commutativity(self):
        partial = TransitionSystem.from_triples(
            [("p", "a", "q"), ("p", "b", "r"), ("q", "b", "t")], initial="p"
        )
        assert is_commutative(partial)

    def test_persistency(self):
        diamond = TransitionSystem.from_triples(
            [("p", "a", "q"), ("p", "b", "r"), ("q", "b", "t"), ("r", "a", "t")],
            initial="p",
        )
        assert is_event_persistent(diamond, "a")
        assert is_event_persistent(diamond, "b")

    def test_non_persistent_event(self):
        conflict = TransitionSystem.from_triples(
            [("p", "a", "q"), ("p", "b", "r")], initial="p"
        )
        # Firing b disables a and vice versa.
        assert not is_event_persistent(conflict, "a")
        assert persistent_events(conflict) == set()

    def test_persistency_in_subset(self):
        conflict = TransitionSystem.from_triples(
            [("p", "a", "q"), ("p", "b", "r"), ("x", "a", "y")], initial="p"
        )
        assert not is_event_persistent(conflict, "a")
        assert is_event_persistent(conflict, "a", subset={"x"})

    def test_weak_connectivity(self):
        ts = simple_cycle()
        assert is_weakly_connected(ts)
        ts.add_state("lonely")
        assert not is_weakly_connected(ts)

    def test_subset_connectivity(self):
        ts = simple_cycle()
        assert is_subset_connected(ts, {"s0", "s1"})
        assert not is_subset_connected(ts, {"s0", "s2"}) or ts.successor("s2", "c") == "s0"
        assert is_subset_connected(ts, set())
