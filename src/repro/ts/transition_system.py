"""The :class:`TransitionSystem` data structure.

States and events may be arbitrary hashable objects.  Internally the class
keeps successor, predecessor and per-event adjacency maps so that the
region and insertion algorithms (which constantly ask "which transitions
are labelled with event *e*?" and "which transitions enter this set of
states?") run in time proportional to the answers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

State = Hashable
Event = Hashable
Transition = Tuple[State, Event, State]


class TransitionSystem:
    """An arc-labelled directed graph with a distinguished initial state.

    Built arc by arc with :meth:`add_transition` or in one pass with
    :meth:`from_adjacency`.  The set of transition triples behind
    :meth:`add_transition`'s duplicate check is built lazily, on that
    method's first call; a system built by :meth:`from_adjacency` builds
    its predecessor and per-event maps lazily too, on their first read.
    Every query reads the adjacency maps.
    """

    def __init__(self, name: str = "ts") -> None:
        self.name = name
        self.initial_state: Optional[State] = None
        self._succ: Dict[State, List[Tuple[Event, State]]] = {}
        # None until first read when built by from_adjacency (see _preds
        # and _events).
        self._pred: Optional[Dict[State, List[Tuple[Event, State]]]] = {}
        self._by_event: Optional[Dict[Event, List[Tuple[State, State]]]] = {}
        # The duplicate check of add_transition, built on its first call.
        self._transition_set: Optional[Set[Transition]] = None

    def _preds(self) -> Dict[State, List[Tuple[Event, State]]]:
        """The predecessor map (built in :meth:`transitions` order when
        absent)."""
        pred = self._pred
        if pred is None:
            pred = {state: [] for state in self._succ}
            for source, outgoing in self._succ.items():
                for event, target in outgoing:
                    pred[target].append((event, source))
            self._pred = pred
        return pred

    def _events(self) -> Dict[Event, List[Tuple[State, State]]]:
        """The per-event arc map (built in :meth:`transitions` order when
        absent)."""
        by_event = self._by_event
        if by_event is None:
            by_event = {}
            for source, outgoing in self._succ.items():
                for event, target in outgoing:
                    arcs = by_event.get(event)
                    if arcs is None:
                        arcs = by_event[event] = []
                    arcs.append((source, target))
            self._by_event = by_event
        return by_event

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self, state: State) -> State:
        """Add an isolated state (idempotent) and return it."""
        if state not in self._succ:
            pred = self._preds()
            self._succ[state] = []
            pred[state] = []
        return state

    def add_event(self, event: Event) -> Event:
        """Declare an event label (idempotent) and return it."""
        by_event = self._events()
        if event not in by_event:
            by_event[event] = []
        return event

    def add_transition(self, source: State, event: Event, target: State) -> None:
        """Add ``source --event--> target``; states/events are auto-added.

        Duplicate transitions are silently ignored so that builders can be
        written without bookkeeping.
        """
        transition_set = self._transition_set
        if transition_set is None:
            transition_set = set(self.transitions())
            self._transition_set = transition_set
        triple = (source, event, target)
        if triple in transition_set:
            return
        # Both lazy maps are built before the successor lists change.
        pred = self._preds()
        by_event = self._events()
        self.add_state(source)
        self.add_state(target)
        self.add_event(event)
        self._succ[source].append((event, target))
        pred[target].append((event, source))
        by_event[event].append((source, target))
        transition_set.add(triple)

    def set_initial(self, state: State) -> None:
        self.add_state(state)
        self.initial_state = state

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        return list(self._succ)

    @property
    def events(self) -> List[Event]:
        return list(self._events())

    @property
    def num_states(self) -> int:
        return len(self._succ)

    @property
    def num_events(self) -> int:
        return len(self._events())

    @property
    def num_transitions(self) -> int:
        return sum(len(outgoing) for outgoing in self._succ.values())

    def has_state(self, state: State) -> bool:
        return state in self._succ

    def has_event(self, event: Event) -> bool:
        return event in self._events()

    def has_transition(self, source: State, event: Event, target: State) -> bool:
        outgoing = self._succ.get(source)
        return outgoing is not None and (event, target) in outgoing

    def successors(self, state: State) -> List[Tuple[Event, State]]:
        """Outgoing ``(event, target)`` pairs of ``state``."""
        return list(self._succ[state])

    def predecessors(self, state: State) -> List[Tuple[Event, State]]:
        """Incoming ``(event, source)`` pairs of ``state``."""
        return list(self._preds()[state])

    def enabled_events(self, state: State) -> List[Event]:
        """Events labelling at least one outgoing transition of ``state``."""
        seen: Dict[Event, None] = {}
        for event, _target in self._succ[state]:
            seen[event] = None
        return list(seen)

    def successor(self, state: State, event: Event) -> Optional[State]:
        """The unique ``event``-successor of ``state`` (deterministic TSs).

        Returns ``None`` when the event is not enabled.  If the TS is
        non-deterministic the first recorded successor is returned.
        """
        for candidate_event, target in self._succ[state]:
            if candidate_event == event:
                return target
        return None

    def transitions(self) -> Iterator[Transition]:
        for source, outgoing in self._succ.items():
            for event, target in outgoing:
                yield (source, event, target)

    def transitions_of(self, event: Event) -> List[Tuple[State, State]]:
        """All ``(source, target)`` pairs of transitions labelled ``event``."""
        return list(self._events().get(event, []))

    # ------------------------------------------------------------------
    # reachability and restriction
    # ------------------------------------------------------------------
    def reachable_states(self, start: Optional[State] = None) -> Set[State]:
        """States reachable from ``start`` (default: the initial state)."""
        if start is None:
            start = self.initial_state
        if start is None:
            raise ValueError("reachable_states() needs a start or initial state")
        visited = {start}
        frontier = deque([start])
        while frontier:
            state = frontier.popleft()
            for _event, target in self._succ[state]:
                if target not in visited:
                    visited.add(target)
                    frontier.append(target)
        return visited

    def restrict(self, keep: Iterable[State], name: Optional[str] = None) -> "TransitionSystem":
        """A new TS containing only the states in ``keep`` and the
        transitions between them.  The initial state is preserved when it
        survives the restriction."""
        keep_set = set(keep)
        result = TransitionSystem(name or self.name)
        for state in self._succ:
            if state in keep_set:
                result.add_state(state)
        for source, event, target in self.transitions():
            if source in keep_set and target in keep_set:
                result.add_transition(source, event, target)
        if self.initial_state in keep_set:
            result.set_initial(self.initial_state)
        return result

    def restrict_to_reachable(self) -> "TransitionSystem":
        """Drop states that are unreachable from the initial state."""
        return self.restrict(self.reachable_states())

    def copy(self, name: Optional[str] = None) -> "TransitionSystem":
        result = TransitionSystem(name or self.name)
        for state in self._succ:
            result.add_state(state)
        for event in self._events():
            result.add_event(event)
        for source, event, target in self.transitions():
            result.add_transition(source, event, target)
        if self.initial_state is not None:
            result.set_initial(self.initial_state)
        return result

    def relabel_events(self, mapping: Dict[Event, Event]) -> "TransitionSystem":
        """A new TS with every event ``e`` replaced by ``mapping.get(e, e)``."""
        result = TransitionSystem(self.name)
        for state in self._succ:
            result.add_state(state)
        for source, event, target in self.transitions():
            result.add_transition(source, mapping.get(event, event), target)
        if self.initial_state is not None:
            result.set_initial(self.initial_state)
        return result

    def rename_states(self, mapping: Dict[State, State]) -> "TransitionSystem":
        """A new TS with every state ``s`` replaced by ``mapping.get(s, s)``."""
        result = TransitionSystem(self.name)
        for state in self._succ:
            result.add_state(mapping.get(state, state))
        for source, event, target in self.transitions():
            result.add_transition(
                mapping.get(source, source), event, mapping.get(target, target)
            )
        if self.initial_state is not None:
            result.set_initial(mapping.get(self.initial_state, self.initial_state))
        return result

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(
        cls,
        states: Sequence[State],
        adjacency: Sequence[Sequence[Tuple[Event, int]]],
        initial: Optional[int] = None,
        name: str = "ts",
    ) -> "TransitionSystem":
        """Build a TS in one pass from per-state successor lists.

        ``adjacency[i]`` holds the outgoing arcs of ``states[i]`` as
        ``(event, target index)`` pairs, with no duplicate arc; ``initial``
        is the index of the initial state.  States keep the order of
        ``states`` and successor lists their own order; predecessor and
        per-event lists come out in :meth:`transitions` order, exactly as
        :meth:`add_transition` in that order would leave them.  Those two
        maps are built on their first read.
        """
        ts = cls(name)
        ts._succ = dict(
            zip(states, [[(event, states[j]) for event, j in outgoing] for outgoing in adjacency])
        )
        ts._pred = None
        ts._by_event = None
        if initial is not None:
            ts.initial_state = states[initial]
        return ts

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Transition],
        initial: Optional[State] = None,
        name: str = "ts",
    ) -> "TransitionSystem":
        """Build a TS from an iterable of ``(source, event, target)``."""
        ts = cls(name)
        first_source: Optional[State] = None
        for source, event, target in triples:
            if first_source is None:
                first_source = source
            ts.add_transition(source, event, target)
        if initial is not None:
            ts.set_initial(initial)
        elif first_source is not None:
            ts.set_initial(first_source)
        return ts

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"TransitionSystem(name={self.name!r}, states={self.num_states}, "
            f"events={self.num_events}, transitions={self.num_transitions})"
        )

    def __contains__(self, state: State) -> bool:
        return state in self._succ
