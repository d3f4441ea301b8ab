"""The Petri-net data structure and the token game.

A Petri net is a quadruple ``N = (P, T, F, m0)`` (Section 2.1 of the
paper).  Arcs carry integer weights (the STG benchmarks only ever use
weight 1, which is also what the safeness-based theory assumes, but the
data structure does not restrict them).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Place = Hashable
TransitionName = Hashable


class Marking:
    """An immutable multiset of tokens over places.

    Internally stored as a sorted tuple of ``(place, count)`` pairs with
    zero-count entries removed, which makes markings hashable and
    canonical so they can serve directly as transition-system states.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, tokens: Optional[Dict[Place, int]] = None) -> None:
        items = tokens or {}
        cleaned = {place: count for place, count in items.items() if count}
        for place, count in cleaned.items():
            if count < 0:
                raise ValueError(f"negative token count for place {place!r}")
        self._items: Tuple[Tuple[Place, int], ...] = tuple(
            sorted(cleaned.items(), key=lambda pair: repr(pair[0]))
        )
        self._hash = hash(self._items)

    @classmethod
    def from_canonical(cls, items: Tuple[Tuple[Place, int], ...]) -> "Marking":
        """A marking from pairs already in canonical form: positive counts,
        sorted by the repr of their place (no validation, no sorting)."""
        marking = cls.__new__(cls)
        marking._items = items
        marking._hash = hash(items)
        return marking

    # -- queries ---------------------------------------------------------
    def count(self, place: Place) -> int:
        for candidate, count in self._items:
            if candidate == place:
                return count
        return 0

    def __contains__(self, place: Place) -> bool:
        return self.count(place) > 0

    def places(self) -> List[Place]:
        return [place for place, _count in self._items]

    def items(self) -> Iterator[Tuple[Place, int]]:
        return iter(self._items)

    def as_dict(self) -> Dict[Place, int]:
        return dict(self._items)

    def is_safe(self) -> bool:
        return all(count <= 1 for _place, count in self._items)

    # -- arithmetic ------------------------------------------------------
    def add(self, deltas: Dict[Place, int]) -> "Marking":
        """A new marking with ``deltas`` applied (may raise on negatives)."""
        tokens = self.as_dict()
        for place, delta in deltas.items():
            tokens[place] = tokens.get(place, 0) + delta
        return Marking(tokens)

    # -- dunder ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The cached hash depends on the string hash seed of the process
        # that computed it; a marking loaded elsewhere recomputes it.
        return (Marking.from_canonical, (self._items,))

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{place}" if count == 1 else f"{place}:{count}"
            for place, count in self._items
        )
        return f"{{{inside}}}"


class PetriNet:
    """A place/transition net with weighted arcs and an initial marking."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[Place, None] = {}
        self._transitions: Dict[TransitionName, None] = {}
        # preset[t][p]  = weight of arc p -> t
        # postset[t][p] = weight of arc t -> p
        self._preset: Dict[TransitionName, Dict[Place, int]] = {}
        self._postset: Dict[TransitionName, Dict[Place, int]] = {}
        # place_post[p] = transitions consuming from p (for enabling updates)
        self._place_post: Dict[Place, Dict[TransitionName, int]] = {}
        self._place_pre: Dict[Place, Dict[TransitionName, int]] = {}
        self.initial_marking: Marking = Marking()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(self, place: Place, tokens: int = 0) -> Place:
        if place not in self._places:
            self._places[place] = None
            self._place_post[place] = {}
            self._place_pre[place] = {}
        if tokens:
            self.initial_marking = self.initial_marking.add({place: tokens})
        return place

    def add_transition(self, transition: TransitionName) -> TransitionName:
        if transition not in self._transitions:
            self._transitions[transition] = None
            self._preset[transition] = {}
            self._postset[transition] = {}
        return transition

    def add_arc(self, source: Hashable, target: Hashable, weight: int = 1) -> None:
        """Add an arc between a place and a transition (either direction)."""
        if weight <= 0:
            raise ValueError("arc weight must be positive")
        if source in self._places and target in self._transitions:
            self._preset[target][source] = self._preset[target].get(source, 0) + weight
            self._place_post[source][target] = self._preset[target][source]
        elif source in self._transitions and target in self._places:
            self._postset[source][target] = self._postset[source].get(target, 0) + weight
            self._place_pre[target][source] = self._postset[source][target]
        else:
            raise ValueError(
                f"arc must connect a place and a transition, got {source!r} -> {target!r}"
            )

    def set_initial_marking(self, tokens: Dict[Place, int]) -> None:
        for place in tokens:
            if place not in self._places:
                raise ValueError(f"unknown place in initial marking: {place!r}")
        self.initial_marking = Marking(tokens)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def places(self) -> List[Place]:
        return list(self._places)

    @property
    def transitions(self) -> List[TransitionName]:
        return list(self._transitions)

    @property
    def num_places(self) -> int:
        return len(self._places)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    @property
    def num_arcs(self) -> int:
        return sum(len(d) for d in self._preset.values()) + sum(
            len(d) for d in self._postset.values()
        )

    def preset(self, transition: TransitionName) -> Dict[Place, int]:
        """Input places of ``transition`` with arc weights."""
        return dict(self._preset[transition])

    def postset(self, transition: TransitionName) -> Dict[Place, int]:
        """Output places of ``transition`` with arc weights."""
        return dict(self._postset[transition])

    def place_preset(self, place: Place) -> Dict[TransitionName, int]:
        """Transitions producing into ``place``."""
        return dict(self._place_pre[place])

    def place_postset(self, place: Place) -> Dict[TransitionName, int]:
        """Transitions consuming from ``place``."""
        return dict(self._place_post[place])

    def has_place(self, place: Place) -> bool:
        return place in self._places

    def has_transition(self, transition: TransitionName) -> bool:
        return transition in self._transitions

    # ------------------------------------------------------------------
    # token game
    # ------------------------------------------------------------------
    def is_enabled(self, marking: Marking, transition: TransitionName) -> bool:
        return all(
            marking.count(place) >= weight
            for place, weight in self._preset[transition].items()
        )

    def enabled_transitions(self, marking: Marking) -> List[TransitionName]:
        return [t for t in self._transitions if self.is_enabled(marking, t)]

    def fire(self, marking: Marking, transition: TransitionName) -> Marking:
        """Fire ``transition`` from ``marking`` and return the new marking."""
        if not self.is_enabled(marking, transition):
            raise ValueError(f"transition {transition!r} is not enabled in {marking!r}")
        deltas: Dict[Place, int] = {}
        for place, weight in self._preset[transition].items():
            deltas[place] = deltas.get(place, 0) - weight
        for place, weight in self._postset[transition].items():
            deltas[place] = deltas.get(place, 0) + weight
        return marking.add(deltas)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PetriNet":
        result = PetriNet(name or self.name)
        for place in self._places:
            result.add_place(place)
        for transition in self._transitions:
            result.add_transition(transition)
        for transition, arcs in self._preset.items():
            for place, weight in arcs.items():
                result.add_arc(place, transition, weight)
        for transition, arcs in self._postset.items():
            for place, weight in arcs.items():
                result.add_arc(transition, place, weight)
        result.initial_marking = self.initial_marking
        return result

    def __repr__(self) -> str:
        return (
            f"PetriNet(name={self.name!r}, places={self.num_places}, "
            f"transitions={self.num_transitions}, arcs={self.num_arcs})"
        )
