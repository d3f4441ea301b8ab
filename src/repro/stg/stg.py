"""The Signal Transition Graph model.

An :class:`STG` wraps a Petri net (``repro.petri.PetriNet``) whose
transitions are labelled with :class:`~repro.stg.signals.SignalEdge`
objects, together with the declaration of each signal's role
(input / output / internal / dummy).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.petri.net import Marking, PetriNet
from repro.stg.signals import SignalEdge, SignalType

NodeRef = Union[str, SignalEdge]


def implicit_place_name(source: str, target: str) -> str:
    """Name of the implicit place between two directly connected transitions."""
    return f"<{source},{target}>"


class STG:
    """A Petri net labelled with signal transitions."""

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self.net = PetriNet(name)
        self.signal_types: Dict[str, SignalType] = {}
        self._labels: Dict[str, Optional[SignalEdge]] = {}
        self.initial_values: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def add_signal(self, signal: str, signal_type: SignalType) -> str:
        existing = self.signal_types.get(signal)
        if existing is not None and existing is not signal_type:
            raise ValueError(
                f"signal {signal!r} already declared as {existing.value}, "
                f"cannot redeclare as {signal_type.value}"
            )
        self.signal_types[signal] = signal_type
        return signal

    def add_input(self, signal: str) -> str:
        return self.add_signal(signal, SignalType.INPUT)

    def add_output(self, signal: str) -> str:
        return self.add_signal(signal, SignalType.OUTPUT)

    def add_internal(self, signal: str) -> str:
        return self.add_signal(signal, SignalType.INTERNAL)

    @property
    def signals(self) -> List[str]:
        """All non-dummy signals, in declaration order."""
        return [s for s, t in self.signal_types.items() if t is not SignalType.DUMMY]

    @property
    def input_signals(self) -> List[str]:
        return [s for s, t in self.signal_types.items() if t is SignalType.INPUT]

    @property
    def output_signals(self) -> List[str]:
        return [s for s, t in self.signal_types.items() if t is SignalType.OUTPUT]

    @property
    def internal_signals(self) -> List[str]:
        return [s for s, t in self.signal_types.items() if t is SignalType.INTERNAL]

    @property
    def non_input_signals(self) -> List[str]:
        return [s for s, t in self.signal_types.items() if t.is_noninput]

    def type_of(self, signal: str) -> SignalType:
        return self.signal_types[signal]

    def is_input(self, signal: str) -> bool:
        return self.signal_types[signal] is SignalType.INPUT

    def set_initial_value(self, signal: str, value: int) -> None:
        if value not in (0, 1):
            raise ValueError("initial value must be 0 or 1")
        self.initial_values[signal] = value

    # ------------------------------------------------------------------
    # transitions and places
    # ------------------------------------------------------------------
    def _as_transition_name(self, ref: NodeRef, create: bool = False) -> str:
        """Resolve a node reference to a transition name."""
        if isinstance(ref, SignalEdge):
            name = str(ref)
        else:
            name = ref
        if not self.net.has_transition(name):
            if not create:
                raise KeyError(f"unknown transition {name!r}")
            self.add_transition(SignalEdge.parse(name))
        return name

    def add_transition(self, edge: Union[SignalEdge, str]) -> str:
        """Add a signal transition to the net (declares the signal if new
        signal types cannot be guessed this raises)."""
        if isinstance(edge, str):
            edge = SignalEdge.parse(edge)
        if edge.signal not in self.signal_types:
            raise ValueError(
                f"signal {edge.signal!r} must be declared before adding transition {edge}"
            )
        name = str(edge)
        if self.net.has_transition(name):
            return name
        self.net.add_transition(name)
        self._labels[name] = edge
        return name

    def add_dummy_transition(self, name: str) -> str:
        """Add a dummy (unobservable, unlabelled) transition."""
        if not self.net.has_transition(name):
            self.net.add_transition(name)
            self._labels[name] = None
            self.signal_types.setdefault(name, SignalType.DUMMY)
        return name

    def add_place(self, place: str, tokens: int = 0) -> str:
        self.net.add_place(place, tokens)
        return place

    def label_of(self, transition_name: str) -> Optional[SignalEdge]:
        """The signal edge labelling a transition (``None`` for dummies)."""
        return self._labels[transition_name]

    @property
    def transition_names(self) -> List[str]:
        return self.net.transitions

    @property
    def dummy_transitions(self) -> List[str]:
        return [t for t, lbl in self._labels.items() if lbl is None]

    # ------------------------------------------------------------------
    # arcs
    # ------------------------------------------------------------------
    def connect(self, source: NodeRef, target: NodeRef) -> None:
        """Add an arc between two nodes, inserting an implicit place when
        both endpoints are transitions (the ``.g`` convention)."""
        source_name = self._node_name(source)
        target_name = self._node_name(target)
        source_is_t = self.net.has_transition(source_name)
        target_is_t = self.net.has_transition(target_name)
        if source_is_t and target_is_t:
            place = implicit_place_name(source_name, target_name)
            self.add_place(place)
            self.net.add_arc(source_name, place)
            self.net.add_arc(place, target_name)
        elif source_is_t or target_is_t:
            # exactly one endpoint is a transition: the other must be a place
            if source_is_t:
                self.add_place(target_name)
            else:
                self.add_place(source_name)
            self.net.add_arc(source_name, target_name)
        else:
            raise ValueError(
                f"cannot connect two places: {source_name!r} -> {target_name!r}"
            )

    def _node_name(self, ref: NodeRef) -> str:
        if isinstance(ref, SignalEdge):
            return self._as_transition_name(ref, create=True)
        # A string: it is a transition if it parses as a declared signal edge
        # or is already a known transition; otherwise it is a place name.
        if self.net.has_transition(ref):
            return ref
        if SignalEdge.is_edge_label(ref):
            edge = SignalEdge.parse(ref)
            if edge.signal in self.signal_types:
                return self.add_transition(edge)
        return ref

    # ------------------------------------------------------------------
    # marking
    # ------------------------------------------------------------------
    def set_marking(self, places: Union[Dict[str, int], Iterable[str]]) -> None:
        """Set the initial marking from place names or a ``{place: count}``
        dict.  Implicit places can be given as ``(source, target)`` pairs of
        transition labels."""
        if isinstance(places, dict):
            tokens = dict(places)
        else:
            tokens = {}
            for item in places:
                if isinstance(item, tuple):
                    item = implicit_place_name(item[0], item[1])
                tokens[item] = tokens.get(item, 0) + 1
        self.net.set_initial_marking(tokens)

    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    # ------------------------------------------------------------------
    # convenience builder
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        arcs: Sequence[Tuple[str, str]],
        marking: Sequence[Union[str, Tuple[str, str]]],
        internal: Sequence[str] = (),
        initial_values: Optional[Dict[str, int]] = None,
    ) -> "STG":
        """Build an STG from a flat arc list.

        ``arcs`` contains pairs of node names (transition labels such as
        ``"a+"`` / ``"req-/2"`` or explicit place names); ``marking`` lists
        initially marked places, with implicit places given as
        ``(source_label, target_label)`` pairs.
        """
        stg = cls(name)
        for signal in inputs:
            stg.add_input(signal)
        for signal in outputs:
            stg.add_output(signal)
        for signal in internal:
            stg.add_internal(signal)
        for source, target in arcs:
            stg.connect(source, target)
        stg.set_marking(marking)
        if initial_values:
            for signal, value in initial_values.items():
                stg.set_initial_value(signal, value)
        return stg

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "STG":
        result = STG(name or self.name)
        result.net = self.net.copy(name or self.name)
        result.signal_types = dict(self.signal_types)
        result._labels = dict(self._labels)
        result.initial_values = dict(self.initial_values)
        return result

    def fresh_edge(self, signal: str, direction: int) -> SignalEdge:
        """A signal edge of ``signal`` whose name does not collide with an
        existing transition (used when splitting labels)."""
        index = 0
        while True:
            edge = SignalEdge(signal, direction, index)
            if not self.net.has_transition(str(edge)):
                return edge
            index += 1

    def stats(self) -> Dict[str, int]:
        """Size statistics reported in the benchmark tables."""
        return {
            "places": self.net.num_places,
            "transitions": self.net.num_transitions,
            "signals": len(self.signals),
            "arcs": self.net.num_arcs,
        }

    def __repr__(self) -> str:
        return (
            f"STG(name={self.name!r}, signals={len(self.signals)}, "
            f"places={self.net.num_places}, transitions={self.net.num_transitions})"
        )


def net_components(stg: STG) -> List[STG]:
    """The connected components of ``stg``, one sub-STG each.

    A union-find over places, transitions and signal labels: a
    transition joins its preset and postset places and its signal, so
    two components share no place, transition or signal.  A place or
    signal that no transition touches joins the first component, and an
    STG without transitions is one component: a connected STG comes back
    as ``[stg]`` itself.  Components are ordered by their first
    transition in net order; each sub-STG keeps ``stg``'s name and the
    net, declaration and initial-value order of its members.
    """
    net = stg.net
    parent: Dict[object, object] = {}

    def find(node: object) -> object:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for transition in net.transitions:
        root = find(("t", transition))
        label = stg.label_of(transition)
        neighbours = [("p", place) for place in net.preset(transition)]
        neighbours += [("p", place) for place in net.postset(transition)]
        # a dummy transition's name is its own signal_types entry
        neighbours.append(("s", label.signal if label is not None else transition))
        for node in neighbours:
            other = find(node)
            if other != root:
                parent[other] = root
    roots: Dict[object, int] = {}
    for transition in net.transitions:
        roots.setdefault(find(("t", transition)), len(roots))
    if len(roots) <= 1:
        return [stg]

    def index(node: object) -> int:
        return roots.get(find(node), 0) if node in parent else 0

    parts = [STG(stg.name) for _ in roots]
    for signal, signal_type in stg.signal_types.items():
        parts[index(("s", signal))].add_signal(signal, signal_type)
    for place in net.places:
        parts[index(("p", place))].net.add_place(place)
    for transition in net.transitions:
        part = parts[index(("t", transition))]
        part.net.add_transition(transition)
        part._labels[transition] = stg.label_of(transition)
        for place, weight in net.preset(transition).items():
            part.net.add_arc(place, transition, weight)
        for place, weight in net.postset(transition).items():
            part.net.add_arc(transition, place, weight)
    for part in parts:
        owned = set(part.net.places)
        part.net.set_initial_marking(
            {place: count for place, count in stg.initial_marking.items() if place in owned}
        )
        part.initial_values = {
            signal: value
            for signal, value in stg.initial_values.items()
            if signal in part.signal_types
        }
    return parts
