"""Binary-encoded state graphs.

The state graph (SG) of an STG is the reachability graph of its underlying
Petri net with every state labelled by the vector of signal values — the
binary-encoded transition system on which the whole CSC theory of the
paper operates.  A :class:`StateGraph` couples a
:class:`~repro.ts.transition_system.TransitionSystem` whose events are
:class:`~repro.stg.signals.SignalEdge` objects with the signal declaration
and the state encoding.

:func:`build_state_graph` elaborates a safe STG on integer markings: one
bit per place, one ``(preset mask, postset mask, edge)`` triple per
transition, a breadth-first search over ints that rejects the net at the
first doubled token, then one :class:`~repro.petri.net.Marking` per
reachable marking and the transition system built in one pass
(:meth:`~repro.ts.transition_system.TransitionSystem.from_adjacency`).
The encoding is inferred on integer arrays too (two bitmasks per state).
States, arcs, every order of the transition system, the encoding and the
error messages are those of the general P/T reachability graph
(:func:`repro.petri.reachability.build_reachability_graph`, which place
bounds and Petri-net synthesis still use) followed by dictionary-based
inference; ``tests/references.py`` keeps that path as the reference.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.petri.net import Marking
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.stg import STG
from repro.ts.transition_system import TransitionSystem
from repro.ts.properties import is_commutative, is_deterministic, is_event_persistent
from repro.utils.deadline import check_deadline

State = Hashable
Code = Tuple[int, ...]


class InconsistentSTGError(ValueError):
    """Raised when an STG does not admit a consistent binary encoding.

    Consistency ("rising and falling transitions alternate for each signal
    in every firing sequence") is a necessary condition for
    implementability; CSC only makes sense on top of it (Section 4).
    """


class StateGraph:
    """A transition system together with a binary signal encoding."""

    def __init__(
        self,
        ts: TransitionSystem,
        signals: Sequence[str],
        signal_types: Dict[str, SignalType],
        encoding: Dict[State, Code],
        name: Optional[str] = None,
    ) -> None:
        self.ts = ts
        self.signals: List[str] = list(signals)
        self.signal_types = dict(signal_types)
        self.encoding = dict(encoding)
        self.name = name or ts.name
        self._index = {signal: position for position, signal in enumerate(self.signals)}

    # ------------------------------------------------------------------
    # signal bookkeeping
    # ------------------------------------------------------------------
    @property
    def input_signals(self) -> List[str]:
        return [s for s in self.signals if self.signal_types[s] is SignalType.INPUT]

    @property
    def output_signals(self) -> List[str]:
        return [s for s in self.signals if self.signal_types[s] is SignalType.OUTPUT]

    @property
    def internal_signals(self) -> List[str]:
        return [s for s in self.signals if self.signal_types[s] is SignalType.INTERNAL]

    @property
    def non_input_signals(self) -> List[str]:
        return [s for s in self.signals if self.signal_types[s].is_noninput]

    def is_input_signal(self, signal: str) -> bool:
        return self.signal_types[signal] is SignalType.INPUT

    def is_input_edge(self, edge: SignalEdge) -> bool:
        return self.is_input_signal(edge.signal)

    # ------------------------------------------------------------------
    # states and codes
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        return self.ts.states

    @property
    def initial_state(self) -> State:
        return self.ts.initial_state

    @property
    def num_states(self) -> int:
        return self.ts.num_states

    def code(self, state: State) -> Code:
        return self.encoding[state]

    def code_str(self, state: State) -> str:
        """Human-readable code with ``*`` after excited signals, as in
        Figure 3 of the paper (e.g. ``"1*0 1"`` style strings)."""
        code = self.encoding[state]
        excited = {edge.signal for edge in self.enabled_edges(state)}
        parts = []
        for signal, value in zip(self.signals, code):
            star = "*" if signal in excited else ""
            parts.append(f"{value}{star}")
        return "".join(parts)

    def value(self, state: State, signal: str) -> int:
        return self.encoding[state][self._index[signal]]

    def enabled_edges(self, state: State) -> List[SignalEdge]:
        return self.ts.enabled_events(state)

    def enabled_noninput_edges(self, state: State) -> List[SignalEdge]:
        return [edge for edge in self.enabled_edges(state) if not self.is_input_edge(edge)]

    def is_excited(self, state: State, signal: str) -> bool:
        """True iff some transition of ``signal`` is enabled in ``state``."""
        return any(edge.signal == signal for edge in self.enabled_edges(state))

    def next_value(self, state: State, signal: str) -> int:
        """The value ``signal`` is heading to in ``state``.

        This is the implied value of the next-state function: the current
        value if the signal is stable, the complemented value if it is
        excited.  Well defined per *state*; CSC is exactly the condition
        that makes it well defined per *code* for non-input signals.
        """
        current = self.value(state, signal)
        return 1 - current if self.is_excited(state, signal) else current

    # ------------------------------------------------------------------
    # behavioural checks
    # ------------------------------------------------------------------
    def consistency_violations(self) -> List[str]:
        """Arcs whose label does not match the codes of their endpoints."""
        problems = []
        for source, edge, target in self.ts.transitions():
            source_code = self.encoding[source]
            target_code = self.encoding[target]
            position = self._index[edge.signal]
            if source_code[position] != edge.value_before():
                problems.append(
                    f"{edge} fired from state with {edge.signal}={source_code[position]}"
                )
            if target_code[position] != edge.value_after():
                problems.append(
                    f"{edge} led to state with {edge.signal}={target_code[position]}"
                )
            for signal, index in self._index.items():
                if signal != edge.signal and source_code[index] != target_code[index]:
                    problems.append(
                        f"{edge} changed unrelated signal {signal} "
                        f"({source_code[index]} -> {target_code[index]})"
                    )
        return problems

    def is_consistent(self) -> bool:
        return not self.consistency_violations()

    def is_deterministic(self) -> bool:
        return is_deterministic(self.ts)

    def is_commutative(self) -> bool:
        return is_commutative(self.ts)

    def is_output_persistent(self) -> bool:
        """True iff every non-input signal edge is persistent.

        Together with determinism and commutativity this guarantees a
        speed-independent implementation of the encoded TS (Section 3).
        """
        for event in self.ts.events:
            if isinstance(event, SignalEdge) and not self.is_input_edge(event):
                if not is_event_persistent(self.ts, event):
                    return False
        return True

    def speed_independence_report(self) -> Dict[str, bool]:
        return {
            "deterministic": self.is_deterministic(),
            "commutative": self.is_commutative(),
            "output_persistent": self.is_output_persistent(),
            "consistent": self.is_consistent(),
        }

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the engine cache.

        :mod:`repro.engine.caches` attaches memoized analysis results
        (bricks, conflict lists, the indexed search view) to the instance
        under ``_repro_cache``; they are derived data, can reference the
        parent graph of an insertion chain, and must not travel to the
        worker processes of the batch engine.
        """
        state = dict(self.__dict__)
        state.pop("_repro_cache", None)
        return state

    def indexed(self):
        """The canonical integer/bitset view of this graph.

        Convenience accessor for
        :func:`repro.core.indexed.indexed_state_graph`: the
        :class:`~repro.core.indexed.IndexedStateGraph` the core CSC
        pipeline computes on, built once per graph and cached by the
        engine (derived by index arithmetic for graphs produced by
        signal insertion).  Imported lazily — the stg layer itself does
        not depend on the core.
        """
        from repro.core.indexed import indexed_state_graph

        return indexed_state_graph(self)

    def copy(self) -> "StateGraph":
        return StateGraph(
            self.ts.copy(),
            list(self.signals),
            dict(self.signal_types),
            dict(self.encoding),
            self.name,
        )

    def restrict(self, keep: Iterable[State]) -> "StateGraph":
        keep_set = set(keep)
        sub_ts = self.ts.restrict(keep_set)
        sub_encoding = {s: c for s, c in self.encoding.items() if s in keep_set}
        return StateGraph(sub_ts, self.signals, self.signal_types, sub_encoding, self.name)

    def __repr__(self) -> str:
        return (
            f"StateGraph(name={self.name!r}, states={self.num_states}, "
            f"signals={len(self.signals)})"
        )


# ----------------------------------------------------------------------
# encoding inference
# ----------------------------------------------------------------------
def _infer_codes(
    states: Sequence[State],
    adjacency: Sequence[Sequence[Tuple[int, int]]],
    edges: Sequence[object],
    signals: Sequence[str],
    initial_values: Dict[str, int],
    initial: Optional[int],
) -> List[Code]:
    """Codes of ``states`` under the unique consistent encoding, computed
    on integer arrays.

    ``adjacency[i]`` lists the arcs leaving ``states[i]`` as ``(edge id,
    target index)`` pairs, ``edges`` maps edge ids to their labels.  A
    state's known values are two bitmasks (which signals are known, and
    their values).  Facts are seeded arc by arc, in transition order,
    and propagated first in, first out through a queue of ``(state,
    signal)`` pairs, so the first contradiction found, and its message,
    are fixed by the graph alone.  ``states`` is read only to word
    those messages.
    """
    positions = {signal: p for p, signal in enumerate(signals)}
    # Signals that label arcs but are not in the code layout are still
    # checked for consistency; they get positions after the layout's.
    names = list(signals)
    edge_position: List[Optional[int]] = []
    edge_rising: List[bool] = []
    for edge in edges:
        if not isinstance(edge, SignalEdge):
            edge_position.append(None)
            edge_rising.append(False)
            continue
        p = positions.get(edge.signal)
        if p is None:
            p = positions[edge.signal] = len(names)
            names.append(edge.signal)
        edge_position.append(p)
        edge_rising.append(edge.is_rising)

    n = len(states)
    known = [0] * n
    value = [0] * n
    around: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    queue: deque = deque()

    def forced(i: int, p: int, current: int, reason: str) -> InconsistentSTGError:
        return InconsistentSTGError(
            f"signal {names[p]!r} forced to both {current} and {1 - current} "
            f"in state {states[i]!r} ({reason})"
        )

    # Seed facts from the arcs themselves.
    for i, outgoing in enumerate(adjacency):
        for e, j in outgoing:
            p = edge_position[e]
            if p is None:
                raise TypeError(f"state-graph events must be SignalEdge, got {edges[e]!r}")
            around[i].append((p, j, e))
            around[j].append((p, i, e))
            bit = 1 << p
            before, after = (0, bit) if edge_rising[e] else (bit, 0)
            if known[i] & bit:
                if value[i] & bit != before:
                    raise forced(i, p, 1 if value[i] & bit else 0, f"source of {edges[e]}")
            else:
                known[i] |= bit
                value[i] |= before
                queue.append((i, p))
            if known[j] & bit:
                if value[j] & bit != after:
                    raise forced(j, p, 1 if value[j] & bit else 0, f"target of {edges[e]}")
            else:
                known[j] |= bit
                value[j] |= after
                queue.append((j, p))

    # Propagate: signals not switched by an arc keep their value across it.
    while queue:
        i, p = queue.popleft()
        bit = 1 << p
        held = value[i] & bit
        for q, j, e in around[i]:
            if q != p:
                if not known[j] & bit:
                    known[j] |= bit
                    value[j] |= held
                    queue.append((j, p))
                elif value[j] & bit != held:
                    raise InconsistentSTGError(
                        f"signal {names[p]!r} inconsistent across {edges[e]}: "
                        f"{1 if held else 0} vs {1 if held == 0 else 0}"
                    )

    # Unconstrained means the value never changes anywhere reachable, so
    # one constant per signal (the declared initial value, or 0) fills it.
    width = len(signals)
    defaults = 0
    for signal, declared in initial_values.items():
        p = positions.get(signal)
        if p is not None and p < width and declared:
            defaults |= 1 << p
    layout = (1 << width) - 1
    code_format = f"0{width}b"
    tuples: Dict[int, Code] = {}
    codes: List[Code] = []
    for i in range(n):
        packed = (value[i] | (defaults & ~known[i])) & layout
        code = tuples.get(packed)
        if code is None:
            code = tuples[packed] = (
                tuple(map(int, reversed(format(packed, code_format)))) if width else ()
            )
        codes.append(code)

    # Explicitly declared initial values must hold in the initial state.
    if initial is not None:
        for signal, declared in initial_values.items():
            p = positions.get(signal)
            if p is not None and p < width:
                actual = codes[initial][p]
                if actual != declared:
                    raise InconsistentSTGError(
                        f"declared initial value {signal}={declared} contradicts the "
                        f"inferred value {actual}"
                    )
    return codes


def infer_encoding(
    ts: TransitionSystem,
    signals: Sequence[str],
    initial_values: Optional[Dict[str, int]] = None,
) -> Dict[State, Code]:
    """Compute the unique consistent binary encoding of a labelled TS.

    Every arc labelled ``a+`` forces ``a = 0`` at its source and ``a = 1``
    at its target, and leaves every other signal unchanged.  Values are
    propagated to a fixpoint; a contradiction means the underlying STG is
    not consistently labelled.  Signals whose value is not constrained on
    some states (e.g. signals that never switch) default to the value in
    ``initial_values`` or to 0.
    """
    states = ts.states
    position = {state: i for i, state in enumerate(states)}
    edge_ids: Dict[object, int] = {}
    edges: List[object] = []
    adjacency: List[List[Tuple[int, int]]] = []
    for state in states:
        outgoing = []
        for edge, target in ts.successors(state):
            e = edge_ids.get(edge)
            if e is None:
                e = edge_ids[edge] = len(edges)
                edges.append(edge)
            outgoing.append((e, position[target]))
        adjacency.append(outgoing)
    codes = _infer_codes(
        states,
        adjacency,
        edges,
        signals,
        dict(initial_values or {}),
        position.get(ts.initial_state) if ts.initial_state is not None else None,
    )
    return dict(zip(states, codes))


def _not_safe(stg: STG) -> InconsistentSTGError:
    return InconsistentSTGError(
        f"the underlying Petri net of {stg.name!r} is not safe; the region-based "
        "encoding theory assumes safe STGs"
    )


def build_state_graph(
    stg: STG,
    initial_values: Optional[Dict[str, int]] = None,
    max_states: Optional[int] = None,
) -> StateGraph:
    """Elaborate an STG into its binary-encoded state graph.

    The reachable markings are explored breadth first as integers, one
    bit per place; :class:`~repro.petri.net.Marking` objects are made
    only for the states of the result.  A firing that would put a
    second token on a place (or a weight-2 arc that fires) raises the
    "not safe" :class:`InconsistentSTGError` at once, so an unbounded net
    is rejected rather than explored forever; a transition that needs
    two tokens from one place can never fire in a safe marking.

    Raises :class:`InconsistentSTGError` when the STG is not consistent,
    :class:`~repro.petri.reachability.StateSpaceLimitExceeded` past
    ``max_states`` reachable markings, and :class:`NotImplementedError`
    when it contains dummy transitions (dummy contraction is outside the
    scope of this reproduction).
    """
    if stg.dummy_transitions:
        raise NotImplementedError(
            "state-graph elaboration of STGs with dummy transitions is not supported"
        )
    net = stg.net
    # Bit k stands for the k-th place in repr order, so the set bits of a
    # marking, lowest first, list its places in Marking's canonical order.
    places = sorted(net.places, key=repr)
    bit_of = {place: 1 << k for k, place in enumerate(places)}
    initial = 0
    for place, count in net.initial_marking.items():
        if count > 1:
            raise _not_safe(stg)
        initial |= bit_of[place]

    edge_ids: Dict[SignalEdge, int] = {}
    edges: List[SignalEdge] = []
    moves: List[Tuple[int, int, int, bool]] = []
    for transition in net.transitions:
        preset = net.preset(transition)
        if any(weight > 1 for weight in preset.values()):
            continue  # needs two tokens on one place: never enabled
        postset = net.postset(transition)
        pre = post = 0
        for place in preset:
            pre |= bit_of[place]
        for place in postset:
            post |= bit_of[place]
        edge = stg.label_of(transition).base()
        e = edge_ids.get(edge)
        if e is None:
            e = edge_ids[edge] = len(edges)
            edges.append(edge)
        moves.append((pre, post, e, any(weight > 1 for weight in postset.values())))
    # Two arcs of one marking can coincide only when two transitions
    # share a label; only then is an arc checked against its siblings.
    shared_labels = len(edges) < len(moves)

    index = {initial: 0}
    markings = [initial]
    adjacency: List[List[Tuple[int, int]]] = []
    for marking in markings:  # grows while it is walked: breadth first
        check_deadline()  # per-job wall-clock bound (repro.utils.deadline)
        outgoing: List[Tuple[int, int]] = []
        for pre, post, e, heavy in moves:
            if marking & pre == pre:
                rest = marking ^ pre
                if heavy or rest & post:
                    raise _not_safe(stg)
                successor = rest | post
                j = index.get(successor)
                if j is None:
                    j = index[successor] = len(markings)
                    if max_states is not None and j >= max_states:
                        raise StateSpaceLimitExceeded(
                            f"more than {max_states} reachable markings in {net.name}"
                        )
                    markings.append(successor)
                if shared_labels and (e, j) in outgoing:
                    continue
                outgoing.append((e, j))
        adjacency.append(outgoing)

    pairs = [(place, 1) for place in places]
    states: List[Marking] = []
    for marking in markings:
        items = []
        while marking:
            low = marking & -marking
            items.append(pairs[low.bit_length() - 1])
            marking ^= low
        states.append(Marking.from_canonical(tuple(items)))

    merged_initial = dict(stg.initial_values)
    if initial_values:
        merged_initial.update(initial_values)
    codes = _infer_codes(states, adjacency, edges, stg.signals, merged_initial, 0)
    ts = TransitionSystem.from_adjacency(
        states,
        [[(edges[e], j) for e, j in outgoing] for outgoing in adjacency],
        initial=0,
        name=f"rg({net.name})",
    )
    return StateGraph(
        ts=ts,
        signals=stg.signals,
        signal_types={s: stg.signal_types[s] for s in stg.signals},
        encoding=dict(zip(states, codes)),
        name=stg.name,
    )
