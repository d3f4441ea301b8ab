"""The symbolic (BDD-backed) state graph.

A :class:`SymbolicStateGraph` is the front half of the CSC pipeline
without the states: the reachable state space of an STG, the per-event
transition structure and the binary-code valuation are all boolean
functions over *state variables* — one BDD variable per place of the
underlying safe Petri net plus one per signal — instead of enumerated
state objects.  A state of the explicit
:class:`~repro.stg.state_graph.StateGraph` is a reachable marking
labelled with its code; here it is one satisfying assignment of the
``reached`` function, whose place bits are the marking and whose signal
bits are the code.  Carrying the signal bits *in* the state vector is
what makes every later question about codes (the CSC code-equality
relation above all) a plain boolean operation: the valuation of signal
``s`` is literally the variable of ``s``.

Variable layout
---------------
State variables are laid out in signal-locality order
(:func:`state_variable_order`): every place is assigned to its most
local adjacent signal, and signals are emitted in BFS order over their
adjacency graph, each followed by its assigned places.  Variables that
interact (the places and signals of one handshake, one pipeline stage,
one toggle element) therefore sit next to each other, which keeps the
reachable set of product-structured specifications — the very workloads
this tier exists for — linear instead of exponential in the number of
components.

Every state variable ``k`` owns *two* BDD levels: ``2*k`` for the plain
(unprimed) copy and ``2*k + 1`` for the primed copy
(:func:`repro.bdd.bdd.interleaved_pair_levels`).  Exploration only
touches unprimed levels; the primed copy exists for the relational CSC
detector (:mod:`repro.symbolic.csc`), which needs two states side by
side.

Exploration
-----------
The reachable set is built by *saturation* (Ciardo, Lüttgen and
Siminiceanu, TACAS 2001) of a *toggle system*: each transition's effect
is compiled per state variable once, as the value each of 0 and 1 moves
to (a preset place must be marked and is emptied, a produced place may
hold anything and is marked, a self-loop place is kept) — except the
fired signal, which is toggled whatever its value.  A transition's
*top* is the highest of its variables in the order.  Saturating a node
at level ``k`` saturates both cofactors, then fires the transitions
whose top is ``k`` on the node until none adds a state; firing maps the
effect level by level down to the transition's lowest variable, and
every node it builds on the way is saturated in turn.  A saturated node
is therefore closed under every transition that lies wholly at or below
its level, and the saturated initial state is the unique fixpoint —
the same canonical node as any image iteration.

Because no firing waits for a signal value, the toggle system needs no
initial code: declared signals start at their declared value, the rest
at 0, and each signal bit of a saturated state is its start value
xor the parity of that signal's firings.  Consistency makes a signal's
value just before one of its transitions fires the transition's
``value_before``, so any reachable state that enables a transition of
the signal by tokens gives its initial value.  Complementing the
signal bits whose initial value differs from the start turns the
toggle system's set into the reachable set of the STG proper, exactly,
whenever the STG is consistent; the safeness/consistency test below
catches every STG that is not.

The class also carries the symbolic twins of the explicit front-end
checks: safeness and consistency violations are detected with one
fused test per transition, run on the reached set's sub-functions at
the transition's top level rather than on the whole set, and raised as
:class:`~repro.stg.state_graph.InconsistentSTGError`, mirroring
:func:`repro.stg.state_graph.build_state_graph`.
"""

from __future__ import annotations

import sys
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    ContextManager,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bdd.bdd import BDD, FALSE, TRUE, Node, interleaved_pair_levels
from repro.obs import span
from repro.petri.net import Marking
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import InconsistentSTGError
from repro.stg.stg import STG
from repro.utils.deadline import check_deadline, poll_deadline

Place = Hashable

__all__ = ["SymbolicStateGraph", "SymbolicCensus", "state_variable_order"]


def state_variable_order(stg: STG) -> List[Tuple[str, Hashable]]:
    """State variables of ``stg`` in signal-locality order.

    Returns ``[(kind, name), ...]`` with ``kind`` in ``{"signal",
    "place"}``.  Variables that interact must sit next to each other or
    the reached-set BDD of a product-structured specification grows
    exponentially in the number of components, so the order is built
    from the *signal adjacency graph* (two signals are adjacent when a
    place touches transitions of both):

    * each place is assigned to its most local adjacent signal — the one
      with the fewest adjacent places, so a branch place of a fork/join
      belongs to the branch signal, not to the shared trunk signal;
    * signals are emitted in BFS order over the adjacency graph (seeded
      in declaration order), each followed by its assigned places.

    For a fork/join (``par``) this yields trunk, then one contiguous
    block per branch; for a product of independent components (``pipe``)
    one contiguous block per component — the layouts under which the
    symbolic tier's BDDs stay linear in the component count.  Places and
    signals nothing points at are appended at the end.
    """
    net = stg.net
    signals = list(stg.signals)
    signal_pos = {signal: i for i, signal in enumerate(signals)}

    # place -> adjacent signals (via the labels of adjacent transitions)
    place_signals: Dict[Hashable, List[str]] = {place: [] for place in net.places}
    for transition in net.transitions:
        label = stg.label_of(transition)
        if label is None:
            continue
        signal = label.signal
        for place in list(net.preset(transition)) + list(net.postset(transition)):
            neighbours = place_signals[place]
            if signal not in neighbours:
                neighbours.append(signal)

    # signal -> number of adjacent places (its locality weight)
    signal_degree: Dict[str, int] = {signal: 0 for signal in signals}
    for neighbours in place_signals.values():
        for signal in neighbours:
            signal_degree[signal] += 1

    # assign each place to its most local adjacent signal
    assigned: Dict[str, List[Hashable]] = {signal: [] for signal in signals}
    orphan_places: List[Hashable] = []
    for place, neighbours in place_signals.items():
        if not neighbours:
            orphan_places.append(place)
            continue
        owner = min(neighbours, key=lambda s: (signal_degree[s], signal_pos[s]))
        assigned[owner].append(place)

    # signal adjacency graph, BFS-ordered from the declaration order
    adjacency: Dict[str, List[str]] = {signal: [] for signal in signals}
    for neighbours in place_signals.values():
        for first in neighbours:
            for second in neighbours:
                if second != first and second not in adjacency[first]:
                    adjacency[first].append(second)
    signal_order: List[str] = []
    visited = set()
    for seed in signals:
        if seed in visited:
            continue
        queue = [seed]
        visited.add(seed)
        while queue:
            signal = queue.pop(0)
            signal_order.append(signal)
            for neighbour in sorted(adjacency[signal], key=lambda s: signal_pos[s]):
                if neighbour not in visited:
                    visited.add(neighbour)
                    queue.append(neighbour)

    order: List[Tuple[str, Hashable]] = []
    for signal in signal_order:
        order.append(("signal", signal))
        for place in assigned[signal]:
            order.append(("place", place))
    for place in orphan_places:
        order.append(("place", place))
    return order


#: What a firing does to one state variable: the values 0 and 1 become.
Moves = Tuple[Optional[int], Optional[int]]
#: A variable the firing leaves alone.
_KEPT: Moves = (0, 1)


@dataclass
class _SymbolicTransition:
    """One compiled net transition (all cubes over unprimed levels)."""

    name: Hashable
    edge: SignalEdge  # base edge (occurrence index dropped)
    enabling: Node  # preset places at 1 AND signal at value_before
    place_enabling: Node  # preset places at 1 only (marking token game)
    produced_empty: Node  # postset-minus-preset places at 0 (safeness)
    #: ``(state var, moves)`` per variable the firing reads or writes, in
    #: variable order; ``moves[v]`` is the value ``v`` becomes, ``None``
    #: where ``v`` disables the firing (saturation's input)
    effect: Tuple[Tuple[int, Moves], ...]


@dataclass
class SymbolicCensus:
    """The structured result of one symbolic state-space census."""

    name: str
    states: int
    places: int
    transitions: int
    signals: int
    iterations: int
    bdd_nodes: int
    reached_nodes: int
    seconds: float
    cache: Dict[str, object]
    #: per-component censuses of a composed census (empty otherwise)
    parts: List["SymbolicCensus"] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "states": self.states,
            "places": self.places,
            "transitions": self.transitions,
            "signals": self.signals,
            "components": len(self.parts) or 1,
            "iterations": self.iterations,
            "bdd_nodes": self.bdd_nodes,
            "reached_nodes": self.reached_nodes,
            "seconds": round(self.seconds, 3),
            "cache": dict(self.cache),
        }


#: Node-table size at which an opted-in engine first triggers sifting.
AUTO_REORDER_THRESHOLD = 20000

#: Interpreter frames the BDD work stacks per state variable: saturation
#: keeps up to three per level (saturate or fire, the level's firing
#: loop, one firing step) and the manager's recursive operations beneath
#: one per BDD level, two per state variable.
_FRAMES_PER_STATE_VAR = 5
#: Frames left to the caller's own stack.
_CALLER_FRAMES = 1000


class _RecursionLimit:
    """The interpreter's recursion limit, raised for nested scopes.

    The limit is process-wide while scopes may overlap (the service runs
    jobs on worker threads), so the first scope to enter saves the
    limit, each raises it as far as it needs, and the last one to leave
    restores it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._scopes = 0
        self._saved = 0

    @contextmanager
    def headroom(self, frames: int) -> Iterator[None]:
        with self._lock:
            if self._scopes == 0:
                self._saved = sys.getrecursionlimit()
            self._scopes += 1
            if sys.getrecursionlimit() < frames:
                sys.setrecursionlimit(frames)
        try:
            yield
        finally:
            with self._lock:
                self._scopes -= 1
                if self._scopes == 0:
                    sys.setrecursionlimit(self._saved)


_RECURSION = _RecursionLimit()


class SymbolicStateGraph:
    """BDD-backed state graph of one STG (see module docstring).

    ``reorder=True`` opts the manager into dynamic variable reordering:
    if the node table has outgrown :data:`AUTO_REORDER_THRESHOLD` once
    the reachable set is saturated, sifting runs once there (the one
    quiescent point of exploration), keeping each (unprimed, primed)
    variable pair adjacent so the relational prime/unprime renames stay
    order-preserving.  All verdicts and sat-counts are unaffected — only
    node-table shape and wall-clock change.
    """

    def __init__(
        self,
        stg: STG,
        max_cache_entries: Optional[int] = None,
        reorder: bool = False,
    ) -> None:
        if stg.dummy_transitions:
            raise NotImplementedError(
                "symbolic state graphs of STGs with dummy transitions are not supported"
            )
        self.stg = stg
        self.name = stg.name
        net = stg.net
        for transition in net.transitions:
            for place, weight in list(net.preset(transition).items()) + list(
                net.postset(transition).items()
            ):
                if weight != 1:
                    raise ValueError(
                        "the symbolic tier supports safe nets with unit arc weights only"
                    )

        self.variables: List[Tuple[str, Hashable]] = state_variable_order(stg)
        self.num_state_vars = len(self.variables)
        #: state variable index -> unprimed BDD level (2*k); primed is 2*k+1.
        self.var_index: Dict[Tuple[str, Hashable], int] = {
            key: k for k, key in enumerate(self.variables)
        }
        self.place_vars: Dict[Place, int] = {
            name: k for k, (kind, name) in enumerate(self.variables) if kind == "place"
        }
        self.signal_vars: Dict[str, int] = {
            name: k for k, (kind, name) in enumerate(self.variables) if kind == "signal"
        }
        self.unprimed_levels, self.primed_levels = interleaved_pair_levels(
            self.num_state_vars
        )
        self.reorder = reorder
        #: sift groups: each state variable stays adjacent to its primed twin
        self.pair_groups: List[Tuple[int, int]] = [
            (2 * k, 2 * k + 1) for k in range(self.num_state_vars)
        ]
        self.bdd = BDD(
            2 * self.num_state_vars,
            max_cache_entries=max_cache_entries,
            auto_reorder_threshold=AUTO_REORDER_THRESHOLD if reorder else None,
        )
        self.signals: List[str] = list(stg.signals)
        self._transitions: List[_SymbolicTransition] = [
            self._compile_transition(name) for name in net.transitions
        ]

        self.initial_values: Dict[str, int] = {}
        self.reached: Optional[Node] = None
        self.iterations = 0
        self.explore_seconds = 0.0
        self._enabled_cache: Dict[SignalEdge, Node] = {}

    # ------------------------------------------------------------------
    # variable plumbing
    # ------------------------------------------------------------------
    def unprimed(self, state_var: int) -> int:
        return 2 * state_var

    def primed(self, state_var: int) -> int:
        return 2 * state_var + 1

    def _compile_transition(self, name: Hashable) -> _SymbolicTransition:
        net = self.stg.net
        bdd = self.bdd
        label = self.stg.label_of(name)
        assert label is not None  # dummies rejected in __init__
        edge = label.base()
        signal_level = self.unprimed(self.signal_vars[edge.signal])

        preset = list(net.preset(name))
        postset = list(net.postset(name))
        produced = [p for p in postset if p not in set(preset)]

        place_enabling = bdd.conjoin(
            bdd.var(self.unprimed(self.place_vars[p])) for p in preset
        )
        signal_literal = (
            bdd.nvar(signal_level) if edge.is_rising else bdd.var(signal_level)
        )
        enabling = bdd.apply_and(place_enabling, signal_literal)
        produced_empty = bdd.conjoin(
            bdd.nvar(self.unprimed(self.place_vars[p])) for p in produced
        )

        # the signal toggles; a preset place must be marked and is emptied
        # (kept by a self loop), a produced place is marked
        effect: Dict[int, Moves] = {self.signal_vars[edge.signal]: (1, 0)}
        for place in preset:
            effect[self.place_vars[place]] = (None, 1 if place in postset else 0)
        for place in produced:
            effect[self.place_vars[place]] = (1, 1)
        return _SymbolicTransition(
            name=name,
            edge=edge,
            enabling=enabling,
            place_enabling=place_enabling,
            produced_empty=produced_empty,
            effect=tuple(sorted(effect.items())),
        )

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------
    def _state_cube(self, values: Dict[str, int]) -> Node:
        """The initial marking with signal values ``values``, as a cube."""
        marking = self.stg.initial_marking
        assignment: Dict[int, int] = {}
        for place, var in self.place_vars.items():
            count = marking.count(place)
            if count > 1:
                raise InconsistentSTGError(
                    f"the initial marking of {self.name!r} is not safe"
                )
            assignment[self.unprimed(var)] = 1 if count else 0
        for signal, var in self.signal_vars.items():
            assignment[self.unprimed(var)] = values[signal]
        return self.bdd.cube(assignment)

    def infer_initial_values(self) -> Dict[str, int]:
        """Initial signal values, read off the exploration (explores if
        needed; see the module docstring).

        Declared values (``stg.initial_values``) win.  Every other signal
        takes the ``value_before`` of one of its transitions that a
        reachable state enables by tokens, corrected by the parity of the
        signal's firings on the way; a signal none of whose transitions is
        ever enabled starts at 0 — exactly the fallback of
        :func:`repro.stg.state_graph.infer_encoding`.
        """
        self.explore()
        return self.initial_values

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def recursion_scope(self) -> ContextManager[None]:
        """Raise the recursion limit for this graph's BDD work, for one
        ``with`` block (the manager and saturation recurse per level)."""
        return _RECURSION.headroom(
            _FRAMES_PER_STATE_VAR * self.num_state_vars + _CALLER_FRAMES
        )

    def explore(self) -> Node:
        """The reachable set (module docstring): the toggle system
        saturated from the start code, the initial values read off it,
        and the signal bits that start wrong complemented.

        ``iterations`` counts the firings of transitions at their top
        level, the quiet firings that confirm a node's fixpoint
        included.  The safeness/consistency check runs before the result
        is cached, and ``explore_seconds`` covers both.  With
        ``reorder=True`` the manager sifts once afterwards (if its table
        outgrew :data:`AUTO_REORDER_THRESHOLD`): the fixpoint is the one
        quiescent point of exploration.
        """
        if self.reached is not None:
            return self.reached
        started = time.perf_counter()
        declared = self.stg.initial_values
        start = {signal: declared.get(signal, 0) for signal in self.signals}
        with self.recursion_scope():
            with span("bdd.apply", graph=self.name, phase="explore") as attrs:
                toggled, counts = self._saturate(self._state_cube(start))
                attrs.update(counts)
                values = self._read_initial_values(toggled, start)
                reached = self._flip(
                    toggled,
                    [
                        self.unprimed(self.signal_vars[signal])
                        for signal in self.signals
                        if values[signal] != start[signal]
                    ],
                )
            self.iterations = counts["firings"]
            self._check_safe_and_consistent(reached)
            self.bdd.maybe_reorder(groups=self.pair_groups)
        self.initial_values = values
        self.reached = reached
        self.explore_seconds = time.perf_counter() - started
        return reached

    def _effects_by_level(self) -> Tuple[List[int], List[Dict[int, Moves]]]:
        """The unprimed BDD variables, top level first (level ``k`` holds
        the ``k``-th of them in the current order), and each transition's
        effect keyed by level: ``level -> moves``."""
        levels = [var for var in self.bdd.var_order() if var % 2 == 0]
        level_of = {var: k for k, var in enumerate(levels)}
        effects = [
            {level_of[2 * var]: moves for var, moves in t.effect}
            for t in self._transitions
        ]
        return levels, effects

    def _saturate(self, initial: Node) -> Tuple[Node, Dict[str, int]]:
        """Saturate ``initial`` under the toggle system; returns the
        reached set and the counts the ``explore`` span carries: top-level
        ``firings``, nodes ``saturated`` and recursive ``images`` (cache
        entries both)."""
        bdd = self.bdd
        cofactors = bdd.cofactors
        make_node = bdd.make_node
        apply_or = bdd.apply_or
        levels, local = self._effects_by_level()
        depth = len(levels)
        # per transition: its bottom level and whether its firing at its
        # top level reads only the cofactor it does not write; transitions
        # grouped by their top level
        bottom = [max(steps) for steps in local]
        one_way: List[bool] = []
        by_top: List[List[int]] = [[] for _ in range(depth)]
        for index, steps in enumerate(local):
            top = min(steps)
            read = {value for value, to in enumerate(steps[top]) if to is not None}
            written = {steps[top][value] for value in read}
            one_way.append(not read & written)
            by_top[top].append(index)
        saturated: Dict[Tuple[int, Node], Node] = {}
        fired: Dict[Tuple[int, int, Node], Node] = {}
        firings = 0

        def saturate(k: int, node: Node) -> Node:
            # closure of ``node`` under every transition whose top is at
            # or below level k
            if node == FALSE or k == depth:
                return node
            key = (k, node)
            result = saturated.get(key)
            if result is None:
                poll_deadline()
                low, high = cofactors(node, levels[k])
                low_sat = saturate(k + 1, low)
                high_sat = low_sat if high == low else saturate(k + 1, high)
                result = close(k, make_node(levels[k], low_sat, high_sat))
                saturated[key] = result
            return result

        def close(k: int, node: Node) -> Node:
            # fire the level-k transitions on a node with saturated
            # cofactors until a whole cycle of them adds no state
            nonlocal firings
            events = by_top[k]
            var = levels[k]
            quiet = position = 0
            while quiet < len(events):
                event = events[position]
                position = (position + 1) % len(events)
                firings += 1
                low, high = cofactors(node, var)
                add_low, add_high = step(event, k, low, high)
                grown = make_node(var, apply_or(low, add_low), apply_or(high, add_high))
                if grown == node:
                    quiet += 1
                else:
                    # a one-way transition reads a cofactor its own firing
                    # left alone: firing it again adds nothing, so it
                    # counts as quiet at once
                    node, quiet = grown, 1 if one_way[event] else 0
            return node

        def step(event: int, k: int, low: Node, high: Node) -> Tuple[Node, Node]:
            # the event's effect at level k on the cofactors (low, high):
            # the images that land in each cofactor of the result
            moves = local[event].get(k, _KEPT)
            add_low = add_high = FALSE
            for child, to in ((low, moves[0]), (high, moves[1])):
                if child == FALSE or to is None:
                    continue
                image = fire(event, k + 1, child)
                if to:
                    add_high = apply_or(add_high, image)
                else:
                    add_low = apply_or(add_low, image)
            return add_low, add_high

        def fire(event: int, k: int, node: Node) -> Node:
            # the event's image of a node saturated at level k, saturated
            if node == FALSE or k > bottom[event]:
                return node
            key = (event, k, node)
            result = fired.get(key)
            if result is None:
                poll_deadline()
                low, high = step(event, k, *cofactors(node, levels[k]))
                result = close(k, make_node(levels[k], low, high))
                fired[key] = result
            return result

        reached = saturate(0, initial)
        return reached, {
            "firings": firings,
            "saturated": len(saturated),
            "images": len(fired),
        }

    def _read_initial_values(self, toggled: Node, start: Dict[str, int]) -> Dict[str, int]:
        """Initial signal values, read off the toggle system's reached set.

        A signal bit of ``toggled`` is the signal's start value xor the
        parity of its firings, and undeclared signals start at 0, so a
        state that enables transition ``t`` of undeclared signal ``s`` by
        tokens, with bit ``b``, gives ``s`` the initial value
        ``value_before(t) xor b``.  The first
        transition of ``s`` in net order that some state enables decides,
        from a state with bit 0 if there is one (for a consistent STG
        every such state gives the same value).  The test runs on the
        set's sub-functions at the transition's top level, as the
        safety test does.
        """
        bdd = self.bdd
        values = dict(start)
        pending = {s for s in self.signals if s not in self.stg.initial_values}
        levels, effects = self._effects_by_level()
        candidates = [
            (t, min(steps))
            for t, steps in zip(self._transitions, effects)
            if t.edge.signal in pending
        ]
        if not candidates:
            return values
        below = self._sub_functions(toggled, [top for _t, top in candidates], levels)
        for transition, top in candidates:
            signal = transition.edge.signal
            if signal not in pending:
                continue
            check_deadline()
            parts = below[top]
            at_zero = bdd.apply_and(
                transition.place_enabling,
                bdd.nvar(self.unprimed(self.signal_vars[signal])),
            )
            if any(bdd.apply_and(part, at_zero) != FALSE for part in parts):
                bit = 0
            elif any(bdd.apply_and(part, transition.place_enabling) != FALSE for part in parts):
                bit = 1
            else:
                continue
            values[signal] = transition.edge.value_before() ^ bit
            pending.discard(signal)
        return values

    def _flip(self, node: Node, variables: Sequence[int]) -> Node:
        """``node`` with ``variables`` complemented: one cached walk that
        swaps the cofactors at their levels and stops below the deepest."""
        if not variables:
            return node
        bdd = self.bdd
        flipped = set(variables)
        rank = {var: position for position, var in enumerate(bdd.var_order())}
        deepest = max(rank[var] for var in flipped)
        memo: Dict[Node, Node] = {}

        def walk(current: Node) -> Node:
            if current < 0:
                return -walk(-current)
            if current == TRUE:
                return current
            var = bdd.level(current)
            if rank[var] > deepest:
                return current
            result = memo.get(current)
            if result is None:
                low, high = bdd.cofactors(current, var)
                low, high = walk(low), walk(high)
                if var in flipped:
                    low, high = high, low
                result = bdd.make_node(var, low, high)
                memo[current] = result
            return result

        return walk(node)

    def _check_safe_and_consistent(self, reached: Node) -> None:
        """Symbolic twins of the explicit front-end checks.

        Unsafe: some reachable state enables a transition by tokens while
        one of its produced places is already marked (the next firing
        would double a token).  Inconsistent: some reachable state
        enables a transition by tokens while the fired signal already
        holds its post-firing value (the explicit encoder's per-arc value
        contradiction).  Both raise
        :class:`~repro.stg.state_graph.InconsistentSTGError`, mirroring
        :func:`repro.stg.state_graph.build_state_graph`; the first failing
        transition in net order decides which.

        Both checks fuse into one test per transition: ``reached`` must
        miss ``place_enabling ∧ ¬(produced_empty ∧ enabling)``, a small
        predicate over the transition's own variables.  The predicate
        lies at or below the transition's top level, so the test runs on
        the reached set's sub-functions there (:meth:`_sub_functions`),
        each far smaller than the set.  Only a failing test splits it to
        tell which check failed.
        """
        bdd = self.bdd
        levels, effects = self._effects_by_level()
        tops = [min(steps) for steps in effects]
        with span("bdd.apply", graph=self.name, phase="safety"):
            below = self._sub_functions(reached, tops, levels)
            for transition, top in zip(self._transitions, tops):
                check_deadline()
                bad = bdd.apply_diff(
                    transition.place_enabling,
                    bdd.apply_and(transition.produced_empty, transition.enabling),
                )
                parts = below[top]
                if all(bdd.apply_and(part, bad) == FALSE for part in parts):
                    continue
                if any(
                    bdd.apply_diff(
                        bdd.apply_and(part, transition.place_enabling),
                        transition.produced_empty,
                    )
                    != FALSE
                    for part in parts
                ):
                    raise InconsistentSTGError(
                        f"the underlying Petri net of {self.name!r} is not safe; the "
                        "region-based encoding theory assumes safe STGs"
                    )
                raise InconsistentSTGError(
                    f"transition {transition.name!r} of {self.name!r} is enabled in a "
                    f"reachable state whose {transition.edge.signal!r} value already "
                    "matches its post-firing value; the STG is not consistent"
                )

    def _sub_functions(
        self, node: Node, wanted: Sequence[int], levels: Sequence[int]
    ) -> Dict[int, Set[Node]]:
        """The sub-functions of a state set at each level in ``wanted``.

        The sub-functions at level ``k`` are what is left of ``node`` once
        the state variables above ``k`` are fixed along some path to a
        nonempty rest: a predicate over variables at or below ``k``
        meets ``node`` exactly when it meets one of them.  An edge that
        skips levels puts its child into every level it skips.
        ``levels`` lists the unprimed BDD variables, top level first.
        """
        bdd = self.bdd
        level_of = {var: k for k, var in enumerate(levels)}
        ordered = sorted(set(wanted))
        deepest = ordered[-1]
        found: Dict[int, Set[Node]] = {k: set() for k in ordered}
        expanded = set()
        # (sub-function, level of the node whose edge leads to it)
        stack = [(node, -1)]
        while stack:
            current, above = stack.pop()
            if current == FALSE:
                continue
            var = bdd.level(current)
            here = level_of.get(var, len(levels))
            for k in ordered[bisect_right(ordered, above) : bisect_right(ordered, here)]:
                found[k].add(current)
            # below the deepest wanted level no edge enters a wanted level
            if here < deepest and current not in expanded:
                expanded.add(current)
                low, high = bdd.cofactors(current, var)
                stack.append((low, here))
                stack.append((high, here))
        return found

    # ------------------------------------------------------------------
    # census and per-event structure
    # ------------------------------------------------------------------
    def count_states(self) -> int:
        """Number of reachable states (explores first if needed)."""
        reached = self.explore()
        with self.recursion_scope():
            return self.bdd.sat_count(reached, self.unprimed_levels)

    def census(self) -> SymbolicCensus:
        """Explore (if needed) and report the structured census."""
        started = time.perf_counter()
        states = self.count_states()
        seconds = self.explore_seconds or (time.perf_counter() - started)
        stats = self.stg.stats()
        assert self.reached is not None
        return SymbolicCensus(
            name=self.name,
            states=states,
            places=stats["places"],
            transitions=stats["transitions"],
            signals=stats["signals"],
            iterations=self.iterations,
            bdd_nodes=self.bdd.num_nodes,
            reached_nodes=self._node_count(self.reached),
            seconds=seconds,
            cache=self.bdd.cache_stats(),
        )

    def _node_count(self, node: Node) -> int:
        # complement edges: ±r share one structural node, dedup on abs;
        # the single shared terminal still reports as 2 (TRUE and FALSE)
        # to stay comparable with pre-complement-edge censuses
        seen = set()
        stack = [abs(node)]
        while stack:
            current = stack.pop()
            if current == 1 or current in seen:
                continue
            seen.add(current)
            stack.append(abs(self.bdd.low(current)))
            stack.append(abs(self.bdd.high(current)))
        return len(seen) + 2

    def base_edges(self) -> List[SignalEdge]:
        """The base signal edges of the STG, in first-occurrence order."""
        edges: Dict[SignalEdge, None] = {}
        for transition in self._transitions:
            edges.setdefault(transition.edge, None)
        return list(edges)

    def enabled_predicate(self, edge: SignalEdge) -> Node:
        """States enabling base edge ``edge`` (union over its occurrences),
        as a function of the unprimed state variables."""
        edge = edge.base()
        cached = self._enabled_cache.get(edge)
        if cached is None:
            cached = self.bdd.disjoin(
                t.enabling for t in self._transitions if t.edge == edge
            )
            self._enabled_cache[edge] = cached
        return cached

    # ------------------------------------------------------------------
    # decoding (tests, witnesses, materialization)
    # ------------------------------------------------------------------
    def decode_state(self, assignment: Dict[int, int]) -> Tuple[Marking, Tuple[int, ...]]:
        """Decode an unprimed-level assignment into ``(marking, code)``.

        ``assignment`` maps BDD levels to values; missing levels read as
        0 (the completion :meth:`repro.bdd.bdd.BDD.pick_cube` implies).
        The code tuple follows the STG's signal declaration order, like
        the explicit encoding.
        """
        tokens = {
            place: 1
            for place, var in self.place_vars.items()
            if assignment.get(self.unprimed(var), 0)
        }
        code = tuple(
            assignment.get(self.unprimed(self.signal_vars[s]), 0) for s in self.signals
        )
        return Marking(tokens), code

    def states_of(
        self, node: Node, limit: Optional[int] = None
    ) -> Iterator[Tuple[Marking, Tuple[int, ...]]]:
        """Enumerate the states of a state-set BDD (small sets only)."""
        produced = 0
        for assignment in self._assignments_over(node, self.unprimed_levels):
            yield self.decode_state(assignment)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def _assignments_over(
        self, node: Node, levels: Sequence[int]
    ) -> Iterator[Dict[int, int]]:
        """All satisfying assignments of ``node`` over exactly ``levels``."""
        bdd = self.bdd
        # walk in the manager's *current* level order (identical to the
        # numeric order unless a reorder ran) so the descent matches the
        # structural order of the diagram
        rank = {var: i for i, var in enumerate(bdd.var_order())}
        ordered = sorted(levels, key=rank.__getitem__)
        level_set = set(ordered)

        def walk(current: Node, position: int, prefix: Dict[int, int]):
            if current == bdd.false:
                return
            if position == len(ordered):
                if current != bdd.true:
                    raise ValueError("function depends on a level outside the set")
                yield dict(prefix)
                return
            level = ordered[position]
            node_level = bdd.level(current)
            if node_level not in level_set and current != bdd.true:
                raise ValueError("function depends on a level outside the set")
            for value in (0, 1):
                if current != bdd.true and node_level == level:
                    child = bdd.high(current) if value else bdd.low(current)
                else:
                    child = current
                prefix[level] = value
                yield from walk(child, position + 1, prefix)
            del prefix[level]

        yield from walk(node, 0, {})

    def contains(self, node: Node, marking: Marking, code: Sequence[int]) -> bool:
        """Membership test of one explicit ``(marking, code)`` state."""
        assignment = [0] * self.bdd.num_vars
        for place, var in self.place_vars.items():
            if marking.count(place):
                assignment[self.unprimed(var)] = 1
        for position, signal in enumerate(self.signals):
            assignment[self.unprimed(self.signal_vars[signal])] = int(code[position])
        return self.bdd.evaluate(node, assignment) == 1

    def __repr__(self) -> str:
        return (
            f"SymbolicStateGraph(name={self.name!r}, "
            f"state_vars={self.num_state_vars}, bdd_nodes={self.bdd.num_nodes})"
        )
