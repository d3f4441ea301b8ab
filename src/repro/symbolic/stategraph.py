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
Images are computed without a primed transition relation, by a
safeness trick — restrict to the enabling condition, quantify the
changed variables, constrain them to their post-firing values —
extended with the fired signal's variable, which every
transition of signal ``s`` pins to ``value_before`` in its enabling cube
and flips in its after cube.  Initial signal values are inferred the
same way the explicit encoder does, but without building any state
graph: a bounded marking-only BFS finds, per signal, the first edge of
that signal that can fire (consistency forces its ``value_before`` to be
the initial value), stopping as soon as every signal is resolved.
The reachability fixpoint is chained (each image folds into the reached
set at once) and stops after one quiet cycle: every transition fired in
turn without growing the set.

The class also carries the symbolic twins of the explicit front-end
checks: safeness and consistency violations are detected on the reached
set with one fused test per transition and raised as
:class:`~repro.stg.state_graph.InconsistentSTGError`, mirroring
:func:`repro.stg.state_graph.build_state_graph`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.bdd.bdd import BDD, Node, interleaved_pair_levels
from repro.obs import span
from repro.petri.net import Marking
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import InconsistentSTGError
from repro.stg.stg import STG
from repro.utils.deadline import check_deadline

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


@dataclass
class _SymbolicTransition:
    """One compiled net transition (all cubes over unprimed levels)."""

    name: Hashable
    edge: SignalEdge  # base edge (occurrence index dropped)
    enabling: Node  # preset places at 1 AND signal at value_before
    place_enabling: Node  # preset places at 1 only (marking token game)
    produced_empty: Node  # postset-minus-preset places at 0 (safeness)
    changed_levels: List[int]  # quantified by the image: places + signal
    after: Node  # post-firing values of the changed variables
    place_changed_levels: List[int]  # marking-only image: places alone
    place_after: Node  # post-firing place values alone


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


class SymbolicStateGraph:
    """BDD-backed state graph of one STG (see module docstring).

    ``reorder=True`` opts the manager into dynamic variable reordering:
    once the node table outgrows :data:`AUTO_REORDER_THRESHOLD`, sifting
    runs between exploration passes (the quiescent points of the
    fixpoint), keeping each (unprimed, primed) variable pair adjacent so
    the relational prime/unprime renames stay order-preserving.  All
    verdicts and sat-counts are unaffected — only node-table shape and
    wall-clock change.
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
        # The recursive BDD operations descend one frame per level (with
        # nested ite calls inside exists); leave generous headroom for
        # specifications with hundreds of state variables.
        needed_recursion = 8 * self.bdd.num_vars + 1000
        if sys.getrecursionlimit() < needed_recursion:
            sys.setrecursionlimit(needed_recursion)

        self.signals: List[str] = list(stg.signals)
        self._transitions: List[_SymbolicTransition] = [
            self._compile_transition(name) for name in net.transitions
        ]
        self._by_signal: Dict[str, List[_SymbolicTransition]] = {}
        for transition in self._transitions:
            self._by_signal.setdefault(transition.edge.signal, []).append(transition)

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
        consumed = [p for p in preset if p not in set(postset)]
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

        place_changed_levels = sorted(
            [self.unprimed(self.place_vars[p]) for p in consumed]
            + [self.unprimed(self.place_vars[p]) for p in produced]
        )
        changed_levels = sorted(place_changed_levels + [signal_level])
        place_after_literals = [
            bdd.nvar(self.unprimed(self.place_vars[p])) for p in consumed
        ]
        place_after_literals += [
            bdd.var(self.unprimed(self.place_vars[p])) for p in produced
        ]
        place_after = bdd.conjoin(place_after_literals)
        after = bdd.apply_and(
            place_after,
            bdd.var(signal_level) if edge.is_rising else bdd.nvar(signal_level),
        )
        return _SymbolicTransition(
            name=name,
            edge=edge,
            enabling=enabling,
            place_enabling=place_enabling,
            produced_empty=produced_empty,
            changed_levels=changed_levels,
            after=after,
            place_changed_levels=place_changed_levels,
            place_after=place_after,
        )

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------
    def _initial_marking_cube(self) -> Node:
        marking = self.stg.initial_marking
        assignment: Dict[int, int] = {}
        for place, var in self.place_vars.items():
            count = marking.count(place)
            if count > 1:
                raise InconsistentSTGError(
                    f"the initial marking of {self.name!r} is not safe"
                )
            assignment[self.unprimed(var)] = 1 if count else 0
        return self.bdd.cube(assignment)

    def infer_initial_values(self) -> Dict[str, int]:
        """Initial signal values, inferred without building a state graph.

        Declared values (``stg.initial_values``) win.  For the rest, a
        marking-only BFS from the initial marking finds the first level at
        which some transition of the signal is enabled; consistency makes
        its ``value_before`` the initial value (every firing sequence
        must alternate the signal starting there).  Signals whose
        transitions are never enabled keep the declared/default value —
        exactly the fallback of
        :func:`repro.stg.state_graph.infer_encoding`.  Two first-enabled
        edges of one signal that disagree on ``value_before`` mean the
        STG is not consistent.
        """
        if self.initial_values:
            return self.initial_values
        bdd = self.bdd
        values: Dict[str, int] = dict(self.stg.initial_values)
        pending = [s for s in self.signals if s not in values]

        reached = self._initial_marking_cube()
        frontier = reached
        while pending and frontier != bdd.false:
            check_deadline()
            resolved: List[str] = []
            for signal in pending:
                befores = {
                    0 if t.edge.is_rising else 1
                    for t in self._by_signal.get(signal, ())
                    if bdd.apply_and(frontier, t.place_enabling) != bdd.false
                }
                if len(befores) > 1:
                    raise InconsistentSTGError(
                        f"signal {signal!r} can first fire both rising and falling "
                        f"from the initial marking of {self.name!r}"
                    )
                if befores:
                    values[signal] = befores.pop()
                    resolved.append(signal)
            pending = [s for s in pending if s not in set(resolved)]
            if not pending:
                break
            new = bdd.false
            for transition in self._transitions:
                enabled = bdd.apply_and(frontier, transition.place_enabling)
                if enabled == bdd.false:
                    continue
                moved = bdd.exists(enabled, transition.place_changed_levels)
                moved = bdd.apply_and(moved, transition.place_after)
                new = bdd.apply_or(new, moved)
            new = bdd.apply_diff(new, reached)
            reached = bdd.apply_or(reached, new)
            frontier = new
        for signal in pending:
            values[signal] = 0
        self.initial_values = {s: values.get(s, 0) for s in self.signals}
        return self.initial_values

    def initial_cube(self) -> Node:
        """The initial state (marking bits + inferred code bits) as a cube."""
        values = self.infer_initial_values()
        assignment: Dict[int, int] = {}
        marking = self.stg.initial_marking
        for place, var in self.place_vars.items():
            assignment[self.unprimed(var)] = 1 if marking.count(place) else 0
        for signal, var in self.signal_vars.items():
            assignment[self.unprimed(var)] = values[signal]
        return self.bdd.cube(assignment)

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def explore(self) -> Node:
        """Fixpoint of the image computation from the initial state.

        Uses *chained* iteration — each transition's image is folded into
        the reached set immediately (``reached ∨ moved``; the canonical
        node id tells whether it grew), so one pass over the (locality-
        ordered) transition list propagates a whole wavefront down a
        coupled chain.  On the pipeline-style benchmarks this converges
        in a handful of passes where breadth-first frontiers need one
        iteration per BFS level and build far larger "exact distance"
        BDDs; the fixpoint itself is the same unique reachable set.

        The loop stops after a *quiet cycle*: once every transition, in
        cyclic order, has fired without growing the reached set, that set
        is closed under every image — no confirming pass is run.  The
        transition that last grew the set counts as quiet at once: its
        after cube flips the fired signal away from the value its
        enabling cube requires, so it cannot fire twice in a row.
        ``iterations`` counts the passes started, the last one usually
        partial.  The safeness/consistency check runs before the result
        is cached, and ``explore_seconds`` covers both.
        """
        if self.reached is not None:
            return self.reached
        started = time.perf_counter()
        bdd = self.bdd
        transitions = self._transitions
        reached = self.initial_cube()
        passes = firings = quiet = 0
        with span("bdd.apply", graph=self.name, phase="explore") as attrs:
            while quiet < len(transitions):
                passes += 1
                for transition in transitions:
                    check_deadline()
                    firings += 1
                    moved = bdd.and_exists(
                        reached, transition.enabling, transition.changed_levels
                    )
                    if moved != bdd.false:
                        grown = bdd.apply_or(reached, bdd.apply_and(moved, transition.after))
                        if grown != reached:
                            reached, quiet = grown, 1
                            continue
                    quiet += 1
                    if quiet == len(transitions):
                        break
                # a pass boundary is a quiescent point: no operation in
                # flight, so sifting may rewrite the node table freely
                bdd.maybe_reorder(groups=self.pair_groups)
            attrs["passes"] = passes
            attrs["firings"] = firings
        self.iterations = passes
        self._check_safe_and_consistent(reached)
        self.reached = reached
        self.explore_seconds = time.perf_counter() - started
        return reached

    def _check_safe_and_consistent(self, reached: Node) -> None:
        """Symbolic twins of the explicit front-end checks.

        Unsafe: some reachable state enables a transition by tokens while
        one of its produced places is already marked (the next firing
        would double a token).  Inconsistent: some reachable state
        enables a transition by tokens while the fired signal already
        holds its post-firing value (the explicit encoder's per-arc value
        contradiction).  Both raise
        :class:`~repro.stg.state_graph.InconsistentSTGError`, mirroring
        :func:`repro.stg.state_graph.build_state_graph`.

        Both checks fuse into one test per transition: ``reached`` must
        miss ``place_enabling ∧ ¬(produced_empty ∧ enabling)``, a small
        predicate over the transition's own variables.  Only a failing
        test splits it to tell which check failed.  (One disjunction of
        these predicates over all transitions spans the whole variable
        order: it cost more nodes and time than it saved.)
        """
        bdd = self.bdd
        with span("bdd.apply", graph=self.name, phase="safety"):
            for transition in self._transitions:
                check_deadline()
                bad = bdd.apply_diff(
                    transition.place_enabling,
                    bdd.apply_and(transition.produced_empty, transition.enabling),
                )
                if bdd.apply_and(reached, bad) == bdd.false:
                    continue
                tokens_enabled = bdd.apply_and(reached, transition.place_enabling)
                if bdd.apply_diff(tokens_enabled, transition.produced_empty) != bdd.false:
                    raise InconsistentSTGError(
                        f"the underlying Petri net of {self.name!r} is not safe; the "
                        "region-based encoding theory assumes safe STGs"
                    )
                raise InconsistentSTGError(
                    f"transition {transition.name!r} of {self.name!r} is enabled in a "
                    f"reachable state whose {transition.edge.signal!r} value already "
                    "matches its post-firing value; the STG is not consistent"
                )

    # ------------------------------------------------------------------
    # census and per-event structure
    # ------------------------------------------------------------------
    def count_states(self) -> int:
        """Number of reachable states (explores first if needed)."""
        reached = self.explore()
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
