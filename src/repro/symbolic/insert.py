"""Fully symbolic CSC solving: signal insertion in BDD space (tentpole).

The hybrid bridge materializes the conflict-reachable core into the
explicit solver when it fits ``core_budget``; this module is the path
for everything beyond that: the complete Figure-4 pipeline — bricks,
block ranking, SIP validation, the insertion itself and the expanded
graph — runs on BDD state sets (:mod:`repro.symbolic.regions`), so no
step ever enumerates the current graph's states.

The three pieces, mirroring their explicit twins verdict for verdict:

* :func:`insert_signal_symbolic` — the twin of
  :func:`repro.core.insertion.insert_signal`: each transition of the
  parent is *replayed* at the x-values the I-partition crossing table
  allows, expressed as one derived transition piece whose enabling is
  ``(en0 ∧ ¬x) ∨ (en1 ∧ x)``; the expanded graph lives in a **fresh BDD
  manager** with one extra variable pair, parent formulas are copied
  across managers by structural transfer (variable indexes are
  preserved, so the copy is order-independent);
* :func:`check_insertion_symbolic` — the twin of
  :func:`repro.core.sip.check_insertion`: the same verdict sequence
  (degenerate partition, input delays, illegal crossings, determinism,
  commutativity, persistency of previously persistent events and of the
  new signal), each property phrased as an emptiness test of a
  violation set instead of a scan over states;
* :func:`find_insertion_plan_symbolic` / :func:`solve_csc_symbolic` —
  the twins of the Figure-4 frontier search and of
  :func:`repro.core.solver.solve_csc`: identical seeding, ranking
  (``(cost, size, seq)``), growth, greedy merge, validation order and
  progress/budget rules, with blocks as BDD nodes and all sizes via
  ``sat_count``.

On enumerable graphs the whole pipeline is pinned byte-identical to the
explicit engine (same inserted signals, same
:meth:`~repro.core.solver.EncodingResult.fingerprint` content) by the
conformance suite; the explicit event orders the search depends on are
reproduced by the view's :class:`~repro.symbolic.regions.ExplicitOrderLedger`.

Two deliberate divergences from the explicit engine, both logged:
``enlarge_concurrency`` is not offered symbolically (no library setting
uses it), and the cost model never samples the conflict relation down to
``max_conflict_pairs`` — the BDD relation is the full set at any size,
which can only *improve* cost fidelity on heavily conflicting graphs.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bdd.bdd import BDD, FALSE, Node, TRUE
from repro.core.cost import Cost
from repro.core.search import SearchSettings, _canonical_rank
from repro.core.solver import InsertionRecord, SolverSettings
from repro.obs import emit_progress, get_logger, span
from repro.stg.signals import SignalEdge
from repro.symbolic.regions import (
    ConflictContext,
    ExplicitOrderLedger,
    SymbolicBlockEvaluation,
    SymbolicGraphView,
    SymbolicIPartition,
    SymbolicPiece,
    brick_adjacency_symbolic,
    compute_bricks_symbolic,
    conflict_context,
    delayed_edges_symbolic,
    evaluate_block_symbolic,
)
from repro.symbolic.stategraph import SymbolicStateGraph
from repro.utils.deadline import check_deadline, poll_deadline
from repro.utils.timing import Stopwatch

_log = get_logger("symbolic")

__all__ = [
    "SymbolicEncodingResult",
    "SymbolicIllegalInsertionError",
    "SymbolicInsertionCheck",
    "SymbolicInsertionPlan",
    "check_insertion_symbolic",
    "find_insertion_plan_symbolic",
    "insert_signal_symbolic",
    "persistent_edges_symbolic",
    "solve_csc_symbolic",
    "transfer",
]


class SymbolicIllegalInsertionError(ValueError):
    """A reachable transition crosses the I-partition illegally (twin of
    :class:`repro.core.insertion.IllegalInsertionError`)."""


def transfer(src: BDD, dst: BDD, node: Node, memo: Dict[Node, Node]) -> Node:
    """Copy a function from one BDD manager into another.

    Variables are matched by *index*, which both managers interpret
    identically regardless of their current orders; complement edges are
    preserved by memoizing on the positive node only.
    """
    if node == TRUE or node == FALSE:
        return node
    negated = node < 0
    key = -node if negated else node
    result = memo.get(key)
    if result is None:
        result = dst.ite(
            dst.var(src.level(key)),
            transfer(src, dst, src.high(key), memo),
            transfer(src, dst, src.low(key), memo),
        )
        memo[key] = result
    return -result if negated else result


# ----------------------------------------------------------------------
# symbolic signal insertion (twin of core.insertion.insert_signal)
# ----------------------------------------------------------------------
def insert_signal_symbolic(
    view: SymbolicGraphView, partition: SymbolicIPartition, signal: str
) -> SymbolicGraphView:
    """Insert ``signal`` according to ``partition``, fully in BDD space.

    Every state of the result is conceptually a pair
    ``(original_state, x_value)``; concretely the expanded graph gets a
    fresh manager with one extra interleaved variable pair for ``x`` and
    one derived piece per parent piece.  A parent piece ``t`` replays at
    ``x = 0`` exactly from the states the crossing table maps to value 0
    — sources on the zero side whose ``t``-successor stays on the zero
    side, plus ``S-`` sources ``t`` keeps in ``S-`` or returns to the
    zero side — and symmetrically at ``x = 1``; the two cases become the
    ``¬x`` / ``x`` halves of the derived enabling.  Illegal crossings of
    *reachable* transitions raise before anything is built, like the
    explicit replay does (unreachable sources may leak a spurious
    enabling into a derived piece, but their child states are
    unreachable too, so the expanded graph is unaffected).
    """
    if signal in view.signals:
        raise ValueError(f"signal {signal!r} already exists in the state graph")
    bdd = view.bdd
    zero_side = partition.zero_side(bdd)
    one_side = partition.one_side(bdd)

    replays: List[Tuple[Node, Node]] = []
    for piece in view.pieces:
        index = piece.index
        pre_zero = view.pre_of(index, zero_side)
        pre_one = view.pre_of(index, one_side)
        pre_s0 = view.pre_of(index, partition.s0)
        pre_s1 = view.pre_of(index, partition.s1)
        illegal = bdd.disjoin(
            [
                bdd.apply_and(partition.s0, pre_one),
                bdd.apply_and(partition.splus, pre_s0),
                bdd.apply_and(partition.s1, pre_zero),
                bdd.apply_and(partition.sminus, pre_s1),
            ]
        )
        witness = bdd.apply_and(
            bdd.apply_and(view.reached, piece.enabling), illegal
        )
        if witness != bdd.false:
            raise SymbolicIllegalInsertionError(
                f"transition {piece.edge} crosses the I-partition illegally"
            )
        # value 0: Z -> Z plus S- -> (Z or S-); value 1: O -> O plus S+ -> (O or S+)
        en0 = bdd.apply_and(
            piece.enabling,
            bdd.apply_or(
                bdd.apply_and(zero_side, pre_zero),
                bdd.apply_and(
                    partition.sminus,
                    bdd.apply_or(pre_zero, view.pre_of(index, partition.sminus)),
                ),
            ),
        )
        en1 = bdd.apply_and(
            piece.enabling,
            bdd.apply_or(
                bdd.apply_and(one_side, pre_one),
                bdd.apply_and(
                    partition.splus,
                    bdd.apply_or(pre_one, view.pre_of(index, partition.splus)),
                ),
            ),
        )
        replays.append((en0, en1))

    num_vars = view.num_state_vars + 1
    child_bdd = BDD(2 * num_vars)
    needed_recursion = 8 * child_bdd.num_vars + 1000
    if sys.getrecursionlimit() < needed_recursion:
        sys.setrecursionlimit(needed_recursion)
    x_level = 2 * view.num_state_vars
    x_var = child_bdd.var(x_level)
    not_x = child_bdd.apply_not(x_var)
    memo: Dict[Node, Node] = {}

    pieces: List[SymbolicPiece] = []
    for piece, (en0, en1) in zip(view.pieces, replays):
        enabling = child_bdd.apply_or(
            child_bdd.apply_and(transfer(bdd, child_bdd, en0, memo), not_x),
            child_bdd.apply_and(transfer(bdd, child_bdd, en1, memo), x_var),
        )
        pieces.append(
            SymbolicPiece(
                name=piece.name,
                edge=piece.edge,
                enabling=enabling,
                changed_levels=list(piece.changed_levels),
                after=transfer(bdd, child_bdd, piece.after, memo),
                after_values=dict(piece.after_values),
            )
        )
    splus_child = transfer(bdd, child_bdd, partition.splus, memo)
    sminus_child = transfer(bdd, child_bdd, partition.sminus, memo)
    rise = SignalEdge.rise(signal)
    fall = SignalEdge.fall(signal)
    pieces.append(
        SymbolicPiece(
            name=f"{signal}+",
            edge=rise,
            enabling=child_bdd.apply_and(splus_child, not_x),
            changed_levels=[x_level],
            after=x_var,
            after_values={x_level: 1},
        )
    )
    pieces.append(
        SymbolicPiece(
            name=f"{signal}-",
            edge=fall,
            enabling=child_bdd.apply_and(sminus_child, x_var),
            changed_levels=[x_level],
            after=child_bdd.nvar(x_level),
            after_values={x_level: 0},
        )
    )

    initial_value = 0 if bdd.apply_and(view.initial, zero_side) != bdd.false else 1
    initial = child_bdd.apply_and(
        transfer(bdd, child_bdd, view.initial, memo),
        x_var if initial_value else not_x,
    )

    parent_decode = view._decode
    decode = None
    if parent_decode is not None:

        def decode(assignment: Dict[int, int], _decode=parent_decode):
            parent_assignment = {
                level: value for level, value in assignment.items() if level != x_level
            }
            return (_decode(parent_assignment), assignment[x_level])

    child = SymbolicGraphView(
        bdd=child_bdd,
        name=f"{view.name}+{signal}",
        signals=view.signals + [signal],
        signal_levels={**view.signal_levels, signal: x_level},
        input_signals=view.input_signals,
        pieces=pieces,
        num_state_vars=num_vars,
        initial=initial,
        decode=decode,
        ledger=None,
        ledger_mode="fixed",
    )
    parent_ledger = view.ledger
    if parent_ledger is not None:
        child._ledger = _child_ledger(
            view, parent_ledger, partition, child, rise, fall, initial_value
        )
    return child


def _child_ledger(
    view: SymbolicGraphView,
    parent: ExplicitOrderLedger,
    partition: SymbolicIPartition,
    child: SymbolicGraphView,
    rise: SignalEdge,
    fall: SignalEdge,
    initial_value: int,
) -> ExplicitOrderLedger:
    """Reconstruct the explicit engine's insertion orders for the
    expanded graph.

    Mirrors ``insert_signal``'s ``TransitionSystem`` bookkeeping: replay
    arcs in parent ``transitions()`` order at the crossing-table values,
    then the rise/fall arcs, then ``restrict_to_reachable`` (which keeps
    state order and rebuilds event first-occurrence order over the
    surviving arcs).  The explicit rise/fall loops iterate Python sets
    whose order is unobservable; here the border states are visited in
    parent state order — any case where that changed an *event* order
    would make the explicit engine itself hash-order dependent.
    """
    bdd = view.bdd
    vector = [0] * bdd.num_vars
    levels = view.unprimed_levels

    def classify(key: Tuple[int, ...]) -> str:
        for level, value in zip(levels, key):
            vector[level] = value
        if bdd.evaluate(partition.s0, vector):
            return "s0"
        if bdd.evaluate(partition.splus, vector):
            return "splus"
        if bdd.evaluate(partition.s1, vector):
            return "s1"
        return "sminus"

    classes = {key: classify(key) for key in parent.states}
    # the crossing table of core.insertion.ARC_VALUES
    target_values = {
        ("s0", "s0"): (0,),
        ("s0", "splus"): (0,),
        ("splus", "splus"): (0, 1),
        ("splus", "s1"): (1,),
        ("splus", "sminus"): (1,),
        ("s1", "s1"): (1,),
        ("s1", "sminus"): (1,),
        ("sminus", "sminus"): (0, 1),
        ("sminus", "s0"): (0,),
        ("sminus", "splus"): (0,),
    }

    states: List[Tuple[int, ...]] = []
    outgoing: Dict[Tuple[int, ...], List[Tuple[SignalEdge, Tuple[int, ...]]]] = {}
    events: Dict[SignalEdge, None] = {}
    seen_arcs: Set[Tuple[Tuple[int, ...], SignalEdge, Tuple[int, ...]]] = set()

    def add_arc(source, edge, target) -> None:
        triple = (source, edge, target)
        if triple in seen_arcs:
            return
        seen_arcs.add(triple)
        for state in (source, target):
            if state not in outgoing:
                outgoing[state] = []
                states.append(state)
        events.setdefault(edge, None)
        outgoing[source].append((edge, target))

    for source, edge, target in parent.transitions():
        for value in target_values[(classes[source], classes[target])]:
            add_arc(source + (value,), edge, target + (value,))
    for key in parent.states:
        if classes[key] == "splus":
            add_arc(key + (0,), rise, key + (1,))
    for key in parent.states:
        if classes[key] == "sminus":
            add_arc(key + (1,), fall, key + (0,))

    initial_key = next(iter(parent.states)) + (initial_value,)
    if initial_key not in outgoing:
        outgoing[initial_key] = []
        states.append(initial_key)

    # restrict_to_reachable: membership from the child's reached set
    child_vector = [0] * child.bdd.num_vars
    reached = child.reached

    def is_reachable(key: Tuple[int, ...]) -> bool:
        for level, value in zip(child.unprimed_levels, key):
            child_vector[level] = value
        return bool(child.bdd.evaluate(reached, child_vector))

    keep = {key for key in states if is_reachable(key)}
    kept_states = [key for key in states if key in keep]
    kept_outgoing = {key: [] for key in kept_states}
    kept_events: Dict[SignalEdge, None] = {}
    for source in states:
        for edge, target in outgoing[source]:
            if source in keep and target in keep:
                kept_events.setdefault(edge, None)
                kept_outgoing[source].append((edge, target))
    return ExplicitOrderLedger(kept_states, kept_outgoing, list(kept_events))


# ----------------------------------------------------------------------
# symbolic SIP check (twin of core.sip.check_insertion)
# ----------------------------------------------------------------------
def persistent_edges_symbolic(view: SymbolicGraphView) -> Set[SignalEdge]:
    """Events persistent in ``view`` (twin of the ``persistent_before``
    set of the solver): ``e`` is persistent iff no reachable state
    enables both ``e`` and another event whose firing disables ``e``."""
    bdd = view.bdd
    result: Set[SignalEdge] = set()
    for edge in view.base_edges():
        enabled = view.enabled_predicate(edge)
        sources = bdd.apply_and(view.reached, enabled)
        persistent = True
        for piece in view.pieces:
            if piece.edge == edge:
                continue
            disabled_after = bdd.apply_not(view.pre_of(piece.index, enabled))
            violation = bdd.apply_and(
                bdd.apply_and(sources, piece.enabling), disabled_after
            )
            if violation != bdd.false:
                persistent = False
                break
        if persistent:
            result.add(edge)
    return result


def _edge_present(view: SymbolicGraphView, edge: SignalEdge) -> bool:
    """Whether any reachable transition of ``edge`` exists (the twin of
    ``event in new_sg.ts.events`` on the reachability-restricted TS)."""
    return (
        view.bdd.apply_and(view.reached, view.enabled_predicate(edge))
        != view.bdd.false
    )


def _result_cube(
    bdd: BDD,
    finals: Sequence[Tuple[Dict[int, int], ...]],
) -> Node:
    """Equality of two composed firing outcomes as a condition on the
    start state.

    Each element of ``finals`` is a pair of assignment chains: the final
    value of level ``l`` is the first chain entry containing ``l``, or
    the start state's own value.  Constant-vs-constant disagreement makes
    the outcomes unconditionally different (``FALSE``); constant-vs-pass-
    through contributes the literal ``l == constant``.
    """
    (chain_a, chain_b) = finals

    def final_value(chain: Tuple[Dict[int, int], ...], level: int) -> Optional[int]:
        for values in chain:
            if level in values:
                return values[level]
        return None

    levels: Set[int] = set()
    for chain in finals:
        for values in chain:
            levels.update(values)
    condition = bdd.true
    for level in sorted(levels, reverse=True):
        value_a = final_value(chain_a, level)
        value_b = final_value(chain_b, level)
        if value_a is not None and value_b is not None:
            if value_a != value_b:
                return bdd.false
        elif value_a is not None:
            condition = bdd.apply_and(
                condition, bdd.var(level) if value_a else bdd.nvar(level)
            )
        elif value_b is not None:
            condition = bdd.apply_and(
                condition, bdd.var(level) if value_b else bdd.nvar(level)
            )
    return condition


def _is_deterministic(view: SymbolicGraphView) -> bool:
    """No reachable state fires one event towards two different states."""
    bdd = view.bdd
    for edge in view.base_edges():
        pieces = view.pieces_of(edge)
        for i, first in enumerate(pieces):
            for second in pieces[i + 1 :]:
                same_result = _result_cube(
                    bdd, ((first.after_values,), (second.after_values,))
                )
                violation = bdd.apply_and(
                    bdd.apply_and(view.reached, first.enabling),
                    bdd.apply_and(second.enabling, bdd.apply_not(same_result)),
                )
                if violation != bdd.false:
                    return False
    return True


def _is_commutative(view: SymbolicGraphView) -> bool:
    """Diamonds commute: when two events fire in both orders from a
    reachable state, both orders reach the same state."""
    bdd = view.bdd
    for p in view.pieces:
        poll_deadline()
        for q in view.pieces:
            if p.index >= q.index or p.edge == q.edge:
                continue
            both = bdd.apply_and(
                bdd.apply_and(view.reached, p.enabling), q.enabling
            )
            if both == bdd.false:
                continue
            for q2 in view.pieces_of(q.edge):
                q2_after_p = view.pre_of(p.index, q2.enabling)
                base = bdd.apply_and(both, q2_after_p)
                if base == bdd.false:
                    continue
                for p2 in view.pieces_of(p.edge):
                    p2_after_q = view.pre_of(q.index, p2.enabling)
                    same_result = _result_cube(
                        bdd,
                        (
                            (q2.after_values, p.after_values),
                            (p2.after_values, q.after_values),
                        ),
                    )
                    violation = bdd.apply_and(
                        bdd.apply_and(base, p2_after_q),
                        bdd.apply_not(same_result),
                    )
                    if violation != bdd.false:
                        return False
    return True


def _is_edge_persistent(view: SymbolicGraphView, edge: SignalEdge) -> bool:
    """Twin of ``is_event_persistent`` on the expanded graph."""
    bdd = view.bdd
    enabled = view.enabled_predicate(edge)
    sources = bdd.apply_and(view.reached, enabled)
    if sources == bdd.false:
        return True
    for piece in view.pieces:
        if piece.edge == edge:
            continue
        violation = bdd.apply_and(
            bdd.apply_and(sources, piece.enabling),
            bdd.apply_not(view.pre_of(piece.index, enabled)),
        )
        if violation != bdd.false:
            return False
    return True


@dataclass
class SymbolicInsertionCheck:
    """Outcome of the symbolic SIP validity check (twin of
    :class:`repro.core.sip.InsertionCheck`)."""

    ok: bool
    reasons: List[str] = field(default_factory=list)
    new_view: Optional[SymbolicGraphView] = None
    delayed: FrozenSet[SignalEdge] = frozenset()


def check_insertion_symbolic(
    view: SymbolicGraphView,
    partition: SymbolicIPartition,
    signal: str = "__csc_probe__",
    persistent_before: Optional[Set[SignalEdge]] = None,
    check_commutativity: bool = True,
    allow_input_delay: bool = False,
) -> SymbolicInsertionCheck:
    """Perform the insertion symbolically and verify it preserves speed
    independence — the same verdict sequence as the explicit check."""
    bdd = view.bdd
    reasons: List[str] = []

    if partition.splus == bdd.false or partition.sminus == bdd.false:
        reasons.append(
            "the inserted signal would never switch (empty ER(x+) or ER(x-))"
        )
        return SymbolicInsertionCheck(ok=False, reasons=reasons)

    delayed = frozenset(delayed_edges_symbolic(view, partition))
    if not allow_input_delay:
        for edge in delayed:
            if view.is_input_edge(edge):
                reasons.append(
                    f"input event {edge} would be delayed by the new signal"
                )
    if reasons:
        return SymbolicInsertionCheck(ok=False, reasons=reasons, delayed=delayed)

    try:
        child = insert_signal_symbolic(view, partition, signal)
    except SymbolicIllegalInsertionError as error:
        return SymbolicInsertionCheck(
            ok=False, reasons=[str(error)], delayed=delayed
        )

    if not _is_deterministic(child):
        reasons.append("insertion breaks determinism")
    if check_commutativity and not _is_commutative(child):
        reasons.append("insertion breaks commutativity")

    if persistent_before is None:
        persistent_before = persistent_edges_symbolic(view)
    for edge in persistent_before:
        if view.is_input_edge(edge):
            # Input persistency is an assumption about the environment,
            # not a property of the circuit (see the explicit check).
            continue
        if _edge_present(child, edge) and not _is_edge_persistent(child, edge):
            reasons.append(f"event {edge} loses persistency")

    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        if _edge_present(child, edge) and not _is_edge_persistent(child, edge):
            reasons.append(f"inserted transition {edge} is not persistent")

    return SymbolicInsertionCheck(
        ok=not reasons, reasons=reasons, new_view=child, delayed=delayed
    )


# ----------------------------------------------------------------------
# Figure-4 search (twin of core.search.find_insertion_plan)
# ----------------------------------------------------------------------
@dataclass
class SymbolicInsertionPlan:
    """A validated symbolic insertion (twin of
    :class:`repro.core.search.InsertionPlan`); carries the expanded view
    and, when the progress rule already computed it, the expanded
    graph's conflict relation for the solver to reuse."""

    signal: str
    block: Node
    partition: SymbolicIPartition
    cost: Cost
    check: SymbolicInsertionCheck
    conflicts_before: int
    candidates_examined: int
    child_conflicts: Optional[ConflictContext] = None

    @property
    def new_view(self) -> SymbolicGraphView:
        assert self.check.new_view is not None
        return self.check.new_view


class _SymbolicCandidate:
    """Node-space twin of ``_BlockCandidate`` (same ranking contract)."""

    __slots__ = ("states", "size", "brick_indices", "evaluation", "seq")

    def __init__(
        self,
        states: Node,
        size: int,
        brick_indices: FrozenSet[int],
        evaluation: SymbolicBlockEvaluation,
        seq: int = 0,
    ) -> None:
        self.states = states
        self.size = size
        self.brick_indices = brick_indices
        self.evaluation = evaluation
        self.seq = seq

    @property
    def cost(self) -> Cost:
        return self.evaluation.cost


def _rank(candidates: Sequence[_SymbolicCandidate]) -> List[_SymbolicCandidate]:
    return _canonical_rank(candidates, lambda c: c.size)


def find_insertion_plan_symbolic(
    view: SymbolicGraphView,
    signal: str,
    settings: Optional[SearchSettings] = None,
    conflicts: Optional[ConflictContext] = None,
) -> Optional[SymbolicInsertionPlan]:
    """Find the best valid insertion of one new state signal, in BDD
    space — the same frontier search, ranking, merge and validation
    order as the explicit :func:`~repro.core.search.find_insertion_plan`."""
    settings = settings or SearchSettings()
    if conflicts is None:
        conflicts = conflict_context(view)
    if conflicts.pairs == 0:
        return None
    full_conflict_count = conflicts.pairs
    if full_conflict_count > settings.max_conflict_pairs:
        _log.warning(
            "symbolic_cost_uses_full_conflict_relation",
            name=view.name,
            pairs=full_conflict_count,
            explicit_sample=settings.max_conflict_pairs,
        )
    if settings.enlarge_concurrency:
        _log.warning(
            "enlarge_concurrency_not_supported_symbolically", name=view.name
        )

    bricks = compute_bricks_symbolic(
        view, mode=settings.brick_mode, max_explored=settings.region_budget
    )
    if not bricks:
        return None
    adjacency = brick_adjacency_symbolic(view, bricks)
    bdd = view.bdd

    evaluation_memo: Dict[Node, Optional[SymbolicBlockEvaluation]] = {}

    def evaluate(block: Node) -> Optional[SymbolicBlockEvaluation]:
        cached = evaluation_memo.get(block, _MISSING)
        if cached is not _MISSING:
            return cached
        result = evaluate_block_symbolic(
            view, block, conflicts, allow_input_delay=settings.allow_input_delay
        )
        evaluation_memo[block] = result
        return result

    # --- seed: every brick is a candidate block -------------------------
    seen_blocks: Set[Node] = set()
    good: List[_SymbolicCandidate] = []
    next_seq = itertools.count()
    for index, brick in enumerate(bricks):
        evaluation = evaluate(brick)
        if evaluation is None or evaluation.block in seen_blocks:
            continue
        seen_blocks.add(evaluation.block)
        good.append(
            _SymbolicCandidate(
                evaluation.block,
                view.size_of(evaluation.block),
                frozenset([index]),
                evaluation,
                next(next_seq),
            )
        )
    if not good:
        return None

    frontier = _rank(good)[: settings.frontier_width]

    # --- Figure 4: grow blocks with adjacent bricks ---------------------
    for _iteration in range(settings.max_search_iterations):
        new_frontier: List[_SymbolicCandidate] = []
        for candidate in frontier:
            check_deadline()
            neighbour_indices: Set[int] = set()
            for brick_index in candidate.brick_indices:
                neighbour_indices.update(adjacency[brick_index])
            neighbour_indices -= set(candidate.brick_indices)
            for brick_index in sorted(neighbour_indices):
                grown_states = bdd.apply_or(candidate.states, bricks[brick_index])
                if (
                    grown_states in seen_blocks
                    or view.size_of(grown_states) >= view.num_states
                ):
                    continue
                evaluation = evaluate(grown_states)
                seen_blocks.add(grown_states)
                if evaluation is None:
                    continue
                if evaluation.cost < candidate.cost:
                    grown = _SymbolicCandidate(
                        grown_states,
                        view.size_of(grown_states),
                        candidate.brick_indices | {brick_index},
                        evaluation,
                        next(next_seq),
                    )
                    good.append(grown)
                    new_frontier.append(grown)
        if not new_frontier:
            break
        frontier = _rank(new_frontier)[: settings.frontier_width]

    ranked = _rank(good)

    # --- merge the best disconnected blocks ------------------------------
    merged = _greedy_merge_symbolic(view, ranked, evaluate, settings)
    if merged is not None:
        ranked = [merged] + ranked

    # --- validate candidates in cost order --------------------------------
    persistent_before = persistent_edges_symbolic(view)
    examined = 0
    for candidate in ranked:
        check_deadline()
        if examined >= settings.max_validity_checks:
            break
        if not settings.allow_input_delay and candidate.cost.input_delays > 0:
            # The SIP check would reject it anyway; keep scanning so that
            # deeper input-preserving candidates get their chance.
            continue
        examined += 1
        check = check_insertion_symbolic(
            view,
            candidate.evaluation.partition,
            signal=signal,
            persistent_before=persistent_before,
            check_commutativity=settings.check_commutativity,
            allow_input_delay=settings.allow_input_delay,
        )
        if not check.ok:
            continue
        child_conflicts: Optional[ConflictContext] = None
        if settings.require_actual_progress and check.new_view is not None:
            child_conflicts = conflict_context(check.new_view)
            if child_conflicts.pairs >= full_conflict_count:
                # Valid but useless: it would not reduce the number of
                # conflicts, so keep looking for a candidate that does.
                continue
        return SymbolicInsertionPlan(
            signal=signal,
            block=candidate.states,
            partition=candidate.evaluation.partition,
            cost=candidate.cost,
            check=check,
            conflicts_before=min(full_conflict_count, settings.max_conflict_pairs),
            candidates_examined=examined,
            child_conflicts=child_conflicts,
        )
    return None


_MISSING = object()


def _greedy_merge_symbolic(
    view: SymbolicGraphView,
    ranked: Sequence[_SymbolicCandidate],
    evaluate,
    settings: SearchSettings,
) -> Optional[_SymbolicCandidate]:
    """Union of the best disconnected blocks (twin of ``_greedy_merge``)."""
    if not ranked:
        return None
    bdd = view.bdd
    best = ranked[0]
    current_states = best.states
    current_bricks = best.brick_indices
    current_eval = best.evaluation
    improved = False
    for other in ranked[1 : settings.max_merge_candidates]:
        union_states = bdd.apply_or(current_states, other.states)
        if (
            view.size_of(union_states) >= view.num_states
            or union_states == current_states
        ):
            continue
        evaluation = evaluate(union_states)
        if evaluation is None:
            continue
        if evaluation.cost < current_eval.cost:
            current_states = union_states
            current_bricks = current_bricks | other.brick_indices
            current_eval = evaluation
            improved = True
    if not improved:
        return None
    return _SymbolicCandidate(
        current_states,
        view.size_of(current_states),
        current_bricks,
        current_eval,
    )


# ----------------------------------------------------------------------
# the solver loop (twin of core.solver.solve_csc)
# ----------------------------------------------------------------------
@dataclass
class SymbolicEncodingResult:
    """Outcome of a fully symbolic CSC-solving run.

    Duck-types :class:`repro.core.solver.EncodingResult` for every
    consumer that matters — ``records``, ``solved``,
    ``conflicts_remaining``, ``inserted_signals``, ``summary()`` and
    ``fingerprint()`` — without carrying explicit state graphs (there is
    nothing to materialize)."""

    name: str
    states_before: int
    states_after: int
    signals_before: int
    signals_after: int
    records: List[InsertionRecord] = field(default_factory=list)
    solved: bool = False
    conflicts_remaining: int = 0
    cpu_seconds: float = 0.0

    @property
    def inserted_signals(self) -> List[str]:
        return [record.signal for record in self.records]

    @property
    def num_inserted(self) -> int:
        return len(self.records)

    def summary(self) -> Dict[str, object]:
        """Same shape as :meth:`EncodingResult.summary` so benchmark
        tables and service verdicts are engine-agnostic."""
        return {
            "name": self.name,
            "states_before": self.states_before,
            "states_after": self.states_after,
            "signals_before": self.signals_before,
            "signals_after": self.signals_after,
            "inserted": self.num_inserted,
            "solved": self.solved,
            "conflicts_remaining": self.conflicts_remaining,
            "insertions": [record.as_dict() for record in self.records],
            "cpu_seconds": round(self.cpu_seconds, 3),
        }

    def fingerprint(self) -> Dict[str, object]:
        """The summary minus timing (the conformance harness pins this
        against the explicit engine's fingerprint)."""
        flat = self.summary()
        del flat["cpu_seconds"]
        return flat


def _fresh_signal_name(view: SymbolicGraphView, prefix: str, counter: int) -> str:
    name = f"{prefix}{counter}"
    existing = set(view.signals)
    while name in existing:
        counter += 1
        name = f"{prefix}{counter}"
    return name


def solve_csc_symbolic(
    ssg: SymbolicStateGraph, settings: Optional[SolverSettings] = None
) -> SymbolicEncodingResult:
    """Insert state signals until CSC holds, never leaving BDD space.

    The loop structure, naming, progress rule and budget semantics are
    those of :func:`repro.core.solver.solve_csc`; each iteration's
    conflict relation is computed once and handed to both the search's
    cost model and the progress check, and the expanded graph's relation
    is reused as the next iteration's.
    """
    settings = settings or SolverSettings()
    view = SymbolicGraphView.from_stategraph(ssg)
    watch = Stopwatch().start()
    result = SymbolicEncodingResult(
        name=view.name,
        states_before=view.num_states,
        states_after=view.num_states,
        signals_before=len(view.signals),
        signals_after=len(view.signals),
    )

    current = view
    current_conflicts: Optional[ConflictContext] = None
    for counter in range(settings.max_signals):
        check_deadline()  # per-job wall-clock bound (repro.utils.deadline)
        if current_conflicts is None:
            with span("symbolic.solver.conflicts", states=current.num_states):
                current_conflicts = conflict_context(current)
        if current_conflicts.pairs == 0:
            result.solved = True
            break
        signal = _fresh_signal_name(current, settings.signal_prefix, counter)
        with span(
            "symbolic.solver.search", signal=signal, conflicts=current_conflicts.pairs
        ):
            plan = find_insertion_plan_symbolic(
                current, signal, settings.search, conflicts=current_conflicts
            )
        if plan is None:
            if settings.verbose:
                _log.info(
                    "no_valid_insertion",
                    name=view.name,
                    conflicts=current_conflicts.pairs,
                )
            break
        new_view = plan.new_view
        child_conflicts = plan.child_conflicts
        if child_conflicts is None:
            with span("symbolic.solver.conflicts", states=new_view.num_states):
                child_conflicts = conflict_context(new_view)
        if (
            settings.require_progress
            and child_conflicts.pairs >= current_conflicts.pairs
        ):
            if settings.verbose:
                _log.info(
                    "insertion_not_reducing",
                    name=view.name,
                    signal=signal,
                    conflicts_before=current_conflicts.pairs,
                    conflicts_after=child_conflicts.pairs,
                )
            break
        result.records.append(
            InsertionRecord(
                signal=signal,
                conflicts_before=current_conflicts.pairs,
                conflicts_after=child_conflicts.pairs,
                states_before=current.num_states,
                states_after=new_view.num_states,
                splus_size=current.size_of(plan.partition.splus),
                sminus_size=current.size_of(plan.partition.sminus),
                cost=plan.cost,
                candidates_examined=plan.candidates_examined,
            )
        )
        emit_progress(
            stage="solver",
            name=view.name,
            iteration=counter,
            signal=signal,
            conflicts_before=current_conflicts.pairs,
            conflicts_remaining=child_conflicts.pairs,
            states=new_view.num_states,
            candidates_examined=plan.candidates_examined,
            inserted=len(result.records),
        )
        if settings.verbose:
            _log.info(
                "inserted",
                name=view.name,
                signal=signal,
                conflicts_before=current_conflicts.pairs,
                conflicts_after=child_conflicts.pairs,
                states_before=current.num_states,
                states_after=new_view.num_states,
            )
        current = new_view
        current_conflicts = child_conflicts

    if current_conflicts is None:
        current_conflicts = conflict_context(current)
    result.states_after = current.num_states
    result.signals_after = len(current.signals)
    result.solved = current_conflicts.pairs == 0
    result.conflicts_remaining = current_conflicts.pairs
    result.cpu_seconds = watch.stop()
    return result
