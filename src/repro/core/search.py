"""Heuristic search for the best insertion block (Section 5, Figure 4).

The search keeps a *frontier* of FW good blocks (FW = frontier width, the
paper's quality/time knob).  Each block is a union of bricks; at every
iteration each frontier block is enlarged with every adjacent brick and
the enlarged block survives only if it improves on its ancestor's cost.
Once the frontier dries up, the best disconnected blocks are greedily
merged, the resulting bipartition block is turned into an I-partition and
validated with the exact SIP check, and (optionally) the concurrency of
the new signal is increased by enlarging its excitation regions brick by
brick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.cost import Cost, evaluate_partition
from repro.core.csc import CSCConflict, csc_conflicts
from repro.core.insertion import insert_signal
from repro.core.ipartition import IPartition
from repro.core.sip import InsertionCheck, check_insertion
from repro.core import indexed
from repro.engine import caches as engine_caches
from repro.obs import emit_progress, span
from repro.stg.signals import SignalType
from repro.stg.state_graph import StateGraph
from repro.utils.deadline import check_deadline

State = Hashable
Brick = FrozenSet[State]


@dataclass
class SearchSettings:
    """Tuning knobs of the Figure-4 search.

    ``frontier_width`` is the FW parameter of the paper; ``brick_mode``
    selects the granularity of the search space (``"regions"`` is the
    paper's method, ``"excitation"`` and ``"states"`` are the baselines).
    """

    frontier_width: int = 8
    brick_mode: str = "regions"
    max_search_iterations: int = 50
    max_validity_checks: int = 40
    max_merge_candidates: int = 16
    enlarge_concurrency: bool = False
    region_budget: int = 20000
    check_commutativity: bool = True
    allow_input_delay: bool = False
    max_conflict_pairs: int = 2000
    require_actual_progress: bool = True


@dataclass
class InsertionPlan:
    """A validated insertion: the chosen block, partition and expanded SG."""

    signal: str
    block: FrozenSet[State]
    partition: IPartition
    cost: Cost
    check: InsertionCheck
    conflicts_before: int
    candidates_examined: int

    @property
    def new_sg(self) -> StateGraph:
        assert self.check.new_sg is not None
        return self.check.new_sg


def find_insertion_plan(
    sg: StateGraph,
    signal: str,
    settings: Optional[SearchSettings] = None,
    conflicts: Optional[Sequence[CSCConflict]] = None,
    kernel: str = "auto",
) -> Optional[InsertionPlan]:
    """Find the best valid insertion of one new state signal.

    Returns ``None`` when the state graph has no CSC conflicts or when no
    valid candidate could be found within the search budget.

    The search runs on the integer-indexed representation of
    :mod:`repro.core.indexed`: blocks are bitmasks, and their costs are
    memoized per search.  ``kernel`` selects the block-evaluation
    implementation (see :mod:`repro.core.planes`); it never changes the
    chosen plan, only how fast it is found.
    """
    settings = settings or SearchSettings()
    if conflicts is None:
        conflicts = csc_conflicts(sg)
    if not conflicts:
        return None
    full_conflict_count = len(conflicts)
    if len(conflicts) > settings.max_conflict_pairs:
        # Cost evaluation is linear in the number of conflict pairs; on
        # heavily conflicting graphs a deterministic sample is enough to
        # steer the search (the solver always re-checks the full set).
        conflicts = conflicts[: settings.max_conflict_pairs]

    return _find_insertion_plan_indexed(
        sg, signal, settings, conflicts, full_conflict_count, kernel
    )


class _IndexedCandidate:
    """A block under construction: the block is a bitmask, and
    ``bricks`` / ``neighbours`` are brick-index bitsets (its bricks, and
    the union of their adjacency rows).

    ``seq`` is the candidate's discovery index within its search (seed
    candidates in canonical brick order first, then grown candidates in
    generation order) — the explicit tie-break key of the ranking.
    """

    __slots__ = ("mask", "size", "bricks", "neighbours", "cost", "seq")

    def __init__(
        self, mask: int, bricks: int, neighbours: int, cost: Cost, seq: int = 0
    ) -> None:
        self.mask = mask
        self.size = mask.bit_count()
        self.bricks = bricks
        self.neighbours = neighbours
        self.cost = cost
        self.seq = seq


def _rank_indexed(candidates: Sequence[_IndexedCandidate]) -> List[_IndexedCandidate]:
    """Total-order ranking of the search's candidates.

    The key is ``(cost, size, seq)`` where ``seq`` is the candidate's
    *discovery index*, stamped at creation, so the ranking is a pure
    function of the candidates themselves: any permutation of the input
    ranks identically (regression-tested), and the
    ``max_merge_candidates`` / ``max_validity_checks`` truncations do
    not depend on how a call site assembled its candidate list.
    """
    return sorted(candidates, key=lambda c: (c.cost, c.size, c.seq))


def _evaluate_masks(
    evaluator: "indexed.IndexedEvaluator", masks: Sequence[int], **attrs
) -> List[Optional[Cost]]:
    """The costs of ``masks`` in generation order, under one
    ``search.evaluate`` span that records the plane passes they took."""
    with span("search.evaluate", masks=len(masks), **attrs) as span_attrs:
        passes = evaluator.passes
        costs = evaluator.costs(masks)
        span_attrs["passes"] = evaluator.passes - passes
    return costs


def _find_insertion_plan_indexed(
    sg: StateGraph,
    signal: str,
    settings: SearchSettings,
    conflicts: Sequence[CSCConflict],
    full_conflict_count: int,
    kernel: str = "auto",
) -> Optional[InsertionPlan]:
    """The Figure-4 search on the integer-indexed representation.

    Blocks are bitmasks, evaluations are memoized per block, and brick
    decomposition/adjacency come from the per-graph cache.

    Each iteration first *generates* the enlargements of the frontier
    (the seen-set and frontier bookkeeping), then costs them as one batch
    (:func:`_evaluate_masks`), then walks them in generation order to
    accept the improving ones, which reproduces the one-at-a-time search
    decision for decision.
    """
    stats = engine_caches.STATS
    carries, misses = stats.brick_carries, stats.brick_misses
    explored, arc_scans = stats.region_explored, stats.region_arc_scans
    memo_hits = stats.region_memo_hits
    with span("search.bricks", mode=settings.brick_mode) as attrs:
        masks, adjacency = indexed.indexed_brick_bundle(
            sg, mode=settings.brick_mode, max_explored=settings.region_budget
        )
        attrs["bricks"] = len(masks)
        attrs["carried"] = stats.brick_carries - carries
        attrs["recomputed"] = stats.brick_misses - misses
        attrs["explored"] = stats.region_explored - explored
        attrs["arc_scans"] = stats.region_arc_scans - arc_scans
        attrs["memo_hits"] = stats.region_memo_hits - memo_hits
    if not masks:
        return None
    index = indexed.indexed_state_graph(sg)
    num_states = index.num_states
    evaluator = indexed.IndexedEvaluator(
        sg,
        conflicts,
        allow_input_delay=settings.allow_input_delay,
        kernel_impl=kernel,
    )

    seen_blocks: Set[int] = set()
    good: List[_IndexedCandidate] = []
    next_seq = itertools.count()
    # --- seed: every brick is a candidate block -------------------------
    seed_costs = _evaluate_masks(evaluator, masks, seed=True)
    for brick_index, (mask, cost) in enumerate(zip(masks, seed_costs)):
        if cost is None or mask in seen_blocks:
            continue
        seen_blocks.add(mask)
        good.append(
            _IndexedCandidate(
                mask, 1 << brick_index, adjacency[brick_index], cost, next(next_seq)
            )
        )
    if not good:
        return None

    frontier = _rank_indexed(good)[: settings.frontier_width]

    # --- Figure 4: grow blocks with adjacent bricks ---------------------
    for iteration in range(settings.max_search_iterations):
        # generation: enlargements in frontier order, deduplicated by
        # the seen-set exactly as the serial interleaving would
        grown_masks: List[int] = []
        origins: List[Tuple[_IndexedCandidate, int]] = []
        with span("search.generate", frontier=len(frontier)):
            for candidate in frontier:
                check_deadline()
                # neighbour bricks in ascending index order
                for brick_index in indexed.bits_of(
                    candidate.neighbours & ~candidate.bricks
                ):
                    grown_mask = candidate.mask | masks[brick_index]
                    if grown_mask in seen_blocks or grown_mask.bit_count() >= num_states:
                        continue
                    seen_blocks.add(grown_mask)
                    grown_masks.append(grown_mask)
                    origins.append((candidate, brick_index))
        # evaluation: every enlargement of this iteration in one batch
        grown_costs = _evaluate_masks(evaluator, grown_masks)
        # merge: acceptance in generation order (deterministic)
        new_frontier: List[_IndexedCandidate] = []
        for (candidate, brick_index), grown_mask, cost in zip(
            origins, grown_masks, grown_costs
        ):
            if cost is not None and cost < candidate.cost:
                grown = _IndexedCandidate(
                    grown_mask,
                    candidate.bricks | (1 << brick_index),
                    candidate.neighbours | adjacency[brick_index],
                    cost,
                    next(next_seq),
                )
                good.append(grown)
                new_frontier.append(grown)
        emit_progress(
            stage="search",
            signal=signal,
            iteration=iteration,
            frontier=len(frontier),
            generated=len(grown_masks),
            accepted=len(new_frontier),
            candidates_ranked=len(good),
            cache=engine_caches.STATS.snapshot(),
        )
        if not new_frontier:
            break
        frontier = _rank_indexed(new_frontier)[: settings.frontier_width]

    ranked = _rank_indexed(good)

    # --- merge the best disconnected blocks ------------------------------
    with span("search.merge", candidates=len(ranked)):
        merged = _greedy_merge_indexed(ranked, evaluator, num_states, settings)
    if merged is not None:
        ranked = [merged] + ranked

    # --- validate candidates in cost order --------------------------------
    persistent_before = index.persistent_events()
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
        with span("search.sip", examined=examined) as attrs:
            # Decided on the parent's index; only the committed candidate
            # is materialised as an expanded state graph.
            side = evaluator.side_table(candidate.mask)
            verdict = index.decide_insertion(
                side,
                signal,
                persistent_before,
                check_commutativity=settings.check_commutativity,
                allow_input_delay=settings.allow_input_delay,
                count_conflicts=settings.require_actual_progress,
            )
            outcome = verdict.kind or "ok"
            if (
                verdict.ok
                and settings.require_actual_progress
                and verdict.remaining_conflicts >= full_conflict_count
            ):
                # Valid but useless: it would not reduce the number of
                # conflicts, so keep looking for a candidate that does.
                outcome = "no_progress"
            attrs["outcome"] = outcome
            if outcome == "ok":
                partition = index.partition_of(side)
                check = InsertionCheck(
                    ok=True,
                    new_sg=insert_signal(
                        sg, partition, signal, SignalType.INTERNAL, replay=verdict.replay
                    ),
                    delayed=verdict.delayed,
                )
        if outcome != "ok":
            continue
        cost = candidate.cost
        if settings.enlarge_concurrency:
            partition, cost, check = _enlarge_concurrency(
                sg,
                partition,
                cost,
                [index.frozenset_of_mask(mask) for mask in masks],
                conflicts,
                settings,
                persistent_before,
                signal,
                check,
            )
        return InsertionPlan(
            signal=signal,
            block=index.frozenset_of_mask(candidate.mask),
            partition=partition,
            cost=cost,
            check=check,
            conflicts_before=len(conflicts),
            candidates_examined=examined,
        )
    return None


def _greedy_merge_indexed(
    ranked: Sequence[_IndexedCandidate],
    evaluator: "indexed.IndexedEvaluator",
    num_states: int,
    settings: SearchSettings,
) -> Optional[_IndexedCandidate]:
    """Union of the best disconnected blocks (last step of Section 5).

    Starting from the best block, greedily add other good blocks whenever
    the union improves the cost.  Returns the merged candidate or ``None``
    when no merge improved on the best single block.

    The unions of the current block with every remaining candidate are
    costed as one batch; after an accepted union only the candidates
    after it are re-batched against the grown block.  Acceptance still
    walks the candidates in rank order, so the decisions are those of
    the one-at-a-time loop.
    """
    if not ranked:
        return None
    best = ranked[0]
    current_mask = best.mask
    current_bricks = best.bricks
    current_neighbours = best.neighbours
    current_cost = best.cost
    improved = False
    rest = list(ranked[1 : settings.max_merge_candidates])
    while rest:
        unions = []
        for other in rest:
            union_mask = current_mask | other.mask
            if union_mask.bit_count() < num_states and union_mask != current_mask:
                unions.append((other, union_mask))
        costs = evaluator.costs([union_mask for _other, union_mask in unions])
        rest = []
        for position, ((other, union_mask), cost) in enumerate(zip(unions, costs)):
            if cost is not None and cost < current_cost:
                current_mask = union_mask
                current_bricks |= other.bricks
                current_neighbours |= other.neighbours
                current_cost = cost
                improved = True
                rest = [later for later, _union in unions[position + 1 :]]
                break
    if not improved:
        return None
    return _IndexedCandidate(current_mask, current_bricks, current_neighbours, current_cost)


def _close_border(
    sg: StateGraph, border: Set[State], side: FrozenSet[State]
) -> Set[State]:
    """Close ``border`` under successors inside ``side`` (well-formedness)."""
    closed = set(border)
    frontier = list(closed)
    while frontier:
        state = frontier.pop()
        for _event, target in sg.ts.successors(state):
            if target in side and target not in closed:
                closed.add(target)
                frontier.append(target)
    return closed


def _enlarge_concurrency(
    sg: StateGraph,
    partition: IPartition,
    cost: Cost,
    bricks: Sequence[Brick],
    conflicts: Sequence[CSCConflict],
    settings: SearchSettings,
    persistent_before: Set,
    signal: str,
    base_check: InsertionCheck,
) -> Tuple[IPartition, Cost, InsertionCheck]:
    """Greedily enlarge ER(x+) / ER(x-) with adjacent bricks (Section 5).

    Enlarging an excitation region makes the new signal's transition
    concurrent with more of the original behaviour (faster circuit) at the
    price of potentially more logic; following the paper, an enlargement
    is kept only if it improves the cost, and it must of course remain a
    valid SIP insertion.
    """
    check = base_check
    zero_side = partition.s0 | partition.splus
    one_side = partition.s1 | partition.sminus

    for brick in bricks:
        improved_partition = None
        if brick <= zero_side and not (brick <= partition.splus):
            new_plus = _close_border(sg, set(partition.splus) | set(brick & zero_side), zero_side)
            improved_partition = IPartition(
                s0=frozenset(zero_side - new_plus),
                splus=frozenset(new_plus),
                s1=partition.s1,
                sminus=partition.sminus,
            )
        elif brick <= one_side and not (brick <= partition.sminus):
            new_minus = _close_border(sg, set(partition.sminus) | set(brick & one_side), one_side)
            improved_partition = IPartition(
                s0=partition.s0,
                splus=partition.splus,
                s1=frozenset(one_side - new_minus),
                sminus=frozenset(new_minus),
            )
        if improved_partition is None:
            continue
        new_cost = evaluate_partition(
            sg,
            improved_partition,
            conflicts,
            count_input_delays=not settings.allow_input_delay,
        )
        if not (new_cost < cost):
            continue
        new_check = check_insertion(
            sg,
            improved_partition,
            signal=signal,
            signal_type=SignalType.INTERNAL,
            persistent_before=persistent_before,
            check_commutativity=settings.check_commutativity,
            allow_input_delay=settings.allow_input_delay,
        )
        if new_check.ok:
            partition, cost, check = improved_partition, new_cost, new_check
    return partition, cost, check
