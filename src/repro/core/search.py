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

from repro.core.bricks import brick_adjacency, compute_bricks
from repro.core.cost import BlockEvaluation, Cost, evaluate_block, evaluate_partition
from repro.core.csc import CSCConflict, csc_conflicts
from repro.core.insertion import insert_signal
from repro.core.ipartition import IPartition
from repro.core.sip import InsertionCheck, check_insertion
from repro.core import indexed
from repro.engine import caches as engine_caches
from repro.obs import emit_progress, span
from repro.stg.signals import SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.properties import is_event_persistent
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


class _BlockCandidate:
    """A block under construction: its states and the bricks composing it.

    ``seq`` is the candidate's discovery index within its search (seed
    candidates in canonical brick order first, then grown candidates in
    generation order) — the explicit tie-break key of the ranking.
    """

    __slots__ = ("states", "brick_indices", "evaluation", "seq")

    def __init__(
        self,
        states: FrozenSet[State],
        brick_indices: FrozenSet[int],
        evaluation: BlockEvaluation,
        seq: int = 0,
    ) -> None:
        self.states = states
        self.brick_indices = brick_indices
        self.evaluation = evaluation
        self.seq = seq

    @property
    def cost(self) -> Cost:
        return self.evaluation.cost


def _canonical_rank(candidates, size_of):
    """Total-order ranking shared by the legacy and indexed paths.

    The key is ``(cost, size, seq)`` where ``seq`` is the candidate's
    *discovery index*, stamped at creation.  Previously the tie-break
    beyond ``(cost, size)`` was implicit: whatever order the list handed
    to ``sorted`` happened to be in (CPython's stable sort preserved it),
    so the ``max_merge_candidates`` / ``max_validity_checks`` truncations
    silently depended on how each call site assembled its candidate
    list.  Stamping the discovery order on the candidate makes the
    ranking a pure function of the candidates themselves — any
    permutation of the input ranks identically (regression-tested) —
    while choosing exactly the blocks the insertion-order tie-break
    chose, so no library verdict moves.
    """
    return sorted(candidates, key=lambda c: (c.cost, size_of(c), c.seq))


def _rank(candidates: Sequence[_BlockCandidate]) -> List[_BlockCandidate]:
    return _canonical_rank(candidates, lambda c: len(c.states))


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

    When the engine caches are enabled (the default) the search runs on
    the integer-indexed fast path of :mod:`repro.core.indexed`, with
    block evaluations memoized by block frozenset; the object-space
    implementation below is the cache-disabled baseline and produces
    identical plans.

    ``kernel`` selects the block-evaluation implementation of the
    indexed path (see :mod:`repro.core.planes`); it never changes the
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

    if engine_caches.caches_enabled():
        return _find_insertion_plan_indexed(
            sg, signal, settings, conflicts, full_conflict_count, kernel
        )
    return _find_insertion_plan_legacy(
        sg, signal, settings, conflicts, full_conflict_count
    )


def _find_insertion_plan_legacy(
    sg: StateGraph,
    signal: str,
    settings: SearchSettings,
    conflicts: Sequence[CSCConflict],
    full_conflict_count: int,
) -> Optional[InsertionPlan]:
    """Object-space reference implementation of the Figure-4 search.

    Deliberately kept as an independent copy of the driver logic rather
    than sharing it with the indexed path: it is the frozen differential
    oracle the engine is tested against, so a bug introduced into shared
    code could not silently affect both.  Any intentional behavioural
    change must be applied to BOTH this function and
    :func:`_find_insertion_plan_indexed` in lockstep —
    ``tests/test_engine.py`` asserts they produce identical plans.
    """
    bricks = compute_bricks(sg.ts, mode=settings.brick_mode, max_explored=settings.region_budget)
    if not bricks:
        return None
    adjacency = brick_adjacency(sg.ts, bricks)

    # --- seed: every brick is a candidate block -------------------------
    seen_blocks: Set[FrozenSet[State]] = set()
    good: List[_BlockCandidate] = []
    next_seq = itertools.count()
    for index, brick in enumerate(bricks):
        evaluation = evaluate_block(
            sg, brick, conflicts, allow_input_delay=settings.allow_input_delay
        )
        if evaluation is None or evaluation.block in seen_blocks:
            continue
        seen_blocks.add(evaluation.block)
        good.append(
            _BlockCandidate(
                evaluation.block, frozenset([index]), evaluation, next(next_seq)
            )
        )
    if not good:
        return None

    frontier = _rank(good)[: settings.frontier_width]

    # --- Figure 4: grow blocks with adjacent bricks ---------------------
    for _iteration in range(settings.max_search_iterations):
        new_frontier: List[_BlockCandidate] = []
        for candidate in frontier:
            check_deadline()
            neighbour_indices: Set[int] = set()
            for brick_index in candidate.brick_indices:
                neighbour_indices.update(adjacency[brick_index])
            neighbour_indices -= set(candidate.brick_indices)
            for brick_index in sorted(neighbour_indices):
                grown_states = candidate.states | bricks[brick_index]
                if grown_states in seen_blocks or len(grown_states) >= sg.num_states:
                    continue
                evaluation = evaluate_block(
                    sg, grown_states, conflicts,
                    allow_input_delay=settings.allow_input_delay,
                )
                seen_blocks.add(grown_states)
                if evaluation is None:
                    continue
                if evaluation.cost < candidate.cost:
                    grown = _BlockCandidate(
                        grown_states,
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
    merged = _greedy_merge(sg, ranked, conflicts, settings)
    if merged is not None:
        ranked = [merged] + ranked

    # --- validate candidates in cost order --------------------------------
    persistent_before = {
        event for event in sg.ts.events if is_event_persistent(sg.ts, event)
    }
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
        check = check_insertion(
            sg,
            candidate.evaluation.partition,
            signal=signal,
            signal_type=SignalType.INTERNAL,
            persistent_before=persistent_before,
            check_commutativity=settings.check_commutativity,
            allow_input_delay=settings.allow_input_delay,
        )
        if not check.ok:
            continue
        if settings.require_actual_progress and check.new_sg is not None:
            remaining_after = len(csc_conflicts(check.new_sg))
            if remaining_after >= full_conflict_count:
                # Valid but useless: it would not reduce the number of
                # conflicts, so keep looking for a candidate that does.
                continue
        partition = candidate.evaluation.partition
        cost = candidate.cost
        if settings.enlarge_concurrency:
            partition, cost, check = _enlarge_concurrency(
                sg, candidate, bricks, conflicts, settings, persistent_before, signal, check
            )
        return InsertionPlan(
            signal=signal,
            block=candidate.states,
            partition=partition,
            cost=cost,
            check=check,
            conflicts_before=len(conflicts),
            candidates_examined=examined,
        )
    return None


class _IndexedCandidate:
    """Index-space twin of :class:`_BlockCandidate`: the block is a
    bitmask, and ``bricks`` / ``neighbours`` are brick-index bitsets (its
    bricks, and the union of their adjacency rows)."""

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
    return _canonical_rank(candidates, lambda c: c.size)


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
    """The Figure-4 search on the integer-indexed fast path.

    Same algorithm, same tie-breaking and therefore the same plans as
    :func:`_find_insertion_plan_legacy`; blocks are bitmasks, evaluations
    are memoized per block, and brick decomposition/adjacency come from
    the per-graph cache.

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
        block_states = index.frozenset_of_mask(candidate.mask)
        cost = candidate.cost
        if settings.enlarge_concurrency:
            object_candidate = _BlockCandidate(
                block_states,
                frozenset(indexed.bits_of(candidate.bricks)),
                BlockEvaluation(block=block_states, partition=partition, cost=cost),
            )
            partition, cost, check = _enlarge_concurrency(
                sg,
                object_candidate,
                [index.frozenset_of_mask(mask) for mask in masks],
                conflicts,
                settings,
                persistent_before,
                signal,
                check,
            )
        return InsertionPlan(
            signal=signal,
            block=block_states,
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
    """Index-space twin of :func:`_greedy_merge` (same greedy order).

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


def _greedy_merge(
    sg: StateGraph,
    ranked: Sequence[_BlockCandidate],
    conflicts: Sequence[CSCConflict],
    settings: SearchSettings,
) -> Optional[_BlockCandidate]:
    """Union of the best disconnected blocks (last step of Section 5).

    Starting from the best block, greedily add other good blocks whenever
    the union improves the cost.  Returns the merged candidate or ``None``
    when no merge improved on the best single block.
    """
    if not ranked:
        return None
    best = ranked[0]
    current_states = best.states
    current_bricks = best.brick_indices
    current_eval = best.evaluation
    improved = False
    for other in ranked[1 : settings.max_merge_candidates]:
        union_states = current_states | other.states
        if len(union_states) >= sg.num_states or union_states == current_states:
            continue
        evaluation = evaluate_block(
            sg, union_states, conflicts, allow_input_delay=settings.allow_input_delay
        )
        if evaluation is None:
            continue
        if evaluation.cost < current_eval.cost:
            current_states = union_states
            current_bricks = current_bricks | other.brick_indices
            current_eval = evaluation
            improved = True
    if not improved:
        return None
    return _BlockCandidate(current_states, current_bricks, current_eval)


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
    candidate: _BlockCandidate,
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
    partition = candidate.evaluation.partition
    cost = candidate.cost
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
