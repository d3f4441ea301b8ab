"""Shared per-state-graph caches with insertion-aware invalidation.

The iterative CSC solver re-analyses a *chain* of state graphs: every
inserted signal produces a new graph whose states are ``(old_state, v)``
pairs.  Re-deriving bricks, regions and the CSC conflict relation from
scratch on every link of that chain is where the solver used to spend
most of its time.  This module attaches a cache to each
:class:`~repro.stg.state_graph.StateGraph` that

* holds the graph's canonical :class:`~repro.core.indexed.IndexedStateGraph`
  (the integer/bitset representation the core pipeline computes on).  A
  graph produced by :func:`repro.core.insertion.insert_signal` gets it
  there, derived from the insertion's replay
  (:meth:`~repro.core.indexed.IndexedStateGraph.derive_child`: arc
  lists, packed codes and parent positions by index arithmetic, no
  re-hashing of the child's transition system); only a root graph is
  indexed from scratch (``CacheStats.index_builds``),
* memoizes the brick decomposition as bitmasks over that index — the
  excitation regions per event, the minimal regions containing each
  expansion seed, the canonical brick list per ``(mode, budget)``, and
  one adjacency bitset per brick,
* memoizes the CSC conflict list and the code groups backing it,
* records the *provenance* of a graph produced by signal insertion
  (parent graph, I-partition, inserted signal), which enables

  - incremental CSC re-analysis (:func:`repro.core.csc.csc_conflicts`
    only re-examines states descending from previously code-sharing
    groups), and
  - selective carry-over of per-event excitation regions: an event's
    cached region masks survive the insertion when none of their states
    was split by it (i.e. none lies in ``ER(x+)`` or ``ER(x-)``); they are
    mapped into the child's index by index arithmetic, and only the
    touched entries are recomputed on the expanded graph.

Caches never change results.  Excitation-region carry-over is exact: the
untouched part of the graph is replayed isomorphically at the stable
value of the new signal, and an event enabled in no split state keeps
its enabling set.  Minimal pre/post-regions are still *not* carried: the
expanded graph can have new minimal regions around the split states.
They are recomputed on every graph, but each expansion seed is expanded
once per graph (``SGCache.regions``): the switching region of one event
is often the excitation region of the next (``SR(a+) = ER(b+)`` when
``b+`` directly follows ``a+``).  The regression tests check the derived
index against a from-scratch build, and the brick masks and adjacency
against a from-scratch :func:`repro.core.bricks.compute_bricks` and
:func:`repro.core.bricks.brick_adjacency`, after every insertion of the
Table-2 solves.  Object frozensets are built only at the API edge
(:func:`get_bricks`).  The global switch (:func:`disable_caches` /
:func:`use_caches`) restores the original recompute-everything
object-space behaviour, the differential oracle.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.bricks import compute_bricks, event_region_brick_masks
from repro.core.excitation import excitation_region_masks
from repro.utils.ordered import stable_sorted

State = Hashable
Brick = FrozenSet[State]

_CACHE_ATTR = "_repro_cache"

_state = threading.local()


class CacheStats:
    """Process-wide hit/miss/carry-over tallies for the engine caches.

    Plain integer increments (no locks — GIL-tolerant telemetry): the
    counters feed the solver's per-iteration progress records and the
    observability surfaces, never control flow.
    """

    __slots__ = (
        "brick_hits",
        "brick_misses",
        "brick_carries",
        "region_explored",
        "region_arc_scans",
        "region_memo_hits",
        "side_tables",
        "index_builds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.brick_hits = 0
        self.brick_misses = 0
        self.brick_carries = 0
        # Region expansion (repro.core.regions.minimal_region_masks_containing):
        # candidate sets visited, and events that needed the per-arc test.
        self.region_explored = 0
        self.region_arc_scans = 0
        # Expansions answered from a graph's per-seed memo instead.
        self.region_memo_hits = 0
        # Side tables the Figure-4 search derived on demand for its SIP
        # checks (repro.core.indexed.IndexedEvaluator.side_table).
        self.side_tables = 0
        # IndexedStateGraph instances built from a whole transition system
        # rather than derived from an insertion's replay.
        self.index_builds = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "brick_hits": self.brick_hits,
            "brick_misses": self.brick_misses,
            "brick_carries": self.brick_carries,
            "region_explored": self.region_explored,
            "region_arc_scans": self.region_arc_scans,
            "region_memo_hits": self.region_memo_hits,
            "side_tables": self.side_tables,
            "index_builds": self.index_builds,
        }

    def hit_rate(self) -> float:
        """Brick-entry hit rate (carry-overs count as hits)."""
        total = self.brick_hits + self.brick_carries + self.brick_misses
        if total == 0:
            return 0.0
        return (self.brick_hits + self.brick_carries) / total


#: The process-global tally every cache lookup reports to.
STATS = CacheStats()


def caches_enabled() -> bool:
    """True when the engine caches are active in this thread.

    The switch is *per thread* (and therefore per worker process),
    defaulting to enabled: concurrent solvers can flip it independently
    without racing each other.  Code running on other threads is not
    affected by :func:`disable_caches` — spawn threads/workers with the
    setting you want (``encode_many`` forwards its ``caches_on`` flag
    into the pool workers for exactly this reason).
    """
    return getattr(_state, "enabled", True)


def enable_caches() -> None:
    _state.enabled = True


def disable_caches() -> None:
    """Fall back to the original recompute-everything code paths
    (current thread only — see :func:`caches_enabled`)."""
    _state.enabled = False


@contextmanager
def use_caches(enabled: bool = True):
    """Temporarily enable or disable the engine caches (current thread)."""
    previous = caches_enabled()
    _state.enabled = enabled
    try:
        yield
    finally:
        _state.enabled = previous


class SGCache:
    """All memoized analysis results of one state graph."""

    __slots__ = (
        "provenance",
        "indexed",
        "conflicts",
        "code_groups",
        "er_bricks",
        "brick_lists",
        "adjacency",
        "regions",
        "carry_bits",
    )

    def __init__(self) -> None:
        # (weakref-to-parent_sg, partition, signal) when this graph was
        # produced by repro.core.insertion.insert_signal, else None.  The
        # parent is held weakly so long insertion chains are collectable:
        # while the solver works on the child the parent is still
        # strongly referenced (it is the solver's current graph), which
        # is exactly the window in which incremental re-analysis and
        # brick carry-over read it; afterwards a dead reference simply
        # falls back to recomputation.
        self.provenance: Optional[Tuple["weakref.ref", object, str]] = None
        # The canonical IndexedStateGraph of the graph (built lazily by
        # repro.core.indexed.indexed_state_graph; typed as object to keep
        # this module importable below repro.core.indexed).
        self.indexed: Optional[object] = None
        self.conflicts: Optional[list] = None
        self.code_groups: Optional[Dict[tuple, list]] = None
        # Brick masks over ``indexed``: the excitation regions per event
        # (the carried unit), the canonical list per (mode, budget), and
        # one adjacency bitset per brick of that list.
        self.er_bricks: Dict[object, List[int]] = {}
        self.brick_lists: Dict[Tuple[str, int], List[int]] = {}
        self.adjacency: Dict[Tuple[str, int], List[int]] = {}
        # Minimal regions containing a seed mask, per (seed, budget): the
        # memo of repro.core.regions.minimal_region_masks_containing.
        self.regions: Dict[Tuple[int, int], List[int]] = {}
        # Per parent state index, the child bit its stable copy maps to
        # (0 where the insertion split the state); empty when the child's
        # index is not derived from the parent's.  Built on first carry.
        self.carry_bits: Optional[List[int]] = None


def get_cache(sg) -> SGCache:
    """The cache attached to ``sg`` (created on first use)."""
    cache = sg.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = SGCache()
        sg.__dict__[_CACHE_ATTR] = cache
    return cache


def peek_cache(sg) -> Optional[SGCache]:
    return sg.__dict__.get(_CACHE_ATTR)


def invalidate_caches(sg) -> None:
    """Drop every cached analysis result of ``sg``."""
    sg.__dict__.pop(_CACHE_ATTR, None)


def note_insertion(parent_sg, new_sg, partition, signal: str) -> None:
    """Record that ``new_sg`` was produced by inserting ``signal`` into
    ``parent_sg`` along ``partition``.

    Called by :func:`repro.core.insertion.insert_signal`.  The provenance
    drives incremental CSC re-analysis and lazy brick carry-over; it is
    recorded cheaply here and only exploited when (and if) the expanded
    graph is analysed.
    """
    if not caches_enabled():
        return
    get_cache(new_sg).provenance = (weakref.ref(parent_sg), partition, signal)


def provenance_parent(cache: "SGCache"):
    """``(parent_sg, partition)`` of a graph's provenance, or ``None``
    when there is no provenance or the parent has been collected."""
    if cache.provenance is None:
        return None
    parent_ref, partition, _signal = cache.provenance
    parent = parent_ref()
    if parent is None:
        return None
    return parent, partition


# ----------------------------------------------------------------------
# brick decomposition
# ----------------------------------------------------------------------
def _indexed_module():
    """Deferred import of :mod:`repro.core.indexed` (which imports this
    module at load time, so the dependency must point upward lazily)."""
    from repro.core import indexed

    return indexed


def _carry_bits(sg, cache: SGCache, parent_cache: SGCache, partition) -> List[int]:
    """The parent-index → child-bit table of ``sg`` (memoized).

    Every state ``s`` outside ``ER(x+)`` / ``ER(x-)`` appears in the
    expanded graph exactly once, as ``(s, 0)`` (``s in S0``) or ``(s, 1)``
    (otherwise), and the subgraph induced on those states is replayed
    unchanged.  Entry ``p`` is the bit of that copy in the child's index,
    or 0 when ``p`` was split or its copy is not in the child graph.  The
    table is empty when the child's index was not derived from the
    parent's.
    """
    table = cache.carry_bits
    if table is None:
        child = _indexed_module().indexed_state_graph(sg)
        parent = child.parent_index()
        table = []
        if parent is not None and parent is parent_cache.indexed:
            s0 = parent.mask_of(partition.s0)
            split = parent.mask_of(partition.splus) | parent.mask_of(partition.sminus)
            table = [0] * parent.num_states
            for c, p in enumerate(child.parent_positions):
                stable_value = 0 if (s0 >> p) & 1 else 1
                if child.states[c][1] == stable_value and not (split >> p) & 1:
                    table[p] = 1 << c
        cache.carry_bits = table
    return table


def _carried_masks(masks: List[int], carry_bits: List[int]) -> Optional[List[int]]:
    """Map a parent entry's brick masks into the child's index, or
    ``None`` when a brick holds a split (or vanished) state."""
    bits_of = _indexed_module().bits_of
    mapped: List[int] = []
    for mask in masks:
        child_mask = 0
        for p in bits_of(mask):
            bit = carry_bits[p]
            if not bit:
                return None
            child_mask |= bit
        mapped.append(child_mask)
    return mapped


def _er_entry(sg, cache: SGCache, isg, event) -> List[int]:
    """The excitation-region brick masks of ``event``: memoized, else
    carried over from the parent graph's entry, else computed."""
    masks = cache.er_bricks.get(event)
    if masks is not None:
        STATS.brick_hits += 1
        return masks
    parent_info = provenance_parent(cache)
    if parent_info is not None:
        parent_sg, partition = parent_info
        parent_cache = peek_cache(parent_sg)
        if parent_cache is not None and event in parent_cache.er_bricks:
            carry_bits = _carry_bits(sg, cache, parent_cache, partition)
            if carry_bits:
                masks = _carried_masks(parent_cache.er_bricks[event], carry_bits)
    if masks is None:
        masks = excitation_region_masks(isg, event)
        STATS.brick_misses += 1
    else:
        STATS.brick_carries += 1
    cache.er_bricks[event] = masks
    return masks


def get_brick_masks(sg, mode: str = "regions", max_explored: int = 20000) -> List[int]:
    """Brick decomposition of ``sg`` as bitmasks over its indexed state
    graph (cached per ``(mode, budget)``).

    The masks of exactly the bricks :func:`repro.core.bricks.compute_bricks`
    returns, in its canonical order.  Excitation-region entries are
    carried over from the parent graph where the insertion did not touch
    them; region bricks are recomputed, each seed expanded once (see the
    module docstring).
    """
    cache = get_cache(sg)
    key = (mode, max_explored)
    masks = cache.brick_lists.get(key)
    if masks is not None:
        return masks
    indexed = _indexed_module()
    isg = indexed.indexed_state_graph(sg)
    if mode == "states":
        collected = [1 << i for i in range(isg.num_states)]
    elif mode in ("excitation", "regions"):
        events = stable_sorted(isg.event_list)
        collected = []
        for event in events:
            collected.extend(_er_entry(sg, cache, isg, event))
        if mode == "regions":
            for event in events:
                collected.extend(
                    event_region_brick_masks(isg, event, max_explored, cache.regions)
                )
            STATS.brick_misses += len(events)
    else:
        raise ValueError(f"unknown brick mode: {mode!r}")
    masks = indexed.deduplicate_brick_masks(isg, collected)
    cache.brick_lists[key] = masks
    return masks


def get_bricks(sg, mode: str = "regions", max_explored: int = 20000) -> List[Brick]:
    """Brick decomposition of ``sg`` as object frozensets: exactly what
    :func:`repro.core.bricks.compute_bricks` returns, built on demand from
    :func:`get_brick_masks`."""
    if not caches_enabled():
        return compute_bricks(sg.ts, mode=mode, max_explored=max_explored)
    isg = _indexed_module().indexed_state_graph(sg)
    return [isg.frozenset_of_mask(mask) for mask in get_brick_masks(sg, mode, max_explored)]
