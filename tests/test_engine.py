"""Tests for the batch encoding engine and its shared caches.

Covers the three cache layers of the tentpole (brick carry-over across
insertions, per-search block-evaluation memoization via the indexed fast
path, incremental CSC re-analysis), the serial-vs-parallel determinism
of ``encode_many``, and the JSON round-trip of the summaries CI uploads.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.api import encode_many, encode_stg
from repro.bench_stg import generators as gen
from repro.bench_stg.library import get_case
from repro.core.bricks import brick_adjacency, compute_bricks
from repro.core.csc import (
    _csc_conflicts_incremental,
    csc_conflicts,
    csc_conflicts_from_scratch,
)
from repro.core.search import find_insertion_plan
from repro.engine import caches, use_caches
from repro.engine.batch import run_benchmark_suite, select_smallest_cases, suite_cases
from repro.core.indexed import (
    IndexedEvaluator,
    IndexedStateGraph,
    bits_of,
    indexed_brick_bundle,
    indexed_state_graph,
)
from repro.core.cost import evaluate_block
from repro.stg.state_graph import build_state_graph

TABLE2 = suite_cases("table2")


def _solve_case(name, caches_on, table="table2"):
    case = get_case(name, table=table)
    with use_caches(caches_on):
        report = encode_stg(case.build(), settings=case.solver_settings(), max_states=5000)
    return report


# ----------------------------------------------------------------------
# fast path vs legacy baseline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["vme2int", "combuf2", "mod4-counter", "nak-pa"])
def test_cached_solver_matches_legacy(name):
    """The indexed/cached hot path must reproduce the legacy encoder
    byte for byte (insertions, costs, conflicts, logic area)."""
    legacy = _solve_case(name, caches_on=False)
    cached = _solve_case(name, caches_on=True)
    assert cached.result.fingerprint() == legacy.result.fingerprint()
    assert cached.area_literals == legacy.area_literals


@pytest.mark.parametrize("name", ["vme2int", "combuf2", "nak-pa"])
def test_enlarge_concurrency_matches_legacy(name):
    """With ``enlarge_concurrency`` the indexed search (bricks built as
    frozensets from its masks on demand) commits the same enlarged plan
    as the legacy search; on vme2int the enlargement grows an
    excitation region of the new signal."""
    case = get_case(name, table="table2")
    plain = case.solver_settings().search
    enlarged = dataclasses.replace(plain, enlarge_concurrency=True)
    with use_caches(False):
        legacy = find_insertion_plan(
            build_state_graph(case.build(), max_states=5000), "cscx", enlarged
        )
    sg = build_state_graph(case.build(), max_states=5000)
    plan = find_insertion_plan(sg, "cscx", enlarged)
    assert (plan.block, plan.partition, plan.cost) == (
        legacy.block,
        legacy.partition,
        legacy.cost,
    )
    if name == "vme2int":
        base = find_insertion_plan(sg, "cscx", plain)
        grown = len(plan.partition.splus) + len(plan.partition.sminus)
        assert grown > len(base.partition.splus) + len(base.partition.sminus)


def test_indexed_evaluator_matches_object_space(vme_sg):
    """Per-block: the indexed cost and on-demand partition equal
    evaluate_block's, and the memo returns the identical cost object on a
    repeat evaluation."""
    conflicts = csc_conflicts(vme_sg)
    evaluator = IndexedEvaluator(vme_sg, conflicts, allow_input_delay=False)
    index = indexed_state_graph(vme_sg)
    bricks = caches.get_bricks(vme_sg, "regions", 20000)
    assert bricks, "vme must decompose into bricks"
    masks = [index.mask_of(brick) for brick in bricks]
    costs = evaluator.costs(masks)
    for brick, mask, cost in zip(bricks, masks, costs):
        reference = evaluate_block(vme_sg, brick, conflicts, allow_input_delay=False)
        if reference is None:
            assert cost is None
        else:
            assert cost == reference.cost
            assert index.partition_of(evaluator.side_table(mask)) == reference.partition
    assert len(evaluator.memo) == len(set(masks))
    first = evaluator.costs(masks[:1])[0]
    assert first is costs[0]
    assert len(evaluator.memo) == len(set(masks))


# ----------------------------------------------------------------------
# brick cache invalidation across insertions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["vme2int", "combuf2", "mod4-counter"])
@pytest.mark.parametrize("mode", ["regions", "excitation"])
def test_brick_cache_survives_insertion(name, mode):
    """After an insertion, the carried-over brick cache of the expanded
    graph must equal a from-scratch recomputation, and so must the
    bundle's bitset adjacency."""
    case = get_case(name, table="table2")
    sg = build_state_graph(case.build(), max_states=5000)
    settings = case.solver_settings().search
    settings.brick_mode = mode
    budget = settings.region_budget
    # Warm the parent cache so the expanded graph has entries to inherit.
    caches.get_bricks(sg, mode, budget)
    plan = find_insertion_plan(sg, "cscx", settings)
    assert plan is not None, f"{name} should admit an insertion"
    new_sg = plan.new_sg

    cached = caches.get_bricks(new_sg, mode, budget)
    fresh = compute_bricks(new_sg.ts, mode=mode, max_explored=budget)
    assert cached == fresh
    masks, adjacency = indexed_brick_bundle(new_sg, mode, budget)
    index = indexed_state_graph(new_sg)
    assert masks == [index.mask_of(brick) for brick in fresh]
    assert {i: set(bits_of(row)) for i, row in enumerate(adjacency)} == brick_adjacency(
        new_sg.ts, fresh
    )


#: The fields of an index that must not depend on how it was built; dicts
#: are compared with their order.
_INDEX_FIELDS = (
    "states",
    "position",
    "num_states",
    "full_mask",
    "initial",
    "succ_masks",
    "und_masks",
    "succ_events",
    "succ_maps",
    "deterministic",
    "arcs",
    "signal_ids",
    "signal_is_input",
    "signal_positions",
    "input_signals",
    "codes",
    "event_list",
    "event_arcs",
    "state_reprs",
    "repr_ranks",
    "succ_targets",
    "in_sig_arcs",
    "out_sig_arcs",
)


def _ordered(value):
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [_ordered(item) for item in value]
    return value


def _assert_derived_index_matches_scratch(child, parent, sg) -> None:
    """The replay-derived index of ``sg`` equals a from-scratch build field
    by field, and records its parent."""
    scratch = IndexedStateGraph(sg)
    for field in _INDEX_FIELDS:
        assert _ordered(getattr(child, field)) == _ordered(getattr(scratch, field)), field
    assert [entry[:4] for entry in child.arc_bits_by_event] == [
        entry[:4] for entry in scratch.arc_bits_by_event
    ]
    assert child.parent_index() is parent and scratch.parent_index() is None
    assert child.parent_positions == [parent.position[state[0]] for state in scratch.states]
    assert child.is_commutative() == scratch.is_commutative()
    assert child.persistent_events() == scratch.persistent_events()


@pytest.mark.parametrize("case", TABLE2, ids=lambda case: case.name)
def test_brick_mask_carry_over_matches_scratch_after_every_insertion(case):
    """Replays the solver's insertion loop: after every insertion the
    expanded graph's index (derived from the insertion's replay) equals a
    from-scratch build field by field, its brick masks (carried over from
    its parent where the insertion left an event untouched) equal a
    from-scratch compute_bricks, in the same order, and its adjacency rows
    equal the object-space brick_adjacency of those bricks."""
    settings = case.solver_settings()
    search = settings.search
    mode, budget = search.brick_mode, search.region_budget
    current = build_state_graph(case.build(), max_states=5000)
    for counter in range(settings.max_signals):
        conflicts = csc_conflicts(current)
        if not conflicts:
            break
        plan = find_insertion_plan(
            current, f"csc{counter}", search, conflicts=conflicts, kernel=settings.kernel
        )
        if plan is None:
            break
        new_sg = plan.new_sg
        index = indexed_state_graph(new_sg)
        _assert_derived_index_matches_scratch(index, indexed_state_graph(current), new_sg)
        masks, adjacency = indexed_brick_bundle(new_sg, mode, budget)
        fresh = compute_bricks(new_sg.ts, mode=mode, max_explored=budget)
        assert masks == [index.mask_of(brick) for brick in fresh]
        expected = brick_adjacency(new_sg.ts, fresh)
        assert [set(bits_of(row)) for row in adjacency] == [
            expected[b] for b in range(len(fresh))
        ]
        assert caches.get_cache(new_sg).carry_bits, "the child index must derive from the parent's"
        if len(csc_conflicts(new_sg)) >= len(conflicts):
            break
        current = new_sg


def test_table2_solve_builds_only_the_root_index_from_scratch():
    """Every graph an insertion produces gets its index from the replay; a
    fallback to re-hashing a child's transition system would show in
    ``index_builds``."""
    from repro.core import solve_csc

    case = get_case("master-read")
    sg = build_state_graph(case.build())
    before = caches.STATS.snapshot()
    result = solve_csc(sg, case.solver_settings())
    after = caches.STATS.snapshot()
    assert result.num_inserted >= 2
    assert after["index_builds"] - before["index_builds"] == 1
    assert after["region_memo_hits"] > before["region_memo_hits"]


def test_region_memo_keeps_no_seed_over_budget(vme_sg):
    """Each seed is expanded once per graph; a seed over ``max_explored``
    is not memoized, so its second call raises again."""
    from references import reference_region_masks_containing

    from repro.core.regions import RegionSearchBudgetExceeded, minimal_region_masks_containing

    isg = indexed_state_graph(vme_sg)
    seeds = [isg.er_mask(event) for event in isg.event_list]
    seed, expected, explored = max(
        ((seed,) + reference_region_masks_containing(isg, seed)[:2] for seed in seeds),
        key=lambda entry: entry[2],
    )
    assert explored > 1
    memo = {}
    for _ in range(2):
        with pytest.raises(RegionSearchBudgetExceeded):
            minimal_region_masks_containing(isg, seed, explored - 1, memo)
        assert memo == {}
    hits = caches.STATS.region_memo_hits
    found = minimal_region_masks_containing(isg, seed, explored, memo)
    assert found == expected and memo == {(seed, explored): expected}
    assert minimal_region_masks_containing(isg, seed, explored, memo) is found
    assert caches.STATS.region_memo_hits == hits + 1


def test_brick_carry_over_is_selective(vme_sg):
    """Entries untouched by the insertion are mapped, touched ones are
    recomputed: only bricks meeting ER(x+)/ER(x-) are invalidated."""
    from repro.core.excitation import excitation_regions

    settings_cls = get_case("vme2int").solver_settings().search
    caches.get_bricks(vme_sg, "regions", settings_cls.region_budget)
    plan = find_insertion_plan(vme_sg, "cscx", settings_cls)
    assert plan is not None
    parent_cache = caches.peek_cache(vme_sg)
    assert parent_cache is not None and parent_cache.er_bricks
    touched = indexed_state_graph(vme_sg).mask_of(plan.partition.splus | plan.partition.sminus)
    carry_bits = caches._carry_bits(
        plan.new_sg, caches.get_cache(plan.new_sg), parent_cache, plan.partition
    )
    child = indexed_state_graph(plan.new_sg)

    untouched_events = [
        event
        for event, entry in parent_cache.er_bricks.items()
        if entry and not any(mask & touched for mask in entry)
    ]
    assert untouched_events, "the insertion should leave some events untouched"
    carried = caches._carried_masks(parent_cache.er_bricks[untouched_events[0]], carry_bits)
    assert carried == [
        child.mask_of(region)
        for region in excitation_regions(plan.new_sg.ts, untouched_events[0])
    ]

    touched_events = [
        event
        for event, entry in parent_cache.er_bricks.items()
        if any(mask & touched for mask in entry)
    ]
    if touched_events:  # touched entries must refuse to carry over
        assert (
            caches._carried_masks(parent_cache.er_bricks[touched_events[0]], carry_bits)
            is None
        )


# ----------------------------------------------------------------------
# incremental CSC re-analysis
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", TABLE2, ids=lambda case: case.name)
def test_incremental_csc_matches_scratch(case):
    """Regression over the whole library: after an insertion, incremental
    re-analysis must equal the full recomputation, list order included."""
    sg = build_state_graph(case.build(), max_states=5000)
    conflicts = csc_conflicts(sg)
    assert conflicts == csc_conflicts_from_scratch(sg)
    if not conflicts:
        return
    plan = find_insertion_plan(sg, "cscx", case.solver_settings().search)
    if plan is None:
        return
    new_sg = plan.new_sg
    scratch = csc_conflicts_from_scratch(new_sg)
    assert _csc_conflicts_incremental(new_sg, sg) == scratch
    assert csc_conflicts(new_sg) == scratch  # memoized entry point agrees


# ----------------------------------------------------------------------
# batch determinism and the engine API
# ----------------------------------------------------------------------
def test_encode_many_parallel_matches_serial():
    """Serial and jobs=2 runs must produce identical per-STG results."""
    names = ["vme2int", "combuf2", "sbuf-read-ctl", "specseq4"]
    cases = [get_case(name) for name in names]
    settings = [case.solver_settings() for case in cases]
    serial = encode_many([case.build() for case in cases], settings=settings, jobs=1)
    parallel = encode_many([case.build() for case in cases], settings=settings, jobs=2)
    assert json.dumps(serial.fingerprints(), sort_keys=True) == json.dumps(
        parallel.fingerprints(), sort_keys=True
    )
    assert [item.name for item in parallel.items] == names
    assert all(item.error is None for item in parallel.items)


def test_encode_many_settings_validation():
    with pytest.raises(ValueError):
        encode_many([gen.vme_controller()], settings=[None, None])


def test_run_benchmark_suite_smallest():
    smallest = select_smallest_cases(TABLE2, 3)
    assert len(smallest) == 3
    result = run_benchmark_suite(table="table2", jobs=1, smallest=3)
    assert [item.name for item in result.items] == [case.name for case in smallest]
    assert all(item.error is None for item in result.items)


# ----------------------------------------------------------------------
# JSON artifacts and pickling
# ----------------------------------------------------------------------
def test_summary_json_round_trip():
    report = _solve_case("combuf2", caches_on=True)
    summary = report.result.summary()
    assert summary["inserted"] == len(summary["insertions"])
    for record in summary["insertions"]:
        assert set(record["cost"]) == {
            "unsolved_conflicts",
            "input_delays",
            "trigger_estimate",
            "border_size",
        }
    assert json.loads(json.dumps(summary)) == summary
    fingerprint = report.result.fingerprint()
    assert "cpu_seconds" not in fingerprint


def test_state_graph_pickles_without_cache(vme_sg):
    caches.get_bricks(vme_sg, "regions", 20000)
    csc_conflicts(vme_sg)
    assert caches.peek_cache(vme_sg) is not None
    clone = pickle.loads(pickle.dumps(vme_sg))
    assert caches.peek_cache(clone) is None
    assert clone.num_states == vme_sg.num_states
    assert csc_conflicts_from_scratch(clone) == csc_conflicts_from_scratch(vme_sg)


def test_cli_bench_all_json(tmp_path):
    from repro.cli import main

    out = tmp_path / "batch.json"
    code = main(["bench", "--all", "--smallest", "2", "--jobs", "1", "--json", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["total"] == 2
    assert {"jobs", "wall_seconds", "items"} <= set(record)


def test_eval_kernel_is_picklable_and_pure(vme_sg):
    evaluator = IndexedEvaluator(
        vme_sg, csc_conflicts(vme_sg), allow_input_delay=False
    )
    masks, _adjacency = indexed_brick_bundle(vme_sg)
    clone = pickle.loads(pickle.dumps(evaluator.kernel))
    for mask in masks:
        assert clone.cost(mask) == evaluator.kernel.cost(mask)
        assert clone.side_table(mask) == evaluator.kernel.side_table(mask)
