"""Tests for the batch encoding engine and its shared caches.

Covers the three cache layers of the tentpole (brick carry-over across
insertions, per-search block-evaluation memoization via the indexed fast
path, incremental CSC re-analysis), the serial-vs-parallel determinism
of ``encode_many``, and the JSON round-trip of the summaries CI uploads.
"""

from __future__ import annotations

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
from repro.core.indexed import IndexedEvaluator, indexed_state_graph
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


def test_indexed_evaluator_matches_object_space(vme_sg):
    """Per-block: the indexed evaluation equals evaluate_block, and the
    memo returns the identical result object on a repeat evaluation."""
    conflicts = csc_conflicts(vme_sg)
    evaluator = IndexedEvaluator(vme_sg, conflicts, allow_input_delay=False)
    index = indexed_state_graph(vme_sg)
    bricks = caches.get_bricks(vme_sg, "regions", 20000)
    assert bricks, "vme must decompose into bricks"
    for brick in bricks:
        mask = index.mask_of(brick)
        indexed = evaluator.evaluate(mask)
        reference = evaluate_block(vme_sg, brick, conflicts, allow_input_delay=False)
        if reference is None:
            assert indexed is None
        else:
            assert indexed is not None
            assert indexed.cost == reference.cost
            assert indexed.to_partition(index) == reference.partition
    hits_before = evaluator.hits
    first = evaluator.evaluate(index.mask_of(bricks[0]))
    assert evaluator.hits == hits_before + 1
    assert first is evaluator.evaluate(index.mask_of(bricks[0]))


# ----------------------------------------------------------------------
# brick cache invalidation across insertions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["vme2int", "combuf2", "mod4-counter"])
@pytest.mark.parametrize("mode", ["regions", "excitation"])
def test_brick_cache_survives_insertion(name, mode):
    """After an insertion, the carried-over brick cache of the expanded
    graph must equal a from-scratch recomputation (and likewise for the
    adjacency derived from it)."""
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
    assert caches.get_adjacency(new_sg, mode, budget) == brick_adjacency(new_sg.ts, fresh)


def test_brick_carry_over_is_selective(vme_sg):
    """Entries untouched by the insertion are mapped, touched ones are
    recomputed: only bricks meeting ER(x+)/ER(x-) are invalidated."""
    settings_cls = get_case("vme2int").solver_settings().search
    caches.get_bricks(vme_sg, "regions", settings_cls.region_budget)
    plan = find_insertion_plan(vme_sg, "cscx", settings_cls)
    assert plan is not None
    touched = plan.partition.splus | plan.partition.sminus
    parent_cache = caches.peek_cache(vme_sg)
    assert parent_cache is not None and parent_cache.er_bricks

    untouched_events = [
        event
        for event, entry in parent_cache.er_bricks.items()
        if entry and not any(brick & touched for brick in entry)
    ]
    assert untouched_events, "the insertion should leave some events untouched"
    carried = caches._carried_bricks(
        plan.new_sg, parent_cache.er_bricks[untouched_events[0]], plan.partition
    )
    assert carried is not None
    from repro.core.excitation import excitation_regions

    assert carried == excitation_regions(plan.new_sg.ts, untouched_events[0])

    touched_events = [
        event
        for event, entry in parent_cache.er_bricks.items()
        if any(brick & touched for brick in entry)
    ]
    if touched_events:  # touched entries must refuse to carry over
        assert (
            caches._carried_bricks(
                plan.new_sg, parent_cache.er_bricks[touched_events[0]], plan.partition
            )
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


# ----------------------------------------------------------------------
# in-solve sharding (repro.engine.shard)
# ----------------------------------------------------------------------
class TestShard:
    def test_shard_budget_rules(self):
        from repro.engine.shard import shard_budget

        # single-STG runs are never clamped: an explicit width is obeyed
        assert shard_budget(1, 4) == 4
        assert shard_budget(4, 1) == 1
        # two levels share the budget: jobs * search_jobs <= budget
        assert shard_budget(2, 8, budget=8) == 4
        assert shard_budget(4, 4, budget=4) == 1
        assert shard_budget(3, 2, budget=100) == 2
        # never clamps below one worker
        assert shard_budget(16, 16, budget=1) == 1

    def test_budgeted_settings_override_and_identity(self):
        from repro.core.solver import SolverSettings
        from repro.engine.batch import budgeted_settings

        base = SolverSettings()
        # no change -> the very same object (and never a mutation)
        assert budgeted_settings(base, jobs=1) is base
        boosted = budgeted_settings(base, jobs=1, search_jobs=4)
        assert boosted.search_jobs == 4
        assert base.search_jobs == 1
        clamped = budgeted_settings(SolverSettings(search_jobs=8), jobs=2, budget=8)
        assert clamped.search_jobs == 4
        assert budgeted_settings(None, jobs=1) is None
        built = budgeted_settings(None, jobs=1, search_jobs=2)
        assert built is not None and built.search_jobs == 2

    def test_use_shard_mode_rejects_unknown_mode(self):
        from repro.engine.shard import use_shard_mode

        with pytest.raises(ValueError):
            with use_shard_mode("rayon"):
                pass

    def test_eval_kernel_is_picklable_and_pure(self, vme_sg):
        from repro.core.indexed import IndexedEvaluator, indexed_brick_bundle

        evaluator = IndexedEvaluator(
            vme_sg, csc_conflicts(vme_sg), allow_input_delay=False
        )
        _bricks, masks, _adjacency = indexed_brick_bundle(vme_sg)
        clone = pickle.loads(pickle.dumps(evaluator.kernel))
        for mask in masks:
            original = evaluator.kernel.evaluate(mask)
            copied = clone.evaluate(mask)
            if original is None:
                assert copied is None
                continue
            assert (copied.mask, copied.size, copied.cost, bytes(copied.side)) == (
                original.mask,
                original.size,
                original.cost,
                bytes(original.side),
            )

    @pytest.mark.parametrize("mode", ["thread", "fork"])
    def test_search_pool_matches_inline_kernel(self, vme_sg, mode):
        from repro.core.indexed import IndexedEvaluator, indexed_brick_bundle
        from repro.engine.shard import search_pool, use_shard_mode

        evaluator = IndexedEvaluator(
            vme_sg, csc_conflicts(vme_sg), allow_input_delay=False
        )
        _bricks, masks, _adjacency = indexed_brick_bundle(vme_sg)
        inline = [evaluator.kernel.evaluate(mask) for mask in masks]
        with use_shard_mode(mode):
            with search_pool(evaluator.kernel, 2) as pool:
                assert pool is not None and pool.kind == mode
                pooled = pool.evaluate_batch(list(masks))
        assert len(pooled) == len(inline)
        for got, expected in zip(pooled, inline):
            if expected is None:
                assert got is None
            else:
                assert (got.mask, got.size, got.cost, bytes(got.side)) == (
                    expected.mask,
                    expected.size,
                    expected.cost,
                    bytes(expected.side),
                )

    def test_search_pool_width_one_is_inline(self):
        from repro.engine.shard import search_pool

        with search_pool(None, 1) as pool:
            assert pool is None

    def test_encode_many_search_jobs_is_invisible_in_results(self):
        stgs = [gen.vme_controller(), gen.mixed_controller(1, 1)]
        serial = encode_many(stgs, jobs=1, max_states=5000)
        sharded = encode_many(stgs, jobs=1, max_states=5000, search_jobs=2)
        assert serial.fingerprints() == sharded.fingerprints()
