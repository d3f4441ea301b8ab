"""Tests for the Figure-4 heuristic search and the iterative CSC solver."""

from repro.bench_stg import generators as gen
from repro.core import (
    SearchSettings,
    SolverSettings,
    csc_conflicts,
    find_insertion_plan,
    has_csc,
    solve_csc,
)
from repro.core import indexed as idx
from repro.core.cost import BlockEvaluation, Cost
from repro.core.search import _BlockCandidate, _IndexedCandidate, _rank, _rank_indexed
from repro.stg import build_state_graph


class TestSearch:
    def test_no_conflicts_means_no_plan(self):
        sg = build_state_graph(gen.handshake_wire_chain(2))
        assert find_insertion_plan(sg, "x") is None

    def test_vme_plan_solves_the_conflict(self, vme_sg):
        plan = find_insertion_plan(vme_sg, "csc0")
        assert plan is not None
        assert plan.conflicts_before == 1
        assert len(csc_conflicts(plan.new_sg)) == 0
        assert plan.cost.unsolved_conflicts == 0

    def test_plan_respects_strict_input_preservation(self, vme_sg):
        plan = find_insertion_plan(vme_sg, "csc0", SearchSettings(allow_input_delay=False))
        assert plan is not None
        for event in plan.check.delayed:
            assert not vme_sg.is_input_edge(event)

    def test_frontier_width_one_still_works_on_vme(self, vme_sg):
        plan = find_insertion_plan(vme_sg, "csc0", SearchSettings(frontier_width=1))
        assert plan is not None

    def test_excitation_brick_mode(self, vme_sg):
        plan = find_insertion_plan(vme_sg, "csc0", SearchSettings(brick_mode="excitation"))
        # The ASSASSIN-style granularity may or may not solve it, but the
        # call must not crash and must return either None or a valid plan.
        if plan is not None:
            assert plan.check.ok

    def test_states_brick_mode(self, vme_sg):
        plan = find_insertion_plan(vme_sg, "csc0", SearchSettings(brick_mode="states"))
        if plan is not None:
            assert plan.check.ok


def _legacy_candidate(states, cost, seq):
    block = frozenset(states)
    return _BlockCandidate(
        block, frozenset(), BlockEvaluation(block=block, partition=None, cost=cost), seq
    )


class TestCost:
    """The Cost contract the ranking, summaries and fingerprints rely on."""

    def test_lexicographic_order_by_field(self):
        costs = [
            Cost(1, 0, 0, 0),
            Cost(0, 1, 0, 0),
            Cost(0, 0, 1, 0),
            Cost(0, 0, 0, 1),
            Cost(0, 0, 0, 0),
        ]
        assert sorted(costs) == [
            Cost(0, 0, 0, 0),
            Cost(0, 0, 0, 1),
            Cost(0, 0, 1, 0),
            Cost(0, 1, 0, 0),
            Cost(1, 0, 0, 0),
        ]
        assert Cost(0, 5, 9, 9) < Cost(1, 0, 0, 0)
        assert not Cost(2, 0, 1, 1) < Cost(2, 0, 1, 1)

    def test_equality_hash_and_pickle(self):
        import pickle

        cost = Cost(unsolved_conflicts=3, input_delays=1, trigger_estimate=4, border_size=2)
        assert cost == Cost(3, 1, 4, 2)
        assert cost != Cost(3, 1, 4, 3)
        assert hash(cost) == hash(Cost(3, 1, 4, 2))
        assert len({cost, Cost(3, 1, 4, 2)}) == 1
        clone = pickle.loads(pickle.dumps(cost))
        assert clone == cost and type(clone) is Cost
        assert clone.trigger_estimate == 4

    def test_as_dict_and_str(self):
        cost = Cost(3, 1, 4, 2)
        assert cost.as_dict() == {
            "unsolved_conflicts": 3,
            "input_delays": 1,
            "trigger_estimate": 4,
            "border_size": 2,
        }
        assert list(cost.as_dict()) == list(Cost._fields)
        assert str(cost) == "(unsolved=3, input_delays=1, triggers=4, border=2)"
        assert repr(cost) == (
            "Cost(unsolved_conflicts=3, input_delays=1, trigger_estimate=4, border_size=2)"
        )


class TestCanonicalRank:
    """Regression tests for the canonical truncation order.

    Candidates tied on ``(cost, size)`` used to keep whatever order the
    list handed to ``sorted`` happened to be in, so the
    ``max_merge_candidates`` / ``max_validity_checks`` truncations
    depended on how each call site assembled its candidate list (masked
    in practice by CPython's stable sort and dict ordering).  The rank
    key now ends in the candidate's stamped discovery index: any
    permutation of the input must rank identically.
    """

    def test_legacy_rank_is_list_order_independent(self):
        tied = Cost(1, 0, 2, 2)
        candidates = [
            _legacy_candidate({f"s{i}", f"t{i}"}, tied, seq) for seq, i in enumerate([4, 2, 0, 5, 1, 3])
        ]
        # a strictly better and a strictly worse candidate keep the
        # primary (cost, size) order intact around the tie group
        best = _legacy_candidate({"a0"}, Cost(0, 0, 1, 1), 6)
        worst = _legacy_candidate({"z0", "z1", "z2"}, Cost(2, 0, 9, 9), 7)
        pool = [worst, *candidates, best]
        rank_forward = [c.states for c in _rank(pool)]
        rank_reversed = [c.states for c in _rank(list(reversed(pool)))]
        rank_rotated = [c.states for c in _rank(pool[3:] + pool[:3])]
        assert rank_forward == rank_reversed == rank_rotated
        assert rank_forward[0] == best.states
        assert rank_forward[-1] == worst.states
        # within the tie group the order is the stamped discovery order,
        # not the (permuted) list order
        assert rank_forward[1:-1] == [c.states for c in candidates]

    def test_indexed_rank_matches_legacy_rank(self, vme_sg):
        """The two paths must break ties identically (lockstep rule)."""
        isg = idx.indexed_state_graph(vme_sg)
        tied = Cost(1, 0, 2, 2)
        masks = [1 << i for i in [3, 0, 5, 1, 4, 2]]
        indexed_candidates = [
            _IndexedCandidate(mask, 0, 0, tied, seq)
            for seq, mask in enumerate(masks)
        ]
        legacy_candidates = [
            _legacy_candidate(isg.frozenset_of_mask(mask), tied, seq)
            for seq, mask in enumerate(masks)
        ]
        for rotation in range(len(masks)):
            perm_indexed = indexed_candidates[rotation:] + indexed_candidates[:rotation]
            perm_legacy = legacy_candidates[rotation:] + legacy_candidates[:rotation]
            ranked_indexed = [
                isg.frozenset_of_mask(c.mask) for c in _rank_indexed(perm_indexed)
            ]
            ranked_legacy = [c.states for c in _rank(perm_legacy)]
            assert ranked_indexed == ranked_legacy
            # discovery order, independent of the rotation
            assert ranked_indexed == [
                isg.frozenset_of_mask(mask) for mask in masks
            ]


class TestSolver:
    def test_vme_solved_with_one_signal(self, vme_sg):
        result = solve_csc(vme_sg)
        assert result.solved
        assert result.num_inserted == 1
        assert result.inserted_signals == ["csc0"]
        assert has_csc(result.final_sg)
        assert result.final_sg.num_states > vme_sg.num_states

    def test_final_sg_is_speed_independent(self, vme_sg):
        result = solve_csc(vme_sg)
        report = result.final_sg.speed_independence_report()
        assert all(report.values())

    def test_already_solved_graph_untouched(self):
        sg = build_state_graph(gen.handshake_wire_chain(3))
        result = solve_csc(sg)
        assert result.solved
        assert result.num_inserted == 0
        assert result.final_sg is sg

    def test_records_are_consistent(self, sequencer2_sg):
        result = solve_csc(sequencer2_sg)
        assert result.solved
        previous = len(csc_conflicts(sequencer2_sg))
        for record in result.records:
            assert record.conflicts_before <= previous or record.conflicts_before > 0
            assert record.conflicts_after < record.conflicts_before
            previous = record.conflicts_after
        assert result.records[-1].conflicts_after == 0

    def test_max_signals_budget(self, sequencer2_sg):
        settings = SolverSettings(max_signals=1)
        result = solve_csc(sequencer2_sg, settings)
        assert result.num_inserted <= 1

    def test_unsolvable_strict_case_stops_cleanly(self, toggle_sg):
        """The toggle has no input-preserving solution: the solver must
        stop without inserting a pile of useless signals."""
        result = solve_csc(toggle_sg, SolverSettings())
        assert not result.solved
        assert result.num_inserted <= 2
        assert result.conflicts_remaining > 0

    def test_signal_name_collision_avoided(self, vme_sg):
        renamed = vme_sg.copy()
        renamed.signals[0] = renamed.signals[0]  # no-op, keep API surface
        settings = SolverSettings(signal_prefix="dsr")  # collides with existing signal
        result = solve_csc(vme_sg, settings)
        assert result.solved
        assert result.inserted_signals[0] not in vme_sg.signals

    def test_summary_shape(self, vme_sg):
        result = solve_csc(vme_sg)
        summary = result.summary()
        assert summary["solved"] is True
        assert summary["inserted"] == 1
        assert summary["states_after"] >= summary["states_before"]

    def test_mixed_controller_solved(self):
        sg = build_state_graph(gen.mixed_controller(1, 2))
        result = solve_csc(sg, SolverSettings(search=SearchSettings(frontier_width=12)))
        assert result.solved
        assert result.num_inserted >= 1

    def test_relaxed_mode_solves_ripple_counter(self):
        sg = build_state_graph(gen.ripple_counter(2))
        settings = SolverSettings(search=SearchSettings(allow_input_delay=True))
        result = solve_csc(sg, settings)
        assert result.solved
        assert result.num_inserted >= 2  # a mod-4 counter needs two state bits


class TestBatchedMerge:
    def test_batched_merge_matches_one_by_one_on_library_searches(self, monkeypatch):
        """The merge costs each round of unions as one batch; on every
        search of the library rows it returns the candidate the
        one-by-one loop returns."""
        from references import reference_greedy_merge_indexed

        from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES
        from repro.core import search

        batched = search._greedy_merge_indexed
        merges = []

        def compare(ranked, evaluator, num_states, settings):
            expected = reference_greedy_merge_indexed(ranked, evaluator, num_states, settings)
            merged = batched(ranked, evaluator, num_states, settings)
            got = (
                None
                if merged is None
                else (merged.mask, merged.bricks, merged.neighbours, merged.cost)
            )
            assert got == expected
            merges.append(got is not None)
            return merged

        monkeypatch.setattr(search, "_greedy_merge_indexed", compare)
        for case in TABLE2_CASES + TABLE1_CASES:
            if case.solve and case.explicit_ok:
                solve_csc(build_state_graph(case.build()), case.solver_settings())
        assert len(merges) > 50
        assert sum(merges) > 10  # merges that accepted at least one union


class TestSideTablesOnDemand:
    def test_sip_side_tables_match_the_eager_evaluation(self, monkeypatch):
        """The search derives a side table only for a candidate its SIP
        check examines; on every Table-2 row that table, and the batch
        cost the candidate was ranked by, are those of the eager
        evaluation the search used to run on every generated block."""
        from references import reference_block_evaluation

        from repro.bench_stg.library import TABLE2_CASES

        derive = idx.IndexedEvaluator.side_table
        derived = []

        def recording(evaluator, mask):
            side = derive(evaluator, mask)
            derived.append(
                (
                    (bytes(side), evaluator.memo[mask]),
                    reference_block_evaluation(evaluator.kernel, mask),
                )
            )
            return side

        monkeypatch.setattr(idx.IndexedEvaluator, "side_table", recording)
        for case in TABLE2_CASES:
            solve_csc(build_state_graph(case.build()), case.solver_settings())
        assert len(derived) > 200
        for got, expected in derived:
            assert got == expected
