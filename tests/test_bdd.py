"""Tests for the ROBDD engine and the symbolic state count built on it."""

import itertools

import pytest

from repro.bdd import (
    BDD,
    interleaved_pair_levels,
    prime_map,
    unprime_map,
)
from repro.bench_stg import generators as gen
from repro.petri import build_reachability_graph
from repro.stg import STG
from repro.symbolic import symbolic_census


class TestBDD:
    def test_terminals_and_vars(self):
        bdd = BDD(3)
        assert bdd.evaluate(bdd.true, (0, 0, 0)) == 1
        assert bdd.evaluate(bdd.false, (1, 1, 1)) == 0
        x0 = bdd.var(0)
        assert bdd.evaluate(x0, (1, 0, 0)) == 1
        assert bdd.evaluate(x0, (0, 0, 0)) == 0
        assert bdd.evaluate(bdd.nvar(1), (0, 0, 0)) == 1

    def test_structural_sharing(self):
        bdd = BDD(2)
        first = bdd.apply_and(bdd.var(0), bdd.var(1))
        second = bdd.apply_and(bdd.var(0), bdd.var(1))
        assert first == second

    def test_boolean_operations_exhaustive(self):
        bdd = BDD(3)
        a, b, c = bdd.var(0), bdd.var(1), bdd.var(2)
        expr = bdd.apply_or(bdd.apply_and(a, bdd.apply_not(b)), bdd.apply_xor(b, c))
        for assignment in itertools.product((0, 1), repeat=3):
            expected = (assignment[0] and not assignment[1]) or (
                assignment[1] != assignment[2]
            )
            assert bdd.evaluate(expr, assignment) == int(expected)

    def test_ite_out_of_range_var(self):
        bdd = BDD(1)
        with pytest.raises(IndexError):
            bdd.var(1)

    def test_cube(self):
        bdd = BDD(3)
        cube = bdd.cube({0: 1, 2: 0})
        assert bdd.evaluate(cube, (1, 0, 0)) == 1
        assert bdd.evaluate(cube, (1, 1, 0)) == 1
        assert bdd.evaluate(cube, (0, 0, 0)) == 0

    def test_restrict(self):
        bdd = BDD(2)
        conj = bdd.apply_and(bdd.var(0), bdd.var(1))
        assert bdd.restrict(conj, 0, 1) == bdd.var(1)
        assert bdd.restrict(conj, 0, 0) == bdd.false

    def test_exists(self):
        bdd = BDD(2)
        conj = bdd.apply_and(bdd.var(0), bdd.var(1))
        assert bdd.exists(conj, [0]) == bdd.var(1)
        assert bdd.exists(conj, [0, 1]) == bdd.true

    def test_count_solutions(self):
        bdd = BDD(3)
        assert bdd.count_solutions(bdd.true) == 8
        assert bdd.count_solutions(bdd.false) == 0
        assert bdd.count_solutions(bdd.var(0)) == 4
        conj = bdd.apply_and(bdd.var(0), bdd.var(2))
        assert bdd.count_solutions(conj) == 2

    def test_satisfying_assignments(self):
        bdd = BDD(2)
        disj = bdd.apply_or(bdd.var(0), bdd.var(1))
        assignments = set(bdd.satisfying_assignments(disj))
        assert assignments == {(0, 1), (1, 0), (1, 1)}

    def test_apply_eq(self):
        bdd = BDD(2)
        eq = bdd.apply_eq(bdd.var(0), bdd.var(1))
        for a, b in itertools.product((0, 1), repeat=2):
            assert bdd.evaluate(eq, (a, b)) == int(a == b)


class TestNewPrimitives:
    def test_support(self):
        bdd = BDD(4)
        expr = bdd.apply_and(bdd.var(0), bdd.apply_or(bdd.var(2), bdd.nvar(3)))
        assert bdd.support(expr) == {0, 2, 3}
        assert bdd.support(bdd.true) == set()
        assert bdd.support(bdd.false) == set()

    def test_rename_shifts_support(self):
        bdd = BDD(6)
        expr = bdd.apply_and(bdd.var(0), bdd.apply_xor(bdd.var(2), bdd.var(4)))
        renamed = bdd.rename(expr, {0: 1, 2: 3, 4: 5})
        assert bdd.support(renamed) == {1, 3, 5}
        for assignment in itertools.product((0, 1), repeat=3):
            full = [0] * 6
            full[1], full[3], full[5] = assignment
            expected = assignment[0] and (assignment[1] != assignment[2])
            assert bdd.evaluate(renamed, full) == int(expected)

    def test_rename_rejects_order_breaking_maps(self):
        bdd = BDD(4)
        expr = bdd.apply_and(bdd.var(0), bdd.var(1))
        with pytest.raises(ValueError):
            bdd.rename(expr, {0: 3, 1: 2})  # swaps the order of the support
        with pytest.raises(ValueError):
            bdd.rename(expr, {1: 9})  # out of range

    def test_rename_identity_and_partial_maps(self):
        bdd = BDD(4)
        expr = bdd.apply_or(bdd.var(1), bdd.var(3))
        assert bdd.rename(expr, {}) == expr
        assert bdd.rename(expr, {1: 1, 3: 3}) == expr

    def test_sat_count_over_subset(self):
        bdd = BDD(6)
        # function over levels {0, 2}; count over the unprimed copy only
        expr = bdd.apply_or(bdd.var(0), bdd.var(2))
        assert bdd.sat_count(expr, [0, 2]) == 3
        assert bdd.sat_count(expr, [0, 2, 4]) == 6
        assert bdd.sat_count(bdd.true, [0, 2, 4]) == 8
        assert bdd.sat_count(bdd.false, [0, 2, 4]) == 0
        with pytest.raises(ValueError):
            bdd.sat_count(expr, [0])  # depends on 2, not counted

    def test_sat_count_matches_count_solutions(self):
        bdd = BDD(4)
        expr = bdd.apply_xor(bdd.var(0), bdd.apply_and(bdd.var(1), bdd.var(3)))
        assert bdd.sat_count(expr, range(4)) == bdd.count_solutions(expr)

    def test_pick_cube(self):
        bdd = BDD(3)
        assert bdd.pick_cube(bdd.false) is None
        assert bdd.pick_cube(bdd.true) == {}
        cube = bdd.pick_cube(bdd.cube({0: 1, 2: 0}))
        assert cube == {0: 1, 2: 0}
        # picked cube always satisfies the function (don't-cares set to 0)
        expr = bdd.apply_and(bdd.var(1), bdd.apply_or(bdd.var(0), bdd.nvar(2)))
        picked = bdd.pick_cube(expr)
        assignment = [picked.get(level, 0) for level in range(3)]
        assert bdd.evaluate(expr, assignment) == 1

    def test_cache_stats_accounting(self):
        bdd = BDD(4)
        base = bdd.cache_stats()
        assert base["hits"] == 0 and base["misses"] == 0
        a = bdd.apply_and(bdd.var(0), bdd.var(1))
        bdd.apply_and(bdd.var(0), bdd.var(1))  # same apply key -> a hit
        b = bdd.ite(bdd.var(2), a, bdd.var(3))
        assert b == bdd.ite(bdd.var(2), a, bdd.var(3))  # same ite key -> a hit
        stats = bdd.cache_stats()
        assert stats["misses"] >= 2
        assert stats["hits"] >= 2
        assert stats["apply_entries"] >= 1
        assert stats["ite_entries"] >= 1
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["families"]["apply"]["hits"] >= 1
        assert stats["families"]["ite"]["hits"] >= 1
        assert a == bdd.apply_and(bdd.var(0), bdd.var(1))

    def test_bounded_cache_flushes_without_changing_results(self):
        bounded = BDD(5, max_cache_entries=4)
        free = BDD(5)

        def build(bdd):
            expr = bdd.false
            for i in range(5):
                expr = bdd.apply_or(expr, bdd.apply_and(bdd.var(i), bdd.nvar((i + 1) % 5)))
            return expr

        bounded_expr = build(bounded)
        free_expr = build(free)
        assert bounded.cache_stats()["flushes"] >= 1
        for assignment in itertools.product((0, 1), repeat=5):
            assert bounded.evaluate(bounded_expr, assignment) == free.evaluate(
                free_expr, assignment
            )

    def test_max_cache_entries_validation(self):
        with pytest.raises(ValueError):
            BDD(2, max_cache_entries=0)

    def test_interleaved_pair_helpers(self):
        unprimed, primed = interleaved_pair_levels(3)
        assert unprimed == [0, 2, 4]
        assert primed == [1, 3, 5]
        assert prime_map(3) == {0: 1, 2: 3, 4: 5}
        assert unprime_map(3) == {1: 0, 3: 2, 5: 4}
        with pytest.raises(ValueError):
            interleaved_pair_levels(-1)

    def test_prime_roundtrip(self):
        bdd = BDD(6)  # 3 interleaved pairs
        expr = bdd.apply_xor(bdd.var(0), bdd.apply_and(bdd.var(2), bdd.var(4)))
        primed = bdd.rename(expr, prime_map(3))
        assert bdd.support(primed) == {1, 3, 5}
        assert bdd.rename(primed, unprime_map(3)) == expr


class TestSymbolicReachability:
    @pytest.mark.parametrize("branches", [2, 3, 4, 6])
    def test_matches_explicit_count_on_parallel_toggles(self, branches):
        stg = gen.parallel_toggles(branches)
        explicit = build_reachability_graph(stg.net).num_markings
        assert symbolic_census(stg).states == explicit

    def test_matches_explicit_count_on_vme(self):
        stg = gen.vme_controller()
        explicit = build_reachability_graph(stg.net).num_markings
        assert symbolic_census(stg).states == explicit

    def test_large_product_state_space(self):
        # 6 independent toggles: 6^6 = 46656 states, far beyond what the
        # explicit tests enumerate, but exactly computable symbolically.
        stg = gen.independent_toggles(6)
        assert symbolic_census(stg).states == 6 ** 6

    def test_weighted_arcs_rejected(self):
        stg = STG("weighted")
        stg.add_output("a")
        stg.add_place("p", 1)
        stg.add_transition("a+")
        stg.net.add_arc("p", "a+", weight=2)
        with pytest.raises(ValueError, match="unit arc weights"):
            symbolic_census(stg)
