"""Tests for the baseline encoders and the benchmark generators/library."""

import dataclasses

import pytest

from repro.baselines import solve_csc_assassin
from repro.baselines.assassin import assassin_settings
from repro.bench_stg import generators as gen
from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES, benchmark_names, get_case, load_benchmark
from repro.core import SolverSettings, csc_conflicts, has_csc, solve_csc
from repro.stg import build_state_graph


class TestBaselines:
    def test_settings_restrict_brick_mode(self):
        assert assassin_settings().search.brick_mode == "excitation"
        base = SolverSettings(require_progress=False, kernel="bigint")
        states = dataclasses.replace(
            base, search=dataclasses.replace(base.search, brick_mode="states")
        )
        assert states.search.brick_mode == "states"
        assert dataclasses.replace(states, search=base.search) == base

    def test_assassin_solves_vme(self, vme_sg):
        result = solve_csc_assassin(vme_sg)
        assert result.solved
        assert has_csc(result.final_sg)

    def test_state_bricks_solve_vme(self, vme_sg):
        settings = SolverSettings()
        settings = dataclasses.replace(
            settings, search=dataclasses.replace(settings.search, brick_mode="states")
        )
        result = solve_csc(vme_sg, settings)
        assert result.solved

    def test_region_method_explores_no_worse_cost(self, sequencer2_sg):
        """The region-based search space is a superset of the ER-based one,
        so (with equal budgets) its solution is never worse in literal terms
        of remaining conflicts."""
        from repro.core import solve_csc

        region = solve_csc(sequencer2_sg)
        assassin = solve_csc_assassin(sequencer2_sg)
        assert region.conflicts_remaining <= assassin.conflicts_remaining


class TestGenerators:
    @pytest.mark.parametrize(
        "stg",
        [
            gen.vme_controller(),
            gen.toggle_element(),
            gen.duplicator_element(),
            gen.sequencer(3),
            gen.parallel_toggles(3),
            gen.independent_toggles(2),
            gen.ripple_counter(2),
            gen.handshake_wire_chain(3),
            gen.mixed_controller(1, 2),
            gen.mixed_controller(2, 0),
        ],
        ids=lambda s: s.name,
    )
    def test_generated_stgs_are_safe_and_consistent(self, stg):
        sg = build_state_graph(stg)
        assert sg.is_consistent()
        assert sg.is_deterministic()
        assert sg.is_output_persistent()

    def test_generators_with_conflicts(self):
        for stg in (gen.vme_controller(), gen.sequencer(2), gen.toggle_element()):
            sg = build_state_graph(stg)
            assert csc_conflicts(sg), f"{stg.name} should have CSC conflicts"

    def test_wire_chain_has_no_conflicts(self):
        sg = build_state_graph(gen.handshake_wire_chain(4))
        assert not csc_conflicts(sg)

    def test_parallel_toggles_state_growth(self):
        small = build_state_graph(gen.parallel_toggles(2)).num_states
        large = build_state_graph(gen.parallel_toggles(4)).num_states
        assert large > 2 * small

    def test_ripple_counter_period(self):
        sg = build_state_graph(gen.ripple_counter(2))
        assert sg.num_states == 14  # 4 cycles of a + 6 output toggles

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen.sequencer(0)
        with pytest.raises(ValueError):
            gen.parallel_toggles(0)
        with pytest.raises(ValueError):
            gen.mixed_controller(0, 0)
        with pytest.raises(ValueError):
            gen.ripple_counter(0)


class TestLibrary:
    def test_table2_has_24_rows(self):
        assert len(TABLE2_CASES) == 24
        assert len(benchmark_names("table2")) == 24

    def test_table1_rows(self):
        assert len(TABLE1_CASES) == 12
        names = benchmark_names("table1")
        assert "par16" in names and "pipe16" in names
        assert "pipe24" in names and "pipeline12" in names
        # the explicitly-infeasible rows are flagged for the symbolic tier
        infeasible = {case.name for case in TABLE1_CASES if not case.explicit_ok}
        assert {"par16", "par24", "pipe8", "pipe16", "pipe24", "pipeline8", "pipeline12"} == infeasible

    def test_load_benchmark(self):
        stg = load_benchmark("vme2int")
        assert stg.name == "vme2int"
        assert len(stg.signals) == 5

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            load_benchmark("nonexistent")

    def test_case_solver_settings_mode(self):
        strict_case = get_case("vme2int")
        relaxed_case = get_case("mod4-counter")
        assert strict_case.solver_settings().search.allow_input_delay is False
        assert relaxed_case.solver_settings().search.allow_input_delay is True

    def test_every_table2_case_builds_and_elaborates(self):
        for case in TABLE2_CASES:
            stg = case.build()
            sg = build_state_graph(stg, max_states=5000)
            assert sg.is_consistent(), case.name
            assert sg.num_states > 2
