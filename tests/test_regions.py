"""Tests for regions, excitation regions and bricks (Section 2.2)."""

from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.bench_stg import generators as gen
from repro.core import (
    all_minimal_regions,
    brick_adjacency,
    compute_bricks,
    crossing,
    excitation_regions,
    is_region,
    is_trivial_region,
    minimal_postregions,
    minimal_preregions,
)
from repro.core.excitation import switching_regions, trigger_events
from repro.ts import TransitionSystem


def toggle_cycle_ts() -> TransitionSystem:
    """The 6-state cycle of the toggle element with plain string labels."""
    return TransitionSystem.from_triples(
        [
            ("s0", "a+", "s1"),
            ("s1", "b+", "s2"),
            ("s2", "a-", "s3"),
            ("s3", "a+", "s4"),
            ("s4", "b-", "s5"),
            ("s5", "a-", "s0"),
        ],
        initial="s0",
    )


class TestCrossingAndRegions:
    def test_paper_example_region(self, fig1_ts):
        """The paper's r3 example: a set entered by every a-transition and
        exited by every c-transition is a region (adapted to our fig1
        naming: the states where a has fired and c has not)."""
        region = {"s2", "s4", "s6", "s8"}
        assert is_region(fig1_ts, region)
        relation = crossing(fig1_ts, region, "a")
        assert relation.enters
        assert crossing(fig1_ts, region, "c").exits

    def test_paper_counterexample(self, fig1_ts):
        # {s2, s6}-style subsets are not regions: one b-transition enters,
        # another does not.
        assert not is_region(fig1_ts, {"s2", "s6"})

    def test_trivial_regions(self, fig1_ts):
        assert is_region(fig1_ts, set())
        assert is_region(fig1_ts, set(fig1_ts.states))
        assert is_trivial_region(fig1_ts, set())
        assert is_trivial_region(fig1_ts, set(fig1_ts.states))
        assert not is_trivial_region(fig1_ts, {"s1"})

    def test_crossing_classification(self):
        ts = toggle_cycle_ts()
        relation = crossing(ts, {"s1", "s2", "s4", "s5"}, "a+")
        assert relation.enters and relation.is_legal
        relation = crossing(ts, {"s1", "s2", "s4", "s5"}, "a-")
        assert relation.exits
        relation = crossing(ts, {"s1", "s2", "s4", "s5"}, "b+")
        assert relation.does_not_cross and relation.inside == 1

    def test_signal_value_sets_are_regions(self):
        ts = toggle_cycle_ts()
        assert is_region(ts, {"s1", "s2", "s4", "s5"})  # a = 1
        assert is_region(ts, {"s0", "s3"})  # a = 0
        assert is_region(ts, {"s2", "s3", "s4"})  # b = 1
        assert is_region(ts, {"s5", "s0", "s1"})  # b = 0
        assert not is_region(ts, {"s1", "s2", "s3"})

    def test_complement_of_region_is_region(self):
        ts = toggle_cycle_ts()
        region = {"s2", "s3", "s4"}
        complement = set(ts.states) - region
        assert is_region(ts, region) and is_region(ts, complement)


class TestMinimalRegions:
    def test_preregions_contain_all_sources(self):
        ts = toggle_cycle_ts()
        for event in ts.events:
            sources = {s for s, _t in ts.transitions_of(event)}
            for region in minimal_preregions(ts, event):
                assert sources <= region
                assert crossing(ts, region, event).exits

    def test_postregions_contain_all_targets(self):
        ts = toggle_cycle_ts()
        for event in ts.events:
            targets = {t for _s, t in ts.transitions_of(event)}
            for region in minimal_postregions(ts, event):
                assert targets <= region
                assert crossing(ts, region, event).enters

    def test_toggle_preregions(self):
        ts = toggle_cycle_ts()
        pre_b_plus = minimal_preregions(ts, "b+")
        assert frozenset({"s5", "s0", "s1"}) in pre_b_plus

    def test_all_minimal_regions_are_regions_and_minimal(self):
        ts = toggle_cycle_ts()
        regions = all_minimal_regions(ts)
        assert regions
        for region in regions:
            assert is_region(ts, region)
        for first in regions:
            for second in regions:
                assert not (first < second)

    def test_fig1_minimal_regions_cover_pn_places(self, fig1_ts):
        regions = all_minimal_regions(fig1_ts)
        # The Petri net of Figure 1(b) has places; every one corresponds to
        # a minimal region, and there are at least as many regions.
        assert len(regions) >= 4


class TestExcitationRegions:
    def test_two_excitation_regions_for_a(self, fig1_ts):
        ers = excitation_regions(fig1_ts, "a")
        assert len(ers) == 2
        assert frozenset({"s1", "s3"}) in ers or any("s1" in er for er in ers)

    def test_switching_regions(self, fig1_ts):
        srs = switching_regions(fig1_ts, "c")
        assert len(srs) == 1 and frozenset({"s5"}) in srs

    def test_trigger_events(self):
        ts = toggle_cycle_ts()
        triggers = trigger_events(ts, frozenset({"s1"}))
        assert triggers == {"a+"}


class TestBricks:
    def test_region_bricks_include_excitation_regions(self):
        ts = toggle_cycle_ts()
        bricks = compute_bricks(ts, mode="regions")
        assert frozenset({"s1"}) in bricks  # ER(b+)
        for brick in bricks:
            assert brick  # non-empty

    def test_excitation_mode_is_coarser_or_equal(self):
        ts = toggle_cycle_ts()
        regions_mode = compute_bricks(ts, mode="regions")
        er_mode = compute_bricks(ts, mode="excitation")
        assert set(er_mode) <= set(regions_mode) or len(er_mode) <= len(regions_mode)

    def test_states_mode(self):
        ts = toggle_cycle_ts()
        bricks = compute_bricks(ts, mode="states")
        assert len(bricks) == ts.num_states
        assert all(len(b) == 1 for b in bricks)

    def test_unknown_mode(self):
        import pytest

        with pytest.raises(ValueError):
            compute_bricks(toggle_cycle_ts(), mode="bogus")

    def test_adjacency_symmetric(self):
        ts = toggle_cycle_ts()
        bricks = compute_bricks(ts, mode="states")
        adjacency = brick_adjacency(ts, bricks)
        for i, neighbours in adjacency.items():
            for j in neighbours:
                assert i in adjacency[j]


# ----------------------------------------------------------------------
# mask-skipping region expansion vs the per-arc-only reference
# ----------------------------------------------------------------------
def _assert_expansions_match_reference(sg) -> None:
    """From the ER and SR seed of every event: the same minimal regions in
    the same order, the same candidate sets visited (counted through the
    engine statistics), and the budget exceeded at the same
    ``max_explored``."""
    import pytest
    from references import reference_region_masks_containing

    from repro.core.indexed import indexed_state_graph
    from repro.core.regions import (
        RegionSearchBudgetExceeded,
        minimal_region_masks_containing,
    )
    from repro.engine.caches import STATS

    isg = indexed_state_graph(sg)
    for event in isg.event_list:
        for seed in (isg.er_mask(event), isg.sr_mask(event)):
            expected, explored, arc_calls = reference_region_masks_containing(isg, seed)
            before = STATS.snapshot()
            assert minimal_region_masks_containing(isg, seed) == expected
            after = STATS.snapshot()
            assert after["region_explored"] - before["region_explored"] == explored
            assert after["region_arc_scans"] - before["region_arc_scans"] <= arc_calls
            assert minimal_region_masks_containing(isg, seed, max_explored=explored) == expected
            if explored > 1:
                for search in (minimal_region_masks_containing, reference_region_masks_containing):
                    with pytest.raises(RegionSearchBudgetExceeded):
                        search(isg, seed, max_explored=explored - 1)


class TestRegionExpansionMatchesPerArcReference:
    def test_library_rows(self):
        """Every enumerable library row of both tables."""
        from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES
        from repro.stg.state_graph import build_state_graph

        for case in TABLE2_CASES + [case for case in TABLE1_CASES if case.explicit_ok]:
            _assert_expansions_match_reference(build_state_graph(case.build()))


_RANDOM_STGS = st.one_of(
    st.integers(min_value=2, max_value=5).map(gen.sequencer),
    st.tuples(st.integers(0, 2), st.integers(1, 3)).map(
        lambda sizes: gen.mixed_controller(*sizes)
    ),
    st.integers(min_value=1, max_value=3).map(gen.parallel_toggles),
    st.integers(min_value=2, max_value=3).map(gen.ripple_counter),
    st.integers(min_value=1, max_value=2).map(gen.pipeline),
    st.integers(min_value=1, max_value=3).map(gen.handshake_wire_chain),
)


@hsettings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_RANDOM_STGS)
def test_random_stg_expansions_match_per_arc_reference(stg):
    from repro.stg.state_graph import build_state_graph

    _assert_expansions_match_reference(build_state_graph(stg, max_states=5000))
