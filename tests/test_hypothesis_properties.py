"""Property-based tests (hypothesis) for the core data structures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.core.regions import crossing, is_region
from repro.logic.cubes import Cube
from repro.logic.minimize import minimize_cover, verify_cover
from repro.stg.signals import FALL, RISE, SignalEdge
from repro.ts import TransitionSystem, is_deterministic
from repro.utils.ordered import OrderedSet


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_transition_systems(draw):
    """Random deterministic transition systems with <= 8 states."""
    num_states = draw(st.integers(min_value=2, max_value=8))
    num_events = draw(st.integers(min_value=1, max_value=4))
    states = [f"s{i}" for i in range(num_states)]
    events = [chr(ord("a") + i) for i in range(num_events)]
    ts = TransitionSystem("random")
    for state in states:
        ts.add_state(state)
    ts.set_initial(states[0])
    # deterministic: at most one target per (state, event)
    for state in states:
        for event in events:
            if draw(st.booleans()):
                target = draw(st.sampled_from(states))
                ts.add_transition(state, event, target)
    return ts


@st.composite
def minterm_partition(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    all_minterms = []
    for value in range(2 ** width):
        all_minterms.append(tuple((value >> i) & 1 for i in range(width)))
    labels = draw(
        st.lists(st.sampled_from(["on", "off", "dc"]), min_size=len(all_minterms), max_size=len(all_minterms))
    )
    on = [m for m, lab in zip(all_minterms, labels) if lab == "on"]
    off = [m for m, lab in zip(all_minterms, labels) if lab == "off"]
    return width, on, off


# ----------------------------------------------------------------------
# region properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(small_transition_systems(), st.sets(st.integers(min_value=0, max_value=7)))
def test_complement_of_region_is_region(ts, index_subset):
    states = ts.states
    subset = {states[i] for i in index_subset if i < len(states)}
    if is_region(ts, subset):
        complement = set(states) - subset
        assert is_region(ts, complement)


@settings(max_examples=60, deadline=None)
@given(small_transition_systems())
def test_trivial_sets_are_regions_and_ts_deterministic(ts):
    assert is_region(ts, set())
    assert is_region(ts, set(ts.states))
    assert is_deterministic(ts)


@settings(max_examples=60, deadline=None)
@given(small_transition_systems(), st.sets(st.integers(min_value=0, max_value=7)))
def test_crossing_counts_partition_event_transitions(ts, index_subset):
    states = ts.states
    subset = {states[i] for i in index_subset if i < len(states)}
    for event in ts.events:
        relation = crossing(ts, subset, event)
        total = relation.enter + relation.exit + relation.inside + relation.outside
        assert total == len(ts.transitions_of(event))


# ----------------------------------------------------------------------
# logic minimiser properties
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(minterm_partition())
def test_minimized_cover_is_correct(partition):
    width, on, off = partition
    cover = minimize_cover(on, off, width)
    assert verify_cover(cover, on, off) == []


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_cube_expansion_monotone(width, data):
    minterm = tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(width))
    cube = Cube.from_minterm(minterm)
    position = data.draw(st.integers(min_value=0, max_value=width - 1))
    expanded = cube.without_literal(position)
    assert expanded.contains_cube(cube)
    assert expanded.literal_count() <= cube.literal_count()


# ----------------------------------------------------------------------
# BDD properties
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_bdd_matches_truth_table(num_vars, data):
    bdd = BDD(num_vars)
    truth = [data.draw(st.booleans()) for _ in range(2 ** num_vars)]
    function = bdd.false
    for value, bit in enumerate(truth):
        if bit:
            assignment = {i: (value >> i) & 1 for i in range(num_vars)}
            function = bdd.apply_or(function, bdd.cube(assignment))
    for value, bit in enumerate(truth):
        assignment = tuple((value >> i) & 1 for i in range(num_vars))
        assert bdd.evaluate(function, assignment) == int(bit)
    assert bdd.count_solutions(function) == sum(truth)


# ----------------------------------------------------------------------
# misc data structures
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5)))
def test_ordered_set_behaves_like_set(items):
    ordered = OrderedSet(items)
    assert set(ordered) == set(items)
    assert len(ordered) == len(set(items))


def _reference_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def bit_masks(draw):
    """Masks up to 4,096 bits wide, from a few members to nearly full."""
    width = draw(st.integers(min_value=1, max_value=4096))
    density = draw(st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99]))
    rng = draw(st.randoms(use_true_random=False))
    mask = 0
    for i in range(width):
        if rng.random() < density:
            mask |= 1 << i
    return mask


@pytest.mark.parametrize(
    "mask", [0, 1 << 0, 1 << 59, 1 << 60, 1 << 63, 1 << 64, 1 << 127, (1 << 4096) - 1]
)
def test_bits_of_edge_masks_match_per_bit_walk(mask):
    from repro.core.indexed import bits_of

    assert bits_of(mask) == _reference_bits(mask)


@settings(max_examples=150, deadline=None)
@given(bit_masks())
def test_bits_of_matches_per_bit_walk(mask):
    from repro.core.indexed import bits_of

    assert bits_of(mask) == _reference_bits(mask)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6),
       st.sampled_from([RISE, FALL]),
       st.integers(min_value=0, max_value=9))
def test_signal_edge_parse_format_roundtrip(signal, direction, index):
    edge = SignalEdge(signal, direction, index)
    assert SignalEdge.parse(str(edge)) == edge


# ----------------------------------------------------------------------
# evaluation-kernel properties: planes, big-int and the eager reference
# ----------------------------------------------------------------------
_KERNEL_CACHE = {}


def _candidate_kernels():
    """The big-int oracle kernel and the numpy plane kernel over the VME
    controller's state graph and its real CSC conflict set (cached: the
    state graph is deterministic, hypothesis only varies the masks)."""
    if "kernels" not in _KERNEL_CACHE:
        from repro.bench_stg import generators as gen
        from repro.core.csc import csc_conflicts
        from repro.core.indexed import IndexedEvaluator
        from repro.stg.state_graph import build_state_graph

        sg = build_state_graph(gen.vme_controller())
        conflicts = csc_conflicts(sg)

        def kernel(impl):
            return IndexedEvaluator(
                sg, conflicts, allow_input_delay=False, kernel_impl=impl
            ).kernel

        _KERNEL_CACHE["kernels"] = (kernel("bigint"), kernel("planes"))
    return _KERNEL_CACHE["kernels"]


def _random_masks(data, num_states):
    batch_size = data.draw(st.integers(min_value=1, max_value=70))
    return [
        data.draw(st.integers(min_value=0, max_value=(1 << num_states) - 1))
        for _ in range(batch_size)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plane_kernels_match_bigint_oracle(data):
    pytest.importorskip("numpy")
    bigint, planes = _candidate_kernels()
    masks = _random_masks(data, bigint.num_states)
    costs, passes = planes.batch_kernel().cost_batch(masks)
    assert costs == bigint.cost_batch(masks)[0]
    assert passes == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bigint_kernel_matches_eager_reference(data):
    """The big-int kernel's batch costs and on-demand side tables are
    those of the eager evaluation the search used to run per candidate."""
    from references import reference_block_evaluation

    bigint, _planes = _candidate_kernels()
    masks = _random_masks(data, bigint.num_states)
    costs, _passes = bigint.cost_batch(masks)
    for mask, cost in zip(masks, costs):
        reference = reference_block_evaluation(bigint, mask)
        side = bigint.side_table(mask)
        if reference is None:
            assert cost is None and side is None
        else:
            assert (bytes(side), cost) == reference


# ----------------------------------------------------------------------
# BDD sifting properties: reordering never changes the function
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_sifting_preserves_functions(num_vars, data):
    bdd = BDD(num_vars)
    functions = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        function = bdd.false
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            cube = {
                var: data.draw(st.integers(min_value=0, max_value=1))
                for var in data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=num_vars - 1), min_size=1
                    )
                )
            }
            function = bdd.apply_or(function, bdd.cube(cube))
        functions.append(function)
    before = [bdd.count_solutions(f) for f in functions]
    probes = [
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(num_vars))
        for _ in range(4)
    ]
    before_probes = [[bdd.evaluate(f, p) for p in probes] for f in functions]
    before_restrict = [bdd.restrict(f, 0, 1) for f in functions]

    bdd.reorder()  # full sifting over single-variable blocks

    assert [bdd.count_solutions(f) for f in functions] == before
    assert [[bdd.evaluate(f, p) for p in probes] for f in functions] == before_probes
    # restrict results are node ids; recomputing them after the reorder
    # must land on nodes denoting the same functions
    for function, old_restrict in zip(functions, before_restrict):
        new_restrict = bdd.restrict(function, 0, 1)
        assert bdd.apply_xor(new_restrict, old_restrict) == bdd.false
    assert sorted(bdd.var_order()) == list(range(num_vars))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_grouped_sifting_preserves_pair_relations(num_pairs, data):
    """Sifting interleaved (unprimed, primed) blocks — the solver's
    grouping — keeps relational sat-counts over both copies intact."""
    bdd = BDD(2 * num_pairs)
    relation = bdd.true
    for pair in range(num_pairs):
        if data.draw(st.booleans()):
            clause = bdd.apply_eq(bdd.var(2 * pair), bdd.var(2 * pair + 1))
        else:
            clause = bdd.apply_or(bdd.var(2 * pair), bdd.nvar(2 * pair + 1))
        relation = bdd.apply_and(relation, clause)
    levels = list(range(2 * num_pairs))
    before = bdd.sat_count(relation, levels)
    groups = [(2 * k, 2 * k + 1) for k in range(num_pairs)]
    bdd.reorder(groups=groups)
    assert bdd.sat_count(relation, levels) == before
