"""Tests for cubes, the two-level minimiser and next-state extraction."""

import itertools
import random
from typing import Iterable, List, Sequence, Set, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import solve_csc
from repro.logic import (
    CSCViolationError,
    Cube,
    estimate_circuit,
    expand_cube,
    extract_next_state_function,
    minimize_cover,
    trigger_signal_count,
    trigger_signals,
)
from repro.logic.cubes import Cover
from repro.logic.minimize import verify_cover
from repro.logic.nextstate import classify_codes, extract_all_functions

# -- reference minimiser ---------------------------------------------------
# The per-minterm expand / greedy loop the bit-sliced minimiser replaced,
# kept verbatim (only the names carry a ``reference_`` prefix).  The
# differential tests below require identical cubes in identical order.

Minterm = Tuple[int, ...]


def reference_pack(minterm: Sequence[int]) -> int:
    packed = 0
    for position, bit in enumerate(minterm):
        if bit:
            packed |= 1 << position
    return packed


def reference_cube_hits_offset(cube: Cube, packed_offset: Sequence[int]) -> bool:
    care = cube.care
    value = cube.value
    for packed in packed_offset:
        if (packed & care) == value:
            return True
    return False


def reference_expand_cube(cube: Cube, packed_offset: Sequence[int], order: Sequence[int]) -> Cube:
    """Drop literals of ``cube`` (in ``order``) while avoiding the OFF set."""
    current = cube
    for position in order:
        if current.literal(position) == "-":
            continue
        candidate = current.without_literal(position)
        if not reference_cube_hits_offset(candidate, packed_offset):
            current = candidate
    return current


def reference_literal_order(width: int, on_packed: Sequence[int], off_packed: Sequence[int]) -> List[int]:
    """Variable order for expansion: try to drop the least useful literals
    first (those that exclude the fewest OFF minterms)."""
    scores = []
    for position in range(width):
        mask = 1 << position
        ones = sum(1 for packed in off_packed if packed & mask)
        zeros = len(off_packed) - ones
        # A variable that splits the OFF set evenly is "useful"; one whose
        # OFF minterms are all on one side is cheap to drop.
        scores.append((min(ones, zeros), position))
    scores.sort()
    return [position for _score, position in scores]


def reference_minimize_cover(
    on_set: Iterable[Minterm],
    off_set: Iterable[Minterm],
    width: int,
) -> Cover:
    """Compute a small cover of ``on_set`` that avoids ``off_set``.

    Everything outside both sets is treated as don't care.  Raises
    ``ValueError`` when the two sets overlap (the caller should have
    resolved CSC first).
    """
    on_list = [tuple(minterm) for minterm in on_set]
    off_list = [tuple(minterm) for minterm in off_set]
    on_packed = [reference_pack(m) for m in on_list]
    off_packed = [reference_pack(m) for m in off_list]

    overlap = set(on_packed) & set(off_packed)
    if overlap:
        raise ValueError(
            f"ON and OFF sets overlap on {len(overlap)} minterms; the function is ill-defined"
        )
    if not on_list:
        return Cover(width)

    order = reference_literal_order(width, on_packed, off_packed)

    # Expand one cube per ON minterm, deduplicating as we go.
    expanded: List[Cube] = []
    seen: Set[Tuple[int, int]] = set()
    for minterm in on_list:
        cube = reference_expand_cube(Cube.from_minterm(minterm), off_packed, order)
        key = (cube.care, cube.value)
        if key not in seen:
            seen.add(key)
            expanded.append(cube)

    # Greedy irredundant cover of the ON minterms.
    remaining: Set[int] = set(range(len(on_list)))
    coverage: List[Set[int]] = []
    for cube in expanded:
        covered = {
            index
            for index, packed in enumerate(on_packed)
            if (packed & cube.care) == cube.value
        }
        coverage.append(covered)

    chosen: List[Cube] = []
    while remaining:
        best_index = -1
        best_gain = -1
        best_literals = 0
        for index, covered in enumerate(coverage):
            gain = len(covered & remaining)
            if gain == 0:
                continue
            literals = expanded[index].literal_count()
            if gain > best_gain or (gain == best_gain and literals < best_literals):
                best_index = index
                best_gain = gain
                best_literals = literals
        if best_index < 0:  # pragma: no cover - defensive, cannot happen
            raise RuntimeError("greedy cover failed to make progress")
        chosen.append(expanded[best_index])
        remaining -= coverage[best_index]

    return Cover(width, chosen)


def _cube_keys(cover: Cover) -> List[Tuple[int, int]]:
    return [(cube.care, cube.value) for cube in cover]


def _assert_matches_reference(on: List[Minterm], off: List[Minterm], width: int) -> None:
    """Cover and per-minterm expansion equal the reference, in order."""
    assert _cube_keys(minimize_cover(on, off, width)) == _cube_keys(
        reference_minimize_cover(on, off, width)
    )
    off_packed = [reference_pack(m) for m in off]
    order = reference_literal_order(width, [], off_packed)
    for minterm in on:
        seed = Cube.from_minterm(minterm)
        assert expand_cube(seed, off_packed, order) == reference_expand_cube(seed, off_packed, order)


class TestCube:
    def test_from_minterm_and_string(self):
        assert Cube.from_minterm((1, 0, 1)).to_string() == "101"
        assert Cube.from_string("1-0").literal_count() == 2
        assert Cube.full(3).literal_count() == 0

    def test_contains_minterm(self):
        cube = Cube.from_string("1-0")
        assert cube.contains_minterm((1, 0, 0))
        assert cube.contains_minterm((1, 1, 0))
        assert not cube.contains_minterm((0, 1, 0))

    def test_contains_cube(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("1-0")
        assert big.contains_cube(small)
        assert not small.contains_cube(big)

    def test_intersects(self):
        assert Cube.from_string("1-").intersects(Cube.from_string("-0"))
        assert not Cube.from_string("1-").intersects(Cube.from_string("0-"))

    def test_without_literal(self):
        cube = Cube.from_string("10")
        assert cube.without_literal(1).to_string() == "1-"

    def test_expression(self):
        cube = Cube.from_string("1-0")
        assert cube.to_expression(["x", "y", "z"]) == "x & !z"
        assert Cube.full(2).to_expression(["x", "y"]) == "1"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Cube.from_minterm((2,))
        with pytest.raises(ValueError):
            Cube.from_string("1x")
        with pytest.raises(ValueError):
            Cube(1, care=2, value=0)

    def test_cover_literal_count_and_expression(self):
        cover = Cover(2, [Cube.from_string("1-"), Cube.from_string("01")])
        assert cover.literal_count() == 3
        assert "|" in cover.to_expression(["a", "b"])


class TestMinimize:
    def test_single_variable_function(self):
        on = [(1, 0), (1, 1)]
        off = [(0, 0), (0, 1)]
        cover = minimize_cover(on, off, width=2)
        assert verify_cover(cover, on, off) == []
        assert cover.literal_count() == 1  # just "a"

    def test_dont_cares_exploited(self):
        # f = 1 on 11, 0 on 00, everything else don't care: one literal is enough.
        cover = minimize_cover([(1, 1)], [(0, 0)], width=2)
        assert verify_cover(cover, [(1, 1)], [(0, 0)]) == []
        assert cover.literal_count() == 1

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            minimize_cover([(1, 0)], [(1, 0)], width=2)

    def test_empty_on_set(self):
        cover = minimize_cover([], [(0, 0)], width=2)
        assert len(cover) == 0
        assert not cover.contains_minterm((0, 0))

    def test_xor_like_function_needs_two_cubes(self):
        on = [(0, 1), (1, 0)]
        off = [(0, 0), (1, 1)]
        cover = minimize_cover(on, off, width=2)
        assert verify_cover(cover, on, off) == []
        assert len(cover) == 2

    def test_constant_one_function(self):
        # ON everywhere: a single full cube with zero literals.
        on = list(itertools.product((0, 1), repeat=3))
        cover = minimize_cover(on, [], width=3)
        assert verify_cover(cover, on, []) == []
        assert cover.literal_count() == 0
        assert all(cover.contains_minterm(m) for m in on)

    def test_constant_zero_function(self):
        # OFF everywhere: the empty cover.
        off = list(itertools.product((0, 1), repeat=3))
        cover = minimize_cover([], off, width=3)
        assert len(cover) == 0
        assert not any(cover.contains_minterm(m) for m in off)

    @pytest.mark.parametrize("minterm", [(0, 0, 0), (1, 0, 1), (1, 1, 1)])
    def test_single_minterm_on_set(self, minterm):
        # One ON minterm against a fully specified OFF set needs one
        # cube with all literals present.
        off = [m for m in itertools.product((0, 1), repeat=3) if m != minterm]
        cover = minimize_cover([minterm], off, width=3)
        assert verify_cover(cover, [minterm], off) == []
        assert len(cover) == 1
        assert cover.literal_count() == 3

    @given(
        assignment=st.lists(
            st.sampled_from(["on", "off", "dc"]), min_size=16, max_size=16
        )
    )
    def test_cover_property(self, assignment):
        # Property: for any ON/OFF/DC partition, the minimised cover
        # contains every ON minterm and no OFF minterm.
        on, off = [], []
        for minterm, bucket in zip(itertools.product((0, 1), repeat=4), assignment):
            if bucket == "on":
                on.append(minterm)
            elif bucket == "off":
                off.append(minterm)
        cover = minimize_cover(on, off, width=4)
        assert all(cover.contains_minterm(m) for m in on)
        assert not any(cover.contains_minterm(m) for m in off)

    @pytest.mark.parametrize(
        "on, off, message",
        [
            ([(1, 0)], [(2, 0)], r"OFF minterm \(2, 0\)"),
            ([(1, 0)], [(0, 1, 1)], r"OFF minterm \(0, 1, 1\)"),
            ([(1, 0, 1)], [(0, 0)], r"ON minterm \(1, 0, 1\)"),
        ],
        ids=["off_entry_2", "off_too_long", "on_wrong_width"],
    )
    def test_malformed_minterms_rejected(self, on, off, message):
        with pytest.raises(ValueError, match=message):
            minimize_cover(on, off, width=2)

    @pytest.mark.parametrize("width", [3, 4])
    def test_random_like_exhaustive_correctness(self, width):
        # Deterministic pseudo-random partition of the cube into ON/OFF/DC.
        on, off = [], []
        for i, minterm in enumerate(itertools.product((0, 1), repeat=width)):
            bucket = (i * 7 + 3) % 3
            if bucket == 0:
                on.append(minterm)
            elif bucket == 1:
                off.append(minterm)
        cover = minimize_cover(on, off, width)
        assert verify_cover(cover, on, off) == []


@st.composite
def _partitions(draw):
    """An ON/OFF/DC partition of the ``width``-cube, in a drawn order.

    The weights reach 0, so empty ON and empty OFF sets occur; ON may
    repeat a minterm (the minimiser treats every list entry as one ON
    index).
    """
    width = draw(st.integers(min_value=0, max_value=9))
    on_weight = draw(st.sampled_from([0, 1, 2, 4]))
    off_weight = draw(st.sampled_from([0, 1, 2, 4]))
    dc_weight = draw(st.sampled_from([0, 1, 4]))
    if not (on_weight or off_weight or dc_weight):
        dc_weight = 1
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    on, off = [], []
    for minterm in itertools.product((0, 1), repeat=width):
        bucket = rng.choices((on, off, None), weights=(on_weight, off_weight, dc_weight))[0]
        if bucket is not None:
            bucket.append(minterm)
    rng.shuffle(on)
    rng.shuffle(off)
    if on and draw(st.booleans()):
        on.extend(rng.sample(on, min(len(on), 3)))
    return on, off, width


class TestMinimizeMatchesReference:
    """The bit-sliced minimiser returns the reference loop's cubes."""

    @given(_partitions())
    def test_random_partitions(self, partition):
        _assert_matches_reference(*partition)

    @given(
        partition=_partitions(),
        cube_seed=st.integers(min_value=0, max_value=2**32 - 1),
        order=st.lists(st.integers(min_value=0, max_value=10), max_size=14),
    )
    def test_expand_cube_with_dont_cares_and_any_order(self, partition, cube_seed, order):
        # Arbitrary orders (positions missing, repeated or beyond the
        # width) on a random seed cube with don't cares and on the ON
        # minterms, which are disjoint from the OFF set.
        on, off, width = partition
        rng = random.Random(cube_seed)
        care = rng.getrandbits(width) if width else 0
        value = care & (rng.getrandbits(width) if width else 0)
        seeds = [Cube(width, care, value)] + [Cube.from_minterm(m) for m in on[:8]]
        off_packed = [reference_pack(m) for m in off]
        for cube in seeds:
            assert expand_cube(cube, off_packed, order) == reference_expand_cube(
                cube, off_packed, order
            )

    def test_every_table2_next_state_function(self):
        from repro.bench_stg.library import TABLE2_CASES
        from repro.stg.state_graph import build_state_graph

        functions = 0
        for case in TABLE2_CASES:
            result = solve_csc(build_state_graph(case.build()), case.solver_settings())
            if not result.solved:
                continue
            sg = result.final_sg
            for signal in sg.non_input_signals:
                on, off = classify_codes(sg, signal)
                _assert_matches_reference(on, off, len(sg.signals))
                functions += 1
        assert functions >= 90


class TestNextState:
    def test_requires_csc(self, vme_sg):
        with pytest.raises(CSCViolationError):
            extract_next_state_function(vme_sg, "d")

    def test_input_signal_rejected(self, vme_sg):
        with pytest.raises(ValueError):
            extract_next_state_function(vme_sg, "dsr")

    def test_unknown_signal(self, vme_sg):
        with pytest.raises(KeyError):
            extract_next_state_function(vme_sg, "ghost")

    def test_functions_after_solving(self, vme_sg):
        result = solve_csc(vme_sg)
        functions = extract_all_functions(result.final_sg)
        assert set(functions) == set(result.final_sg.non_input_signals)
        for function in functions.values():
            assert verify_cover(function.cover, function.on_set, function.off_set) == []
            assert function.literal_count > 0

    def test_function_matches_next_value_semantics(self, vme_sg):
        result = solve_csc(vme_sg)
        sg = result.final_sg
        function = extract_next_state_function(sg, "lds")
        for state in sg.states:
            assert function.evaluate(sg.code(state)) == sg.next_value(state, "lds")


class TestCircuitEstimate:
    def test_estimate_fields(self, vme_sg):
        result = solve_csc(vme_sg)
        estimate = estimate_circuit(result.final_sg)
        assert estimate.total_literals > 0
        assert estimate.total_cubes > 0
        assert estimate.total_triggers > 0
        row = estimate.table_row()
        assert row["literals"] == estimate.total_literals
        assert row["signals"] == len(result.final_sg.non_input_signals)

    def test_trigger_signal_count(self, vme_sg):
        assert trigger_signal_count(vme_sg, "lds") >= 1

    def test_trigger_signals_shared_by_estimate_and_synthesis(self, vme_sg):
        from repro.synth import synthesize

        sg = solve_csc(vme_sg).final_sg
        estimate = estimate_circuit(sg)
        synthesized = synthesize(sg, verify=False).estimate
        for signal in sg.non_input_signals:
            triggers = trigger_signals(sg, signal)
            assert len(triggers) == trigger_signal_count(sg, signal)
            assert estimate.implementations[signal].trigger_signals == triggers
            assert synthesized.implementations[signal].trigger_signals == triggers

    def test_support_is_subset_of_signals(self, vme_sg):
        result = solve_csc(vme_sg)
        estimate = estimate_circuit(result.final_sg)
        for implementation in estimate.implementations.values():
            assert implementation.support <= set(result.final_sg.signals)
            assert "&" in implementation.expression() or "(" in implementation.expression()
