"""Two-level minimisation from explicit ON / OFF sets.

This is an espresso-style heuristic tailored to the sizes that occur in
asynchronous controller synthesis: the ON and OFF sets are lists of
reachable state codes (hundreds to a few thousand minterms), everything
else is a don't care.  The algorithm is the classical expand /
greedy-irredundant-cover loop:

1. every ON minterm seeds a cube;
2. each cube is *expanded* literal by literal as long as it stays disjoint
   from the OFF set (literal order is chosen by how many OFF minterms the
   literal excludes, a common espresso heuristic);
3. a greedy set cover keeps a small subset of the expanded cubes that
   still covers every ON minterm.

Both set tests run on *bit slices*.  For a list of minterms and each
variable ``v``, the slice pair ``(zeros, ones)`` holds one bit per
minterm: bit ``k`` of ``ones`` is set when minterm ``k`` has ``v = 1``,
and ``zeros`` is its complement.  The minterms a cube contains are the
AND of its literals' slices, so

* a cube hits the OFF set exactly when that AND over the OFF slices is
  non-zero, and expanding a cube over ``w`` variables costs ``O(w)``
  integer ANDs (with suffix ANDs of the literals not yet decided) instead
  of a walk over the OFF set per literal;
* a cube's ON coverage is that AND over the ON slices, and a greedy step
  is one AND and one popcount per cube.

Minterms are packed integers inside the minimiser (bit ``v`` is
variable ``v``): :func:`minimize_cover` packs its tuples once, and
:func:`minimize_packed` takes the packed codes of a state graph's index
directly.

The slices change how the tests are computed, not what they decide: the
cubes, their order and the chosen cover are identical to the
per-minterm loop that tests each candidate cube against every OFF
minterm (``tests/test_logic.py`` keeps that loop as the reference).

The result is a correct, irredundant (though not necessarily minimum)
cover; its literal count is the area proxy used in the Table 2
reproduction.
"""

from __future__ import annotations

from itertools import accumulate
from operator import and_
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.logic.cubes import Cover, Cube, pack_minterm

Minterm = Tuple[int, ...]
#: Per variable, the ``(zeros, ones)`` bitsets over a list of minterms.
Slices = List[Tuple[int, int]]

_BITS = frozenset((0, 1))


def _check_minterms(minterms: Sequence[Minterm], width: int, side: str) -> None:
    for minterm in minterms:
        if len(minterm) != width:
            raise ValueError(
                f"{side} minterm {minterm} has {len(minterm)} entries, expected {width}"
            )
        if not _BITS.issuperset(minterm):
            raise ValueError(f"{side} minterm {minterm} has entries other than 0 and 1")


def _slices(minterms: Sequence[int], width: int) -> Tuple[Slices, int]:
    """Bit slices of packed ``minterms`` and the all-minterms mask."""
    if not minterms:
        return [(0, 0)] * width, 0
    full = (1 << len(minterms)) - 1
    if not width:
        return [], full
    # One binary row per minterm, the last minterm first, so column c
    # read top to bottom is variable ``width - 1 - c`` with minterm k as
    # bit k.
    row_format = f"0{width}b"
    rows = [format(minterm, row_format) for minterm in reversed(minterms)]
    slices: Slices = []
    for column in reversed(list(zip(*rows))):
        ones = int("".join(column), 2)
        slices.append((full ^ ones, ones))
    return slices, full


def _cube_bits(care: int, value: int, slices: Slices, full: int) -> int:
    """Bitset of the minterms (of ``slices``) contained in the cube."""
    bits = full
    while care:
        low = care & -care
        position = low.bit_length() - 1
        bits &= slices[position][(value >> position) & 1]
        care ^= low
    return bits


def _expand(care: int, value: int, order: Sequence[int], off: Slices, fixed: int) -> Tuple[int, int]:
    """Drop the literals at ``order`` (distinct positions of ``care``) one by
    one, each only if the cube stays disjoint from the OFF set.

    ``fixed`` is the bitset of OFF minterms matching the cube's literals
    outside ``order``.  Candidate ``i`` (literal ``i`` dropped) keeps the
    literals decided so far (``kept``) and all undecided later ones; it
    hits the OFF set iff their AND is non-zero.
    """
    literals = [off[position][(value >> position) & 1] for position in order]
    # suffix[j] is ``fixed`` AND the last j literals; literal i is followed
    # by the last ``len(order) - 1 - i`` of them.
    suffix = list(accumulate(reversed(literals), and_, initial=fixed))
    kept = fixed
    dropped = 0
    for position, literal, rest in zip(order, literals, reversed(suffix[:-1])):
        if kept & rest:
            kept &= literal
        else:
            dropped |= 1 << position
    return care & ~dropped, value & ~dropped


def expand_cube(cube: Cube, packed_offset: Sequence[int], order: Sequence[int]) -> Cube:
    """Drop literals of ``cube`` (in ``order``) while avoiding the OFF set.

    ``packed_offset`` holds the OFF minterms as integers (bit ``v`` is
    variable ``v``).  Positions of ``order`` that are not literals of the
    cube, and repeats, are skipped.
    """
    width = cube.width
    off, full = _slices(list(packed_offset), width)
    # A literal kept once stays kept when met again: the cube has only
    # grown since, so dropping it would still hit the OFF set.
    steps = [position for position in dict.fromkeys(order) if (cube.care >> position) & 1]
    rest = cube.care
    for position in steps:
        rest &= ~(1 << position)
    fixed = _cube_bits(rest, cube.value, off, full)
    care, value = _expand(cube.care, cube.value, steps, off, fixed)
    return Cube(width, care, value)


def _literal_order(off: Slices, off_count: int) -> List[int]:
    """Variable order for expansion: try to drop the least useful literals
    first (those that exclude the fewest OFF minterms)."""
    scores = []
    for position, (_zeros, ones) in enumerate(off):
        count = ones.bit_count()
        # A variable that splits the OFF set evenly is "useful"; one whose
        # OFF minterms are all on one side is cheap to drop.
        scores.append((min(count, off_count - count), position))
    scores.sort()
    return [position for _score, position in scores]


def minimize_cover(
    on_set: Iterable[Minterm],
    off_set: Iterable[Minterm],
    width: int,
) -> Cover:
    """Compute a small cover of ``on_set`` that avoids ``off_set``.

    Everything outside both sets is treated as don't care.  Raises
    ``ValueError`` when a minterm does not have ``width`` entries of 0 or
    1, or when the two sets overlap (the caller should have resolved CSC
    first).
    """
    on_list = [tuple(minterm) for minterm in on_set]
    off_list = [tuple(minterm) for minterm in off_set]
    _check_minterms(on_list, width, "ON")
    _check_minterms(off_list, width, "OFF")

    overlap = set(on_list) & set(off_list)
    if overlap:
        raise ValueError(
            f"ON and OFF sets overlap on {len(overlap)} minterms; the function is ill-defined"
        )
    return minimize_packed(
        [pack_minterm(minterm) for minterm in on_list],
        [pack_minterm(minterm) for minterm in off_list],
        width,
    )


def minimize_packed(on_set: Sequence[int], off_set: Sequence[int], width: int) -> Cover:
    """:func:`minimize_cover` on packed, disjoint, validated minterms
    (bit ``v`` of a minterm is variable ``v``).

    The same cover, in the same order, as :func:`minimize_cover` on the
    unpacked minterms; the synthesis tier calls it with the packed codes
    of the state graph's index.
    """
    if not on_set:
        return Cover(width)

    off, off_full = _slices(off_set, width)
    order = _literal_order(off, len(off_set))

    # Expand one cube per ON minterm, deduplicating (in first-seen order).
    all_care = (1 << width) - 1
    expanded: Dict[Tuple[int, int], None] = {}
    for value in on_set:
        expanded[_expand(all_care, value, order, off, off_full)] = None

    # Greedy irredundant cover of the ON minterms.
    on, remaining = _slices(on_set, width)
    cubes = [Cube(width, care, value) for care, value in expanded]
    coverage = [_cube_bits(cube.care, cube.value, on, remaining) for cube in cubes]
    literal_counts = [cube.literal_count() for cube in cubes]

    chosen: List[Cube] = []
    while remaining:
        best_index = -1
        best_gain = -1
        best_literals = 0
        for index, covered in enumerate(coverage):
            gain = (covered & remaining).bit_count()
            if gain == 0:
                continue
            literals = literal_counts[index]
            if gain > best_gain or (gain == best_gain and literals < best_literals):
                best_index = index
                best_gain = gain
                best_literals = literals
        if best_index < 0:  # pragma: no cover - defensive, cannot happen
            raise RuntimeError("greedy cover failed to make progress")
        chosen.append(cubes[best_index])
        remaining &= ~coverage[best_index]

    return Cover(width, chosen)


def verify_cover(
    cover: Cover, on_set: Iterable[Minterm], off_set: Iterable[Minterm]
) -> List[str]:
    """Sanity check used by tests: the cover must contain every ON minterm
    and no OFF minterm.  Returns a list of violation descriptions."""
    problems: List[str] = []
    for minterm in on_set:
        if not cover.contains_minterm(minterm):
            problems.append(f"ON minterm {minterm} not covered")
    for minterm in off_set:
        if cover.contains_minterm(minterm):
            problems.append(f"OFF minterm {minterm} wrongly covered")
    return problems
