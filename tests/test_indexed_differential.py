"""Differential suite: indexed *representation* twins vs object space.

The canonical integer/bitset representation (:mod:`repro.core.indexed`)
must be invisible in the results.  The solver-level identity — legacy
oracle vs indexed engine vs hybrid bridge, over the
full library and random STGs — is pinned by the cross-engine harness in
``tests/test_conformance.py``; this file keeps the *representation*
checks: every bitmask helper twin (exit borders, MWFEB, I-partition
quads, ER/SR set masks, value bit-vectors) must equal its object-space
definition state for state.
"""

from __future__ import annotations

import pytest

from repro.bench_stg.library import get_case

# ----------------------------------------------------------------------
# bitmask helper twins vs their object-space oracles
# ----------------------------------------------------------------------
_HELPER_CASES = ["vme2int", "combuf2", "mod4-counter", "nak-pa", "par4"]


@pytest.mark.parametrize("name", _HELPER_CASES)
def test_exit_border_and_mwfeb_masks_match_object_space(name):
    """The ipartition bitmask twins (exit border, MWFEB, I-partition
    quads) equal the object-space recursion on every brick and on grown
    brick unions."""
    from repro.core.cost import evaluate_block
    from repro.core.ipartition import (
        exit_border,
        exit_border_mask,
        ipartition_masks_from_block,
        min_wellformed_exit_border,
        min_wellformed_exit_border_mask,
    )
    from repro.core.indexed import bits_of, indexed_brick_bundle, indexed_state_graph
    from repro.stg.state_graph import build_state_graph

    sg = build_state_graph(get_case(name, table="table2").build(), max_states=5000)
    isg = indexed_state_graph(sg)
    masks, adjacency = indexed_brick_bundle(sg)
    bricks = [isg.frozenset_of_mask(mask) for mask in masks]
    conflicts = []  # irrelevant for the partition geometry

    blocks = list(zip(bricks, masks))
    # grow each brick by its first adjacent brick to also cover
    # non-region unions (the shapes the Figure-4 search evaluates)
    for i, (brick, mask) in enumerate(zip(bricks, masks)):
        if adjacency[i]:
            j = bits_of(adjacency[i])[0]
            blocks.append((brick | bricks[j], mask | masks[j]))

    for block, mask in blocks:
        assert isg.mask_of(exit_border(sg.ts, block)) == exit_border_mask(
            isg.succ_masks, mask
        )
        assert isg.mask_of(
            min_wellformed_exit_border(sg.ts, block)
        ) == min_wellformed_exit_border_mask(isg.succ_masks, mask)

        quads = ipartition_masks_from_block(isg.succ_masks, mask, isg.full_mask)
        reference = evaluate_block(sg, block, conflicts)
        if reference is None or len(block) >= sg.num_states:
            if len(block) < sg.num_states:
                assert quads is None
        else:
            assert quads is not None
            s0, splus, s1, sminus = quads
            assert isg.frozenset_of_mask(s0) == reference.partition.s0
            assert isg.frozenset_of_mask(splus) == reference.partition.splus
            assert isg.frozenset_of_mask(s1) == reference.partition.s1
            assert isg.frozenset_of_mask(sminus) == reference.partition.sminus


@pytest.mark.parametrize("name", _HELPER_CASES)
def test_event_set_masks_and_value_masks_match_object_space(name):
    """ER/SR set and region masks and the per-signal value bit-vectors
    equal their object-space definitions."""
    from repro.core.excitation import (
        excitation_set,
        excitation_set_mask,
        switching_regions,
        switching_region_masks,
        switching_set,
        switching_set_mask,
    )
    from repro.core.indexed import indexed_state_graph
    from repro.stg.state_graph import build_state_graph

    sg = build_state_graph(get_case(name, table="table2").build(), max_states=5000)
    isg = indexed_state_graph(sg)
    for event in sg.ts.events:
        assert excitation_set_mask(isg, event) == isg.mask_of(
            excitation_set(sg.ts, event)
        )
        assert switching_set_mask(isg, event) == isg.mask_of(
            switching_set(sg.ts, event)
        )
        assert [
            isg.frozenset_of_mask(m) for m in switching_region_masks(isg, event)
        ] == switching_regions(sg.ts, event)
    for signal in sg.signals:
        expected = 0
        for i, state in enumerate(isg.states):
            if sg.value(state, signal):
                expected |= 1 << i
        assert isg.value_mask(signal) == expected
