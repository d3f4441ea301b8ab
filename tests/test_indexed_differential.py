"""Differential suite: indexed *representation* twins vs object space.

The canonical integer/bitset representation (:mod:`repro.core.indexed`)
must be invisible in the results.  The solver-level identity — every
engine against the golden records, over the full library and the
generator grid — is pinned by the cross-engine harness in
``tests/test_conformance.py``; this file keeps the *representation*
checks: every bitmask computation (the cost kernel's I-partitions, ER/SR
set masks, value bit-vectors) must equal its object-space definition
state for state.
"""

from __future__ import annotations

import pytest

from repro.bench_stg.library import get_case

# ----------------------------------------------------------------------
# bitmask helper twins vs their object-space oracles
# ----------------------------------------------------------------------
_HELPER_CASES = ["vme2int", "combuf2", "mod4-counter", "nak-pa", "par4"]


@pytest.mark.parametrize("name", _HELPER_CASES)
def test_kernel_partitions_match_object_space_mwfeb(name):
    """The I-partition the cost kernel derives from a block bitmask (its
    side table) equals the object-space MWFEB recursion on every brick
    and on grown brick unions."""
    from references import ipartition_from_block

    from repro.core.indexed import (
        IndexedEvaluator,
        bits_of,
        indexed_brick_bundle,
        indexed_state_graph,
    )
    from repro.stg.state_graph import build_state_graph

    sg = build_state_graph(get_case(name, table="table2").build(), max_states=5000)
    isg = indexed_state_graph(sg)
    masks, adjacency = indexed_brick_bundle(sg)
    bricks = [isg.frozenset_of_mask(mask) for mask in masks]
    # no conflicts: irrelevant for the partition geometry
    evaluator = IndexedEvaluator(sg, [], allow_input_delay=True)

    blocks = list(zip(bricks, masks))
    # grow each brick by its first adjacent brick to also cover
    # non-region unions (the shapes the Figure-4 search evaluates)
    for i, (brick, mask) in enumerate(zip(bricks, masks)):
        if adjacency[i]:
            j = bits_of(adjacency[i])[0]
            blocks.append((brick | bricks[j], mask | masks[j]))

    for block, mask in blocks:
        if len(block) >= sg.num_states:
            continue
        side = evaluator.side_table(mask)
        reference = ipartition_from_block(sg.ts, block)
        if not reference.splus or not reference.sminus:
            assert side is None
        else:
            assert isg.partition_of(side) == reference


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
