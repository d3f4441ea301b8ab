"""The batch costing kernels against the eager reference evaluation.

A plane pass packs a whole batch of candidates into lane words per state,
up to ``PASS_WORDS`` words per table row, and its masks enter through one
joined byte string.  Graph sizes around byte and word edges (1..9, 63, 64,
65 and 130 states) and batch sizes around lane-word and pass edges (1, 63,
64, 65, 128, 129 and one past a pass) are where that marshalling can go
wrong, so every combination is compared with the big-int kernel.

The big-int half — the scalar kernel's costs and on-demand side tables
against :func:`references.reference_block_evaluation` — needs no numpy.
"""

from __future__ import annotations

import random

import pytest
from references import reference_block_evaluation

from repro.core.indexed import EvalKernel, IndexedStateGraph, evaluate_candidates
from repro.core.planes import numpy_available
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.transition_system import TransitionSystem

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="the plane kernel needs numpy")

_SIGNALS = ("a", "b", "c")
_STATE_COUNTS = [*range(1, 10), 63, 64, 65, 130]
_BATCH_SIZES = (1, 63, 64, 65, 128, 129)


def _random_state_graph(num_states: int, rng: random.Random) -> StateGraph:
    """A ring of ``num_states`` states plus random chords, labelled with
    edges of three signals (``a`` an input), with random codes."""
    ts = TransitionSystem(f"ring{num_states}")
    states = [f"s{i}" for i in range(num_states)]
    for state in states:
        ts.add_state(state)
    ts.set_initial(states[0])
    for i, state in enumerate(states):
        signal = _SIGNALS[i % len(_SIGNALS)]
        ts.add_transition(state, SignalEdge.rise(signal, i), states[(i + 1) % num_states])
    for k in range(num_states // 2):
        source, target = rng.randrange(num_states), rng.randrange(num_states)
        ts.add_transition(states[source], SignalEdge.fall(rng.choice(_SIGNALS), k), states[target])
    types = {signal: SignalType.OUTPUT for signal in _SIGNALS}
    types["a"] = SignalType.INPUT
    encoding = {state: tuple(rng.randrange(2) for _ in _SIGNALS) for state in states}
    return StateGraph(ts, _SIGNALS, types, encoding)


def _kernels(num_states, pairs=None, seed=None):
    """``(bigint, planes, rng)`` kernels over one random graph; the
    planes kernel is big-int too where numpy is missing."""
    rng = random.Random(num_states if seed is None else seed)
    isg = IndexedStateGraph(_random_state_graph(num_states, rng))
    if pairs is None:
        pairs = [
            (rng.randrange(num_states), rng.randrange(num_states)) for _ in range(num_states)
        ]
    bigint = EvalKernel(isg, pairs, count_input_delays=True, impl="bigint")
    planes = EvalKernel(isg, pairs, count_input_delays=True, impl="planes")
    return bigint, planes, rng


def _batches(num_states, rng):
    """Batches of every tested size: the empty, full and single-state
    blocks first, then random blocks."""
    full = (1 << num_states) - 1
    edge_masks = [0, full, 1, 1 << (num_states - 1), full >> 1, full ^ 1]
    for batch_size in _BATCH_SIZES:
        yield (edge_masks + [rng.randrange(full + 1) for _ in range(batch_size)])[:batch_size]


@pytest.mark.parametrize("num_states", _STATE_COUNTS)
def test_bigint_costs_and_side_tables_match_the_eager_reference(num_states):
    bigint, _planes, rng = _kernels(num_states)
    evaluated = 0
    for masks in _batches(num_states, rng):
        costs, passes = evaluate_candidates(bigint, masks)
        assert passes == 0 and len(costs) == len(masks)
        for mask, cost in zip(masks, costs):
            reference = reference_block_evaluation(bigint, mask)
            if reference is None:
                assert cost is None and bigint.side_table(mask) is None
                continue
            evaluated += 1
            assert cost == reference[1]
            assert bytes(bigint.side_table(mask)) == reference[0]
    assert evaluated or num_states < 3


@needs_numpy
@pytest.mark.parametrize("num_states", _STATE_COUNTS)
def test_plane_costs_match_bigint_at_lane_boundaries(num_states):
    bigint, planes, rng = _kernels(num_states)
    plane = planes.batch_kernel()
    for masks in _batches(num_states, rng):
        expected, _passes = bigint.cost_batch(masks)
        costs, passes = plane.cost_batch(masks)
        assert costs == expected
        assert passes == 1  # every tested batch fits one pass on these graphs
        assert evaluate_candidates(planes, masks)[0] == expected


@needs_numpy
@pytest.mark.parametrize(
    "num_states, pairs",
    [
        # about 4,000 conflict pairs: four lane words per pass
        (100, [(i, j) for i in range(100) for j in range(i + 1, 100) if (i + j) % 5]),
        # more pairs than PASS_WORDS: a single lane word per pass
        (190, [(i, j) for i in range(190) for j in range(i + 1, 190)]),
    ],
)
def test_plane_batches_past_the_pass_ceiling_split_into_passes(num_states, pairs):
    from repro.core.planes import PASS_WORDS

    bigint, planes, rng = _kernels(num_states, pairs, seed=7)
    plane = planes.batch_kernel()
    rows = max(num_states + 1, len(pairs))
    assert plane.pass_lanes == 64 * max(1, PASS_WORDS // rows)
    full = (1 << num_states) - 1
    masks = [rng.randrange(full + 1) for _ in range(plane.pass_lanes + 1)]
    costs, passes = plane.cost_batch(masks)
    assert passes == 2
    assert costs == bigint.cost_batch(masks)[0]
    assert any(cost is not None for cost in costs)
