"""The numpy plane kernel against the big-int oracle at lane boundaries.

A chunk of the plane kernel packs up to 64 candidates into one lane word
per state, and its masks enter through one joined byte string.  Graph
sizes around byte and word edges (1..9, 63, 64, 65 states) and batch
sizes around chunk edges (1, 63, 64, 65, 129) are where that marshalling
can go wrong, so every combination is compared byte for byte.
"""

from __future__ import annotations

import random

import pytest

from repro.core.indexed import EvalKernel, IndexedStateGraph, evaluate_candidates
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.transition_system import TransitionSystem

pytest.importorskip("numpy")

_SIGNALS = ("a", "b", "c")


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


def _key(evaluation):
    if evaluation is None:
        return None
    return (evaluation.mask, evaluation.size, bytes(evaluation.side), evaluation.cost)


@pytest.mark.parametrize("num_states", [*range(1, 10), 63, 64, 65])
def test_plane_kernel_matches_bigint_at_lane_boundaries(num_states):
    rng = random.Random(num_states)
    isg = IndexedStateGraph(_random_state_graph(num_states, rng))
    pairs = [
        (rng.randrange(num_states), rng.randrange(num_states)) for _ in range(num_states)
    ]
    bigint = EvalKernel(isg, pairs, count_input_delays=True, impl="bigint")
    planes = EvalKernel(isg, pairs, count_input_delays=True, impl="planes")
    full = (1 << num_states) - 1
    edge_masks = [0, full, 1, 1 << (num_states - 1), full >> 1, full ^ 1]
    for batch_size in (1, 63, 64, 65, 129):
        masks = (edge_masks + [rng.randrange(full + 1) for _ in range(batch_size)])[:batch_size]
        expected = [_key(e) for e in evaluate_candidates(bigint, masks)]
        assert [_key(e) for e in evaluate_candidates(planes, masks)] == expected
    assert any(_key(e) for e in evaluate_candidates(bigint, masks)) or num_states < 3
