"""Differential suite: the symbolic tier vs the explicit/indexed pipeline.

The symbolic front half must be invisible in the answers: on every STG
small enough to enumerate, the BDD census, the per-event ER/SR sets, the
USC/CSC conflict pair counts and the hybrid bridge's solver results have
to agree *byte for byte* with the explicit pipeline (object-space oracle
and PR-3 indexed path alike — those two are already pinned to each other
by ``tests/test_indexed_differential.py``).

Covered here:

* every enumerable library case (``explicit_ok``) of both tables:
  census, USC/CSC pair counts and the CSC verdict against the
  from-scratch object-space detector;
* ER/SR sets as explicit marking sets on the mid-size cases;
* per-state code agreement (the symbolic valuation of every reachable
  state equals the inferred explicit encoding);
* hypothesis-generated STGs from the parametric generator families
  (including the new coupled ``pipeline`` family);
* the symbolic shortcuts against the straightforward BDD computations
  they replace, kept here as reference implementations: the per-edge
  conflict relation, the image/preimage conflict-core fixpoint and a
  breadth-first image fixpoint — on every library row but pipeline8
  and pipeline12 (too slow for the suite) and on the hypothesis STGs,
  with and without variable reordering;
* the saturated reachable set against the chained image fixpoint
  (:func:`references.reference_chained_reached`): the same node of the
  same manager on every library row but pipeline12 and on the
  hypothesis STGs, with and without variable reordering, and on random
  nets with arbitrary arcs (read arcs, unsafe and inconsistent nets,
  any initial code), where the per-level safety/consistency test must
  also give the whole-set verdict;
* exploration (one saturation of the toggle system, initial values
  read off it) against the marking-only BFS and the value-conditioned
  saturation it replaced (:func:`references.reference_explore`): the
  same initial values and the same node on every library row, static
  and sifted, on generator STGs started a few random firings on (so
  signals start high) with random declared codes, and on the random
  nets; where one rejects an STG, so must the other.

The hybrid bridge's *solver* identity (materialized core solved to the
same ``EncodingResult`` fingerprint as the explicit pipeline) is pinned
by the cross-engine harness in ``tests/test_conformance.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.bench_stg import generators as gen
from repro.bdd.bdd import prime_map
from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES
from repro.core.csc import has_csc, usc_conflicts
from repro.core.excitation import excitation_set, switching_set
from repro.stg import build_state_graph
from repro.stg.state_graph import InconsistentSTGError
from repro.stg.stg import STG
from repro.symbolic import SymbolicStateGraph, detect_csc_conflicts, ensure_core
from repro.symbolic.csc import _code_equality

from library_pins import pin
from references import (
    csc_conflicts_from_scratch,
    reference_chained_reached,
    reference_explore,
    reference_safety_failure,
    reference_state_cube,
    transition_update,
)

ENUMERABLE = [case for case in TABLE2_CASES + TABLE1_CASES if case.explicit_ok]
_ENUM_IDS = [f"{i:02d}-{case.name}" for i, case in enumerate(ENUMERABLE)]

# cases small enough for exhaustive state-by-state comparisons
_EXHAUSTIVE_LIMIT = 1200


@pytest.mark.parametrize("case", ENUMERABLE, ids=_ENUM_IDS)
def test_census_and_conflict_counts_match_explicit(case):
    stg = case.build()
    sg = build_state_graph(stg, max_states=200000)
    explicit_usc = len(usc_conflicts(sg))
    explicit_csc = len(csc_conflicts_from_scratch(sg))
    explicit_holds = has_csc(sg)

    ssg = SymbolicStateGraph(case.build())
    report = detect_csc_conflicts(ssg)
    assert report.states == sg.num_states
    assert report.usc_pairs == explicit_usc
    assert report.csc_pairs == explicit_csc
    assert report.csc_holds == explicit_holds

    if sg.num_states <= _EXHAUSTIVE_LIMIT:
        # every explicit state is a symbolic state with the same code...
        reached = ssg.explore()
        for state in sg.states:
            assert ssg.contains(reached, state, sg.code(state))
        # ...and the conflict states are exactly the explicit ones
        explicit_conflict_states = set()
        for conflict in csc_conflicts_from_scratch(sg):
            explicit_conflict_states.add(conflict.first)
            explicit_conflict_states.add(conflict.second)
        symbolic_conflict_states = {
            marking for marking, _code in ssg.states_of(report.conflict_states)
        }
        assert symbolic_conflict_states == explicit_conflict_states


def _fire(ssg, states, transition):
    """States entered by firing ``transition`` in ``states``."""
    bdd = ssg.bdd
    enabling, changed, after = transition_update(ssg, transition)
    return bdd.apply_and(bdd.and_exists(states, enabling, changed), after)


def _er_set(ssg, edge):
    """Reachable states enabling ``edge`` (the union of its ERs)."""
    return ssg.bdd.apply_and(ssg.explore(), ssg.enabled_predicate(edge))


def _sr_set(ssg, edge):
    """States entered by firing ``edge`` (the union of its SRs)."""
    bdd = ssg.bdd
    return bdd.disjoin(
        _fire(ssg, ssg.explore(), t) for t in ssg._transitions if t.edge == edge
    )


@pytest.mark.parametrize("case", ENUMERABLE, ids=_ENUM_IDS)
def test_er_sr_sets_match_explicit(case):
    stg = case.build()
    sg = build_state_graph(stg, max_states=200000)
    if sg.num_states > _EXHAUSTIVE_LIMIT:
        pytest.skip("enumerating symbolic ER/SR sets only pays below the limit")
    ssg = SymbolicStateGraph(case.build())
    events = set(sg.ts.events)
    assert set(ssg.base_edges()) == events
    for event in sg.ts.events:
        explicit_er = excitation_set(sg.ts, event)
        explicit_sr = switching_set(sg.ts, event)
        symbolic_er = {m for m, _code in ssg.states_of(_er_set(ssg, event))}
        symbolic_sr = {m for m, _code in ssg.states_of(_sr_set(ssg, event))}
        assert symbolic_er == set(explicit_er), f"ER({event}) diverged"
        assert symbolic_sr == set(explicit_sr), f"SR({event}) diverged"


# ----------------------------------------------------------------------
# reference implementations of the symbolic shortcuts
# ----------------------------------------------------------------------
def _image(ssg, states):
    """States reachable from ``states`` in exactly one firing."""
    return ssg.bdd.disjoin(_fire(ssg, states, t) for t in ssg._transitions)


def _preimage(ssg, states):
    """States with a one-firing successor inside ``states``."""
    bdd = ssg.bdd
    preimages = []
    for t in ssg._transitions:
        enabling, changed, after = transition_update(ssg, t)
        preimages.append(
            bdd.conjoin((bdd.and_exists(states, after, changed), enabling, t.produced_empty))
        )
    return bdd.disjoin(preimages)


def _reference_reached(ssg):
    """Breadth-first image fixpoint from the initial state."""
    bdd = ssg.bdd
    reached = frontier = reference_state_cube(ssg, ssg.infer_initial_values())
    while frontier != bdd.false:
        frontier = bdd.apply_diff(_image(ssg, frontier), reached)
        reached = bdd.apply_or(reached, frontier)
    return reached


def _reference_relation(ssg):
    """``⋁_e (pair ∧ (En_e ⊕ En_e'))``: one AND with the pair relation per edge."""
    bdd = ssg.bdd
    mapping = prime_map(ssg.num_state_vars)
    reached = ssg.explore()
    pair = bdd.conjoin((reached, bdd.rename(reached, mapping), _code_equality(ssg)))
    relation = bdd.false
    for edge in ssg.base_edges():
        if ssg.stg.is_input(edge.signal):
            continue
        enabled = ssg.enabled_predicate(edge)
        differs = bdd.apply_xor(enabled, bdd.rename(enabled, mapping))
        relation = bdd.apply_or(relation, bdd.apply_and(pair, differs))
    return relation


def _reference_core(ssg, conflict_states):
    """Closure of the conflict states under images and reachable preimages."""
    bdd = ssg.bdd
    reached = ssg.explore()
    core = frontier = conflict_states
    while frontier != bdd.false:
        expanded = bdd.apply_or(
            _image(ssg, frontier), bdd.apply_and(_preimage(ssg, frontier), reached)
        )
        frontier = bdd.apply_diff(expanded, core)
        core = bdd.apply_or(core, frontier)
    return core


def _explored(ssg, sift):
    """The reached set of ``ssg``; with ``sift``, sifted once more, so the
    references run under an order exploration never saw (node ids
    survive sifting)."""
    reached = ssg.explore()
    if sift:
        ssg.bdd.reorder(groups=ssg.pair_groups, max_growth=1.05, max_blocks=8, window=4)
    return reached


def _assert_matches_references(ssg, reached, breadth_first=True):
    bdd = ssg.bdd
    if breadth_first:
        assert reached == _reference_reached(ssg)
    report = detect_csc_conflicts(ssg)
    assert report.relation == _reference_relation(ssg)
    core = ensure_core(ssg, report)
    if report.csc_holds:
        assert core == bdd.false
        assert report.core_states == 0
    else:
        assert core == reached == _reference_core(ssg, report.conflict_states)
        assert report.core_states == report.states
    return report


LIBRARY = TABLE2_CASES + TABLE1_CASES
_LIBRARY_IDS = [f"{i:02d}-{case.name}" for i, case in enumerate(LIBRARY)]
#: rows whose breadth-first reference (one image per BFS level, each over
#: exact-distance sets) takes 10 s and more
_BREADTH_FIRST_TOO_SLOW = {"pipe16", "pipe24"}


def _assert_matches_table1_pin(case, report):
    """States and conflict pairs of a Table-1 row against its pin; a
    detection-only row (``solve=False``) is solved exactly when CSC
    already holds."""
    pinned = pin(case)
    if "states" not in pinned:
        return
    assert (report.states, report.usc_pairs, report.csc_pairs) == (
        pinned["states"],
        pinned["usc_pairs"],
        pinned["csc_pairs"],
    )
    if not case.solve:
        assert pinned["solved"] == report.csc_holds


@pytest.mark.parametrize("reorder", [False, True], ids=["static", "reorder"])
@pytest.mark.parametrize("case", LIBRARY, ids=_LIBRARY_IDS)
def test_library_shortcuts_match_reference_implementations(case, reorder):
    if case.name in ("pipeline8", "pipeline12"):
        pytest.skip("the reference computations take 4 s and more on this row")
    ssg = SymbolicStateGraph(case.build(), reorder=reorder)
    report = _assert_matches_references(
        ssg,
        _explored(ssg, sift=reorder),
        breadth_first=case.name not in _BREADTH_FIRST_TOO_SLOW,
    )
    _assert_matches_table1_pin(case, report)


@pytest.mark.parametrize("reorder", [False, True], ids=["static", "reorder"])
@pytest.mark.parametrize("case", LIBRARY, ids=_LIBRARY_IDS)
def test_library_saturation_matches_chained_fixpoint(case, reorder):
    if case.name == "pipeline12":
        pytest.skip("the chained fixpoint takes 4 s and builds 775,000 nodes on this row")
    ssg = SymbolicStateGraph(case.build(), reorder=reorder)
    assert _explored(ssg, sift=reorder) == reference_chained_reached(ssg)


@pytest.mark.parametrize("reorder", [False, True], ids=["static", "reorder"])
@pytest.mark.parametrize("case", LIBRARY, ids=_LIBRARY_IDS)
def test_library_exploration_matches_bfs_and_value_saturation(case, reorder):
    ssg = SymbolicStateGraph(case.build(), reorder=reorder)
    reached = _explored(ssg, sift=reorder)
    assert (ssg.infer_initial_values(), reached) == reference_explore(ssg)


# ----------------------------------------------------------------------
# hypothesis: random STGs from the parametric generator families
# ----------------------------------------------------------------------
@st.composite
def random_stgs(draw):
    """Random STGs (bounded sizes, all families incl. the new pipeline)."""
    family = draw(
        st.sampled_from(
            [
                "sequencer",
                "mixed",
                "parallel",
                "independent",
                "counter",
                "chain",
                "pipeline",
            ]
        )
    )
    if family == "sequencer":
        return gen.sequencer(draw(st.integers(min_value=2, max_value=5)))
    if family == "mixed":
        num_parallel = draw(st.integers(min_value=0, max_value=2))
        min_sequential = 1 if num_parallel == 0 else 0
        num_sequential = draw(st.integers(min_value=min_sequential, max_value=3))
        return gen.mixed_controller(num_parallel, num_sequential)
    if family == "parallel":
        return gen.parallel_toggles(draw(st.integers(min_value=1, max_value=3)))
    if family == "independent":
        return gen.independent_toggles(draw(st.integers(min_value=1, max_value=3)))
    if family == "counter":
        return gen.ripple_counter(draw(st.integers(min_value=2, max_value=4)))
    if family == "pipeline":
        return gen.pipeline(draw(st.integers(min_value=1, max_value=3)))
    return gen.handshake_wire_chain(draw(st.integers(min_value=1, max_value=4)))


@hsettings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs())
def test_random_stgs_symbolic_matches_explicit(stg):
    sg = build_state_graph(stg, max_states=20000)
    explicit_usc = len(usc_conflicts(sg))
    explicit_csc = len(csc_conflicts_from_scratch(sg))
    explicit_holds = has_csc(sg)
    report = detect_csc_conflicts(SymbolicStateGraph(stg))
    assert report.states == sg.num_states
    assert report.usc_pairs == explicit_usc
    assert report.csc_pairs == explicit_csc
    assert report.csc_holds == explicit_holds


@hsettings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=random_stgs(), sift=st.booleans())
def test_random_stgs_shortcuts_match_reference_implementations(stg, sift):
    ssg = SymbolicStateGraph(stg, reorder=sift)
    reached = _explored(ssg, sift)
    assert reached == reference_chained_reached(ssg)
    _assert_matches_references(ssg, reached)


@st.composite
def shifted_stgs(draw):
    """Random STGs whose initial marking lies a few random firings on,
    so signals may start high, each signal declared at its true initial
    value, at a random value, or not at all."""
    stg = draw(random_stgs())
    marking = stg.initial_marking
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        enabled = stg.net.enabled_transitions(marking)
        marking = stg.net.fire(marking, draw(st.sampled_from(enabled)))
    stg.net.set_initial_marking(marking.as_dict())
    sg = build_state_graph(stg, max_states=20000)
    for signal, value in zip(sg.signals, sg.code(sg.initial_state)):
        declared = draw(st.sampled_from(["true", "random", None]))
        if declared == "true":
            stg.set_initial_value(signal, value)
        elif declared == "random":
            stg.set_initial_value(signal, draw(st.integers(0, 1)))
    return stg


def _assert_exploration_matches_reference(ssg, sift=False):
    """``explore`` gives the initial values and the very node of the BFS
    and value-conditioned saturation, or both reject the STG."""
    try:
        reached = _explored(ssg, sift)
    except InconsistentSTGError:
        with pytest.raises(InconsistentSTGError):
            reference_explore(ssg)
        return False
    assert (ssg.infer_initial_values(), reached) == reference_explore(ssg)
    return True


@hsettings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stg=shifted_stgs(), sift=st.booleans())
def test_shifted_stgs_exploration_matches_references(stg, sift):
    ssg = SymbolicStateGraph(stg, reorder=sift)
    explored = _assert_exploration_matches_reference(ssg, sift)
    try:
        sg = build_state_graph(stg, max_states=20000)
    except InconsistentSTGError:
        assert not explored
        return
    assert explored
    assert ssg.infer_initial_values() == dict(zip(sg.signals, sg.code(sg.initial_state)))
    assert ssg.count_states() == sg.num_states


@st.composite
def random_nets(draw):
    """Small nets with arbitrary arcs and an arbitrary initial state.

    Read arcs, unsafe and inconsistent nets all occur; the initial code
    is drawn rather than inferred, so inconsistent nets explore too.
    """
    signals = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    transitions = [
        f"{signal}{draw(st.sampled_from('+-'))}/{k + 1}"
        for signal in signals
        for k in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    places = [f"p{i}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    some_places = st.lists(st.sampled_from(places), max_size=2, unique=True)
    arcs = set()
    for transition in transitions:
        arcs.update((place, transition) for place in draw(some_places))
        arcs.update((transition, place) for place in draw(some_places))
    connected = sorted({node for arc in arcs for node in arc if node in places})
    if not connected:
        connected = ["p0"]
        arcs.add(("p0", transitions[0]))
    marking = draw(st.lists(st.sampled_from(connected), min_size=1, unique=True))
    code = draw(st.lists(st.integers(0, 1), min_size=len(signals), max_size=len(signals)))
    stg = STG.from_arcs(
        "net", inputs=signals[:1], outputs=signals[1:], arcs=sorted(arcs), marking=marking
    )
    return stg, marking, dict(zip(signals, code))


@hsettings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=random_nets(), declared=st.lists(st.booleans(), min_size=3, max_size=3))
def test_random_nets_saturation_and_safety_match_references(net, declared):
    stg, marking, code = net
    for signal, declare in zip(stg.signals, declared):
        if declare:
            stg.set_initial_value(signal, code[signal])
    _assert_exploration_matches_reference(SymbolicStateGraph(stg))
    ssg = SymbolicStateGraph(stg)
    assignment = {2 * var: int(place in marking) for place, var in ssg.place_vars.items()}
    assignment.update({2 * var: code[signal] for signal, var in ssg.signal_vars.items()})
    initial = ssg.bdd.cube(assignment)
    reached, _counts = ssg._saturate(initial)
    assert reached == reference_chained_reached(ssg, initial, toggle=True)
    failure = reference_safety_failure(ssg, reached)
    if failure is None:
        ssg._check_safe_and_consistent(reached)
    else:
        with pytest.raises(InconsistentSTGError) as raised:
            ssg._check_safe_and_consistent(reached)
        message = str(raised.value)
        if failure == "not safe":
            assert "is not safe" in message
        else:
            assert message.startswith(f"transition {failure!r} of 'net' is enabled")
