"""Slow, independent references the fast paths of the library must
reproduce exactly.

* :func:`reference_insert_signal` is the object-space signal insertion
  of Figure 2: it replays every original transition arc by arc with
  :meth:`TransitionSystem.add_transition`, adds the ``x+`` / ``x-`` arcs,
  then keeps the part reachable from the initial state.
  :func:`repro.core.insertion.insert_signal` builds the same graph from
  the parent's index; :func:`state_graph_layout` captures everything the
  two must agree on, every order included.
* :func:`reference_region_masks_containing` is the region expansion
  that runs the per-arc test on every event, the loop
  :func:`repro.core.regions.minimal_region_masks_containing` shortcuts
  by source and target masks.
* :func:`reference_build_state_graph` elaborates an STG through the
  general P/T reachability graph and the dictionary-based encoding
  inference (:func:`reference_infer_encoding`), the path
  :func:`repro.stg.state_graph.build_state_graph` replaces with integer
  markings and integer propagation.
* :func:`reference_classify_codes`, :func:`reference_trigger_signals`
  and :func:`reference_check_excitation` are the object-space
  extraction and verification of the synthesis tier: per-state
  ``next_value`` calls, connected excitation regions with
  :func:`repro.core.excitation.trigger_events`, and the tuple-code
  excitation check.  The tier now reads all three off the graph's index.
* :func:`reference_greedy_merge_indexed` is the one-by-one greedy merge
  of the Figure-4 search; the search batches its unions.
* :func:`reference_chained_reached` is the chained image fixpoint over
  the whole reached set, the iteration symbolic exploration replaces
  with saturation; :func:`transition_update` gives it, and the other
  symbolic references, each transition's image relation.
  :func:`reference_safety_failure` is the safety/consistency test on
  the whole reached set, which the symbolic state graph runs per level.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.excitation import excitation_regions, trigger_events
from repro.core.insertion import ARC_VALUES, IllegalInsertionError, illegal_crossing
from repro.core.regions import (
    RegionSearchBudgetExceeded,
    _expansion_choices_mask,
    _keep_minimal_masks,
)
from repro.stg.signals import SignalEdge, SignalType
from repro.logic.nextstate import CSCViolationError
from repro.petri.reachability import build_reachability_graph
from repro.stg.state_graph import InconsistentSTGError, StateGraph
from repro.synth.simulate import _MAX_RECORDED_MISMATCHES, VerificationReport
from repro.ts.transition_system import TransitionSystem


def reference_insert_signal(
    sg, partition, signal, signal_type=SignalType.INTERNAL, name=None
) -> StateGraph:
    """Insert ``signal`` along ``partition`` in object space, arc by arc."""
    if signal in sg.signals:
        raise ValueError(f"signal {signal!r} already exists in the state graph")
    side = {}
    blocks = (partition.s0, partition.splus, partition.s1, partition.sminus)
    for code, block in enumerate(blocks):
        for state in block:
            side[state] = code
    for state in sg.states:
        if state not in side:
            raise IllegalInsertionError(f"state {state!r} is not covered by the I-partition")

    new_ts = TransitionSystem(name or f"{sg.name}+{signal}")
    for source, edge, target in sg.ts.transitions():
        source_side = side[source]
        values = ARC_VALUES[source_side * 4 + side[target]]
        if not values:
            raise illegal_crossing(source_side, source)
        for value in (0, 1):
            if values >> value & 1:
                new_ts.add_transition((source, value), edge, (target, value))
    rise = SignalEdge.rise(signal)
    fall = SignalEdge.fall(signal)
    for state in partition.splus:
        new_ts.add_transition((state, 0), rise, (state, 1))
    for state in partition.sminus:
        new_ts.add_transition((state, 1), fall, (state, 0))
    initial = sg.initial_state
    initial_value = 0 if (initial in partition.s0 or initial in partition.splus) else 1
    new_ts.set_initial((initial, initial_value))
    new_ts = new_ts.restrict_to_reachable()

    new_types = dict(sg.signal_types)
    new_types[signal] = signal_type
    encoding = {state: sg.code(state[0]) + (state[1],) for state in new_ts.states}
    return StateGraph(
        ts=new_ts,
        signals=list(sg.signals) + [signal],
        signal_types=new_types,
        encoding=encoding,
        name=new_ts.name,
    )


def state_graph_layout(sg) -> tuple:
    """Everything two builds of one state graph must agree on: names,
    signals and their types, the encoding, the initial state and the
    successor, predecessor and per-event lists, each in its order."""
    ts = sg.ts
    return (
        sg.name,
        sg.signals,
        list(sg.signal_types.items()),
        list(sg.encoding.items()),
        ts.name,
        ts.initial_state,
        list(ts._succ.items()),
        list(ts._pred.items()),
        list(ts._by_event.items()),
    )


def insertion_outcome(insert, *args, **kwargs):
    """``("graph", layout)`` of an insertion, or ``(error type, message)``
    when it raises a :class:`ValueError`."""
    try:
        return ("graph", state_graph_layout(insert(*args, **kwargs)))
    except ValueError as error:
        return (type(error).__name__, str(error))


def reference_region_masks_containing(
    isg, seed_mask: int, max_explored: int = 20000
) -> Tuple[List[int], int, int]:
    """``(minimal regions, explored, per-arc calls)``: the region expansion
    with the per-arc test on every event until the first violating one."""
    if not seed_mask:
        return [], 0, 0
    full_mask = isg.full_mask
    arc_bits_of = [isg.event_arc_bits(event) for event in isg.event_list]
    found: List[int] = []
    visited: Set[int] = set()
    stack = [seed_mask]
    explored = 0
    arc_calls = 0
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        explored += 1
        if explored > max_explored:
            raise RegionSearchBudgetExceeded(
                f"region expansion explored more than {max_explored} candidate sets"
            )
        if current == full_mask:
            found.append(full_mask)
            continue
        choices = None
        for arc_bits in arc_bits_of:
            arc_calls += 1
            choices = _expansion_choices_mask(arc_bits, current)
            if choices is not None:
                break
        if choices is None:
            found.append(current)
            continue
        for addition in choices:
            expanded = current | addition
            if expanded not in visited:
                stack.append(expanded)
    return _keep_minimal_masks(found), explored, arc_calls


# ----------------------------------------------------------------------
# state-graph elaboration
# ----------------------------------------------------------------------
def reference_infer_encoding(ts, signals, initial_values=None):
    """The dictionary-based encoding inference (per-state dicts keyed by
    signal name, a queue of ``(state, signal)`` facts)."""
    initial_values = dict(initial_values or {})
    index = {signal: position for position, signal in enumerate(signals)}
    known: Dict[object, Dict[str, int]] = {state: {} for state in ts.states}
    queue = deque()

    def assign(state, signal, value, reason):
        current = known[state].get(signal)
        if current is None:
            known[state][signal] = value
            queue.append((state, signal))
        elif current != value:
            raise InconsistentSTGError(
                f"signal {signal!r} forced to both {current} and {value} "
                f"in state {state!r} ({reason})"
            )

    arcs_by_state = {state: [] for state in ts.states}
    for source, edge, target in ts.transitions():
        if not isinstance(edge, SignalEdge):
            raise TypeError(f"state-graph events must be SignalEdge, got {edge!r}")
        arcs_by_state[source].append((edge, target))
        arcs_by_state[target].append((edge, source))
        assign(source, edge.signal, edge.value_before(), f"source of {edge}")
        assign(target, edge.signal, edge.value_after(), f"target of {edge}")

    while queue:
        state, signal = queue.popleft()
        value = known[state][signal]
        for edge, other in arcs_by_state[state]:
            if edge.signal != signal:
                other_value = known[other].get(signal)
                if other_value is None:
                    assign(other, signal, value, f"propagated across {edge}")
                elif other_value != value:
                    raise InconsistentSTGError(
                        f"signal {signal!r} inconsistent across {edge}: "
                        f"{value} vs {other_value}"
                    )

    encoding = {}
    for state in ts.states:
        encoding[state] = tuple(
            known[state].get(signal, initial_values.get(signal, 0)) for signal in signals
        )
    if ts.initial_state is not None:
        for signal, value in initial_values.items():
            if signal in index:
                actual = encoding[ts.initial_state][index[signal]]
                if actual != value:
                    raise InconsistentSTGError(
                        f"declared initial value {signal}={value} contradicts the "
                        f"inferred value {actual}"
                    )
    return encoding


def reference_build_state_graph(stg, initial_values=None, max_states=None) -> StateGraph:
    """Elaborate ``stg`` through the P/T reachability graph (``Marking``
    objects fired one transition at a time, arcs added one by one)."""
    if stg.dummy_transitions:
        raise NotImplementedError(
            "state-graph elaboration of STGs with dummy transitions is not supported"
        )
    result = build_reachability_graph(
        stg.net,
        max_markings=max_states,
        label=lambda name: stg.label_of(name).base(),
    )
    if not result.safe:
        raise InconsistentSTGError(
            f"the underlying Petri net of {stg.name!r} is not safe; the region-based "
            "encoding theory assumes safe STGs"
        )
    merged_initial = dict(stg.initial_values)
    if initial_values:
        merged_initial.update(initial_values)
    encoding = reference_infer_encoding(result.graph, stg.signals, merged_initial)
    return StateGraph(
        ts=result.graph,
        signals=stg.signals,
        signal_types={s: stg.signal_types[s] for s in stg.signals},
        encoding=encoding,
        name=stg.name,
    )


def elaboration_outcome(build, *args, **kwargs):
    """``("graph", layout)`` of an elaboration, or ``(error type,
    message)`` when it raises a :class:`ValueError`."""
    try:
        return ("graph", state_graph_layout(build(*args, **kwargs)))
    except ValueError as error:
        return (type(error).__name__, str(error))


# ----------------------------------------------------------------------
# synthesis extraction and verification
# ----------------------------------------------------------------------
def reference_classify_codes(sg, signal):
    """Sorted ON/OFF code tuples of ``signal`` from per-state
    ``next_value`` calls."""
    on_codes: Set[tuple] = set()
    off_codes: Set[tuple] = set()
    for state in sg.states:
        if sg.next_value(state, signal):
            on_codes.add(sg.code(state))
        else:
            off_codes.add(sg.code(state))
    overlap = on_codes & off_codes
    if overlap:
        raise CSCViolationError(
            f"signal {signal!r} has {len(overlap)} codes with contradictory next values; "
            "solve CSC before extracting logic"
        )
    return sorted(on_codes), sorted(off_codes)


def reference_trigger_signals(sg, signal) -> Set[str]:
    """Trigger signals of ``signal`` over its connected excitation
    regions, each region's entering arcs found by a scan of every arc."""
    triggers: Set[str] = set()
    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        if edge not in sg.ts.events:
            continue
        for region in excitation_regions(sg.ts, edge):
            for event in trigger_events(sg.ts, region):
                if isinstance(event, SignalEdge):
                    triggers.add(event.signal)
    return triggers


def reference_check_excitation(network, sg) -> VerificationReport:
    """The excitation-equivalence token game on state objects and code
    tuples (each gate evaluated through ``Cover.contains_minterm``),
    following every successor arc."""
    report = VerificationReport(ok=True, mode="decomposed" if network.is_decomposed else "complex")
    frontier = deque([sg.initial_state])
    seen = {sg.initial_state}
    while frontier:
        state = frontier.popleft()
        report.states_checked += 1
        code = sg.code(state)
        net_excited = set(network.excited(code))
        sg_excited = {edge.signal for edge in sg.enabled_noninput_edges(state)}
        if net_excited != sg_excited:
            report.ok = False
            if len(report.mismatches) < _MAX_RECORDED_MISMATCHES:
                report.mismatches.append(
                    {
                        "check": "excitation",
                        "code": "".join(str(v) for v in code),
                        "netlist": sorted(net_excited),
                        "state_graph": sorted(sg_excited),
                    }
                )
        for _edge, successor in sg.ts.successors(state):
            report.transitions_checked += 1
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return report


# ----------------------------------------------------------------------
# the greedy merge of the Figure-4 search
# ----------------------------------------------------------------------
def reference_greedy_merge_indexed(ranked, evaluator, num_states, settings) -> Optional[tuple]:
    """``(mask, bricks, neighbours, cost)`` of the one-by-one greedy
    merge (each union costed on its own), or ``None`` when no union
    improves on the best block."""
    if not ranked:
        return None
    best = ranked[0]
    current = (best.mask, best.bricks, best.neighbours)
    current_eval = best.evaluation
    improved = False
    for other in ranked[1 : settings.max_merge_candidates]:
        union_mask = current[0] | other.mask
        if union_mask.bit_count() >= num_states or union_mask == current[0]:
            continue
        evaluation = evaluator.kernel.evaluate(union_mask)
        if evaluation is None:
            continue
        if evaluation.cost < current_eval.cost:
            current = (union_mask, current[1] | other.bricks, current[2] | other.neighbours)
            current_eval = evaluation
            improved = True
    if not improved:
        return None
    return current + (current_eval.cost,)


def transition_update(ssg, transition):
    """``(changed levels, after cube)`` of one compiled symbolic transition.

    The image of a state set ``S`` under the transition is
    ``(∃ changed . S ∧ enabling) ∧ after``: the variables the firing
    writes are quantified out and set to their post-firing values.
    """
    after = {2 * var: value for var, _need, value in transition.effect if value is not None}
    return sorted(after), ssg.bdd.cube(after)


def reference_chained_reached(ssg, initial=None):
    """The reachable set of a symbolic state graph by chained iteration.

    Each transition's image over the whole reached set is folded into
    the set at once; the loop stops after a quiet cycle, once every
    transition in turn has fired without growing the set.  ``initial``
    defaults to the graph's initial state.
    """
    bdd = ssg.bdd
    updates = [(t.enabling, *transition_update(ssg, t)) for t in ssg._transitions]
    reached = ssg.initial_cube() if initial is None else initial
    quiet = 0
    while quiet < len(updates):
        for enabling, changed, after in updates:
            moved = bdd.and_exists(reached, enabling, changed)
            grown = bdd.apply_or(reached, bdd.apply_and(moved, after))
            if grown != reached:
                reached, quiet = grown, 1
            else:
                quiet += 1
                if quiet == len(updates):
                    break
    return reached


def reference_safety_failure(ssg, reached):
    """The fused safety/consistency test on the whole reached set.

    Returns ``None`` when every transition passes, ``"not safe"`` or the
    name of the first inconsistent transition in net order otherwise —
    the verdict the per-level test of the symbolic state graph must
    reproduce.
    """
    bdd = ssg.bdd
    for transition in ssg._transitions:
        bad = bdd.apply_diff(
            transition.place_enabling,
            bdd.apply_and(transition.produced_empty, transition.enabling),
        )
        if bdd.apply_and(reached, bad) == bdd.false:
            continue
        enabled = bdd.apply_and(reached, transition.place_enabling)
        if bdd.apply_diff(enabled, transition.produced_empty) != bdd.false:
            return "not safe"
        return transition.name
    return None
