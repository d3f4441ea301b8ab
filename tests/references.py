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
* The object-space analysis of the insertion search, each function the
  twin of an index-space one:
  :func:`ipartition_from_block` (with :func:`exit_border` and
  :func:`min_wellformed_exit_border`) derives the I-partition of a block
  that :class:`repro.core.indexed.EvalKernel` reads off a bitmask;
  :func:`compute_bricks` and :func:`brick_adjacency` are the brick
  decomposition and adjacency of :func:`repro.core.indexed.indexed_brick_bundle`;
  :func:`evaluate_block` costs a block as the kernel does;
  :func:`csc_conflicts_from_scratch` recomputes the conflict list
  :func:`repro.core.csc.csc_conflicts` derives incrementally; and
  :func:`reference_check_insertion` (with :func:`delayed_events`)
  materialises an insertion and then checks it, the decision
  :meth:`repro.core.indexed.IndexedStateGraph.decide_insertion` makes on
  the parent's index.
* :func:`reference_greedy_merge_indexed` is the one-by-one greedy merge
  of the Figure-4 search; the search batches its unions.
* :func:`reference_block_evaluation` is the eager candidate evaluation
  the Figure-4 search ran on every generated block: side table and cost
  in one scalar pass.  The search now costs batches without side tables
  and derives a side table only for a candidate its SIP check examines.
* :func:`reference_explore` is symbolic exploration as it ran before it
  saturated a toggle system: a marking-only BFS infers the initial
  signal values (:func:`reference_infer_initial_values`), then a
  saturation of the STG's own firings, each waiting for its signal's
  value, runs from them (:func:`reference_value_saturation`).
* :func:`reference_chained_reached` is the chained image fixpoint over
  the whole reached set, of the STG's own firings or of the toggle
  system, the iteration symbolic exploration replaces with saturation;
  :func:`transition_update` gives it, and the other symbolic
  references, each transition's image relation.
  :func:`reference_safety_failure` is the safety/consistency test on
  the whole reached set, which the symbolic state graph runs per level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cost import Cost, evaluate_partition
from repro.core.csc import CSCConflict, _noninput_signature, _states_by_code
from repro.core.excitation import excitation_regions, trigger_events
from repro.core.insertion import (
    ARC_VALUES,
    IllegalInsertionError,
    illegal_crossing,
    insert_signal,
)
from repro.core.ipartition import S0, S1, SMINUS, SPLUS, IPartition
from repro.core.regions import (
    RegionSearchBudgetExceeded,
    _expansion_choices_mask,
    _keep_minimal_masks,
    minimal_postregions,
    minimal_preregions,
)
from repro.core.sip import InsertionCheck
from repro.stg.signals import SignalEdge, SignalType
from repro.logic.nextstate import CSCViolationError
from repro.petri.reachability import build_reachability_graph
from repro.stg.state_graph import InconsistentSTGError, StateGraph
from repro.synth.simulate import _MAX_RECORDED_MISMATCHES, VerificationReport
from repro.ts.properties import is_commutative, is_deterministic, is_event_persistent
from repro.ts.transition_system import TransitionSystem
from repro.utils.ordered import stable_sorted

State = Hashable
Event = Hashable
Brick = FrozenSet[State]


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
        [(state, ts.predecessors(state)) for state in ts.states],
        [(event, ts.transitions_of(event)) for event in ts.events],
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
def reference_block_evaluation(kernel, mask: int) -> Optional[Tuple[bytes, Cost]]:
    """``(side table, cost)`` of a block bitmask under an
    :class:`~repro.core.indexed.EvalKernel`, or ``None`` for a degenerate
    block: exit borders by a worklist over the successor lists, solved
    pairs against the stable sides, and trigger/delay accounting over
    the border-incident signal arcs."""
    n = kernel.num_states
    if mask == 0 or mask == kernel.full_mask or mask.bit_count() >= n:
        return None
    succ = kernel.succ_targets
    side = bytearray(kernel.s1_template)
    members = [i for i in range(n) if mask >> i & 1]
    for i in members:
        side[i] = S0

    def close(seeds, inside, mark):
        border = list(seeds)
        for i in seeds:
            side[i] = mark
        stack = list(seeds)
        while stack:
            i = stack.pop()
            for t in succ[i]:
                if side[t] == inside:
                    side[t] = mark
                    border.append(t)
                    stack.append(t)
        return border

    splus = close(
        [i for i in members if any(side[t] == S1 for t in succ[i])], S0, SPLUS
    )
    if not splus:
        return None
    complement = [i for i in range(n) if side[i] == S1]
    sminus = close(
        [i for i in complement if any(side[t] < S1 for t in succ[i])], S1, SMINUS
    )
    if not sminus:
        return None

    solved = 0
    for first, second_mask in zip(kernel.first_sides, kernel.second_masks):
        for second in range(n):
            if second_mask >> second & 1 and {side[first], side[second]} == {S0, S1}:
                solved += 1
    entering_plus: Set[int] = set()
    entering_minus: Set[int] = set()
    delayed: Set[int] = set()
    for b in splus:
        for src, signal in kernel.in_sig_arcs[b]:
            if side[src] != SPLUS:
                entering_plus.add(signal)
                if side[src] == SMINUS:
                    delayed.add(signal)
        for tgt, signal in kernel.out_sig_arcs[b]:
            if side[tgt] == S1:
                delayed.add(signal)
    for b in sminus:
        for src, signal in kernel.in_sig_arcs[b]:
            if side[src] != SMINUS:
                entering_minus.add(signal)
                if side[src] == SPLUS:
                    delayed.add(signal)
        for tgt, signal in kernel.out_sig_arcs[b]:
            if side[tgt] == S0:
                delayed.add(signal)
    input_delays = 0
    if kernel.count_input_delays:
        input_delays = sum(1 for signal in delayed if kernel.signal_is_input[signal])
    cost = Cost(
        unsolved_conflicts=kernel.pair_count - solved,
        input_delays=input_delays,
        trigger_estimate=len(entering_plus) + len(entering_minus) + len(delayed),
        border_size=len(splus) + len(sminus),
    )
    return bytes(side), cost


def reference_greedy_merge_indexed(ranked, evaluator, num_states, settings) -> Optional[tuple]:
    """``(mask, bricks, neighbours, cost)`` of the one-by-one greedy
    merge (each union costed on its own), or ``None`` when no union
    improves on the best block."""
    if not ranked:
        return None
    best = ranked[0]
    current = (best.mask, best.bricks, best.neighbours)
    current_cost = best.cost
    improved = False
    for other in ranked[1 : settings.max_merge_candidates]:
        union_mask = current[0] | other.mask
        if union_mask.bit_count() >= num_states or union_mask == current[0]:
            continue
        cost = evaluator.kernel.cost(union_mask)
        if cost is not None and cost < current_cost:
            current = (union_mask, current[1] | other.bricks, current[2] | other.neighbours)
            current_cost = cost
            improved = True
    if not improved:
        return None
    return current + (current_cost,)


def transition_update(ssg, transition, before=None):
    """``(enabling, changed levels, after cube)`` of one compiled symbolic
    transition fired with its signal at ``before`` (its ``value_before``
    unless given).

    The image of a state set ``S`` is ``(∃ changed . S ∧ enabling) ∧
    after``: the variables the firing writes are quantified out and set
    to their post-firing values.  With the default ``before`` it is the
    firing of the STG proper; with both values, of the toggle system
    symbolic exploration saturates.
    """
    bdd = ssg.bdd
    signal = 2 * ssg.signal_vars[transition.edge.signal]
    if before is None:
        before = transition.edge.value_before()
    # every place a firing touches ends at what a 1 moves to (emptied,
    # kept or marked); the signal's own entry is the toggle, overridden
    after = {2 * var: moves[1] for var, moves in transition.effect}
    after[signal] = 1 - before
    enabling = bdd.apply_and(transition.place_enabling, bdd.cube({signal: before}))
    return enabling, sorted(after), bdd.cube(after)


def reference_state_cube(ssg, values):
    """The initial marking of ``ssg`` with signal values ``values``."""
    marking = ssg.stg.initial_marking
    assignment = {2 * var: int(marking.count(place) > 0) for place, var in ssg.place_vars.items()}
    assignment.update({2 * var: values[signal] for signal, var in ssg.signal_vars.items()})
    return ssg.bdd.cube(assignment)


def reference_infer_initial_values(ssg):
    """Initial signal values by a marking-only BFS from the initial marking.

    Declared values win.  For the rest, the first BFS level at which some
    transition of the signal is enabled by tokens gives the signal its
    ``value_before``; two first-enabled edges that disagree mean the STG
    is not consistent.  Signals never enabled start at 0.
    """
    bdd = ssg.bdd
    values = dict(ssg.stg.initial_values)
    pending = [s for s in ssg.signals if s not in values]
    by_signal = {}
    images = []
    for transition in ssg._transitions:
        by_signal.setdefault(transition.edge.signal, []).append(transition)
        places = {
            2 * var: to[1]
            for var, to in transition.effect
            if var != ssg.signal_vars[transition.edge.signal]
        }
        images.append((transition.place_enabling, sorted(places), bdd.cube(places)))
    marking = ssg.stg.initial_marking
    reached = frontier = bdd.cube(
        {2 * var: int(marking.count(place) > 0) for place, var in ssg.place_vars.items()}
    )
    while pending and frontier != bdd.false:
        resolved = []
        for signal in pending:
            befores = {
                t.edge.value_before()
                for t in by_signal.get(signal, ())
                if bdd.apply_and(frontier, t.place_enabling) != bdd.false
            }
            if len(befores) > 1:
                raise InconsistentSTGError(
                    f"signal {signal!r} can first fire both rising and falling "
                    f"from the initial marking of {ssg.name!r}"
                )
            if befores:
                values[signal] = befores.pop()
                resolved.append(signal)
        pending = [s for s in pending if s not in resolved]
        if not pending:
            break
        new = bdd.false
        for enabling, changed, after in images:
            moved = bdd.and_exists(frontier, enabling, changed)
            new = bdd.apply_or(new, bdd.apply_and(moved, after))
        frontier = bdd.apply_diff(new, reached)
        reached = bdd.apply_or(reached, frontier)
    return {s: values.get(s, 0) for s in ssg.signals}


def reference_value_saturation(ssg, initial):
    """Saturation of the STG's own firings, each waiting for its signal's
    ``value_before`` (Ciardo, Lüttgen and Siminiceanu's algorithm as the
    symbolic state graph ran it before it saturated a toggle system)."""
    bdd = ssg.bdd
    cofactors = bdd.cofactors
    make_node = bdd.make_node
    apply_or = bdd.apply_or
    false = bdd.false
    levels = [var for var in bdd.var_order() if var % 2 == 0]
    level_of = {var: k for k, var in enumerate(levels)}
    local = []
    for transition in ssg._transitions:
        effect = dict(transition.effect)
        rising = transition.edge.value_before() == 0
        effect[ssg.signal_vars[transition.edge.signal]] = (1, None) if rising else (None, 0)
        local.append({level_of[2 * var]: moves for var, moves in effect.items()})
    depth = len(levels)
    bottom = [max(steps) for steps in local]
    by_top = [[] for _ in range(depth)]
    for index, steps in enumerate(local):
        by_top[min(steps)].append(index)
    saturated, fired = {}, {}

    def saturate(k, node):
        if node == false or k == depth:
            return node
        if (k, node) not in saturated:
            low, high = cofactors(node, levels[k])
            node_sat = make_node(levels[k], saturate(k + 1, low), saturate(k + 1, high))
            saturated[(k, node)] = close(k, node_sat)
        return saturated[(k, node)]

    def close(k, node):
        events = by_top[k]
        quiet = position = 0
        while quiet < len(events):
            event = events[position]
            position = (position + 1) % len(events)
            low, high = cofactors(node, levels[k])
            add_low, add_high = step(event, k, low, high)
            grown = make_node(levels[k], apply_or(low, add_low), apply_or(high, add_high))
            node, quiet = (node, quiet + 1) if grown == node else (grown, 0)
        return node

    def step(event, k, low, high):
        moves = local[event].get(k, (0, 1))
        added = [false, false]
        for child, to in ((low, moves[0]), (high, moves[1])):
            if child != false and to is not None:
                added[to] = apply_or(added[to], fire(event, k + 1, child))
        return added

    def fire(event, k, node):
        if node == false or k > bottom[event]:
            return node
        if (event, k, node) not in fired:
            low, high = step(event, k, *cofactors(node, levels[k]))
            fired[(event, k, node)] = close(k, make_node(levels[k], low, high))
        return fired[(event, k, node)]

    return saturate(0, initial)


def reference_explore(ssg):
    """``(initial values, reached set)`` of ``ssg`` by the marking-only BFS
    and the value-conditioned saturation, checked for safeness and
    consistency (raises :class:`InconsistentSTGError` like
    :meth:`SymbolicStateGraph.explore`)."""
    values = reference_infer_initial_values(ssg)
    reached = reference_value_saturation(ssg, reference_state_cube(ssg, values))
    ssg._check_safe_and_consistent(reached)
    return values, reached


def reference_chained_reached(ssg, initial=None, toggle=False):
    """The reachable set of a symbolic state graph by chained iteration.

    Each transition's image over the whole reached set is folded into
    the set at once; the loop stops after a quiet cycle, once every
    image in turn has left the set as it was.  ``initial`` defaults to
    the initial marking with the BFS-inferred values
    (:func:`reference_infer_initial_values`); ``toggle`` fires the
    toggle system (each signal flipped whatever its value) instead of
    the STG's own firings.
    """
    bdd = ssg.bdd
    updates = [
        transition_update(ssg, t, before)
        for t in ssg._transitions
        for before in ((0, 1) if toggle else (t.edge.value_before(),))
    ]
    if initial is None:
        initial = reference_state_cube(ssg, reference_infer_initial_values(ssg))
    reached = initial
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


# ----------------------------------------------------------------------
# the object-space analysis of the insertion search
# ----------------------------------------------------------------------
def exit_border(ts: TransitionSystem, block: Iterable[State]) -> Set[State]:
    """``EB(block)``: states of ``block`` with a transition leaving it."""
    block_set = set(block)
    border: Set[State] = set()
    for state in block_set:
        for _event, target in ts.successors(state):
            if target not in block_set:
                border.add(state)
                break
    return border


def min_wellformed_exit_border(ts: TransitionSystem, block: Iterable[State]) -> Set[State]:
    """``MWFEB(block)``: the smallest well-formed exit border of ``block``.

    Computed with the recursion of Section 4: seed with the states of
    ``block`` that have a transition leaving ``block`` (condition 1), then
    close under successors *inside* ``block`` (condition 2) until no
    transition escapes from the border back into the interior.
    """
    block_set = set(block)
    border = exit_border(ts, block_set)
    frontier = list(border)
    while frontier:
        state = frontier.pop()
        for _event, target in ts.successors(state):
            if target in block_set and target not in border:
                border.add(target)
                frontier.append(target)
    return border


def ipartition_from_block(ts: TransitionSystem, block: Iterable[State]) -> IPartition:
    """Derive the I-partition induced by a bipartition block ``b``.

    ``S+ = MWFEB(b)``, ``S- = MWFEB(S \\ b)``, ``S0 = b - S+`` and
    ``S1 = (S \\ b) - S-`` — the minimum-concurrency configuration of the
    inserted signal (Section 5); concurrency can then be increased by
    enlarging ``S+``/``S-``.
    """
    block_set = set(block)
    complement = set(ts.states) - block_set
    splus = min_wellformed_exit_border(ts, block_set)
    sminus = min_wellformed_exit_border(ts, complement)
    return IPartition(
        s0=frozenset(block_set - splus),
        splus=frozenset(splus),
        s1=frozenset(complement - sminus),
        sminus=frozenset(sminus),
    )


def _intersection_closure(regions: Sequence[Brick], max_per_event: int = 64) -> List[Brick]:
    """Close a family of sets under pairwise intersection.

    The number of pre/post-regions of an event "is usually small" (paper,
    Section 5), so the closure is tiny in practice; ``max_per_event``
    guards against pathological blow-up.
    """
    closure: List[Brick] = list(dict.fromkeys(regions))
    queue = list(closure)
    while queue and len(closure) < max_per_event:
        current = queue.pop()
        for other in list(closure):
            candidate = current & other
            if candidate and candidate not in closure:
                closure.append(candidate)
                queue.append(candidate)
                if len(closure) >= max_per_event:
                    break
    return closure


def event_region_bricks(
    ts: TransitionSystem, event, max_explored: int = 20000
) -> List[Brick]:
    """The region-derived bricks contributed by one event.

    Minimal pre- and post-regions of ``event`` together with their
    per-event intersection closures — the per-event unit of work of
    ``compute_bricks(mode="regions")``.
    """
    pre = minimal_preregions(ts, event, max_explored=max_explored)
    post = minimal_postregions(ts, event, max_explored=max_explored)
    return _intersection_closure(pre) + _intersection_closure(post)


def compute_bricks(
    ts: TransitionSystem,
    mode: str = "regions",
    max_explored: int = 20000,
) -> List[Brick]:
    """Compute the brick set of a transition system.

    ``mode`` selects the granularity of the search space:

    * ``"regions"`` — the paper's method: minimal pre/post-regions, their
      per-event intersections and the excitation regions.
    * ``"excitation"`` — excitation regions only (the granularity of the
      ASSASSIN-style baseline, Property P2 only).
    * ``"states"`` — every single state is a brick (the "sand" of
      state-level methods).
    """
    if mode == "states":
        bricks = [frozenset([state]) for state in ts.states]
        return _deduplicate(bricks)

    bricks: List[Brick] = []
    for event in stable_sorted(ts.events):
        for er in excitation_regions(ts, event):
            bricks.append(er)

    if mode == "excitation":
        return _deduplicate(bricks)
    if mode != "regions":
        raise ValueError(f"unknown brick mode: {mode!r}")

    for event in stable_sorted(ts.events):
        bricks.extend(event_region_bricks(ts, event, max_explored=max_explored))
    return _deduplicate(bricks)


def _deduplicate(bricks: Iterable[Brick]) -> List[Brick]:
    unique = list(dict.fromkeys(b for b in bricks if b))
    unique.sort(key=lambda b: (len(b), sorted(map(repr, b))))
    return unique


def brick_adjacency(
    ts: TransitionSystem, bricks: Sequence[Brick]
) -> Dict[int, Set[int]]:
    """Adjacency between bricks, by index into ``bricks``.

    Two bricks are adjacent when they overlap or when a transition of the
    TS connects a state of one to a state of the other; unions of adjacent
    bricks therefore stay weakly connected, which is what the Figure-4
    search wants while growing a block.
    """
    state_to_bricks: Dict[State, List[int]] = {}
    for index, brick in enumerate(bricks):
        for state in brick:
            state_to_bricks.setdefault(state, []).append(index)

    adjacency: Dict[int, Set[int]] = {index: set() for index in range(len(bricks))}

    # Overlap adjacency.
    for indices in state_to_bricks.values():
        for i in indices:
            for j in indices:
                if i != j:
                    adjacency[i].add(j)

    # Arc adjacency.
    for source, _event, target in ts.transitions():
        for i in state_to_bricks.get(source, ()):
            for j in state_to_bricks.get(target, ()):
                if i != j:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return adjacency


@dataclass
class BlockEvaluation:
    """A candidate block together with its derived partition and cost."""

    block: FrozenSet[State]
    partition: IPartition
    cost: Cost


def evaluate_block(
    sg: StateGraph,
    block: Iterable[State],
    conflicts: Sequence[CSCConflict],
    allow_input_delay: bool = True,
) -> Optional[BlockEvaluation]:
    """Evaluate a candidate bipartition block.

    Returns ``None`` for degenerate blocks (empty, full, or blocks whose
    induced signal never switches), which the search silently skips.  With
    ``allow_input_delay=False`` candidates that would delay an input
    transition are also rejected here, so the search never wastes frontier
    slots on insertions the SIP check is bound to refuse.
    """
    block_set = frozenset(block)
    if not block_set or len(block_set) >= sg.num_states:
        return None
    partition = ipartition_from_block(sg.ts, block_set)
    if not partition.splus or not partition.sminus:
        return None
    return BlockEvaluation(
        block=block_set,
        partition=partition,
        cost=evaluate_partition(
            sg, partition, conflicts, count_input_delays=not allow_input_delay
        ),
    )


def _conflicts_of_groups(
    sg: StateGraph, groups: Dict[Code, List[State]]
) -> List[CSCConflict]:
    conflicts: List[CSCConflict] = []
    for code, states in groups.items():
        if len(states) < 2:
            continue
        ordered = stable_sorted(states)
        signatures = {state: _noninput_signature(sg, state) for state in ordered}
        for i, first in enumerate(ordered):
            for second in ordered[i + 1 :]:
                if signatures[first] != signatures[second]:
                    conflicts.append(CSCConflict(first, second, code))
    return conflicts


def csc_conflicts_from_scratch(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs, recomputed over the full state graph.

    This is the reference implementation; :func:`csc_conflicts` (the
    entry point everything else uses) adds per-graph memoization and an
    incremental path for graphs produced by signal insertion.
    """
    return _conflicts_of_groups(sg, _states_by_code(sg))


def delayed_events(ts: TransitionSystem, partition: IPartition) -> Set[Event]:
    """Events whose firing is postponed until after the new signal fires.

    These are the events labelling transitions that leave ``ER(x+)``
    towards the ``x = 1`` side or leave ``ER(x-)`` towards the ``x = 0``
    side; after insertion they acquire the new signal as a trigger, and
    they must not be input events ("x cannot be inserted before input
    events", Section 5).
    """
    delayed: Set[Event] = set()
    one_side = partition.s1 | partition.sminus
    zero_side = partition.s0 | partition.splus
    for source, event, target in ts.transitions():
        if source in partition.splus and target in one_side:
            delayed.add(event)
        elif source in partition.sminus and target in zero_side:
            delayed.add(event)
    return delayed


def reference_check_insertion(
    sg: StateGraph,
    partition: IPartition,
    signal: str = "__csc_probe__",
    signal_type: SignalType = SignalType.INTERNAL,
    persistent_before: Optional[Set[Event]] = None,
    check_commutativity: bool = True,
    allow_input_delay: bool = False,
) -> InsertionCheck:
    """Verify that the insertion preserves speed independence on the
    materialised expanded graph, and carry it out (``new_sg``) when the
    partition is legal.

    Checks, in order:

    1. both excitation regions of the new signal are non-empty (the signal
       actually switches) — degenerate partitions are rejected;
    2. no *input* event is delayed by the new signal;
    3. the expanded state graph is deterministic and commutative;
    4. every event that was persistent before the insertion is still
       persistent (this subsumes output-persistency preservation and the
       persistency of the new signal itself).

    Each failed check adds a reason; ``kind`` names the first failed one.
    ``persistent_before`` can be supplied to avoid recomputing the set of
    persistent events of ``sg`` for every candidate.  ``allow_input_delay``
    relaxes check (2): some specifications (pure toggles, counters) have no
    input-preserving solution at all — the "changes in the specification"
    the paper mentions other tools resort to — and this switch makes that
    trade-off explicit instead of silently failing.
    """
    reasons: List[str] = []

    if not partition.splus or not partition.sminus:
        reasons.append("the inserted signal would never switch (empty ER(x+) or ER(x-))")
        return InsertionCheck(ok=False, reasons=reasons, kind="degenerate")

    delayed = frozenset(delayed_events(sg.ts, partition))
    if not allow_input_delay:
        for event in delayed:
            if isinstance(event, SignalEdge) and sg.is_input_edge(event):
                reasons.append(f"input event {event} would be delayed by the new signal")
    if reasons:
        return InsertionCheck(ok=False, reasons=reasons, delayed=delayed, kind="input_delay")

    try:
        new_sg = insert_signal(sg, partition, signal, signal_type)
    except IllegalInsertionError as error:
        return InsertionCheck(ok=False, reasons=[str(error)], delayed=delayed, kind="illegal")

    kinds: List[str] = []
    if not is_deterministic(new_sg.ts):
        reasons.append("insertion breaks determinism")
        kinds.append("determinism")
    if check_commutativity and not is_commutative(new_sg.ts):
        reasons.append("insertion breaks commutativity")
        kinds.append("commutativity")

    if persistent_before is None:
        persistent_before = {
            event for event in sg.ts.events if is_event_persistent(sg.ts, event)
        }
    for event in persistent_before:
        if isinstance(event, SignalEdge) and sg.is_input_edge(event):
            # Input persistency is an assumption about the environment, not
            # a property of the circuit; when inputs are not delayed it is
            # preserved automatically, and when the user explicitly allows
            # delaying inputs it is the environment timing that changes.
            continue
        if event in new_sg.ts.events and not is_event_persistent(new_sg.ts, event):
            reasons.append(f"event {event} loses persistency")
            kinds.append("persistency")

    # The inserted signal is an output of the circuit: it must be persistent.
    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        if edge in new_sg.ts.events and not is_event_persistent(new_sg.ts, edge):
            reasons.append(f"inserted transition {edge} is not persistent")
            kinds.append("persistency")

    return InsertionCheck(
        ok=not reasons,
        reasons=reasons,
        new_sg=new_sg,
        delayed=delayed,
        kind=kinds[0] if kinds else None,
    )
