"""The canonical integer/bitset representation of a state graph.

Every core algorithm of the CSC pipeline — excitation/quiescent region
computation, CSC conflict detection, brick decomposition, exit-border
derivation, block cost evaluation — is at heart a sequence of set
operations over state-graph states.  With states represented by their
original objects (nested ``(marking, bit)`` tuples after a few
insertions) those operations are dominated by re-hashing the objects.
This module makes the *indexed* view the representation the pipeline
runs on:

* states are interned once into ``0..n-1``; a set of states is a single
  Python ``int`` bitmask whose bit ``i`` stands for state ``i``;
* per-state successor/predecessor relations are bitmasks, so reachability
  closures, connected components and exit borders are loops of ``|``,
  ``&`` and ``bit_length`` instead of hash-set algebra;
* binary codes are packed into one ``int`` per state, so CSC conflict
  detection buckets states by integer key instead of tuple key;
* the per-signal/per-event structure (arc tables, excitation and
  switching sets, value bit-vectors) is pre-extracted for the cost model
  and the region expansion.

An :class:`IndexedStateGraph` is built once per
:class:`~repro.stg.state_graph.StateGraph` and cached by
:mod:`repro.engine.caches`; graphs produced by signal insertion derive
their index from the insertion's replay and the parent's index
(:meth:`IndexedStateGraph.derive_child`) instead of re-hashing their
transition system and re-deriving the packed codes from the encoding
dictionary.

The object-space implementations the tests compare this representation
against live in ``tests/references.py``; the golden records of
``tests/library_pins.json`` pin what the whole pipeline computes.
"""

from __future__ import annotations

import weakref
from operator import itemgetter
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.cost import Cost
from repro.core.insertion import ARC_VALUES, illegal_crossing
from repro.core.ipartition import S0, S1, SMINUS, SPLUS, IPartition
from repro.engine import caches
from repro.stg.signals import SignalEdge
from repro.utils.deadline import poll_deadline

State = Hashable
Event = Hashable

#: Side code of a state an object-space I-partition leaves uncovered
#: (:meth:`IndexedStateGraph.side_table`); such an insertion is illegal.
UNCOVERED = 4

#: The rejection kinds of an insertion verdict, in check order.
REJECTION_KINDS = (
    "degenerate",
    "input_delay",
    "illegal",
    "determinism",
    "commutativity",
    "persistency",
)

#: The set bit positions of every byte value, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if value >> b & 1) for value in range(256))


def bits_of(mask: int) -> List[int]:
    """The set bit positions of ``mask`` in ascending order.

    Isolating the lowest bit of a wide int costs time linear in its
    width, so only a sparse mask is walked bit by bit; a denser one is
    read byte by byte through a table of each byte value's bit positions.
    The two cost the same at about ``8 + width / 64`` members.
    """
    if mask.bit_count() * 64 <= mask.bit_length() + 512:
        indices = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        return indices
    indices = []
    append = indices.append
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for offset in _BYTE_BITS[byte]:
                append(base + offset)
        base += 8
    return indices


class IndexedStateGraph:
    """Interned arrays and bitmask structure of one state graph.

    The constructor performs a single pass over the transition system;
    :meth:`derive_child` indexes a graph an insertion produced from the
    insertion's replay, with no pass over its transition system.
    Everything derived (per-event excitation masks, packed codes, repr
    sort keys, enabled-signal signatures, the persistent-event set) is
    computed lazily and memoized on the instance, so a graph pays only
    for the artifacts the solver asks for.  Candidate insertions are
    decided on the parent's index (:meth:`decide_insertion`) without
    building the expanded graph at all.
    """

    __slots__ = (
        "__weakref__",
        "states",
        "_position",
        "num_states",
        "full_mask",
        "initial",
        "succ_masks",
        "und_masks",
        "succ_events",
        "succ_maps",
        "deterministic",
        "arcs",
        "signal_ids",
        "signal_is_input",
        "signal_positions",
        "input_signals",
        "codes",
        "event_list",
        "event_arcs",
        "_event_arc_bits",
        "_arc_bits_by_event",
        "parent",
        "parent_positions",
        "_er_masks",
        "_sr_masks",
        "_state_reprs",
        "_repr_ranks",
        "_signatures",
        "_noninput_event",
        "_persistent_events",
        "_commutative",
        "_succ_targets",
        "_in_sig_arcs",
        "_out_sig_arcs",
        "_s1_template",
        "_int_code_groups",
        "_shared_code_indices",
    )

    def __init__(self, sg) -> None:
        # Everything the index needs from ``sg`` is snapshotted here: the
        # instance deliberately holds no reference to the graph, so that
        # caching the index *on* the graph (repro.engine.caches) does not
        # create a reference cycle keeping encoded graphs alive until a
        # generational gc pass.
        caches.STATS.index_builds += 1
        ts = sg.ts
        states: List[State] = list(ts.states)
        position: Dict[State, int] = {state: i for i, state in enumerate(states)}
        self._position = position
        adjacency = [
            [(event, position[target]) for event, target in ts.successors(state)]
            for state in states
        ]
        self._index_arcs(sg, states, adjacency, position.get(ts.initial_state))
        # The event order of the transition system, which also lists
        # events declared without arcs and, when built arc by arc, keeps
        # the order they were added in.
        event_arcs = self.event_arcs
        self.event_list = list(ts.events)
        self.event_arcs = {event: event_arcs.get(event, []) for event in self.event_list}
        # Packed binary codes: bit ``p`` of ``codes[i]`` is the value of
        # ``sg.signals[p]`` in state ``i``, read out of the encoding.
        encoding = sg.encoding
        codes: List[int] = []
        for state in states:
            packed = 0
            for p, value in enumerate(encoding[state]):
                if value:
                    packed |= 1 << p
            codes.append(packed)
        self.codes = codes
        self.parent = None
        self.parent_positions = None
        self._init_lazy(None)

    def _index_arcs(
        self,
        sg,
        states: List[State],
        adjacency: List[List[Tuple[Event, int]]],
        initial: Optional[int],
    ) -> None:
        """The structural arrays of a graph given as per-state ``(event,
        target index)`` successor lists in transition-system order."""
        self.states = states
        n = len(states)
        self.num_states = n
        self.full_mask = (1 << n) - 1
        self.initial = initial

        succ_masks: List[int] = [0] * n
        und_masks: List[int] = [0] * n
        succ_maps: List[Dict[Event, int]] = []
        arcs: List[Tuple[int, int, int]] = []
        signal_ids: Dict[str, int] = {}
        signal_is_input: List[bool] = []
        # Per event, in order of first appearance (the order of
        # ``ts.events`` for a system built by ``from_adjacency``): its arc
        # list and its signal id (None when the event is not a signal
        # edge).
        event_info: Dict[Event, Tuple[List[Tuple[int, int]], Optional[int]]] = {}
        deterministic = True
        is_input_signal = sg.is_input_signal

        for i, outgoing in enumerate(adjacency):
            out_map: Dict[Event, int] = {}
            smask = 0
            bit_i = 1 << i
            for event, j in outgoing:
                if event in out_map:
                    deterministic = False
                else:
                    out_map[event] = j
                smask |= 1 << j
                und_masks[j] |= bit_i
                info = event_info.get(event)
                if info is None:
                    sig_id = None
                    if isinstance(event, SignalEdge):
                        signal = event.signal
                        sig_id = signal_ids.get(signal)
                        if sig_id is None:
                            sig_id = len(signal_ids)
                            signal_ids[signal] = sig_id
                            signal_is_input.append(is_input_signal(signal))
                    info = event_info[event] = ([], sig_id)
                info[0].append((i, j))
                if info[1] is not None:
                    arcs.append((i, j, info[1]))
            succ_masks[i] = smask
            und_masks[i] |= smask
            succ_maps.append(out_map)

        self.succ_masks = succ_masks
        self.und_masks = und_masks
        self.succ_events = adjacency
        self.succ_maps = succ_maps
        self.deterministic = deterministic
        self.arcs = arcs
        self.signal_ids = signal_ids
        self.signal_is_input = signal_is_input
        self.event_list = list(event_info)
        self.event_arcs = {event: info[0] for event, info in event_info.items()}

        # Signal-layout snapshot (the code-vector geometry of ``sg``).
        self.signal_positions: Dict[str, int] = {
            signal: p for p, signal in enumerate(sg.signals)
        }
        self.input_signals: Set[str] = {
            signal for signal in sg.signals if is_input_signal(signal)
        }

    def _init_lazy(self, parent: Optional["IndexedStateGraph"]) -> None:
        self._event_arc_bits: Dict[Event, List[Tuple[int, int]]] = {}
        self._arc_bits_by_event: Optional[List[tuple]] = None
        self._er_masks: Dict[Event, int] = {}
        self._sr_masks: Dict[Event, int] = {}
        self._state_reprs: Optional[List[str]] = None
        self._repr_ranks: Optional[List[int]] = None
        self._signatures: Optional[List[object]] = None
        self._noninput_event: Dict[Event, bool] = {}
        self._persistent_events: Optional[Set[Event]] = None
        # An insertion keeps a deterministic commutative graph commutative
        # (see decide_insertion), so a derived index inherits the flag.
        self._commutative: Optional[bool] = (
            True
            if parent is not None and parent.deterministic and parent._commutative
            else None
        )
        self._succ_targets: Optional[List[Tuple[int, ...]]] = None
        self._in_sig_arcs: Optional[List[List[Tuple[int, int]]]] = None
        self._out_sig_arcs: Optional[List[List[Tuple[int, int]]]] = None
        self._s1_template: Optional[bytes] = None
        self._int_code_groups: Optional[Dict[int, List[int]]] = None
        self._shared_code_indices: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # construction from an insertion (index arithmetic)
    # ------------------------------------------------------------------
    @classmethod
    def derive_child(
        cls,
        parent: "IndexedStateGraph",
        child_sg,
        states: List[State],
        order: Sequence[int],
        adjacency: List[List[Tuple[Event, int]]],
        initial: int,
    ) -> "IndexedStateGraph":
        """Index of the graph :func:`repro.core.insertion.insert_signal`
        built by inserting one signal into ``parent``'s graph.

        The insertion's replay already knows the child: ``states[c]`` is
        replay node ``order[c] = 2 * i + x`` (parent state ``i``, value
        ``x`` of the new signal), ``adjacency[c]`` its ``(event, child
        index)`` arcs and ``initial`` the initial child index.  The arrays
        are filled from those lists; no child state is hashed (the
        state-to-index map is built only when read).  Packed codes are
        ``code(i) | x << p`` for the new signal at position ``p``, and
        every child state records its parent index, which the
        incremental CSC re-analysis walks.
        """
        self = cls.__new__(cls)
        self._position = None
        self._index_arcs(child_sg, states, adjacency, initial)
        # Provenance of an insertion-derived index.  The parent is held
        # weakly, mirroring the engine cache's provenance: long insertion
        # chains must stay collectable.
        new_position = len(parent.signal_positions)
        parent_codes = parent.codes
        self.parent_positions = [node >> 1 for node in order]
        self.codes = [parent_codes[node >> 1] | (node & 1) << new_position for node in order]
        self.parent = weakref.ref(parent)
        self._init_lazy(parent)
        return self

    @property
    def position(self) -> Dict[State, int]:
        """The index of every state (built on first read)."""
        position = self._position
        if position is None:
            position = {state: i for i, state in enumerate(self.states)}
            self._position = position
        return position

    # ------------------------------------------------------------------
    # mask <-> object conversions
    # ------------------------------------------------------------------
    def mask_of(self, members: Sequence[State]) -> int:
        position = self.position
        mask = 0
        for state in members:
            mask |= 1 << position[state]
        return mask

    def frozenset_of_mask(self, mask: int) -> FrozenSet[State]:
        states = self.states
        return frozenset(states[i] for i in bits_of(mask))

    # ------------------------------------------------------------------
    # packed binary codes (CSC)
    # ------------------------------------------------------------------
    def value_mask(self, signal: str) -> int:
        """Per-signal value bit-vector: the states in which ``signal``
        holds 1, as one bitmask."""
        bit = 1 << self.signal_positions[signal]
        mask = 0
        for i, code in enumerate(self.codes):
            if code & bit:
                mask |= 1 << i
        return mask

    def code_groups_idx(self) -> Dict[int, List[int]]:
        """State indices bucketed by packed code, in first-seen order —
        the integer-keyed form of :func:`repro.core.csc.code_groups`."""
        groups = self._int_code_groups
        if groups is None:
            groups = {}
            for i, code in enumerate(self.codes):
                bucket = groups.get(code)
                if bucket is None:
                    groups[code] = [i]
                else:
                    bucket.append(i)
            self._int_code_groups = groups
        return groups

    def parent_index(self) -> Optional["IndexedStateGraph"]:
        """The parent graph's index this one was derived from, or ``None``
        when underived (or the parent has been collected)."""
        if self.parent is None:
            return None
        return self.parent()

    def shared_code_indices(self) -> Set[int]:
        """Indices of states whose packed code is shared by another state
        (the USC-violating states — the only CSC candidates)."""
        shared = self._shared_code_indices
        if shared is None:
            shared = set()
            for members in self.code_groups_idx().values():
                if len(members) > 1:
                    shared.update(members)
            self._shared_code_indices = shared
        return shared

    # ------------------------------------------------------------------
    # per-event structure (ER/SR sets as bitmask unions)
    # ------------------------------------------------------------------
    def er_mask(self, event: Event) -> int:
        """Union of the excitation regions of ``event`` (its source set)."""
        mask = self._er_masks.get(event)
        if mask is None:
            mask = 0
            for source, _target in self.event_arcs.get(event, ()):
                mask |= 1 << source
            self._er_masks[event] = mask
        return mask

    def sr_mask(self, event: Event) -> int:
        """Union of the switching regions of ``event`` (its target set)."""
        mask = self._sr_masks.get(event)
        if mask is None:
            mask = 0
            for _source, target in self.event_arcs.get(event, ()):
                mask |= 1 << target
            self._sr_masks[event] = mask
        return mask

    @property
    def succ_targets(self) -> List[Tuple[int, ...]]:
        """Deduplicated successor indices of every state (lazy)."""
        targets = self._succ_targets
        if targets is None:
            targets = [
                tuple(dict.fromkeys(j for _event, j in outgoing))
                for outgoing in self.succ_events
            ]
            self._succ_targets = targets
        return targets

    @property
    def in_sig_arcs(self) -> List[List[Tuple[int, int]]]:
        """Per-state ``(source, signal_id)`` lists of incoming signal arcs."""
        in_arcs = self._in_sig_arcs
        if in_arcs is None:
            self._build_sig_arcs()
            in_arcs = self._in_sig_arcs
        return in_arcs

    @property
    def out_sig_arcs(self) -> List[List[Tuple[int, int]]]:
        """Per-state ``(target, signal_id)`` lists of outgoing signal arcs."""
        out_arcs = self._out_sig_arcs
        if out_arcs is None:
            self._build_sig_arcs()
            out_arcs = self._out_sig_arcs
        return out_arcs

    def _build_sig_arcs(self) -> None:
        n = self.num_states
        in_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        out_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for source, target, signal in self.arcs:
            out_arcs[source].append((target, signal))
            in_arcs[target].append((source, signal))
        self._in_sig_arcs = in_arcs
        self._out_sig_arcs = out_arcs

    @property
    def s1_template(self) -> bytes:
        """An all-``S1`` side table to memcpy fresh evaluations from."""
        template = self._s1_template
        if template is None:
            template = bytes([S1]) * self.num_states
            self._s1_template = template
        return template

    def event_arc_bits(self, event: Event) -> List[Tuple[int, int]]:
        """The arcs of ``event`` as ``(source_bit, target_bit)`` single-bit
        masks (memoized) — the shape the region expansion consumes."""
        bits = self._event_arc_bits.get(event)
        if bits is None:
            bits = [(1 << s, 1 << t) for s, t in self.event_arcs.get(event, ())]
            self._event_arc_bits[event] = bits
        return bits

    @property
    def arc_bits_by_event(self) -> List[tuple]:
        """``(endpoint mask, source mask, target mask, arc bits, source
        digits, target digits)`` of every event, in ``event_list`` order
        (memoized) -- one legality pass of the region expansion.  The
        source and target masks are :meth:`er_mask` and :meth:`sr_mask`,
        the endpoint mask their union, the arc bits
        :meth:`event_arc_bits`.  The digit getters read, from the
        ``num_states``-digit binary string of a state set, the digits of
        the event's arc sources and of its arc targets, arc by arc (in
        C): equal readings mean no arc crosses the set.  They are ``None``
        for an event without arcs."""
        entries = self._arc_bits_by_event
        if entries is None:
            top = self.num_states - 1
            entries = []
            for event in self.event_list:
                arcs = self.event_arcs.get(event, ())
                source_digits = target_digits = None
                if arcs:
                    source_digits = itemgetter(*[top - source for source, _target in arcs])
                    target_digits = itemgetter(*[top - target for _source, target in arcs])
                sources = self.er_mask(event)
                targets = self.sr_mask(event)
                entries.append(
                    (
                        sources | targets,
                        sources,
                        targets,
                        self.event_arc_bits(event),
                        source_digits,
                        target_digits,
                    )
                )
            self._arc_bits_by_event = entries
        return entries

    # ------------------------------------------------------------------
    # connected components / canonical ordering
    # ------------------------------------------------------------------
    @property
    def state_reprs(self) -> List[str]:
        """``repr`` of every state.  A derived index's state ``(s, x)``
        extends the repr of ``s`` its parent already holds."""
        reprs = self._state_reprs
        if reprs is None:
            parent = self.parent_index()
            if parent is None:
                reprs = [repr(state) for state in self.states]
            else:
                parent_reprs = parent.state_reprs
                reprs = [
                    "(" + parent_reprs[p] + (", 1)" if state[1] else ", 0)")
                    for p, state in zip(self.parent_positions, self.states)
                ]
            self._state_reprs = reprs
        return reprs

    @property
    def repr_ranks(self) -> List[int]:
        """Dense rank of every state's repr among all state reprs (equal
        reprs share a rank): comparing sorted rank lists orders state sets
        exactly as comparing their sorted repr lists does."""
        ranks = self._repr_ranks
        if ranks is None:
            reprs = self.state_reprs
            ranks = [0] * self.num_states
            rank = -1
            previous = None
            for i in sorted(range(self.num_states), key=reprs.__getitem__):
                if reprs[i] != previous:
                    rank += 1
                    previous = reprs[i]
                ranks[i] = rank
            self._repr_ranks = ranks
        return ranks

    def repr_key(self, mask: int) -> List[str]:
        """``sorted(map(repr, states))`` of a mask (the component ordering
        key of :meth:`components_of_mask`)."""
        reprs = self.state_reprs
        return sorted(reprs[i] for i in bits_of(mask))

    def components_of_mask(self, mask: int) -> List[int]:
        """Weakly connected components of the subgraph induced by ``mask``,
        in the canonical order of
        :func:`repro.core.excitation._connected_components` (ascending
        size, then repr of the sorted member reprs)."""
        und = self.und_masks
        components: List[int] = []
        remaining = mask
        while remaining:
            seed = remaining & -remaining
            component = seed
            frontier = seed
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = und[low.bit_length() - 1] & mask & ~component
                component |= grown
                frontier |= grown
            components.append(component)
            remaining &= ~component
        if len(components) < 2:
            return components
        # Decorate-sort-undecorate on precomputed key tuples.  The repr
        # *string* (not the repr list) stays the secondary key: it is the
        # canonical region order, and a string that is
        # a prefix of another compares differently from the repr-list form.
        # Only components of equal size are ever compared on it, so a
        # component whose size no other shares needs none.
        sizes = [component.bit_count() for component in components]
        shared = {size for size in sizes if sizes.count(size) > 1}
        keyed = [
            (size, repr(self.repr_key(component)) if size in shared else "", component)
            for size, component in zip(sizes, components)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [item[2] for item in keyed]

    # ------------------------------------------------------------------
    # enabled-signal signatures (CSC conflict detection)
    # ------------------------------------------------------------------
    def _is_noninput_event(self, event: Event) -> bool:
        flag = self._noninput_event.get(event)
        if flag is None:
            flag = isinstance(event, SignalEdge) and event.signal not in self.input_signals
            self._noninput_event[event] = flag
        return flag

    def noninput_signature(self, index: int) -> FrozenSet[Event]:
        """Enabled non-input signal edges of state ``index`` (memoized),
        exactly :func:`repro.core.csc._noninput_signature`."""
        signatures = self._signatures
        if signatures is None:
            signatures = [None] * self.num_states
            self._signatures = signatures
        signature = signatures[index]
        if signature is None:
            signature = frozenset(
                event
                for event, _target in self.succ_events[index]
                if self._is_noninput_event(event)
            )
            signatures[index] = signature
        return signature

    # ------------------------------------------------------------------
    # behavioural properties (SIP checks)
    # ------------------------------------------------------------------
    def is_commutative(self) -> bool:
        """Bitmask-era twin of :func:`repro.ts.properties.is_commutative`
        (memoized)."""
        commutative = self._commutative
        if commutative is None:
            commutative = _is_commutative(
                range(self.num_states), self.succ_events, self.succ_maps
            )
            self._commutative = commutative
        return commutative

    def is_event_persistent(self, event: Event) -> bool:
        """Twin of :func:`repro.ts.properties.is_event_persistent` (whole
        state space)."""
        succ_maps = self.succ_maps
        succ_events = self.succ_events
        for source, _target in self.event_arcs.get(event, ()):
            for other_event, after_other in succ_events[source]:
                if other_event == event:
                    continue
                if event not in succ_maps[after_other]:
                    return False
        return True

    def persistent_events(self) -> Set[Event]:
        """The persistent events of the graph (memoized)."""
        persistent = self._persistent_events
        if persistent is None:
            persistent = {
                event for event in self.event_list if self.is_event_persistent(event)
            }
            self._persistent_events = persistent
        return persistent

    # ------------------------------------------------------------------
    # insertion decisions (SIP check and progress without materialising)
    # ------------------------------------------------------------------
    def side_table(self, partition: IPartition) -> bytearray:
        """The per-state side codes of an object-space I-partition
        (:data:`UNCOVERED` for states the partition leaves out)."""
        side = bytearray([UNCOVERED]) * self.num_states
        position = self.position
        for code, block in (
            (S0, partition.s0),
            (SPLUS, partition.splus),
            (S1, partition.s1),
            (SMINUS, partition.sminus),
        ):
            for state in block:
                i = position.get(state)
                if i is not None:
                    side[i] = code
        return side

    def partition_of(self, side: Sequence[int]) -> IPartition:
        """The object-space I-partition a full side table describes (the
        inverse of :meth:`side_table`)."""
        buckets: Tuple[List[State], List[State], List[State], List[State]] = (
            [],
            [],
            [],
            [],
        )
        states = self.states
        for i, code in enumerate(side):
            buckets[code].append(states[i])
        return IPartition(
            s0=frozenset(buckets[S0]),
            splus=frozenset(buckets[SPLUS]),
            s1=frozenset(buckets[S1]),
            sminus=frozenset(buckets[SMINUS]),
        )

    def decide_insertion(
        self,
        side: Sequence[int],
        signal: str,
        persistent_before: Set[Event],
        check_commutativity: bool = True,
        allow_input_delay: bool = False,
        count_conflicts: bool = True,
    ) -> "InsertionVerdict":
        """Decide the insertion of ``signal`` along the side table ``side``
        without building the expanded state graph.

        The expanded graph of :func:`repro.core.insertion.insert_signal`
        is replayed over integer nodes ``2 * i + x`` (parent state ``i``,
        new-signal value ``x``), reachable from the initial node.  The
        verdict runs the checks of :func:`repro.core.sip.check_insertion`
        in its order, with its reasons: degenerate partition, delayed
        input events, illegal crossing, determinism, commutativity,
        persistency of the previously persistent non-input events (``x+``
        and ``x-`` are persistent by construction).  ``persistent_before``
        must be the persistent events of this graph.

        With ``count_conflicts`` an accepted verdict also carries the
        expanded graph's CSC conflict count, for a non-input ``signal``.
        Two expanded states share a code only when their parents share
        one and their ``x`` values agree, so only the parent's
        code-sharing groups are visited.
        """
        if SPLUS not in side or SMINUS not in side:
            return InsertionVerdict(
                ["the inserted signal would never switch (empty ER(x+) or ER(x-))"],
                "degenerate",
                frozenset(),
            )

        # events leaving ER(x+) towards the x=1 side or ER(x-) towards the
        # x=0 side fire only after the new signal
        succ_events = self.succ_events
        delayed_set: Set[Event] = set()
        for i, code in enumerate(side):
            if code == SPLUS:
                for event, j in succ_events[i]:
                    if side[j] == S1 or side[j] == SMINUS:
                        delayed_set.add(event)
            elif code == SMINUS:
                for event, j in succ_events[i]:
                    if side[j] == S0 or side[j] == SPLUS:
                        delayed_set.add(event)
        delayed = frozenset(delayed_set)
        input_signals = self.input_signals
        if not allow_input_delay:
            reasons = [
                f"input event {event} would be delayed by the new signal"
                for event in delayed
                if isinstance(event, SignalEdge) and event.signal in input_signals
            ]
            if reasons:
                return InsertionVerdict(reasons, "input_delay", delayed)

        if signal in self.signal_positions:
            raise ValueError(f"signal {signal!r} already exists in the state graph")
        states = self.states
        if UNCOVERED in side:
            state = states[side.index(UNCOVERED)]
            return InsertionVerdict(
                [f"state {state!r} is not covered by the I-partition"], "illegal", delayed
            )
        for i, outgoing in enumerate(succ_events):
            base = side[i] * 4
            for _event, j in outgoing:
                if not ARC_VALUES[base + side[j]]:
                    error = illegal_crossing(side[i], states[i])
                    return InsertionVerdict([str(error)], "illegal", delayed)

        rise = SignalEdge.rise(signal)
        fall = SignalEdge.fall(signal)
        arcs_of, order, near_border = self._replay_insertion(side, rise, fall)

        # Every arc keeps its x value, so both orders of a diamond end in
        # the same copy of the parent's target: a deterministic parent gives
        # a deterministic child, and a commutative one a commutative child.
        deterministic = True
        commutative = True
        if not self.deterministic or (check_commutativity and not self.is_commutative()):
            maps: List[Optional[Dict[Event, int]]] = [None] * len(arcs_of)
            for node in order:
                out_map: Dict[Event, int] = {}
                for event, target in arcs_of[node]:
                    if event in out_map:
                        deterministic = False
                    else:
                        out_map[event] = target
                maps[node] = out_map
            if check_commutativity:
                commutative = _is_commutative(order, arcs_of, maps)

        # Persistency can only break near the border: elsewhere a node and
        # its targets replay their parent states' arcs, so every diamond
        # there repeats one of the parent, where the watched events are
        # persistent.  x+ and x- cannot lose it: the only arcs (i, 0) in
        # ER(x+) keeps at x = 0 lead into ER(x+), where x+ is enabled
        # again (likewise for x-).
        watched = {
            event
            for event in persistent_before
            if not (isinstance(event, SignalEdge) and event.signal in input_signals)
        }
        enabled: Dict[int, Set[Event]] = {}
        lost: Set[Event] = set()
        for node in near_border:
            arcs = arcs_of[node]
            if len(arcs) < 2:
                continue
            for event_a, _after_a in arcs:
                if event_a not in watched or event_a in lost:
                    continue
                for event_b, after_b in arcs:
                    if event_b == event_a:
                        continue
                    events_b = enabled.get(after_b)
                    if events_b is None:
                        events_b = {event for event, _target in arcs_of[after_b]}
                        enabled[after_b] = events_b
                    if event_a not in events_b:
                        lost.add(event_a)
                        break

        reasons = []
        kinds = []
        if not deterministic:
            reasons.append("insertion breaks determinism")
            kinds.append("determinism")
        if not commutative:
            reasons.append("insertion breaks commutativity")
            kinds.append("commutativity")
        for event in persistent_before:
            if event in lost:
                reasons.append(f"event {event} loses persistency")
        if lost:
            kinds.append("persistency")
        if reasons:
            return InsertionVerdict(reasons, kinds[0], delayed)

        remaining = None
        if count_conflicts:
            remaining = self._expanded_conflict_count(side, arcs_of, rise, fall)
        return InsertionVerdict([], None, delayed, remaining, (arcs_of, order))

    def _replay_insertion(self, side: Sequence[int], rise: Event, fall: Event):
        """The expanded graph of a legal insertion, reachable from its
        initial node: ``(arcs_of, order, near_border)`` with ``arcs_of[n]``
        the ``(event, target)`` arcs of node ``n = 2 * i + x`` (``None``
        when unreachable), ``order`` the reachable nodes and
        ``near_border`` the incomplete nodes and their predecessors.

        A node where x can fire -- ``(i, 0)`` in ER(x+), ``(i, 1)`` in
        ER(x-) -- is *incomplete*: it lacks the arcs x delays.  Every other
        node replays all of its parent state's arcs at its own x value and
        has no x arc.
        """
        succ_events = self.succ_events
        initial = self.initial
        start = 2 * initial + (0 if side[initial] <= SPLUS else 1)
        arcs_of: List[Optional[List[Tuple[Event, int]]]] = [None] * (2 * self.num_states)
        arcs_of[start] = []
        order = [start]
        near_border: List[int] = []
        for node in order:
            i = node >> 1
            value = node & 1
            value_bit = 1 << value
            incomplete_side = SMINUS if value else SPLUS
            code = side[i]
            base = code * 4
            near = code == incomplete_side
            arcs = arcs_of[node]
            for event, j in succ_events[i]:
                if ARC_VALUES[base + side[j]] & value_bit:
                    target = 2 * j + value
                    arcs.append((event, target))
                    if side[j] == incomplete_side:
                        near = True
                    if arcs_of[target] is None:
                        arcs_of[target] = []
                        order.append(target)
            if code == incomplete_side:
                target = node - 1 if value else node + 1
                arcs.append((fall if value else rise, target))
                if arcs_of[target] is None:
                    arcs_of[target] = []
                    order.append(target)
            if near:
                near_border.append(node)
        return arcs_of, order, near_border

    def _expanded_conflict_count(
        self, side: Sequence[int], arcs_of, rise: Event, fall: Event
    ) -> int:
        """CSC conflict pairs of a replayed expanded graph whose new signal
        is non-input.  A node's code is its state's code plus x, so pairs
        only form within one parent code group and one x value."""
        remaining = 0
        for members in self.code_groups_idx().values():
            if len(members) < 2:
                continue
            for value in (0, 1):
                tally: Dict[object, int] = {}
                total = 0
                for i in members:
                    arcs = arcs_of[2 * i + value]
                    if arcs is None:
                        continue
                    total += 1
                    if side[i] != (SMINUS if value else SPLUS):
                        # a complete node replays all of its state's arcs
                        signature = self.noninput_signature(i)
                    else:
                        signature = frozenset(
                            event
                            for event, _target in arcs
                            if event is rise or event is fall or self._is_noninput_event(event)
                        )
                    tally[signature] = tally.get(signature, 0) + 1
                remaining += total * (total - 1) // 2
                for count in tally.values():
                    remaining -= count * (count - 1) // 2
        return remaining


def _is_commutative(nodes, arcs_of, maps) -> bool:
    """No node has a diamond ``a b`` / ``b a`` ending in two different
    nodes (``maps[n]``: first successor of ``n`` per event)."""
    for node in nodes:
        outgoing = arcs_of[node]
        for i, (event_a, after_a) in enumerate(outgoing):
            map_a = maps[after_a]
            for event_b, after_b in outgoing[i + 1 :]:
                if event_a == event_b:
                    continue
                ab = map_a.get(event_b)
                if ab is None:
                    continue
                ba = maps[after_b].get(event_a)
                if ba is not None and ab != ba:
                    return False
    return True


class InsertionVerdict:
    """Outcome of :meth:`IndexedStateGraph.decide_insertion`.

    ``reasons`` lists every failed check (empty when the insertion is
    valid), ``kind`` is the first failed check's entry of
    :data:`REJECTION_KINDS` (``None`` when valid), ``delayed`` the events
    the new signal delays, and ``remaining_conflicts`` the expanded
    graph's CSC conflict count when it was asked for and the insertion
    is valid.  A valid verdict keeps the ``(arcs_of, order)`` of its
    replay in ``replay``, for :func:`repro.core.insertion.insert_signal`
    to build the child from without replaying again.
    """

    __slots__ = ("reasons", "kind", "delayed", "remaining_conflicts", "replay")

    def __init__(
        self,
        reasons: List[str],
        kind: Optional[str],
        delayed: FrozenSet[Event],
        remaining_conflicts: Optional[int] = None,
        replay: Optional[tuple] = None,
    ) -> None:
        self.reasons = reasons
        self.kind = kind
        self.delayed = delayed
        self.remaining_conflicts = remaining_conflicts
        self.replay = replay

    @property
    def ok(self) -> bool:
        return not self.reasons


# ----------------------------------------------------------------------
# cache-aware accessor
# ----------------------------------------------------------------------
def indexed_state_graph(sg) -> IndexedStateGraph:
    """The canonical :class:`IndexedStateGraph` of ``sg``.

    The index is built once and attached to the graph; a graph produced
    by :func:`repro.core.insertion.insert_signal` gets its index attached
    there, derived from the insertion's replay
    (:meth:`IndexedStateGraph.derive_child`).
    """
    cache = caches.get_cache(sg)
    isg = cache.indexed
    if isg is None:
        isg = IndexedStateGraph(sg)
        cache.indexed = isg
    return isg


def indexed_brick_bundle(
    sg, mode: str = "regions", max_explored: int = 20000
) -> Tuple[List[int], List[int]]:
    """Brick masks of ``sg`` with one adjacency bitset per brick.

    Returns ``(masks, adjacency)``: ``masks`` are the bricks of
    :func:`repro.engine.caches.get_brick_masks` (canonical order, carried
    over across insertions), and bit ``j`` of ``adjacency[i]`` says brick
    ``j`` is adjacent to brick ``i`` (:func:`brick_adjacency_bitsets`).
    Both are cached on the graph.
    """
    masks = caches.get_brick_masks(sg, mode, max_explored)
    cache = caches.get_cache(sg)
    key = (mode, max_explored)
    adjacency = cache.adjacency.get(key)
    if adjacency is None:
        adjacency = brick_adjacency_bitsets(indexed_state_graph(sg), masks)
        cache.adjacency[key] = adjacency
    return masks, adjacency


def deduplicate_brick_masks(isg: IndexedStateGraph, masks: Sequence[int]) -> List[int]:
    """Drop empty and duplicate brick masks and sort them in the canonical
    brick order (stable on ``(size, sorted member reprs)``), keyed on
    repr ranks instead of reprs.

    When no two states share a repr, the sorted rank lists of two
    equal-size masks compare as their *rank masks* compare reversed:
    the mask holding the smallest rank the other lacks comes first, and
    that rank is the highest bit the two rank masks (bit ``n - 1 - rank``
    per member) differ in.
    """
    unique = list(dict.fromkeys(mask for mask in masks if mask))
    ranks = isg.repr_ranks
    n = isg.num_states
    if max(ranks, default=-1) == n - 1:
        rank_masks = _or_over_members([1 << (n - 1 - rank) for rank in ranks], unique, n)
        keys = {mask: (mask.bit_count(), -rank_masks[b]) for b, mask in enumerate(unique)}
        unique.sort(key=keys.__getitem__)
    else:
        unique.sort(
            key=lambda mask: (mask.bit_count(), sorted([ranks[i] for i in bits_of(mask)]))
        )
    return unique


def brick_adjacency_bitsets(isg: IndexedStateGraph, masks: Sequence[int]) -> List[int]:
    """Brick adjacency as one bitset per brick.

    Two bricks are adjacent when they overlap or an arc connects them in
    either direction.  The state → bricks index is the transpose of the
    brick masks; each state's *touch* bitset holds the bricks containing
    the state or one of its neighbours; a brick's row is the OR of its
    members' touch bitsets, without itself.
    """
    n = isg.num_states
    bricks_at = _transpose_masks(masks, n)
    touch = list(bricks_at)
    for i, targets in enumerate(isg.succ_targets):
        at_i = bricks_at[i]
        for j in targets:
            touch[i] |= bricks_at[j]
            touch[j] |= at_i
    rows = _or_over_members(touch, masks, n)
    for b in range(len(rows)):
        rows[b] &= ~(1 << b)
    return rows


#: Per bit ``j``, the translation of every byte value to the ASCII digit
#: of its bit ``j``.
_BIT_DIGITS = tuple(bytes(48 + (value >> j & 1) for value in range(256)) for j in range(8))


def _transpose_masks(masks: Sequence[int], num_states: int) -> List[int]:
    """Bit ``b`` of entry ``i`` says state ``i`` is in ``masks[b]``.

    Byte ``k`` of every mask, in mask order, is one slice of the masks'
    concatenated bytes; each of its 8 bits becomes an entry through one
    translation to binary digits.
    """
    if not masks:
        return [0] * num_states
    width = (num_states + 7) >> 3
    data = b"".join([mask.to_bytes(width, "little") for mask in masks])
    transposed: List[int] = []
    for k in range(width):
        column = data[k::width]
        for digits in _BIT_DIGITS:
            transposed.append(int(column.translate(digits)[::-1], 2))
    del transposed[num_states:]
    return transposed


def _or_over_members(values: Sequence[int], masks: Sequence[int], num_states: int) -> List[int]:
    """For every mask over ``num_states`` states, the OR of ``values[i]``
    over its members ``i``.

    A mask is read byte by byte; the OR of one byte value at one byte
    position is computed once and looked up for every other mask holding
    the same byte there.  Bricks overlap heavily, so most lookups hit.
    """
    width = (num_states + 7) >> 3
    tables: List[Dict[int, int]] = [{} for _ in range(width)]
    result: List[int] = []
    for mask in masks:
        poll_deadline()
        total = 0
        for k, byte in enumerate(mask.to_bytes(width, "little")):
            if byte:
                table = tables[k]
                value = table.get(byte)
                if value is None:
                    value = 0
                    base = k << 3
                    for offset in _BYTE_BITS[byte]:
                        value |= values[base + offset]
                    table[byte] = value
                total |= value
        result.append(total)
    return result


# ----------------------------------------------------------------------
# block evaluation (the Figure-4 hot loop)
# ----------------------------------------------------------------------
class EvalKernel:
    """Pure block-costing kernel of one insertion search.

    A self-contained snapshot of everything :meth:`cost` reads — the
    successor lists, the border-incident signal arcs, the conflict-pair
    masks — with no reference to the state graph, its state objects or
    the engine caches, so a cost is a function of the block bitmask
    alone.

    A batch is costed without side tables (:func:`evaluate_candidates`);
    the side table of a candidate is derived from its mask on demand by
    :meth:`side_table`, the scalar derivation :meth:`cost` runs too.
    :class:`IndexedEvaluator` owns a kernel and layers the per-search
    memo on top of it.

    ``impl`` selects the batch implementation :func:`evaluate_candidates`
    dispatches to: ``"bigint"`` runs :meth:`cost` per mask (the
    conformance oracle), ``"planes"`` costs whole batches through the
    vectorized bit-plane kernel of :mod:`repro.core.planes`.  Both
    produce identical costs, so the knob is performance-only and
    fingerprint-irrelevant.
    """

    __slots__ = (
        "num_states",
        "full_mask",
        "succ_targets",
        "in_sig_arcs",
        "out_sig_arcs",
        "signal_is_input",
        "s1_template",
        "first_sides",
        "second_masks",
        "pair_count",
        "count_input_delays",
        "impl",
        "_plane",
    )

    def __init__(
        self,
        index: "IndexedStateGraph",
        conflict_pairs: Sequence[Tuple[int, int]],
        count_input_delays: bool,
        impl: str = "bigint",
    ) -> None:
        self.num_states = index.num_states
        self.full_mask = index.full_mask
        self.succ_targets = index.succ_targets
        self.in_sig_arcs = index.in_sig_arcs
        self.out_sig_arcs = index.out_sig_arcs
        self.signal_is_input = index.signal_is_input
        self.s1_template = index.s1_template
        self.pair_count = len(conflict_pairs)
        # Pairs grouped by first endpoint: a pair is *solved* when its two
        # endpoints sit firmly on opposite stable sides, so the solved
        # count per first endpoint is one AND + popcount against the
        # opposite side's bitmask.  Conflict pairs cluster heavily (a
        # code-sharing group of g states contributes g*(g-1)/2 pairs but
        # only g-1 distinct first endpoints), which makes this far cheaper
        # than a per-pair loop.
        grouped: Dict[int, int] = {}
        for first, second in conflict_pairs:
            grouped[first] = grouped.get(first, 0) | (1 << second)
        self.first_sides = list(grouped)
        self.second_masks = [grouped[first] for first in self.first_sides]
        self.count_input_delays = count_input_delays
        self.impl = impl
        self._plane = None

    def batch_kernel(self):
        """The lazily-built :class:`~repro.core.planes.PlaneKernel`, or
        ``None`` when this kernel runs big-int only.

        Built on first use so a search that never batches (tiny graphs,
        memo-only merges) pays nothing; benign under a thread race (the
        build is idempotent, last assignment wins).
        """
        if self.impl != "planes":
            return None
        plane = self._plane
        if plane is None:
            from repro.core.planes import PlaneKernel

            plane = PlaneKernel(self)
            self._plane = plane
        return plane

    def _borders(self, mask: int) -> Optional[Tuple[bytearray, List[int], List[int]]]:
        """``(side, splus, sminus)`` of a block bitmask: its side table and
        the states of its two exit borders, ER(x+) and ER(x-) (``None``
        for a degenerate block)."""
        if mask == 0 or mask == self.full_mask:
            return None
        succ = self.succ_targets

        # The side table doubles as the membership table while the two
        # exit borders are derived: S0 marks the block, S1 (the template
        # default) its complement, and border states are marked SPLUS /
        # SMINUS *in place* as the MWFEB recursion discovers them (the
        # encodings are chosen so the remaining membership tests still
        # read correctly: block = {S0, SPLUS} = values < S1, complement
        # interior = S1).
        side = bytearray(self.s1_template)
        members = bits_of(mask)
        for i in members:
            side[i] = S0

        # MWFEB(block) -> ER(x+): seed with members that have a successor
        # outside the block, close under in-block successors.
        splus: List[int] = []
        for i in members:
            for t in succ[i]:
                if side[t] == S1:
                    side[i] = SPLUS
                    splus.append(i)
                    break
        if not splus:
            return None
        stack = list(splus)
        while stack:
            i = stack.pop()
            for t in succ[i]:
                if side[t] == S0:
                    side[t] = SPLUS
                    splus.append(t)
                    stack.append(t)

        # MWFEB(complement) -> ER(x-).  The complement members are read
        # back from the side table (C-level bytearray iteration) instead
        # of extracting the complement mask's bits one by one.
        sminus: List[int] = []
        for i, value in enumerate(side):
            if value == S1:
                for t in succ[i]:
                    if side[t] < S1:
                        side[i] = SMINUS
                        sminus.append(i)
                        break
        if not sminus:
            return None
        stack = list(sminus)
        while stack:
            i = stack.pop()
            for t in succ[i]:
                if side[t] == S1:
                    side[t] = SMINUS
                    sminus.append(t)
                    stack.append(t)
        return side, splus, sminus

    def side_table(self, mask: int) -> Optional[bytearray]:
        """The per-state side codes (``S0``, ``SPLUS``, ``S1``,
        ``SMINUS``) of the I-partition a block bitmask induces (``None``
        for a degenerate block)."""
        poll_deadline()
        borders = self._borders(mask)
        return None if borders is None else borders[0]

    def cost(self, mask: int) -> Optional[Cost]:
        """Cost a block bitmask (``None`` for degenerate blocks)."""
        poll_deadline()
        borders = self._borders(mask)
        if borders is None:
            return None
        side, splus, sminus = borders

        splus_mask = 0
        for i in splus:
            splus_mask |= 1 << i
        sminus_mask = 0
        for i in sminus:
            sminus_mask |= 1 << i

        # unsolved = pairs minus the firmly separated ones (first on one
        # stable side, second on the other).
        s0_mask = mask & ~splus_mask
        s1_mask = (self.full_mask ^ mask) & ~sminus_mask
        solved = 0
        second_masks = self.second_masks
        for idx, first in enumerate(self.first_sides):
            sf = side[first]
            if sf == S0:
                solved += (second_masks[idx] & s1_mask).bit_count()
            elif sf == S1:
                solved += (second_masks[idx] & s0_mask).bit_count()
        unsolved = self.pair_count - solved

        # Trigger/delay accounting only involves arcs incident to the two
        # borders, so those arcs are enumerated from the border states
        # instead of scanning the whole arc table.
        entering_plus: Set[int] = set()
        entering_minus: Set[int] = set()
        delayed: Set[int] = set()
        in_arcs = self.in_sig_arcs
        out_arcs = self.out_sig_arcs
        for b in splus:
            for src, signal in in_arcs[b]:
                ss = side[src]
                if ss != SPLUS:
                    entering_plus.add(signal)
                    if ss == SMINUS:
                        delayed.add(signal)
            for tgt, signal in out_arcs[b]:
                if side[tgt] == S1:
                    delayed.add(signal)
        for b in sminus:
            for src, signal in in_arcs[b]:
                ss = side[src]
                if ss != SMINUS:
                    entering_minus.add(signal)
                    if ss == SPLUS:
                        delayed.add(signal)
            for tgt, signal in out_arcs[b]:
                if not side[tgt]:
                    delayed.add(signal)

        input_delays = 0
        if self.count_input_delays:
            is_input = self.signal_is_input
            input_delays = sum(1 for signal in delayed if is_input[signal])

        return Cost(
            unsolved_conflicts=unsolved,
            input_delays=input_delays,
            trigger_estimate=len(entering_plus) + len(entering_minus) + len(delayed),
            border_size=len(splus) + len(sminus),
        )

    def cost_batch(self, masks: Sequence[int]) -> Tuple[List[Optional[Cost]], int]:
        """``(costs, passes)`` of ``masks`` with the scalar loop: the same
        batch API as :meth:`repro.core.planes.PlaneKernel.cost_batch`,
        with no plane passes."""
        cost = self.cost
        return [cost(mask) for mask in masks], 0


def evaluate_candidates(
    kernel: EvalKernel, masks: Sequence[int]
) -> Tuple[List[Optional[Cost]], int]:
    """Cost a batch of block bitmasks with a pure kernel.

    Stateless (all state lives in ``kernel``) and position-aligned with
    its input: ``costs[i]`` is the cost of ``masks[i]`` in the returned
    ``(costs, passes)``.

    A planes kernel costs a batch of two or more masks in bit-plane
    passes (:mod:`repro.core.planes`); a single mask, or a big-int
    kernel, runs the scalar loop.  The costs are identical.
    """
    plane = kernel.batch_kernel()
    if plane is not None and len(masks) > 1:
        return plane.cost_batch(masks)
    return kernel.cost_batch(masks)


class IndexedEvaluator:
    """Memoized block costing for one insertion search.

    Costs are keyed by block bitmask (equivalently: by the block's state
    frozenset), so repeated unions explored by the frontier growth and
    the greedy merge are costed once.

    The arithmetic lives in the evaluator's :class:`EvalKernel`, a pure
    snapshot of the graph and the conflict pairs.  ``passes`` counts the
    plane passes the search's batches took.
    """

    __slots__ = ("index", "kernel", "memo", "passes")

    def __init__(
        self, sg, conflicts, allow_input_delay: bool, kernel_impl: str = "auto"
    ) -> None:
        from repro.core.planes import resolve_kernel

        self.index = indexed_state_graph(sg)
        position = self.index.position
        conflict_pairs = [
            (position[conflict.first], position[conflict.second])
            for conflict in conflicts
        ]
        self.kernel = EvalKernel(
            self.index,
            conflict_pairs,
            count_input_delays=not allow_input_delay,
            impl=resolve_kernel(kernel_impl),
        )
        self.memo: Dict[int, Optional[Cost]] = {}
        self.passes = 0

    def costs(self, masks: Sequence[int]) -> List[Optional[Cost]]:
        """The costs of ``masks``, position-aligned (``None`` for degenerate
        blocks).

        The masks not memoized yet are costed as one batch and memoized.
        """
        memo = self.memo
        pending = [mask for mask in dict.fromkeys(masks) if mask not in memo]
        if pending:
            costs, passes = evaluate_candidates(self.kernel, pending)
            self.passes += passes
            memo.update(zip(pending, costs))
            if len(pending) == len(masks):
                return costs  # all new and distinct: already aligned
        return [memo[mask] for mask in masks]

    def side_table(self, mask: int) -> Optional[bytearray]:
        """The side table of a block bitmask, derived on demand (counted
        in ``engine.caches.STATS.side_tables``)."""
        caches.STATS.side_tables += 1
        return self.kernel.side_table(mask)
