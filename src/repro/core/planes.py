"""Bit-plane batch costing: the vectorized twin of ``EvalKernel.cost``.

:meth:`repro.core.indexed.EvalKernel.cost` costs one candidate block at
a time with Python big-int arithmetic.  This module costs a whole
generated batch of ``k`` candidates *per pass* by transposing the
problem: instead of one ``n``-bit integer per block, it keeps one row of
``⌈k/64⌉`` 64-bit **lane words per state** — bit ``w`` of plane row
``i`` says "state ``i`` belongs to candidate ``w``".  Every step of the
Figure-4 cost model (MWFEB forward closures, stable-side derivation,
solved-pair counting, trigger/delay accounting) then becomes whole-plane
bitwise algebra shared by all lanes, with per-lane results read back by
vertical popcounts.

Planes are 2-D ``(rows, lane words)`` ``uint64`` numpy arrays
(explicitly little-endian so the byte-level unpack/pack steps are
host-independent).  A block and its complement share one plane, each in
one half of the lane words, so every gather serves both sides; the
closures are fixpoints of slot-wise gathers over the neighbour lists,
and the vertical popcounts are ``np.unpackbits`` column sums.  The
boundaries of a pass are whole-batch operations too: the masks enter as
one joined byte string unpacked into the ``(k, n)`` bit matrix in a
single call, and the per-lane counts leave through one more unpack and
one ``tolist()`` per cost field.

A pass returns costs only.  The per-state side table of a candidate is
derived on demand, from its mask, by the scalar
:meth:`~repro.core.indexed.EvalKernel.side_table` — and the search asks
for it only for the candidates its SIP check examines.

One pass holds at most :data:`PASS_WORDS` lane words per table row
(states, signal arcs or conflict pairs, whichever table is tallest); a
larger batch is costed in several passes.  The ceiling
keeps the temporaries of a pass small on large graphs, where it falls
back to one lane word (64 candidates) per pass.

The costs are **identical** to the big-int oracle's; the differential
and conformance suites pin that equality.

Kernel selection (:func:`resolve_kernel`) is performance-only: the
``SolverSettings.kernel`` knob never enters the request fingerprint.
The plane kernel needs numpy (the ``fast`` extra); without it both
``"auto"`` and ``"planes"`` resolve to the big-int kernel.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple

from repro.core.cost import Cost
from repro.core.indexed import bits_of
from repro.utils.deadline import poll_deadline

try:  # numpy is an optional accelerator (the ``fast`` extra), never a hard dep
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "KERNELS",
    "PASS_WORDS",
    "PlaneKernel",
    "numpy_available",
    "resolve_kernel",
]

#: Valid values of ``SolverSettings.kernel``.
KERNELS = ("auto", "bigint", "planes")

#: Ceiling on ``rows × lane words`` of one pass, where ``rows`` is the
#: tallest table a pass gathers (states, signal arcs or conflict pairs).
#: A plane (block and complement) then holds at most 256 KiB and the
#: unpacked popcount bits about 2 MiB, whatever the graph size.
PASS_WORDS = 1 << 14

_LANES = 64


def numpy_available() -> bool:
    """Whether the plane kernel can be used in this process."""
    return _np is not None


def resolve_kernel(name: str) -> str:
    """Resolve a ``SolverSettings.kernel`` value to a concrete kernel.

    ``"auto"`` and ``"planes"`` mean planes-when-numpy-is-importable and
    the scalar big-int kernel otherwise; ``"bigint"`` is always honoured.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {KERNELS}")
    if name == "bigint" or _np is None:
        return "bigint"
    return "planes"


class PlaneKernel:
    """Precompiled plane-space view of one :class:`EvalKernel`.

    Construction relabels the states by descending in-degree and lays
    the predecessor and successor lists out as *slots*: slot ``j`` holds
    the ``j``-th neighbour of every state that has one, so "OR over the
    neighbours" is one gather per slot.  Since states with a ``j``-th
    predecessor form a prefix of the relabelled rows, the predecessor
    slots the closure fixpoints iterate over gather each arc once.  It
    also flattens the signal arcs into per-signal runs and expands the
    grouped conflict pairs back into aligned ``(first, second)`` index
    arrays.  All of it is derived purely from the ``EvalKernel``
    snapshot.

    ``pass_lanes`` is the number of candidates one pass costs: as many
    lane words as :data:`PASS_WORDS` allows over the tallest table.
    """

    __slots__ = (
        "num_states",
        "pair_count",
        "count_input_delays",
        "pass_lanes",
        "_tables",
    )

    def __init__(self, kernel) -> None:
        np = _np
        n = kernel.num_states
        self.num_states = n
        self.pair_count = kernel.pair_count
        self.count_input_delays = kernel.count_input_delays

        # The state graph as flat (source, target) arc arrays, and the
        # relabelling by descending in-degree (stable, so ties keep
        # their order).
        succ = kernel.succ_targets
        out_degree = np.fromiter(map(len, succ), dtype=np.intp, count=n)
        source = np.repeat(np.arange(n), out_degree)
        target = np.fromiter(chain.from_iterable(succ), dtype=np.intp, count=len(source))
        order = np.argsort(-np.bincount(target, minlength=n), kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)

        # Signal arcs grouped by signal id (reconstructed from the
        # per-state incoming ``(source, signal)`` lists — the kernel keeps
        # no flat arc table); every signal id has at least one arc.
        incoming = kernel.in_sig_arcs
        sig_arcs = np.array(list(chain.from_iterable(incoming)), dtype=np.intp).reshape(-1, 2)
        sig_tgt = np.repeat(np.arange(n), np.fromiter(map(len, incoming), dtype=np.intp, count=n))
        by_signal = np.argsort(sig_arcs[:, 1], kind="stable")

        pair_first: List[int] = []
        pair_second: List[int] = []
        for first, second_mask in zip(kernel.first_sides, kernel.second_masks):
            seconds = bits_of(second_mask)
            pair_first += [first] * len(seconds)
            pair_second += seconds

        rows = max(n + 1, len(sig_arcs), len(pair_first))
        self.pass_lanes = _LANES * max(1, PASS_WORDS // rows)
        self._tables = {
            "order": order,
            "succ_slots": _slots(rank[source], rank[target], n),
            "pred_slots": _slots(rank[target], rank[source], n),
            "arc_src": rank[sig_arcs[by_signal, 0]],
            "arc_tgt": rank[sig_tgt[by_signal]],
            "arc_starts": np.searchsorted(
                sig_arcs[by_signal, 1], np.arange(len(kernel.signal_is_input))
            ),
            "input_sigs": np.flatnonzero(np.asarray(kernel.signal_is_input, dtype=bool)),
            "pair_first": rank[np.asarray(pair_first, dtype=np.intp)],
            "pair_second": rank[np.asarray(pair_second, dtype=np.intp)],
        }

    def cost_batch(self, masks: Sequence[int]) -> Tuple[List[Optional[Cost]], int]:
        """Cost ``masks``: ``(costs, passes)`` with ``costs[i]`` the cost of
        ``masks[i]`` (``None`` for a degenerate block, exactly as from the
        big-int kernel) and ``passes`` the number of plane passes run.
        """
        if self.num_states == 0:
            return [None] * len(masks), 0
        costs: List[Optional[Cost]] = []
        step = self.pass_lanes
        for start in range(0, len(masks), step):
            poll_deadline()
            costs.extend(self._cost_pass(masks[start : start + step]))
        return costs, -(-len(masks) // step)

    def _cost_pass(self, masks: Sequence[int]) -> List[Optional[Cost]]:
        np = _np
        tables = self._tables
        n = self.num_states
        k = len(masks)
        w = -(-k // _LANES)
        nbytes = (n + 7) // 8

        # Both sides of every candidate share one plane: ``D[r, :w]`` holds
        # the lane words of the block (B), ``D[r, w:]`` those of its
        # complement (C), so each gather below serves the two sides in one
        # numpy call.  Row ``n`` is the all-zero dummy row.  The masks are
        # joined into one byte string and unpacked into the (k, n)
        # lane-major bit matrix in one call; its transpose, relabelled,
        # packs row-wise into little-endian lane words (padding lanes stay
        # out of the block).
        raw = b"".join(map(int.to_bytes, masks, repeat(nbytes), repeat("little")))
        lane_bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(k, nbytes),
            axis=1,
            count=n,
            bitorder="little",
        )
        packed = np.packbits(
            lane_bits.T.take(tables["order"], axis=0), axis=1, bitorder="little"
        )
        D = np.zeros((n + 1, 2 * w), dtype="<u8")
        D.view(np.uint8)[:n, : packed.shape[1]] = packed
        np.bitwise_not(D[:n, :w], out=D[:n, w:])
        Dn = D[:n]

        # MWFEB seeds: a block state with a successor outside the block
        # (ER(x+)), a complement state with a successor inside (ER(x-)).
        S = np.zeros_like(D)
        Sn = S[:n]
        reach = _gather_or(D, tables["succ_slots"])
        np.bitwise_and(Dn[:, :w], reach[:, w:], out=Sn[:, :w])
        np.bitwise_and(Dn[:, w:], reach[:, :w], out=Sn[:, w:])

        # Forward closures within each side: a state joins the border
        # plane when any predecessor is already in it.  ``stable`` is each
        # side minus its border so far; once the borders are closed it
        # holds the stable sides S0 and S1.
        pred_slots = tables["pred_slots"]
        stable = Dn & ~Sn
        while True:
            poll_deadline()
            new = _gather_or(S, pred_slots)
            new &= stable
            if not np.count_nonzero(new):
                break
            Sn |= new
            stable ^= new

        # ER(x+) = Sn[:, :w] and ER(x-) = Sn[:, w:].  A lane is valid when
        # both are non-empty, which also makes its block non-empty and
        # non-full: the big-int early-outs.  Padding lanes have an empty
        # block and so an empty ER(x+).
        any_border = np.bitwise_or.reduce(Sn, axis=0)
        valid = any_border[:w] & any_border[w:]
        if not valid.any():
            return [None] * k

        # Each count below is a per-lane popcount over a group of rows.
        # Solved pairs: first and second endpoints on opposite stable sides.
        first = stable.take(tables["pair_first"], axis=0)
        second = stable.take(tables["pair_second"], axis=0)
        groups = [(first[:, :w] & second[:, w:]) | (first[:, w:] & second[:, :w])]

        # Trigger/delay accounting, one OR-reduction run per signal.  An
        # arc enters a border from outside it; it is delayed when it
        # leaves ER(x+) for the 1-side or ER(x-) for the 0-side.  The
        # trigger estimate counts the signals entering ER(x+), those
        # entering ER(x-) and the delayed ones: one group of rows.
        arc_src = tables["arc_src"]
        if arc_src.size:
            arc_tgt = tables["arc_tgt"]
            arc_starts = tables["arc_starts"]
            border_src = S.take(arc_src, axis=0)
            side_tgt = D.take(arc_tgt, axis=0)
            entering = np.bitwise_or.reduceat(
                S.take(arc_tgt, axis=0) & ~border_src, arc_starts, axis=0
            )
            delayed = np.bitwise_or.reduceat(
                (border_src[:, :w] & side_tgt[:, w:]) | (border_src[:, w:] & side_tgt[:, :w]),
                arc_starts,
                axis=0,
            )
            groups.append(np.concatenate((entering[:, :w], entering[:, w:], delayed)))
            groups.append(
                delayed.take(tables["input_sigs"], axis=0)
                if self.count_input_delays
                else delayed[:0]
            )
        else:
            groups += [groups[0][:0]] * 2
        # ER(x+) and ER(x-) are disjoint (one in the block, one outside)
        groups.append(Sn[:, :w] | Sn[:, w:])

        solved, triggers, input_delays, borders = _vcounts(groups, k)
        unsolved = self.pair_count - solved

        # tuple.__new__ is what Cost(...) runs, minus a Python frame per lane
        costs = list(
            map(
                tuple.__new__,
                repeat(Cost, k),
                zip(unsolved.tolist(), input_delays.tolist(), triggers.tolist(), borders.tolist()),
            )
        )
        lane_valid = np.unpackbits(valid.view(np.uint8), count=k, bitorder="little")
        for lane in np.flatnonzero(lane_valid == 0).tolist():
            costs[lane] = None
        return costs


def _slots(rows, entries, n: int):
    """The slot layout of a neighbour table given as parallel arrays:
    ``entries[a]`` is a neighbour of row ``rows[a]``.

    Slot ``j`` lists the ``j``-th neighbour of every row, or the dummy
    row ``n`` (kept all-zero forever) for a row with fewer.  Slot 0
    covers every row; a later slot stops after the last row that has a
    ``j``-th neighbour.
    """
    np = _np
    by_row = np.argsort(rows, kind="stable")
    rows = rows[by_row]
    entries = entries[by_row]
    position = np.arange(len(rows)) - np.searchsorted(rows, rows)
    columns = []
    for j in range(int(position.max()) + 1 if len(rows) else 1):
        take = position == j
        column = np.full(n if j == 0 else int(rows[take].max()) + 1, n, dtype=np.intp)
        column[rows[take]] = entries[take]
        columns.append(column)
    return columns


def _gather_or(plane, slots):
    """Row ``r`` of the result is the OR of the plane rows the slots list
    for row ``r``: one gather per slot, the later slots a row prefix.
    (``take`` gathers rows at a fraction of the cost of fancy indexing on
    planes this small.)"""
    acc = plane.take(slots[0], axis=0)
    for slot in slots[1:]:
        acc[: len(slot)] |= plane.take(slot, axis=0)
    return acc


def _vcounts(groups, k: int):
    """Per-lane popcounts of row groups of ``(rows, lane words)`` planes:
    for each group, an array with the number of the group's rows that
    have each of the first ``k`` lanes' bit set.

    All groups are unpacked in one call and their bits summed as bytes,
    255 rows at a time: a byte sum cannot overflow there and runs far
    faster than a widening one.
    """
    np = _np
    bits = np.unpackbits(
        np.concatenate(groups).view(np.uint8), axis=1, count=k, bitorder="little"
    )
    counts = []
    start = 0
    for group in groups:
        end = start + len(group)
        total = bits[start : min(end, start + 255)].sum(axis=0, dtype=np.uint8).astype(np.int64)
        for chunk in range(start + 255, end, 255):
            total += bits[chunk : min(chunk + 255, end)].sum(axis=0, dtype=np.uint8)
        counts.append(total)
        start = end
    return counts
