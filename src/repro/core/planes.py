"""Bit-plane batch evaluation: the vectorized twin of ``EvalKernel``.

:meth:`repro.core.indexed.EvalKernel.evaluate` costs one candidate block
at a time with Python big-int arithmetic.  This module evaluates up to
64 candidates *per pass* by transposing the problem: instead of one
``n``-bit integer per block, it keeps one 64-bit **lane word per state**
— bit ``w`` of plane row ``i`` says "state ``i`` belongs to candidate
``w``".  Every step of the Figure-4 cost model (MWFEB forward closures,
stable-side derivation, solved-pair counting, trigger/delay accounting)
then becomes whole-plane bitwise algebra shared by all lanes, with
per-lane results read back by vertical popcounts.

Planes are 1-D ``uint64`` numpy arrays (explicitly little-endian so the
byte-level unpack/pack steps are host-independent); closures are
fixpoints of gather + ``np.bitwise_or.reduceat`` over CSR adjacency, and
vertical popcounts are ``np.unpackbits`` column sums.  The boundaries of
a pass are whole-chunk operations too: the masks enter as one joined
byte string unpacked into the ``(n, 64)`` bit matrix in a single call,
and the per-lane sizes, costs and side tables leave as one ``tolist()``
per quantity and one contiguous transposed side buffer sliced per lane.

The evaluations are **byte-identical** to the big-int oracle
(:class:`~repro.core.indexed.IndexedEvaluation` side tables and all four
cost fields); the differential and conformance suites pin that equality.

Kernel selection (:func:`resolve_kernel`) is performance-only: the
``SolverSettings.kernel`` knob never enters the request fingerprint.
The plane kernel needs numpy (the ``fast`` extra); without it both
``"auto"`` and ``"planes"`` resolve to the big-int kernel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.cost import Cost
from repro.utils.deadline import poll_deadline

try:  # numpy is an optional accelerator (the ``fast`` extra), never a hard dep
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "KERNELS",
    "PlaneKernel",
    "numpy_available",
    "resolve_kernel",
]

#: Valid values of ``SolverSettings.kernel``.
KERNELS = ("auto", "bigint", "planes")

_LANES = 64
_ALL = (1 << _LANES) - 1


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

    Construction inverts the successor lists into predecessor CSR form
    (the closure fixpoints gather over predecessors), flattens the
    border-incident signal arcs into per-signal runs, and expands the
    grouped conflict pairs back into aligned ``(first, second)`` index
    arrays.  All of it is derived purely from the ``EvalKernel``
    snapshot, so a ``PlaneKernel`` is as picklable and process-portable
    as its parent and rides along with it into shard workers.
    """

    __slots__ = ("num_states", "pair_count", "count_input_delays", "_tables")

    def __init__(self, kernel) -> None:
        np = _np
        n = kernel.num_states
        self.num_states = n
        self.pair_count = kernel.pair_count
        self.count_input_delays = kernel.count_input_delays

        succ: List[Sequence[int]] = list(kernel.succ_targets)
        preds: List[List[int]] = [[] for _ in range(n)]
        for i, targets in enumerate(succ):
            for t in targets:
                preds[t].append(i)

        # CSR with a dummy row ``n`` padding empty segments: reduceat has
        # no identity element for empty slices (it returns the element at
        # the offset), so every segment is made non-empty by pointing it
        # at plane row ``n``, which is kept all-zero forever.
        def csr(lists):
            flat: List[int] = []
            starts = np.empty(n, dtype=np.intp)
            for i, members in enumerate(lists):
                starts[i] = len(flat)
                if members:
                    flat.extend(members)
                else:
                    flat.append(n)
            return np.asarray(flat, dtype=np.intp), starts

        # Signal arcs, grouped by signal id (reconstructed from the
        # per-state incoming lists — the kernel keeps no flat arc table).
        num_signals = len(kernel.signal_is_input)
        arcs_by_signal: List[List] = [[] for _ in range(num_signals)]
        for target, incoming in enumerate(kernel.in_sig_arcs):
            for source, signal in incoming:
                arcs_by_signal[signal].append((source, target))
        arc_src: List[int] = []
        arc_tgt: List[int] = []
        arc_starts = np.empty(num_signals, dtype=np.intp)
        for g, arcs in enumerate(arcs_by_signal):
            arc_starts[g] = len(arc_src)
            for source, target in arcs:
                arc_src.append(source)
                arc_tgt.append(target)

        pair_first: List[int] = []
        pair_second: List[int] = []
        for idx, first in enumerate(kernel.first_sides):
            second_mask = kernel.second_masks[idx]
            while second_mask:
                low = second_mask & -second_mask
                pair_first.append(first)
                pair_second.append(low.bit_length() - 1)
                second_mask ^= low

        succ_flat, succ_starts = csr(succ)
        pred_flat, pred_starts = csr(preds)
        self._tables = {
            "succ_flat": succ_flat,
            "succ_starts": succ_starts,
            "pred_flat": pred_flat,
            "pred_starts": pred_starts,
            "arc_src": np.asarray(arc_src, dtype=np.intp),
            "arc_tgt": np.asarray(arc_tgt, dtype=np.intp),
            "arc_starts": arc_starts,
            "input_sigs": np.asarray(
                [g for g, is_input in enumerate(kernel.signal_is_input) if is_input],
                dtype=np.intp,
            ),
            "pair_first": np.asarray(pair_first, dtype=np.intp),
            "pair_second": np.asarray(pair_second, dtype=np.intp),
        }

    def evaluate_batch(self, masks: Sequence[int]) -> List[Optional[object]]:
        """Evaluate ``masks``; ``result[i]`` matches ``masks[i]``.

        Chunks of up to 64 masks share one plane pass; degenerate blocks
        come back as ``None`` exactly as from the big-int kernel.
        """
        if self.num_states == 0:
            return [None] * len(masks)
        results: List[Optional[object]] = []
        for start in range(0, len(masks), _LANES):
            poll_deadline()
            results.extend(self._evaluate_chunk(masks[start : start + _LANES]))
        return results

    def _evaluate_chunk(self, masks: Sequence[int]):
        from repro.core.indexed import IndexedEvaluation

        np = _np
        tables = self._tables
        n = self.num_states
        nbytes = (n + 7) // 8

        # B: bit w of row i <=> state i is in candidate w.  All masks are
        # joined into one byte string (padding lanes are all-zero), which
        # is unpacked into the (64, n) lane-major bit matrix in one call;
        # its transpose packs row-wise into little-endian lane words.
        raw = b"".join([mask.to_bytes(nbytes, "little") for mask in masks])
        raw += bytes(nbytes * (_LANES - len(masks)))
        lane_bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(_LANES, nbytes),
            axis=1,
            count=n,
            bitorder="little",
        )
        B = np.zeros(n + 1, dtype="<u8")
        B[:n] = np.ascontiguousarray(
            np.packbits(lane_bits.T, axis=1, bitorder="little")
        ).view("<u8").ravel()
        C = np.bitwise_not(B)
        C[n] = 0  # the dummy row must never seed anything

        succ_flat = tables["succ_flat"]
        succ_starts = tables["succ_starts"]
        pred_flat = tables["pred_flat"]
        pred_starts = tables["pred_starts"]

        # MWFEB seeds: a block state with a successor outside the block
        # (ER(x+)), a complement state with a successor inside (ER(x-)).
        SP = np.zeros(n + 1, dtype="<u8")
        SM = np.zeros(n + 1, dtype="<u8")
        SP[:n] = B[:n] & np.bitwise_or.reduceat(C[succ_flat], succ_starts)
        SM[:n] = C[:n] & np.bitwise_or.reduceat(B[succ_flat], succ_starts)

        # Forward closures within each side: a state joins the border
        # plane when any predecessor is already in it.
        for domain, plane in ((B, SP), (C, SM)):
            while True:
                poll_deadline()
                grown = plane[:n] | (
                    domain[:n] & np.bitwise_or.reduceat(plane[pred_flat], pred_starts)
                )
                if np.array_equal(grown, plane[:n]):
                    break
                plane[:n] = grown

        # Per-lane validity mirrors the big-int early-outs: a non-empty,
        # non-full block with both exit borders non-empty.  Padding lanes
        # (batch < 64) have empty B and self-invalidate.
        valid = (
            int(np.bitwise_or.reduce(B[:n]))
            & (int(np.bitwise_and.reduce(B[:n])) ^ _ALL)
            & int(np.bitwise_or.reduce(SP[:n]))
            & int(np.bitwise_or.reduce(SM[:n]))
        )
        if not valid:
            return [None] * len(masks)

        S0p = B[:n] & ~SP[:n]
        S1p = C[:n] & ~SM[:n]

        # solved pairs: first and second endpoints on opposite stable sides
        pair_first = tables["pair_first"]
        pair_second = tables["pair_second"]
        solved = _np_vcount(
            (S0p[pair_first] & S1p[pair_second]) | (S1p[pair_first] & S0p[pair_second])
        )

        # trigger/delay accounting, one OR-reduction run per signal
        arc_src = tables["arc_src"]
        if arc_src.size:
            arc_tgt = tables["arc_tgt"]
            arc_starts = tables["arc_starts"]
            sp_s, sp_t = SP[arc_src], SP[arc_tgt]
            sm_s, sm_t = SM[arc_src], SM[arc_tgt]
            entering_plus = np.bitwise_or.reduceat(sp_t & ~sp_s, arc_starts)
            entering_minus = np.bitwise_or.reduceat(sm_t & ~sm_s, arc_starts)
            delayed = np.bitwise_or.reduceat(
                (sp_t & sm_s)
                | (sp_s & S1p[arc_tgt])
                | (sm_t & sp_s)
                | (sm_s & S0p[arc_tgt]),
                arc_starts,
            )
            triggers = (
                _np_vcount(entering_plus)
                + _np_vcount(entering_minus)
                + _np_vcount(delayed)
            )
            if self.count_input_delays:
                input_delays = _np_vcount(delayed[tables["input_sigs"]])
            else:
                input_delays = np.zeros(_LANES, dtype=np.int64)
        else:
            triggers = input_delays = np.zeros(_LANES, dtype=np.int64)

        plus_bits = _np_unpack(SP[:n])
        minus_bits = _np_unpack(SM[:n])
        # side tables: S0=0, SPLUS=1, S1=2, SMINUS=3 per state per lane,
        # transposed into one lane-major buffer of 64 rows of n bytes
        sides = memoryview(
            (plus_bits + minus_bits + 2 * (1 - lane_bits.T)).T.tobytes()
        )

        # per-lane read-back: one tolist() per quantity
        sizes = lane_bits.sum(axis=1, dtype=np.int64).tolist()
        unsolved = (self.pair_count - solved).tolist()
        input_delays = input_delays.tolist()
        triggers = triggers.tolist()
        borders = (
            plus_bits.sum(axis=0, dtype=np.int64) + minus_bits.sum(axis=0, dtype=np.int64)
        ).tolist()

        out: List[Optional[object]] = []
        for w, mask in enumerate(masks):
            if (valid >> w) & 1:
                out.append(
                    IndexedEvaluation(
                        mask,
                        sizes[w],
                        bytearray(sides[w * n : (w + 1) * n]),
                        Cost(unsolved[w], input_delays[w], triggers[w], borders[w]),
                    )
                )
            else:
                out.append(None)
        return out


# ----------------------------------------------------------------------
# numpy vertical helpers
# ----------------------------------------------------------------------
def _np_unpack(words):
    """(k,) lane words -> (k, 64) bit matrix (little-endian bit order)."""
    return _np.unpackbits(words.view(_np.uint8), bitorder="little").reshape(
        -1, _LANES
    )


def _np_vcount(words):
    """Per-lane popcount over a lane-word array: (k,) -> (64,) counts."""
    if words.size == 0:
        return _np.zeros(_LANES, dtype=_np.int64)
    return _np_unpack(words).sum(axis=0, dtype=_np.int64)
