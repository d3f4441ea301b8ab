"""The batch encoding engine.

This package scales the per-STG encoder of :mod:`repro.core` to whole
benchmark libraries:

* :mod:`repro.engine.caches` — per-state-graph shared caches (the
  canonical :class:`~repro.core.indexed.IndexedStateGraph`, brick
  decomposition, brick adjacency, CSC conflict analysis) with selective
  invalidation and index derivation across signal insertions;
* :mod:`repro.engine.batch` — ``encode_many``: encode many STGs
  concurrently through a process pool, with byte-identical results
  between serial and parallel runs.  Each solve runs the one serial
  Figure-4 search; parallelism is across STGs only.

``repro.engine.batch`` imports the high-level API (which in turn imports
the core solver and therefore this package), so its names are re-exported
lazily to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.engine.caches import invalidate_caches

_LAZY_BATCH_EXPORTS = (
    "BatchItem",
    "BatchResult",
    "encode_many",
    "run_benchmark_suite",
    "select_smallest_cases",
)

__all__ = [
    "invalidate_caches",
    *_LAZY_BATCH_EXPORTS,
]


def __getattr__(name: str):
    if name in _LAZY_BATCH_EXPORTS:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
