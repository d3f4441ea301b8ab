"""In-solve sharding: the worker pool behind ``SolverSettings.search_jobs``.

The batch engine of :mod:`repro.engine.batch` parallelises *across* STGs;
this module parallelises *inside* one solve.  The Figure-4 frontier
search (:mod:`repro.core.search`) separates candidate **generation**
(ordered, stateful: the seen-set and the frontier ranking) from candidate
**evaluation** (pure: a block bitmask in, a
:class:`~repro.core.cost.Cost` out), and ships the
evaluation batches of one search through the pool provided here.  Because
every evaluation is a pure function of the search's
:class:`~repro.core.indexed.EvalKernel` and results are merged back in
generation order, a sharded search is byte-identical to a serial one at
any worker count — ``search_jobs`` is performance-only and therefore
excluded from the request fingerprint.

Two executor kinds:

``fork`` (default where available)
    A per-search :class:`~concurrent.futures.ProcessPoolExecutor` on the
    ``fork`` start method.  The kernel is *inherited*, not pickled: it is
    registered in a module-level table before the pool is created, and
    the lazily-forked workers see it via copy-on-write memory.  Tasks and
    results are therefore just lists of ``int`` masks and cost tuples.
    Fork cost is paid once per insertion search (a few milliseconds), not
    per batch.

``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` fallback for
    platforms without ``fork`` (and for tests that want the sharded
    merge path without process overhead).  GIL-bound — no speedup — but
    it exercises exactly the same generate/evaluate/merge code, and the
    kernel (with the indexed caches it snapshots) is shared in-process
    instead of re-shipped.

The **pool-budget rule** (:func:`shard_budget`) keeps the two
parallelism levels from oversubscribing each other: when ``encode_many``
runs ``jobs`` STG-level workers, each worker's ``search_jobs`` is
clamped so that ``jobs × search_jobs`` never exceeds the machine budget
(``os.cpu_count()`` by default).  A single-STG run (``jobs == 1``) is
never clamped — an explicit ``search_jobs`` is taken at its word.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import Cost
from repro.core.indexed import EvalKernel, evaluate_candidates
from repro.obs import adopt_trace_context, get_logger, span, trace_context
from repro.utils.deadline import deadline, remaining_time

_log = get_logger("engine.shard")

__all__ = [
    "SHARD_MODES",
    "SearchPool",
    "search_pool",
    "shard_budget",
    "shard_mode",
    "use_shard_mode",
]

#: Valid shard executor modes (``"auto"`` picks fork where available).
SHARD_MODES = ("auto", "fork", "thread")

#: Kernels visible to fork-started workers, keyed by a token unique to
#: the owning pool.  Entries are inserted before the pool forks and
#: removed when it closes, so concurrent sharded searches in one process
#: (e.g. service threads) cannot clobber each other.
_PARENT_KERNELS: Dict[int, EvalKernel] = {}
_token_counter = itertools.count(1)

_state = threading.local()


def shard_mode() -> str:
    """The shard executor mode active in this thread (default ``auto``)."""
    return getattr(_state, "mode", "auto")


@contextmanager
def use_shard_mode(mode: str) -> Iterator[None]:
    """Temporarily force the shard executor kind (current thread).

    ``"thread"`` is what the hypothesis stress tests use: same sharded
    code path, no fork cost per example.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}")
    previous = shard_mode()
    _state.mode = mode
    try:
        yield
    finally:
        _state.mode = previous


def shard_budget(jobs: int, search_jobs: int, budget: Optional[int] = None) -> int:
    """Clamp ``search_jobs`` so ``jobs × search_jobs`` fits the machine.

    ``jobs`` is the STG-level worker count of the surrounding batch;
    ``budget`` defaults to ``os.cpu_count()``.  With ``jobs == 1`` the
    request is returned unchanged (no second level to collide with); the
    budget never clamps below 1.
    """
    search_jobs = max(1, int(search_jobs))
    jobs = max(1, int(jobs))
    if jobs == 1 or search_jobs == 1:
        return search_jobs
    if budget is None:
        budget = os.cpu_count() or 1
    budget = max(jobs, int(budget))
    effective = max(1, min(search_jobs, budget // jobs))
    if effective < search_jobs:
        # Never silent: operators asked for jobs × search_jobs workers
        # and are getting fewer — say so and count it.
        _log.warning(
            "search_jobs_clamped",
            requested=search_jobs,
            effective=effective,
            jobs=jobs,
            budget=budget,
        )
        _clamp_counter().inc()
    return effective


def _clamp_counter():
    from repro.obs import REGISTRY

    return REGISTRY.counter(
        "pyetrify_shard_clamps_total",
        "Times the pool-budget rule clamped a requested search_jobs",
    )


def _fork_worker(task) -> Tuple[List[Optional[Cost]], int]:
    """Worker body in fork mode: look the kernel up by token and batch.

    The submitting thread's *remaining* wall-clock budget rides along in
    the task and is re-armed here, so a per-job timeout keeps its
    one-evaluation poll latency inside the workers (worker threads start
    with no deadline state, and relying on fork inheriting the parent's
    thread-local deadline would be fragile).
    """
    token, masks, remaining, obs_ctx = task
    adopt_trace_context(obs_ctx)  # spawn-safe; a fork child inherits anyway
    with deadline(remaining), span("shard.evaluate", masks=len(masks)):
        return evaluate_candidates(_PARENT_KERNELS[token], masks)


def _thread_worker(
    kernel: EvalKernel, masks, remaining
) -> Tuple[List[Optional[Cost]], int]:
    """Worker body in thread mode (same deadline re-arming as fork)."""
    with deadline(remaining), span("shard.evaluate", masks=len(masks)):
        return evaluate_candidates(kernel, masks)


class SearchPool:
    """One search's evaluation pool (see module docstring).

    ``evaluate_batch`` splits a mask list into contiguous chunks, runs
    them on the executor and reassembles the results in input order —
    the merge order, and therefore the search outcome, never depends on
    worker scheduling.
    """

    def __init__(
        self,
        executor,
        submit_task: Callable[[Sequence[int]], object],
        jobs: int,
        kind: str,
    ) -> None:
        self._executor = executor
        self._submit = submit_task
        self.jobs = jobs
        self.kind = kind
        #: Below this many masks a round trip costs more than it saves;
        #: the search evaluates such batches inline.
        self.min_batch = max(2 * jobs, 16)

    def evaluate_batch(self, masks: Sequence[int]) -> Tuple[List[Optional[Cost]], int]:
        """Cost ``masks`` on the pool: ``(costs, passes)`` as from
        :func:`~repro.core.indexed.evaluate_candidates`, with ``costs[i]``
        the cost of ``masks[i]`` and ``passes`` summed over the chunks."""
        if not masks:
            return [], 0
        chunk_count = min(self.jobs * 2, len(masks))
        chunks: List[Sequence[int]] = []
        base, extra = divmod(len(masks), chunk_count)
        start = 0
        for i in range(chunk_count):
            end = start + base + (1 if i < extra else 0)
            chunks.append(masks[start:end])
            start = end
        futures = [self._submit(chunk) for chunk in chunks]
        costs: List[Optional[Cost]] = []
        passes = 0
        for future in futures:
            chunk_costs, chunk_passes = future.result()
            costs.extend(chunk_costs)
            passes += chunk_passes
        return costs, passes


@contextmanager
def search_pool(kernel: EvalKernel, jobs: int) -> Iterator[Optional[SearchPool]]:
    """A :class:`SearchPool` over ``kernel`` with ``jobs`` workers.

    Yields ``None`` for ``jobs <= 1`` (the search then runs its plain
    serial path).  Mode selection follows :func:`shard_mode`: ``fork``
    where the platform offers it, else (or when forced) ``thread``.
    """
    jobs = max(1, int(jobs))
    if jobs == 1:
        yield None
        return
    mode = shard_mode()
    if mode == "auto":
        # Forking a multi-threaded process is unsafe (a child can inherit
        # a lock held by another thread — sqlite, malloc, logging — and
        # deadlock; CPython 3.12+ warns about exactly this).  That is the
        # situation inside the service process, whose HTTP handler
        # threads run next to the dispatcher.  Auto therefore forks only
        # from a single-threaded process — batch workers and plain CLI
        # solves — and falls back to threads elsewhere; callers that
        # know their threads are fork-safe can force `use_shard_mode("fork")`.
        fork_ok = (
            "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1
        )
        mode = "fork" if fork_ok else "thread"
    if mode == "fork" and "fork" not in multiprocessing.get_all_start_methods():
        mode = "thread"

    _log.debug("pool_open", mode=mode, jobs=jobs)
    if mode == "thread":
        executor = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-shard"
        )
        try:
            yield SearchPool(
                executor,
                lambda chunk: executor.submit(
                    _thread_worker, kernel, chunk, remaining_time()
                ),
                jobs,
                "thread",
            )
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return

    token = next(_token_counter)
    _PARENT_KERNELS[token] = kernel
    executor = ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork")
    )
    try:
        yield SearchPool(
            executor,
            lambda chunk: executor.submit(
                _fork_worker, (token, chunk, remaining_time(), trace_context())
            ),
            jobs,
            "fork",
        )
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
        _PARENT_KERNELS.pop(token, None)
