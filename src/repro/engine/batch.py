"""Batch encoding: many STGs through a process pool.

``encode_many`` is the engine's entry point: it encodes a sequence of
STGs either in-process (``jobs=1``) or on a ``ProcessPoolExecutor``
(``jobs>1``), returning lightweight JSON-serialisable
:class:`BatchItem` records in input order.  Per-STG work is independent,
results are deterministic, and a parallel run is byte-identical to a
serial run of the same inputs (the determinism tests assert exactly
that).

Each item runs through one of three *engines* (chosen per request by
``SolverSettings.engine`` or for the whole batch by the ``engine``
argument): ``"explicit"`` is the classical enumerate-then-solve
pipeline; ``"symbolic"`` never enumerates the state space up front —
census and CSC conflict detection run on BDDs
(:mod:`repro.symbolic`) and the explicit solver is only bridged in for
a conflicted graph that fits the state budget; ``"auto"`` takes a symbolic
census first and uses the explicit pipeline only when the state count
fits within ``max_states``.

``run_benchmark_suite`` applies it to the built-in benchmark library
(``pyetrify bench --all --jobs N [--engine symbolic]``), using each
case's own solver settings so relaxed benchmarks get
``allow_input_delay`` just as the table harnesses do.  With a symbolic
engine the sweep also admits the Table-1 rows that are infeasible
explicitly (``explicit_ok=False``) — the workload this tier opens up.
"""

from __future__ import annotations

import contextlib
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.bench_stg.library import BenchmarkCase, TABLE1_CASES, TABLE2_CASES
from repro.core.planes import KERNELS
from repro.core.solver import ENGINES, SolverSettings
from repro.engine.caches import use_caches
from repro.obs import (
    adopt_trace_context,
    collect_phases,
    span,
    trace_context,
    use_progress_hook,
)
from repro.stg.stg import STG
from repro.utils.deadline import DeadlineExceeded, deadline
from repro.utils.timing import Stopwatch


@dataclass
class BatchItem:
    """Outcome of encoding one STG (JSON-serialisable throughout).

    ``status`` is ``"ok"`` for a completed encoding (solved or provably
    unsolvable within the settings), ``"timeout"`` when the per-job
    wall-clock bound of :func:`encode_many` expired, and ``"error"`` when
    the worker raised; ``error_type`` then names the exception class.
    """

    name: str
    solved: bool = False
    summary: Dict[str, object] = field(default_factory=dict)
    table_row: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    error: Optional[str] = None
    status: str = "ok"
    engine: str = "explicit"
    census: Optional[Dict[str, object]] = None  # symbolic/auto engines only
    phases: Optional[Dict[str, float]] = None  # span-derived timing, opt-in
    synth: Optional[Dict[str, object]] = None  # synthesis tier output, opt-in
    error_type: Optional[str] = None  # exception class name of an "error" item

    def fingerprint(self) -> Dict[str, object]:
        """Result identity minus timing (for serial-vs-parallel checks).

        ``census`` stays out: its BDD statistics are deterministic but
        its seconds are not, and the census is bookkeeping about *how*
        the result was obtained, not part of the result.  ``phases`` is
        pure timing and stays out for the same reason.  ``synth`` stays
        out too: the encoding fingerprint must be byte-identical with
        synthesis on or off (the netlist is a downstream product of the
        encoding, pinned by its own bench suite).
        """
        flat = {key: value for key, value in self.summary.items() if key != "cpu_seconds"}
        row = {key: value for key, value in self.table_row.items() if key != "cpu"}
        return {
            "summary": flat,
            "table_row": row,
            "error": self.error,
            "status": self.status,
            "engine": self.engine,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "solved": self.solved,
            "summary": self.summary,
            "table_row": self.table_row,
            "seconds": round(self.seconds, 3),
            "error": self.error,
            "status": self.status,
            "engine": self.engine,
            "census": self.census,
            "phases": self.phases,
            "synth": self.synth,
        }


@dataclass
class BatchResult:
    """All items of one ``encode_many`` run plus wall-clock accounting."""

    items: List[BatchItem]
    jobs: int
    wall_seconds: float
    use_caches: bool = True

    @property
    def solved_count(self) -> int:
        return sum(1 for item in self.items if item.solved)

    def fingerprints(self) -> List[Dict[str, object]]:
        return [item.fingerprint() for item in self.items]

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 3),
            "use_caches": self.use_caches,
            "solved": self.solved_count,
            "total": len(self.items),
            "items": [item.as_dict() for item in self.items],
        }


def resolve_engine(
    settings: Optional[SolverSettings], override: Optional[str] = None
) -> str:
    """The engine one request runs through (override > settings > explicit)."""
    engine = override if override is not None else getattr(settings, "engine", None)
    engine = engine or "explicit"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


def _encode_one(payload) -> BatchItem:
    """Worker body: encode one STG and reduce the report to a BatchItem.

    Module-level so it pickles for the process pool; ``payload`` carries
    everything the worker needs (the cache switch included, so a
    cache-disabled baseline run stays cache-free inside the workers).
    The optional eighth element is the observability envelope built by
    :func:`_obs_envelope` — trace context to adopt, a phase-collection
    flag, and a progress spec the service worker uses to stream live
    solver progress into the durable ``job_events`` feed.  All of it is
    presentation-only: the encoded result is byte-identical with or
    without the envelope.
    """
    stg, settings, estimate_logic, max_states, caches_on, timeout, engine = payload[:7]
    obs = payload[7] if len(payload) > 7 else None
    synth = bool(payload[8]) if len(payload) > 8 else False

    phases_acc = None
    with contextlib.ExitStack() as stack:
        if obs:
            adopt_trace_context(obs.get("trace"))
            spec = obs.get("progress")
            if spec:
                # Deferred: the engine must stay importable without the
                # service tier; only a service-built payload reaches here.
                from repro.service.progress import JobProgressEmitter

                emitter = JobProgressEmitter(*spec)
                stack.callback(emitter.close)
                stack.enter_context(use_progress_hook(emitter))
            if obs.get("phases"):
                phases_acc = stack.enter_context(collect_phases())
        stack.enter_context(span("encode", name=stg.name, engine=engine))
        item = _encode_item(
            stg, settings, estimate_logic, max_states, caches_on, timeout, engine, synth
        )
    if phases_acc:
        item.phases = {name: round(seconds, 6) for name, seconds in sorted(phases_acc.items())}
    return item


def _encode_item(
    stg, settings, estimate_logic, max_states, caches_on, timeout, engine, synth=False
) -> BatchItem:
    """The encode proper (no observability scaffolding)."""
    from repro.api import encode_stg  # deferred: repro.api imports this package

    watch = Stopwatch().start()
    try:
        with use_caches(caches_on), deadline(timeout):
            if engine == "explicit":
                report = encode_stg(
                    stg,
                    settings=settings,
                    estimate_logic=estimate_logic,
                    max_states=max_states,
                    synth=synth,
                )
                return BatchItem(
                    name=stg.name,
                    solved=report.solved,
                    summary=report.result.summary(),
                    table_row=report.table_row(),
                    seconds=report.total_seconds,
                    engine=engine,
                    synth=_synth_dict(report, synth),
                )
            return _encode_symbolic(
                stg, settings, estimate_logic, max_states, engine, watch, synth
            )
    except DeadlineExceeded:
        return BatchItem(
            name=stg.name,
            seconds=watch.stop(),
            error=f"wall-clock timeout after {timeout}s",
            status="timeout",
            engine=engine,
        )
    except Exception as error:  # pragma: no cover - defensive per-item isolation
        return BatchItem(
            name=stg.name,
            error=f"{type(error).__name__}: {error}",
            status="error",
            engine=engine,
            error_type=type(error).__name__,
        )


def _synth_dict(report, synth: bool) -> Optional[Dict[str, object]]:
    """The JSON-safe ``synth`` field of a BatchItem (``None`` unless asked)."""
    if not synth:
        return None
    if report.synth is not None:
        return report.synth.as_dict()
    return {"status": "skipped", "reason": "CSC not solved"}


def _obs_envelope(phases: bool = False, progress=None) -> Optional[Dict[str, object]]:
    """The observability element of an ``_encode_one`` payload.

    ``None`` when there is nothing to carry, so the common untraced path
    ships (and pickles) nothing extra.  ``progress`` is the
    ``(queue_path, job_id, request_id)`` spec understood by
    :class:`repro.service.progress.JobProgressEmitter`.
    """
    ctx = trace_context()
    if ctx is None and not phases and progress is None:
        return None
    envelope: Dict[str, object] = {}
    if ctx is not None:
        envelope["trace"] = ctx
    if phases:
        envelope["phases"] = True
    if progress is not None:
        envelope["progress"] = progress
    return envelope


def _encode_symbolic(
    stg: STG,
    settings: Optional[SolverSettings],
    estimate_logic: bool,
    max_states: Optional[int],
    engine: str,
    watch: Stopwatch,
    synth: bool = False,
) -> BatchItem:
    """The ``engine="symbolic"`` / ``"auto"`` worker path.

    ``auto`` takes a symbolic census first: a state count within the
    ``max_states`` budget routes the request through the full explicit
    pipeline (identical results to ``engine="explicit"``, census
    attached); a larger one stays symbolic.  ``symbolic`` always runs
    the BDD front half — detection everywhere, the explicit solver only
    through the hybrid bridge's materialized state graph.
    """
    from repro.api import encode_stg  # deferred: repro.api imports this package
    from repro.symbolic import DEFAULT_STATE_BUDGET, ComposedStateGraph, symbolic_encode

    graphs = None
    if engine == "auto":
        graphs = ComposedStateGraph(stg)
        census = graphs.census()
        budget = max_states if max_states is not None else DEFAULT_STATE_BUDGET
        if census.states <= budget:
            report = encode_stg(
                stg,
                settings=settings,
                estimate_logic=estimate_logic,
                max_states=max_states,
                synth=synth,
            )
            return BatchItem(
                name=stg.name,
                solved=report.solved,
                summary=report.result.summary(),
                table_row=report.table_row(),
                seconds=watch.stop(),
                engine=engine,
                census=census.as_dict(),
                synth=_synth_dict(report, synth),
            )
    outcome = symbolic_encode(stg, settings=settings, max_states=max_states, graphs=graphs)
    skipped = (
        {"status": "skipped", "reason": "synthesis requires an enumerable state graph"}
        if synth
        else None
    )
    return BatchItem(
        name=stg.name,
        solved=outcome.solved,
        summary=outcome.summary(),
        table_row=outcome.table_row(),
        seconds=watch.stop(),
        engine=engine,
        census=outcome.census.as_dict(),
        synth=skipped,
    )


def encode_many(
    stgs: Sequence[STG],
    settings: Union[SolverSettings, Sequence[Optional[SolverSettings]], None] = None,
    jobs: int = 1,
    estimate_logic: bool = True,
    max_states: Optional[int] = None,
    caches_on: bool = True,
    timeout: Optional[float] = None,
    engine: Optional[str] = None,
    kernel: Optional[str] = None,
    phases: bool = False,
    synth: bool = False,
) -> BatchResult:
    """Encode many STGs, optionally in parallel worker processes.

    Parameters
    ----------
    stgs:
        The input specifications; results come back in the same order.
    settings:
        One :class:`SolverSettings` applied to every STG, or a sequence
        aligned with ``stgs`` (``None`` entries use solver defaults).
    jobs:
        Number of worker processes; ``jobs <= 1`` encodes in-process.
        Parallel results are byte-identical to serial ones — per-STG
        work shares nothing and every tie-break in the solver is
        deterministic.
    estimate_logic / max_states:
        Forwarded to :func:`repro.api.encode_stg`.
    caches_on:
        Engine-cache switch forwarded into the workers; disabling it
        yields the legacy recompute-everything behaviour (used as the
        baseline by ``benchmarks/bench_batch_engine.py``).
    timeout:
        Per-job wall-clock bound in seconds (``None`` = unbounded).  The
        solver's hot loops poll a cooperative deadline
        (:mod:`repro.utils.deadline`); a job that exceeds it comes back
        as ``status="timeout"`` instead of hanging its worker, so one
        pathological STG cannot stall a whole batch.  The bound applies
        per item, not to the batch as a whole.  The symbolic tier polls
        the same deadline, so symbolic jobs time out cooperatively too.
    engine:
        ``"explicit"``, ``"symbolic"`` or ``"auto"`` for the whole
        batch; ``None`` (default) respects each request's
        ``SolverSettings.engine``.  For symbolic engines ``max_states``
        doubles as the hybrid materialization budget.
    kernel:
        Block-evaluation kernel applied to the whole batch
        (``"bigint"``/``"planes"``/``"auto"``, see
        :mod:`repro.core.planes`); ``None`` (default) respects each
        request's ``SolverSettings.kernel``.  Performance-only: both
        kernels produce byte-identical results.
    phases:
        Collect per-phase span timings in each item's ``phases`` field
        (``BENCH_*.json`` breakdowns).  Presentation-only: excluded from
        fingerprints like every other timing.
    synth:
        Run the synthesis tier on every solved explicit encoding (see
        :func:`repro.synth.synthesize`): each item's ``synth`` field
        carries the verified netlist (equations/Verilog/BLIF plus the
        gate-level verification report), or a skip record for unsolved /
        symbolic-only outcomes.  Encoding fingerprints are unaffected.
    """
    stgs = list(stgs)
    if isinstance(settings, SolverSettings) or settings is None:
        per_stg: List[Optional[SolverSettings]] = [settings] * len(stgs)
    else:
        per_stg = list(settings)
        if len(per_stg) != len(stgs):
            raise ValueError(
                f"got {len(per_stg)} settings for {len(stgs)} STGs; "
                "pass one SolverSettings or one per STG"
            )
    if kernel is not None and kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    obs = _obs_envelope(phases=phases)
    payloads = []
    for stg, case_settings in zip(stgs, per_stg):
        if kernel is not None and (
            case_settings is None or case_settings.kernel != kernel
        ):
            case_settings = dataclasses.replace(
                case_settings or SolverSettings(), kernel=kernel
            )
        payloads.append(
            (
                stg,
                case_settings,
                estimate_logic,
                max_states,
                caches_on,
                timeout,
                resolve_engine(case_settings, engine),
                obs,
                synth,
            )
        )

    watch = Stopwatch().start()
    if jobs <= 1 or len(payloads) < 2:
        items = [_encode_one(payload) for payload in payloads]
    else:
        workers = min(jobs, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            items = list(pool.map(_encode_one, payloads))
    return BatchResult(
        items=items,
        jobs=max(1, jobs),
        wall_seconds=watch.stop(),
        use_caches=caches_on,
    )


# ----------------------------------------------------------------------
# benchmark-library driver
# ----------------------------------------------------------------------
def _size_proxy(case: BenchmarkCase) -> int:
    """Deterministic STG-size proxy used to pick the smallest cases."""
    stats = case.build().stats()
    return int(stats["places"]) + int(stats["transitions"])


def suite_cases(table: str = "table2", engine: str = "explicit") -> List[BenchmarkCase]:
    """The runnable cases of one table (or of both, ``table="all"``).

    The explicit engine can only run cases that are both solvable and
    enumerable (``solve`` and ``explicit_ok``).  The symbolic engines
    admit every case: ``explicit_ok=False`` rows get a symbolic census
    and CSC verdict, and ``solve=False`` rows run detection-only (the
    suite zeroes their signal budget).
    """
    if table == "table1":
        cases = TABLE1_CASES
    elif table == "table2":
        cases = TABLE2_CASES
    elif table == "all":
        cases = TABLE2_CASES + TABLE1_CASES
    else:
        raise ValueError(f"unknown table {table!r}")
    if engine == "explicit":
        return [case for case in cases if case.solve and case.explicit_ok]
    return list(cases)


def select_smallest_cases(
    cases: Sequence[BenchmarkCase], count: int
) -> List[BenchmarkCase]:
    """The ``count`` smallest cases by places+transitions (ties by name)."""
    ranked = sorted(cases, key=lambda case: (_size_proxy(case), case.name))
    return ranked[: max(0, count)]


def run_benchmark_suite(
    table: str = "table2",
    jobs: int = 1,
    smallest: Optional[int] = None,
    frontier_width: int = 16,
    brick_mode: Optional[str] = None,
    max_signals: Optional[int] = None,
    enlarge_concurrency: bool = False,
    verbose: bool = False,
    max_states: Optional[int] = 200000,
    caches_on: bool = True,
    timeout: Optional[float] = None,
    engine: str = "explicit",
    kernel: Optional[str] = None,
    phases: bool = False,
    synth: bool = False,
) -> BatchResult:
    """Encode the built-in benchmark library (``pyetrify bench --all``).

    Each case runs with its own library settings
    (:meth:`BenchmarkCase.solver_settings`), so strict cases stay
    input-preserving and relaxed ones get ``allow_input_delay`` — the
    same regime as the Table-1/Table-2 harnesses.  ``smallest`` keeps
    only the N smallest STGs (the CI smoke job uses 3).  The remaining
    knobs overlay the per-case settings when supplied, so the CLI's
    tuning flags apply in ``--all`` mode too; ``max_states`` bounds
    explicit state-graph construction exactly as in single-STG mode.

    With ``engine="symbolic"`` / ``"auto"`` the sweep also includes the
    cases the explicit engine must skip: ``explicit_ok=False`` rows get
    their census and CSC verdict symbolically, and ``solve=False`` rows
    run with a zero signal budget (detection-only) so the sweep stays
    within a benchmark-sized time budget.
    """
    cases = suite_cases(table, engine=engine)
    if smallest is not None:
        cases = select_smallest_cases(cases, smallest)
    stgs = [case.build() for case in cases]
    settings = []
    for case in cases:
        case_settings = case.solver_settings(frontier_width=frontier_width)
        case_settings.engine = engine
        if brick_mode is not None:
            case_settings.search.brick_mode = brick_mode
        if max_signals is not None:
            case_settings.max_signals = max_signals
        if engine != "explicit" and not case.solve:
            case_settings.max_signals = 0
        if enlarge_concurrency:
            case_settings.search.enlarge_concurrency = True
        if verbose:
            case_settings.verbose = True
        settings.append(case_settings)
    return encode_many(
        stgs,
        settings=settings,
        jobs=jobs,
        max_states=max_states,
        caches_on=caches_on,
        timeout=timeout,
        engine=engine,
        kernel=kernel,
        phases=phases,
        synth=synth,
    )
