"""Hierarchical spans exported as Chrome trace-event JSON.

One trace covers an arbitrary tree of processes.  The parent calls
:func:`start_trace`, which allocates a trace id and a *spool
directory*; every process appends its closed spans to its own
``<spool>/<pid>.jsonl`` file (write-through, so events survive a pool
shutdown).  Children on a ``fork`` start method inherit the active
trace automatically — the module global survives the fork and the
writer reopens a per-pid file on first use — while ``spawn``-style
workers adopt it explicitly from the picklable dict returned by
:func:`trace_context`.  :func:`export_chrome_trace` merges every spool
file into one ``{"traceEvents": [...]}`` document that Perfetto and
``chrome://tracing`` load directly: complete (``ph:"X"``) events with
microsecond wall-clock timestamps, nested per ``(pid, tid)`` by time
containment, so no parent ids need to cross process boundaries.

Spans double as the phase-timing source of ``perfbench``'s per-layer
metrics: :func:`collect_phases` installs a thread-local accumulator that
sums span durations by name even when no trace is active, so no second
timing system is needed.

When neither a trace nor an accumulator is active, :func:`span` costs
two attribute reads — instrumentation stays compiled in everywhere.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "adopt_trace_context",
    "collect_phases",
    "export_chrome_trace",
    "span",
    "span_event",
    "start_trace",
    "stop_trace",
    "trace_context",
    "tracing_active",
]


class _SpoolWriter:
    """Append-only per-process event sink under the spool directory.

    The file handle is keyed by pid: after a ``fork`` the child's first
    event transparently opens ``<spool>/<childpid>.jsonl`` instead of
    writing through the inherited parent handle.
    """

    def __init__(self, spool_dir: str, trace_id: str) -> None:
        self.spool_dir = spool_dir
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._handle = None
        self._pid: Optional[int] = None

    def write(self, event: Dict[str, object]) -> None:
        pid = os.getpid()
        with self._lock:
            if self._handle is None or self._pid != pid:
                if self._handle is not None:
                    try:
                        self._handle.close()
                    except OSError:  # pragma: no cover - best effort
                        pass
                path = os.path.join(self.spool_dir, f"{pid}.jsonl")
                self._handle = open(path, "a", encoding="utf-8")
                self._pid = pid
            self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover - best effort
                    pass
                self._handle = None
                self._pid = None


#: The active trace of this process (None = tracing off).  Module
#: global rather than thread-local on purpose: a trace spans every
#: thread of the process, and fork children inherit it for free.
_writer: Optional[_SpoolWriter] = None

_tls = threading.local()


def tracing_active() -> bool:
    """True when this process is contributing events to a trace."""
    return _writer is not None


def start_trace(spool_dir: Optional[str] = None) -> str:
    """Begin collecting spans; returns the trace id.

    ``spool_dir`` is created if missing (a fresh temp directory by
    default).  Starting a trace while one is active replaces it.
    """
    global _writer
    if spool_dir is None:
        import tempfile

        spool_dir = tempfile.mkdtemp(prefix="pyetrify-trace-")
    else:
        os.makedirs(spool_dir, exist_ok=True)
    trace_id = uuid.uuid4().hex[:16]
    if _writer is not None:
        _writer.close()
    _writer = _SpoolWriter(spool_dir, trace_id)
    return trace_id


def stop_trace(cleanup: bool = False) -> None:
    """Stop collecting; optionally delete the spool directory."""
    global _writer
    if _writer is None:
        return
    spool = _writer.spool_dir
    _writer.close()
    _writer = None
    if cleanup:
        import shutil

        shutil.rmtree(spool, ignore_errors=True)


def trace_context() -> Optional[Dict[str, str]]:
    """Picklable handle for shipping the trace to another process."""
    if _writer is None:
        return None
    return {"trace_id": _writer.trace_id, "spool": _writer.spool_dir}


def adopt_trace_context(ctx: Optional[Dict[str, str]]) -> None:
    """Join the trace described by :func:`trace_context` (no-op on None).

    Idempotent: adopting the context of the already-active trace keeps
    the current writer (and its open spool file) untouched.
    """
    global _writer
    if not ctx:
        return
    if (
        _writer is not None
        and _writer.trace_id == ctx["trace_id"]
        and _writer.spool_dir == ctx["spool"]
    ):
        return
    if _writer is not None:
        _writer.close()
    _writer = _SpoolWriter(ctx["spool"], ctx["trace_id"])


def _accumulators() -> List[Dict[str, float]]:
    stack = getattr(_tls, "phase_stack", None)
    if stack is None:
        stack = []
        _tls.phase_stack = stack
    return stack


@contextmanager
def collect_phases() -> Iterator[Dict[str, float]]:
    """Sum span durations by name into the yielded dict (per thread).

    Nests: every active accumulator on this thread receives every span,
    so an outer benchmark and an inner solve can both collect.
    """
    acc: Dict[str, float] = {}
    stack = _accumulators()
    stack.append(acc)
    try:
        yield acc
    finally:
        # remove by identity: list.remove compares by ==, and two empty
        # accumulator dicts are equal — it would pop the wrong one
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is acc:
                del stack[index]
                break


@contextmanager
def span(span_name: str, **args: object) -> Iterator[Dict[str, object]]:
    """Time a phase.  Free (two attribute reads) when nothing listens.

    Keyword arguments become the event's ``args`` (so ``name=`` is a
    perfectly good annotation key — the positional is ``span_name``).
    The context value is that ``args`` dict: entries added inside the
    block (an outcome known only at the end) land on the event too.
    """
    stack = getattr(_tls, "phase_stack", None)
    if _writer is None and not stack:
        yield args
        return
    wall_us = time.time_ns() // 1000
    t0 = time.perf_counter()
    try:
        yield args
    finally:
        elapsed = time.perf_counter() - t0
        if stack:
            for acc in stack:
                acc[span_name] = acc.get(span_name, 0.0) + elapsed
        writer = _writer
        if writer is not None:
            event: Dict[str, object] = {
                "name": span_name,
                "cat": "pyetrify",
                "ph": "X",
                "ts": wall_us,
                "dur": max(1, int(elapsed * 1_000_000)),
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
            }
            if args:
                event["args"] = {k: _jsonable(v) for k, v in args.items()}
            writer.write(event)


def span_event(span_name: str, phase: str, id: str, **args: object) -> None:
    """An async begin/end marker (``ph:"b"``/``"e"``) keyed by ``id``.

    Used for service request spans, where awaits interleave requests on
    one event-loop thread and nested ``X`` slices would lie.
    """
    writer = _writer
    if writer is None:
        return
    event: Dict[str, object] = {
        "name": span_name,
        "cat": "pyetrify",
        "ph": phase,
        "id": id,
        "ts": time.time_ns() // 1000,
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
    }
    if args:
        event["args"] = {k: _jsonable(v) for k, v in args.items()}
    writer.write(event)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def export_chrome_trace(path: str, cleanup: bool = False) -> int:
    """Merge every spool file into one Chrome trace JSON document.

    Returns the number of events written.  Call while the trace is
    still active (the spool location is needed); ``cleanup=True`` also
    stops the trace and deletes the spool.
    """
    if _writer is None:
        raise RuntimeError("no active trace to export")
    spool = _writer.spool_dir
    trace_id = _writer.trace_id
    events: List[Dict[str, object]] = []
    for entry in sorted(os.listdir(spool)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(spool, entry), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    events.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0), e.get("tid", 0)))
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "producer": "pyetrify"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    if cleanup:
        stop_trace(cleanup=True)
    return len(events)
