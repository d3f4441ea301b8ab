"""Zero-dependency observability tier: metrics, traces, logs, progress.

Every layer of the stack reports through this package — the solver and
the Figure-4 search emit phase spans and per-iteration progress records,
the engine propagates one trace across ``encode_many`` process workers,
and the service exports the whole
registry as Prometheus text on ``GET /v1/metrics``.  Four small modules:

``metrics``
    process-global registry of counters, gauges and histograms with
    fixed log-scale buckets, rendered in the Prometheus text
    exposition format.  Allocation-free when disabled: handles are
    created once and every mutator is a flag check away from a no-op.
``trace``
    hierarchical wall-clock spans with a context-propagated trace id,
    spooled per process and exported as Chrome trace-event JSON
    (``pyetrify solve --trace out.json``, viewable in Perfetto).
``log``
    a structured ``key=value`` logging facade replacing every bare
    ``print()``; one global threshold wired to ``--verbose``/``-q``.
``progress``
    a thread-local progress hook: the solver calls
    :func:`emit_progress` with iteration records and whoever set the
    hook (the service worker, a test, a bench) decides where they go.

None of this is allowed to change results: every knob here is
presentation-only, and ``tests/test_obs.py`` pins the encoding
fingerprint byte-identical with observability fully on vs fully off.
"""

from repro.obs.log import configure_logging, get_logger, logging_level
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)
from repro.obs.progress import emit_progress, progress_hook, use_progress_hook
from repro.obs.trace import (
    adopt_trace_context,
    collect_phases,
    export_chrome_trace,
    span,
    span_event,
    start_trace,
    stop_trace,
    trace_context,
    tracing_active,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "adopt_trace_context",
    "collect_phases",
    "configure_logging",
    "emit_progress",
    "export_chrome_trace",
    "get_logger",
    "log_buckets",
    "logging_level",
    "progress_hook",
    "render_prometheus",
    "span",
    "span_event",
    "start_trace",
    "stop_trace",
    "trace_context",
    "tracing_active",
    "use_progress_hook",
]
