"""Prometheus exposition behind ``GET /v1/metrics``.

One scrape is the union of two sources:

* the process-global :data:`repro.obs.REGISTRY` — everything the
  instrumented code paths incremented as they ran: HTTP request
  counters and latency histograms, queue claim latency, processed-job
  counters, per-tenant request counters, the SSE
  subscriber gauge;
* *state gauges* refreshed from :meth:`EncodingService.stats
  <repro.service.EncodingService.stats>` at scrape time — queue depth,
  per-status job counts, store size and hit/miss accounting, tenancy,
  worker-pool utilisation.  These describe durable backend state shared
  between processes (other fronts and workers mutate the same sqlite
  files), so sampling them fresh per scrape is more honest than
  mirroring every local mutation.

Everything renders through one exposition path
(:func:`repro.obs.metrics.render_prometheus`), text format 0.0.4.
"""

from __future__ import annotations

from repro.obs import REGISTRY, render_prometheus

__all__ = ["render_service_metrics"]


def render_service_metrics(service, registry=REGISTRY) -> str:
    """Refresh the state gauges from ``service.stats()`` and render.

    Runs in the HTTP front's executor (``stats()`` is a handful of
    short sqlite queries).  With a disabled registry the gauges simply
    stay at rest and the scrape renders whatever already exists.
    """
    stats = service.stats()
    gauge = registry.gauge

    queue = stats["queue"]
    gauge("pyetrify_queue_depth", "Jobs pending in the queue").set(queue["depth"])
    by_status = gauge(
        "pyetrify_jobs", "Jobs in the queue by status", labelnames=("status",)
    )
    for status, count in (queue["by_status"] or {}).items():
        by_status.labels(status=status).set(count)

    store = stats["store"]
    gauge("pyetrify_store_entries", "Results held in the store").set(store["entries"])
    gauge("pyetrify_store_hits", "Store lookups answered from cache").set(store["hits"])
    gauge("pyetrify_store_misses", "Store lookups that missed").set(store["misses"])
    gauge("pyetrify_store_evictions", "Results evicted by the LRU bound").set(
        store["evictions"]
    )

    workers = stats["workers"]
    gauge("pyetrify_worker_slots", "Configured worker-pool width").set(workers["jobs"])
    gauge("pyetrify_worker_running", "Jobs executing right now").set(workers["running"])
    gauge(
        "pyetrify_worker_busy_seconds", "Cumulative seconds worker slots were busy"
    ).set(workers["busy_seconds"])

    gauge("pyetrify_tenants", "Provisioned tenants").set(stats["tenancy"]["tenants"])
    gauge("pyetrify_uptime_seconds", "Seconds since this front started").set(
        stats["uptime_seconds"]
    )
    return render_prometheus(registry)
