"""Job-event streaming helpers: SSE framing and terminal-event detection.

The durable feed itself lives in the queue's ``job_events`` table
(appended atomically with every status transition, readable from any
process).  The ``GET /v1/jobs/{id}/events`` endpoint of the ASGI front
offers it in two wire formats:

* **Server-Sent Events** (``Accept: text/event-stream``): each event row
  becomes one SSE frame (:func:`format_sse`) with its queue sequence
  number as ``id:``, so a dropped connection resumes exactly where it
  left off via the standard ``Last-Event-ID`` header.  The stream closes
  itself once a terminal event (``done`` / ``failed`` / ``timeout``) has
  been sent.
* **Long-poll JSON** (the fallback for clients without an SSE parser):
  ``?wait=SECONDS&after=SEQ`` returns the events past ``SEQ`` plus the
  cursor for the next call.

Both formats deliver the same rows; :func:`is_terminal_event` defines
when a job's feed is complete.
"""

from __future__ import annotations

import json

from repro.service.queue import FINAL_STATUSES, JobEvent

__all__ = [
    "format_sse",
    "is_terminal_event",
    "SSE_HEADERS",
]

#: Response headers of an SSE stream (list of pairs, ASGI-style order).
SSE_HEADERS = [
    (b"content-type", b"text/event-stream; charset=utf-8"),
    (b"cache-control", b"no-cache"),
    (b"x-accel-buffering", b"no"),
]


def is_terminal_event(event: JobEvent) -> bool:
    """Whether this event ends the job's feed (job reached a final state)."""
    return event.event in FINAL_STATUSES


def format_sse(event: JobEvent) -> bytes:
    """One ``JobEvent`` as a Server-Sent-Events frame.

    The queue sequence number doubles as the SSE event id, making
    ``Last-Event-ID`` reconnection line up with the ``after`` cursor of
    the long-poll API — the two formats share one notion of position.
    """
    payload = json.dumps(event.as_dict(), sort_keys=True)
    return (
        f"id: {event.seq}\nevent: {event.event}\ndata: {payload}\n\n".encode("utf-8")
    )
