"""Structured ``key=value`` logging facade (stderr, one global level).

Replaces every bare ``print()`` in the stack.  Records are one line —
``HH:MM:SS.mmm LEVEL logger event key=value ...`` — machine-greppable
without being JSON-unreadable to a human watching a terminal.  There is
one process-global threshold, wired to the CLI's ``--verbose`` (debug)
and ``-q`` (errors only) flags; the default ``info`` keeps operational
warnings (a conflict core beyond the hybrid budget) visible while the
per-request access log and per-iteration solver chatter sit at
``debug``.

Deliberately not :mod:`logging`: no handler graphs, no config dicts,
no per-logger levels — a below-threshold call costs one dict lookup
and one compare, which is what lets the solver log unconditionally.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, TextIO

__all__ = ["ObsLogger", "configure_logging", "get_logger", "logging_level"]

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_lock = threading.Lock()
_threshold = LEVELS["info"]
_level_name = "info"
_stream: Optional[TextIO] = None  # None = sys.stderr at call time
_loggers: Dict[str, "ObsLogger"] = {}


def configure_logging(
    level: Optional[str] = None, stream: Optional[TextIO] = None
) -> None:
    """Set the global threshold and/or output stream.

    ``level`` is one of ``debug|info|warning|error``; ``stream``
    replaces stderr (tests aim it at a ``StringIO``).
    """
    global _threshold, _level_name, _stream
    with _lock:
        if level is not None:
            if level not in LEVELS:
                raise ValueError(f"unknown log level {level!r} (known: {sorted(LEVELS)})")
            _threshold = LEVELS[level]
            _level_name = level
        if stream is not None:
            _stream = stream


def logging_level() -> str:
    """The current global threshold name."""
    return _level_name


def _format_value(value: object) -> str:
    if isinstance(value, float):
        text = f"{value:.6g}"
    elif isinstance(value, str):
        text = value
    else:
        text = str(value)
    if not text or any(ch in text for ch in ' "='):
        return '"' + text.replace('"', '\\"') + '"'
    return text


class ObsLogger:
    """Named emitter; all state (level, stream) is global."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **fields: object) -> None:
        if LEVELS[level] < _threshold:
            return
        now = time.time()
        stamp = time.strftime("%H:%M:%S", time.localtime(now))
        parts = [
            f"{stamp}.{int(now * 1000) % 1000:03d}",
            level.upper(),
            self.name,
            event,
        ]
        parts.extend(f"{key}={_format_value(value)}" for key, value in fields.items())
        line = " ".join(parts)
        stream = _stream if _stream is not None else sys.stderr
        try:
            with _lock:
                stream.write(line + "\n")
                stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def debug(self, event: str, **fields: object) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log("error", event, **fields)


def get_logger(name: str) -> ObsLogger:
    """The (cached) logger for a dotted component name."""
    logger = _loggers.get(name)
    if logger is None:
        with _lock:
            logger = _loggers.setdefault(name, ObsLogger(name))
    return logger
