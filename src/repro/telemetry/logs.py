"""Structured logging: one event, explicit fields, two renderings.

The CLI's error paths (and any library code that wants to narrate) log
through here instead of bare ``print``.  Text mode writes
``level: event key=value ...`` to stderr — the historical ``error: ...``
shape, so scripts that grep for it keep working.  JSONL mode
(``--log-json``) writes one JSON object per line with stable keys
(``ts``, ``level``, ``logger``, ``event``, plus the event's fields),
which downstream tooling can parse without regexes.

A single process-wide configuration (level threshold, rendering, output
stream) keeps the CLI wiring to one ``configure()`` call; loggers are
cheap named handles.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, Optional, TextIO

from ..errors import ConfigurationError

#: Log levels, lowest to highest severity.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}


class _LogConfig:
    """Process-wide sink configuration (module-private singleton)."""

    __slots__ = ("threshold", "json_mode", "stream")

    def __init__(self) -> None:
        self.threshold = LEVELS["warning"]
        self.json_mode = False
        self.stream: Optional[TextIO] = None  # None -> current sys.stderr

    def target(self) -> TextIO:
        return self.stream if self.stream is not None else sys.stderr


_CONFIG = _LogConfig()


def configure(level: str = "warning", json_mode: bool = False,
              stream: Optional[TextIO] = None) -> None:
    """Set the process-wide logging behaviour.

    Args:
        level: Minimum severity emitted (``debug``/``info``/``warning``/
            ``error``).
        json_mode: Emit JSONL instead of human text.
        stream: Output stream; ``None`` follows ``sys.stderr`` (so
            pytest's capture and shell redirection both behave).
    """
    if level not in LEVELS:
        raise ConfigurationError(
            f"unknown log level {level!r} (have {sorted(LEVELS)})")
    _CONFIG.threshold = LEVELS[level]
    _CONFIG.json_mode = json_mode
    _CONFIG.stream = stream


def _render_text(level: str, logger: str, event: str,
                 fields: Dict[str, Any]) -> str:
    parts = [f"{level}: {event}"]
    parts.extend(f"{key}={value}" for key, value in fields.items())
    return " ".join(parts)


def _render_json(level: str, logger: str, event: str,
                 fields: Dict[str, Any]) -> str:
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "level": level,
        "logger": logger,
        "event": event,
    }
    for key, value in fields.items():
        if key in record:
            key = f"field_{key}"
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        record[key] = value
    return json.dumps(record)


class StructuredLogger:
    """Named handle emitting events through the process-wide sink."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        """Bind the logger to a non-empty ``name``."""
        if not name:
            raise ConfigurationError("logger name must be non-empty")
        self.name = name

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` at ``level``."""
        self._emit(level, event, fields)

    def _emit(self, level: str, event: str,
              fields: Dict[str, Any]) -> None:
        severity = LEVELS.get(level)
        if severity is None:
            raise ConfigurationError(f"unknown log level {level!r}")
        if severity < _CONFIG.threshold:
            return
        render = _render_json if _CONFIG.json_mode else _render_text
        line = render(level, self.name, event, fields)
        stream = _CONFIG.target()
        stream.write(line + "\n")
        try:
            stream.flush()
        except (OSError, ValueError):
            pass  # a closed redirection target must not mask the event

    # The per-level helpers route through ``_emit`` with the fields as a
    # dict, so a field legitimately named ``level`` or ``event`` (e.g.
    # ``info("cache", level="L2")``) cannot collide with the positional
    # parameters of ``log``.

    def debug(self, event: str, **fields: Any) -> None:
        """Emit ``event`` at debug level."""
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        """Emit ``event`` at info level."""
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Emit ``event`` at warning level."""
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        """Emit ``event`` at error level."""
        self._emit("error", event, fields)


_LOGGERS: Dict[str, StructuredLogger] = {}


def get_logger(name: str) -> StructuredLogger:
    """The (cached) logger for ``name``."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS[name] = StructuredLogger(name)
    return logger
