"""Trace and metrics exporters: torn-tail-safe files tools can open.

Two formats, both written and read through :mod:`repro.appendlog` —
one kill-safe append per line, so a SIGKILL tears at most the final
line, which readers drop:

* **Chrome trace-event JSON** — :class:`ChromeTraceWriter` emits the
  trace-event array format that Perfetto and ``chrome://tracing`` load
  directly: a ``[`` header line, then one complete (``"ph": "X"``)
  event object per line, comma-terminated.  The format explicitly
  tolerates a missing closing bracket, which is exactly what makes an
  append-only, kill-safe trace file *also* a valid trace file.

* **Metrics JSONL** — :func:`append_metrics` appends one
  schema-versioned JSON object per snapshot (a whole
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` keyed by
  campaign id), healing a torn tail first; :func:`read_metrics` reads
  them back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.appendlog import AppendLog, scan
from repro.exceptions import ConfigurationError
from repro.telemetry.spans import SpanRecord

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "ChromeTraceWriter",
    "span_to_trace_event",
    "write_trace",
    "read_trace",
    "append_metrics",
    "read_metrics",
]

#: Bump on any change to the metrics-dump record schema; readers skip
#: rows of other versions.
TELEMETRY_SCHEMA_VERSION = 1

_TRACE_HEADER = "[\n"


def span_to_trace_event(record: SpanRecord) -> Dict[str, Any]:
    """One span as a Chrome complete ("X") trace event.

    ``ts``/``dur`` are microseconds; ``pid``/``tid`` place the span on
    the viewer's process/thread rows, so worker-process spans of one
    campaign land on separate rows under the same trace.  The campaign
    correlation id travels in ``args.trace_id``.
    """
    args = {"trace_id": record.trace_id, "span_id": record.span_id}
    if record.parent_id is not None:
        args["parent_id"] = record.parent_id
    args.update(record.attrs)
    return {
        "name": record.name,
        "cat": "repro",
        "ph": "X",
        "ts": round(record.start_ts * 1e6, 3),
        "dur": round(record.duration * 1e6, 3),
        "pid": record.pid,
        "tid": record.tid,
        "args": args,
    }


class ChromeTraceWriter:
    """Incremental, kill-safe writer for one Chrome trace file.

    Each ``write`` is one :class:`~repro.appendlog.AppendLog` append;
    ``close`` is idempotent and the writer is a context manager.  The
    file is truncated on open — a trace describes one session,
    re-running overwrites it.
    """

    def __init__(self, path: Union[str, Path]):
        self._log = AppendLog.create(path)
        self._log.append(_TRACE_HEADER)

    @property
    def path(self) -> Path:
        return self._log.path

    def write(self, record: SpanRecord) -> None:
        self._log.append(json.dumps(span_to_trace_event(record), sort_keys=True) + ",\n")

    def write_all(self, records) -> None:
        for record in records:
            self.write(record)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "ChromeTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_trace(path: Union[str, Path], records) -> Path:
    """Write ``records`` as one Chrome trace file; returns the path."""
    with ChromeTraceWriter(path) as writer:
        writer.write_all(records)
        return writer.path


def _trace_event(text: str) -> Optional[Dict[str, Any]]:
    """One trace line (comma-terminated); ``None`` for a closing ``]``."""
    text = text.rstrip(",").strip()
    if text in ("", "]"):
        return None
    event = json.loads(text)
    if not isinstance(event, dict) or "ph" not in event or "name" not in event:
        raise ConfigurationError(f"not a trace event: {event!r}")
    return event


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, Any], ...]:
    """Parse a Chrome trace file back into event dicts, validating it.

    The lines after the ``[`` header are read with
    :func:`repro.appendlog.scan`; a file that is not a trace-event array
    at all raises :class:`~repro.exceptions.ConfigurationError`.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no trace file at {path}")
    header, _, body = path.read_bytes().partition(b"\n")
    if header.strip() not in (b"[", b"[]"):
        raise ConfigurationError(
            f"{path} is not a Chrome trace-event file (missing '[' header)"
        )
    events, _ = scan(body, _trace_event, f"trace file {path}", first_line=2)
    return tuple(events)


# -- metrics dump -------------------------------------------------------------


def _metrics_record(text: str) -> Optional[Dict[str, Any]]:
    """One metrics line; ``None`` for rows of other schema versions."""
    record = json.loads(text)
    if not isinstance(record, dict) or "metrics" not in record:
        raise ConfigurationError(f"not a metrics record: {record!r}")
    return record if record.get("v") == TELEMETRY_SCHEMA_VERSION else None


def append_metrics(
    path: Union[str, Path],
    campaign: str,
    snapshot: Dict[str, Dict[str, Any]],
    *,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Append one metrics snapshot (whole registry) for ``campaign``."""
    record = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "type": "metrics",
        "campaign": campaign,
        "metrics": snapshot,
    }
    if extra:
        record.update(extra)
    log, _ = AppendLog.open(path, _metrics_record, f"metrics dump {Path(path)}")
    with log:
        log.append(json.dumps(record, sort_keys=True) + "\n")
    return log.path


def read_metrics(path: Union[str, Path]) -> Tuple[Dict[str, Any], ...]:
    """Read a metrics JSONL dump (torn-tail-tolerant, version-filtered)."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no metrics dump at {path}")
    return tuple(scan(path.read_bytes(), _metrics_record, f"metrics dump {path}")[0])
