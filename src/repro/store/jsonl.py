"""Append-only JSONL result store.

One JSON object per line: ``{"fp": <digest>, "v": <schema>, "outcome":
{...}}``.  The format is deliberately boring — portable, diffable,
mergeable with ``cat`` — and append-only, so a ``put`` is a single
``write + flush`` and a campaign killed mid-run loses at most the line
it was writing.

Crash-safety on open follows :mod:`repro.appendlog`, the one torn-tail
discipline of every append-only file: a torn final line (the campaign
was killed mid-append) is truncated away so the next append starts on a
clean line, and corruption *before* it raises — silently dropping
stored evidence would make a resumed campaign silently recompute, or
let a half-loaded index shadow a later duplicate record.  Records from
**other schema versions** are skipped and kept on disk: their
fingerprints can never be looked up anyway (the schema version is part
of the hash), so they are dead weight, not an error.  A record of the
current version with a broken fingerprint is corruption.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.appendlog import AppendLog
from repro.campaign.codec import outcome_from_dict, outcome_to_dict
from repro.campaign.spec import ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store.base import (
    IDLE_FLUSH_SECONDS, Fingerprintish, ResultStore, WriteBuffer, _digest,
)
from repro.store.fingerprint import SCHEMA_VERSION

__all__ = ["JsonlResultStore", "parse_record"]


def parse_record(text: str) -> Optional[Tuple[str, ScenarioOutcome]]:
    """One store line as ``(digest, outcome)``, ``None`` for other schemas."""
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ConfigurationError(f"record is not an object: {record!r}")
    if record.get("v") != SCHEMA_VERSION:
        return None
    digest = record["fp"]
    if not isinstance(digest, str) or not digest:
        raise ConfigurationError(f"record has a non-string fingerprint: {digest!r}")
    return digest, outcome_from_dict(record["outcome"])


class JsonlResultStore(ResultStore):
    """Append-only JSONL backend (the portable default).

    ``commit_batch=1`` (the default) appends and flushes per record.
    Larger values buffer encoded lines (:class:`~repro.store.base.WriteBuffer`)
    and append each batch as **one** write of the joined block; a kill
    mid-write then leaves complete lines plus at most one torn final
    line — exactly the artefact the open-time classification truncates.
    Reads are served from the in-memory index, so buffering never
    affects read-your-writes.
    """

    def __init__(self, path: Union[str, Path], *, commit_batch: int = 1,
                 idle_flush_seconds: float = IDLE_FLUSH_SECONDS):
        self._path = Path(path)
        self._lock = threading.RLock()
        self._buffer = WriteBuffer(
            lambda lines: self._log.append("".join(lines)), lock=self._lock,
            commit_batch=commit_batch, idle_flush_seconds=idle_flush_seconds)
        self._log, records = AppendLog.open(
            self._path, parse_record, f"result store {self._path}")
        self._index: Dict[str, ScenarioOutcome] = dict(records)

    @property
    def path(self) -> Path:
        return self._path

    def flush(self) -> None:
        """Append any buffered records now (the explicit durability point)."""
        self._buffer.flush()

    def io_stats(self) -> Dict[str, int]:
        return self._buffer.io_stats()

    # -- ResultStore -------------------------------------------------------

    def get(self, fingerprint: Fingerprintish) -> Optional[ScenarioOutcome]:
        return self._index.get(_digest(fingerprint))

    def put(self, fingerprint: Fingerprintish, outcome: ScenarioOutcome) -> None:
        digest = _digest(fingerprint)
        record = {"fp": digest, "v": SCHEMA_VERSION, "outcome": outcome_to_dict(outcome)}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._buffer.put(digest, line)
            self._index[digest] = outcome

    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self._index)

    def close(self) -> None:
        with self._lock:
            self._buffer.close()
            self._log.close()
