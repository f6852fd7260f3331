"""The result-store interface and the backend factory.

A :class:`ResultStore` maps scenario fingerprints
(:mod:`repro.store.fingerprint`) to the
:class:`~repro.campaign.spec.ScenarioOutcome` the scenario produced.
Stores are written to incrementally — one ``put`` per completed scenario,
durable immediately — so that a killed campaign leaves behind every
outcome it finished, and a rerun against the same store replays them as
cache hits instead of recomputing.

Two persistent backends ship (:class:`~repro.store.jsonl.JsonlResultStore`
for portability and append-only simplicity,
:class:`~repro.store.sqlite.SqliteResultStore` for large grids with
indexed lookups) plus an in-memory backend for tests and ephemeral
campaigns; :func:`open_store` picks one from a path.  Both persistent
backends batch their commits through one :class:`WriteBuffer`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaign.spec import ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store.fingerprint import ScenarioFingerprint

__all__ = [
    "SQLITE_SUFFIXES", "ResultStore", "Fingerprintish", "WriteBuffer", "backend_of",
    "open_store",
]

#: Anything accepted as a store key.
Fingerprintish = Union[str, ScenarioFingerprint]


def _digest(fingerprint: Fingerprintish) -> str:
    if isinstance(fingerprint, ScenarioFingerprint):
        return fingerprint.digest
    return str(fingerprint)


class ResultStore(ABC):
    """Persistent mapping ``fingerprint -> ScenarioOutcome``.

    Implementations must make each :meth:`put` durable before returning
    (that is the resume guarantee) and must return outcomes that compare
    equal to the originally stored ones — cached campaign results are
    asserted *equal* to cold runs, not merely similar.
    """

    # -- required ----------------------------------------------------------

    @abstractmethod
    def get(self, fingerprint: Fingerprintish) -> Optional[ScenarioOutcome]:
        """The stored outcome for this fingerprint, or ``None``."""

    @abstractmethod
    def put(self, fingerprint: Fingerprintish, outcome: ScenarioOutcome) -> None:
        """Store an outcome durably (last write wins on re-put)."""

    @abstractmethod
    def fingerprints(self) -> FrozenSet[str]:
        """All fingerprints with a stored outcome (current schema only)."""

    @abstractmethod
    def close(self) -> None:
        """Release the backing resource.

        ``close`` is **idempotent** — closing twice is a no-op, which is
        what lets stores be used both as context managers and with an
        explicit ``close()`` in ``finally`` blocks.  Reads and writes
        after close are undefined (backends may raise).
        """

    # -- conveniences ------------------------------------------------------

    def get_many(
        self, fingerprints: Iterable[Fingerprintish]
    ) -> Dict[str, ScenarioOutcome]:
        """Bulk lookup: only hits appear in the returned mapping."""
        hits: Dict[str, ScenarioOutcome] = {}
        for fingerprint in fingerprints:
            digest = _digest(fingerprint)
            if digest in hits:
                continue
            outcome = self.get(digest)
            if outcome is not None:
                hits[digest] = outcome
        return hits

    def put_many(
        self, items: Iterable[Tuple[Fingerprintish, ScenarioOutcome]]
    ) -> None:
        """Bulk store (backends may override with a single transaction)."""
        for fingerprint, outcome in items:
            self.put(fingerprint, outcome)

    def items(self) -> Iterator[Tuple[str, ScenarioOutcome]]:
        """Every ``(fingerprint, outcome)`` pair, sorted by fingerprint.

        The provenance query layer (:mod:`repro.provenance.queries`)
        aggregates over this; backends may override with a streaming
        implementation.
        """
        for digest in sorted(self.fingerprints()):
            outcome = self.get(digest)
            if outcome is not None:
                yield digest, outcome

    def flush(self) -> None:
        """Make every buffered write durable now.

        A no-op by default: each :meth:`put` is already durable.  Backends
        opened with ``commit_batch > 1`` relax that to "within one batch"
        (:class:`WriteBuffer`); for them this is the durability point.
        """

    def io_stats(self) -> Dict[str, int]:
        """Write-path accounting: puts, flushes, rows per commit.

        Base stores commit per put, so the default reports nothing;
        batching backends override with real counters (``puts``,
        ``commits``, ``committed_rows``, ``max_commit_batch``).  Numbers
        feed the telemetry layer's ``dispatch:store_*`` counters; they
        never affect stored data.
        """
        return {}

    def __contains__(self, fingerprint: object) -> bool:
        if not isinstance(fingerprint, (str, ScenarioFingerprint)):
            return False
        return self.get(fingerprint) is not None

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: How long a partially filled commit buffer may wait before it is
#: committed anyway: the durability window in wall time.
IDLE_FLUSH_SECONDS = 0.5


class WriteBuffer:
    """The commit-batching policy of both persistent backends.

    A backend hands each put to :meth:`put` as ``(digest, row)``, and
    ``commit_rows(rows)`` makes rows durable in one step (one SQLite
    transaction, one appended JSONL write).  ``commit_batch=1`` commits
    every put before it returns.  Larger values keep up to that many rows
    pending, keyed by digest (a re-put replaces the pending row: last
    write wins), which moves the durability point by **at most one
    batch**: a full batch commits at once, an idle timer commits a
    partial one, and :meth:`close` commits the rest.  Backends whose
    reads go to disk :meth:`drain` first.  ``lock`` is the backend's own
    lock, so the timer thread's commit never interleaves with its I/O.
    """

    def __init__(self, commit_rows: Callable[[List[Any]], None], *,
                 lock: threading.RLock, commit_batch: int, idle_flush_seconds: float):
        if commit_batch < 1:
            raise ConfigurationError(
                f"commit_batch must be >= 1, got {commit_batch}")
        if idle_flush_seconds <= 0:
            raise ConfigurationError(
                f"idle_flush_seconds must be > 0, got {idle_flush_seconds}")
        self._commit_rows = commit_rows
        self._lock = lock
        self._commit_batch = commit_batch
        self._idle_flush_seconds = idle_flush_seconds
        self._pending: Dict[str, Any] = {}
        self._idle_timer = None
        self._closed = False
        self._io = {"puts": 0, "commits": 0, "committed_rows": 0,
                    "max_commit_batch": 0, "flushes": 0}

    def _commit(self, rows: List[Any]) -> None:
        if not rows:
            return
        self._commit_rows(rows)
        self._io["commits"] += 1
        self._io["committed_rows"] += len(rows)
        self._io["max_commit_batch"] = max(self._io["max_commit_batch"], len(rows))

    def _take_pending(self) -> List[Any]:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        rows = list(self._pending.values())
        self._pending.clear()
        return rows

    def put(self, digest: str, row: Any) -> None:
        with self._lock:
            self._io["puts"] += 1
            if self._commit_batch == 1:
                self._commit([row])
                return
            self._pending[digest] = row
            if len(self._pending) >= self._commit_batch:
                self._commit(self._take_pending())
            elif self._idle_timer is None:
                self._idle_timer = threading.Timer(self._idle_flush_seconds, self.flush)
                self._idle_timer.daemon = True
                self._idle_timer.start()

    def put_many(self, rows: List[Any]) -> None:
        """Commit the pending rows, then ``rows``, in one step."""
        with self._lock:
            self._io["puts"] += len(rows)
            self._commit(self._take_pending() + rows)

    def drain(self) -> None:
        """Commit the pending rows now (before a read; not a flush)."""
        with self._lock:
            self._commit(self._take_pending())

    def flush(self) -> None:
        """Commit the pending rows now (the explicit durability point)."""
        with self._lock:
            if self._closed:
                return
            if self._pending:
                self._io["flushes"] += 1
            self.drain()

    def close(self) -> None:
        """Commit what is pending and stop the timer; idempotent."""
        with self._lock:
            if not self._closed:
                self.drain()
                self._closed = True

    def io_stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._io, "buffered": len(self._pending),
                    "commit_batch": self._commit_batch}


#: Path suffixes that open the SQLite backend; ``":memory:"`` opens the
#: in-memory one and any other path the JSONL one.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def backend_of(path: Union[str, "object"]) -> str:
    """``"memory"``, ``"sqlite"`` or ``"jsonl"``: the backend for ``path``."""
    text = str(path)
    if text == ":memory:":
        return "memory"
    return "sqlite" if text.endswith(SQLITE_SUFFIXES) else "jsonl"


def open_store(path: Union[str, "object"], *, commit_batch: int = 1) -> ResultStore:
    """Open the result store :func:`backend_of` picks for ``path``.

    The file (and its parent directory) is created on first use.
    ``commit_batch`` > 1 batches the persistent backends' commits
    (:class:`WriteBuffer`); the in-memory backend ignores it.
    """
    from repro.store.jsonl import JsonlResultStore
    from repro.store.memory import MemoryResultStore
    from repro.store.sqlite import SqliteResultStore

    backend = backend_of(path)
    if backend == "memory":
        return MemoryResultStore()
    if backend == "sqlite":
        return SqliteResultStore(str(path), commit_batch=commit_batch)
    return JsonlResultStore(str(path), commit_batch=commit_batch)
