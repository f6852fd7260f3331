"""One discipline for every append-only line file.

The JSONL result store, the campaign journal, the Chrome trace and the
metrics dump hold one record per line, each written by one ``write`` +
``flush``, so a process killed mid-append leaves at most one artefact:
a torn final line without its newline.  Every reader classifies alike:

* an unreadable final line with nothing after it — not even its
  newline — is a kill artefact and is dropped (a torn line that parses
  as JSON but is not a complete record is unreadable too);
* an unreadable line *followed by more data*, a garbage final line WITH
  its newline included (no torn single write produces one), is real
  corruption and raises :class:`~repro.exceptions.ConfigurationError`;
* blank lines are skipped, and an empty file reads as empty.

:func:`scan` applies this with a per-format ``parse``, :func:`heal` cuts
a torn tail so the next append starts on a clean line, and
:class:`AppendLog` appends.  ``tests/test_appendlog.py`` pins the
classification byte-level for every reader.  Only the standard library
and :mod:`repro.exceptions` are imported, so every layer can use it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import IO, Callable, List, Optional, Tuple, TypeVar, Union

from repro.exceptions import ConfigurationError

__all__ = ["AppendLog", "heal", "scan"]

T = TypeVar("T")


def scan(data: bytes, parse: Callable[[str], Optional[T]], what: str, *,
         first_line: int = 1) -> Tuple[List[T], int]:
    """Parse ``data`` line by line: ``(records, good_until)``.

    ``parse`` gets each non-blank line, stripped and decoded; it returns
    a record, or ``None`` to skip the line (another schema version, say),
    and raises to reject it.  ``good_until`` is the byte length of the
    readable prefix; ``first_line`` is the number of ``data``'s first line.
    """
    records: List[T] = []
    good_until = 0
    for line_number, raw_line in enumerate(data.split(b"\n"), start=first_line):
        stripped = raw_line.strip()
        if stripped:
            try:
                record = parse(stripped.decode("utf-8"))
            except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
                if good_until + len(raw_line) + 1 <= len(data):
                    raise ConfigurationError(
                        f"corrupt {what}: unreadable record on line "
                        f"{line_number} ({exc})"
                    ) from exc
                break  # torn final line: a kill artefact, drop it
            if record is not None:
                records.append(record)
        good_until += len(raw_line) + 1  # the split-away "\n"
    return records, min(good_until, len(data))


def heal(path: Path, data: bytes, good_until: int) -> None:
    """Rewrite ``path`` (holding ``data``) as its readable prefix.

    The tail after ``good_until`` is cut and a missing final newline
    restored; a clean file, the empty file included, is left untouched.
    """
    if good_until == len(data) and (not data or data.endswith(b"\n")):
        return
    clean = data[:good_until]
    if clean and not clean.endswith(b"\n"):
        clean += b"\n"
    path.write_bytes(clean)


class AppendLog:
    """A line file written one kill-safe append at a time.

    Each :meth:`append` is one ``write`` + ``flush`` under a lock, so
    lines never interleave between threads, and the bytes survive the
    process being killed (not the host dying).  ``close()`` is
    idempotent and the log is a context manager.
    """

    def __init__(self, path: Path, file: IO[str]):
        self.path = path
        self._file = file
        self._lock = threading.Lock()

    @classmethod
    def open(cls, path: Union[str, Path], parse: Callable[[str], Optional[T]],
             what: str) -> Tuple["AppendLog", List[T]]:
        """``(log, records in the file)``: read back, heal, open to append."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records: List[T] = []
        if path.exists():
            data = path.read_bytes()
            records, good_until = scan(data, parse, what)
            heal(path, data, good_until)
        return cls(path, path.open("a", encoding="utf-8")), records

    @classmethod
    def create(cls, path: Union[str, Path]) -> "AppendLog":
        """A new, empty log at ``path`` (an existing file is truncated)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, path.open("w", encoding="utf-8"))

    def append(self, text: str) -> None:
        """Write ``text`` (whole lines) in one ``write`` and flush it."""
        with self._lock:
            self._file.write(text)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
