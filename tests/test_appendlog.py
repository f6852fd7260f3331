"""The one torn-tail discipline, pinned byte-level over every reader.

Five readers share :mod:`repro.appendlog`: the JSONL store's open,
``compact_jsonl``, ``read_journal``, ``read_trace`` and ``read_metrics``.
Each case below is run against all five, so a reader that drifts from
the shared classification fails here.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.appendlog import AppendLog, heal, scan
from repro.campaign import CampaignRunner, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.provenance import CampaignJournal, read_journal
from repro.store import JsonlResultStore, SCHEMA_VERSION, fingerprint_spec, open_store
from repro.store.base import backend_of
from repro.store.compact import compact_jsonl
from repro.telemetry import Tracer, append_metrics, read_metrics, read_trace, write_trace

OUTCOMES = CampaignRunner().run(theorem8_specs([4], seeds=(1,), max_steps=4_000)).outcomes[:3]


def _write_store(path: Path) -> None:
    with JsonlResultStore(path) as store:
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)


def _read_store(path: Path) -> int:
    with JsonlResultStore(path) as store:
        return len(store)


def _write_journal(path: Path) -> None:
    with CampaignJournal(path) as journal:
        journal.campaign_started("c1", 1)
        journal.scenario("c1", "a" * 64, "ran")
        journal.campaign_finished("c1")


def _write_trace(path: Path) -> None:
    tracer = Tracer(trace_id="feed00000001")
    for label in ("a", "b", "c"):
        with tracer.span("scenario", label=label):
            pass
    write_trace(path, tracer.drain())


def _write_metrics(path: Path) -> None:
    for campaign in ("a", "b", "c"):
        append_metrics(path, campaign, {})


@dataclass(frozen=True)
class Reader:
    name: str
    write_good: Callable[[Path], None]  # writes exactly three records
    read: Callable[[Path], int]  # records read back
    json_prefix: bytes  # valid JSON, but not a complete record
    empty: bytes  # the smallest well-formed file
    heals: bool  # whether reading rewrites a torn tail away


READERS = [
    Reader("store-open", _write_store, _read_store,
           json.dumps({"fp": "a" * 64, "v": SCHEMA_VERSION}).encode(), b"", True),
    Reader("compact_jsonl", _write_store, lambda p: compact_jsonl(p).rows_kept,
           json.dumps({"fp": "a" * 64, "v": SCHEMA_VERSION}).encode(), b"", True),
    Reader("read_journal", _write_journal, lambda p: len(read_journal(p)),
           b'{"v": 1}', b"", False),
    # A trace is a "[" header plus events: its empty form is the header.
    Reader("read_trace", _write_trace, lambda p: len(read_trace(p)),
           b'{"ph": "X"}', b"[\n", False),
    Reader("read_metrics", _write_metrics, lambda p: len(read_metrics(p)),
           b'{"type": "metrics", "v": 1}', b"", False),
]


@pytest.fixture(params=READERS, ids=[r.name for r in READERS])
def reader(request):
    return request.param


def _good(reader: Reader, tmp_path: Path) -> tuple:
    path = tmp_path / "file.jsonl"
    reader.write_good(path)
    assert reader.read(path) == 3
    return path, path.read_bytes()


class TestTornTailTable:
    @pytest.mark.parametrize("tail", [b'{"torn": tr', None], ids=["torn", "json-prefix"])
    def test_torn_tail_without_newline_is_dropped(self, reader, tmp_path, tail):
        path, good = _good(reader, tmp_path)
        damaged = good + (reader.json_prefix if tail is None else tail)
        path.write_bytes(damaged)
        assert reader.read(path) == 3
        assert path.read_bytes() == (good if reader.heals else damaged)

    def test_garbage_final_line_with_newline_raises(self, reader, tmp_path):
        path, good = _good(reader, tmp_path)
        path.write_bytes(good + b"totally not json\n")
        line = good.count(b"\n") + 1
        with pytest.raises(ConfigurationError, match=f"unreadable record on line {line} "):
            reader.read(path)

    def test_mid_file_damage_raises(self, reader, tmp_path):
        path, good = _good(reader, tmp_path)
        lines = good.split(b"\n")
        damaged = len(lines) - 3  # the second-to-last record
        lines[damaged] = lines[damaged][:15]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError,
                           match=f"corrupt .*: unreadable record on line {damaged + 1} "):
            reader.read(path)

    def test_empty_file_loads_empty_and_is_untouched(self, reader, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_bytes(reader.empty)
        assert reader.read(path) == 0
        assert path.read_bytes() == reader.empty


def _int_line(text: str) -> int:
    return int(text)


class TestScanAndHeal:
    def test_scan_reports_records_and_the_readable_prefix(self):
        data = b"1\n\n2\n3"  # a complete last line without its newline
        assert scan(data, _int_line, "test") == ([1, 2, 3], len(data))
        assert scan(b"1\n2\n3x", _int_line, "test") == ([1, 2], 4)

    def test_parse_returning_none_skips_the_line(self):
        assert scan(b"1\n2\n3\n", lambda t: None if t == "2" else int(t), "t") == ([1, 3], 6)

    def test_first_line_numbers_the_error(self):
        with pytest.raises(ConfigurationError, match="corrupt thing: .* on line 8 "):
            scan(b"1\nx\n", _int_line, "thing", first_line=7)

    def test_heal_cuts_the_tail_and_restores_the_newline(self, tmp_path):
        path = tmp_path / "f"
        for data, good_until, healed in [
            (b"1\n2x", 2, b"1\n"),
            (b"1\n2", 3, b"1\n2\n"),
            (b"", 0, b""),
            (b"1\n", 2, b"1\n"),
        ]:
            path.write_bytes(data)
            heal(path, data, good_until)
            assert path.read_bytes() == healed


class TestAppendLog:
    def test_open_heals_then_appends_on_a_clean_line(self, tmp_path):
        path = tmp_path / "sub" / "log"
        with AppendLog.open(path, _int_line, "log")[0] as log:
            log.append("1\n")
        path.write_bytes(path.read_bytes() + b"2")  # no newline: kept, healed
        log, records = AppendLog.open(path, _int_line, "log")
        with log:
            assert records == [1, 2]
            log.append("3\n")
        path.write_bytes(path.read_bytes() + b"4x")  # torn: cut
        log, records = AppendLog.open(path, _int_line, "log")
        log.close()
        log.close()  # idempotent
        assert records == [1, 2, 3]
        assert path.read_bytes() == b"1\n2\n3\n"

    def test_create_truncates(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("old\n")
        with AppendLog.create(path) as log:
            log.append("new\n")
        assert path.read_text() == "new\n"

    def test_concurrent_appends_never_interleave(self, tmp_path):
        path = tmp_path / "log"
        log, _ = AppendLog.open(path, _int_line, "log")
        threads = [threading.Thread(target=lambda i=i: [log.append(f"{i}\n") for _ in range(200)])
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        records, _ = scan(path.read_bytes(), _int_line, "log")
        assert sorted(records) == sorted(i for i in range(4) for _ in range(200))


class TestBackendTable:
    @pytest.mark.parametrize("path, backend", [
        (":memory:", "memory"), ("a.sqlite", "sqlite"), ("a.sqlite3", "sqlite"),
        ("a.db", "sqlite"), ("a.jsonl", "jsonl"), ("a", "jsonl"),
    ])
    def test_backend_of(self, path, backend):
        assert backend_of(path) == backend

    def test_buffered_re_put_writes_only_the_last_row(self, tmp_path):
        first, second = OUTCOMES[:2]
        digest = fingerprint_spec(first.spec)
        with open_store(tmp_path / "s.jsonl", commit_batch=10) as store:
            store.put(digest, first)
            store.put(digest, second)
            assert store.io_stats()["buffered"] == 1
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        assert len(lines) == 1
        with open_store(tmp_path / "s.jsonl") as store:
            assert store.get(digest) == second
