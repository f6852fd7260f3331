"""FaultyStore forwards everything but the writes it is told to fail."""

from __future__ import annotations

from repro.campaign import CampaignRunner, theorem8_specs
from repro.faults import FaultPlan
from repro.faults.store import FaultyStore
from repro.store import SqliteResultStore, fingerprint_spec

OUTCOME = CampaignRunner().run(theorem8_specs([4], seeds=(1,), max_steps=4_000)).outcomes[0]
DIGEST = fingerprint_spec(OUTCOME.spec)


def _store(tmp_path):
    return FaultyStore(SqliteResultStore(tmp_path / "s.sqlite", commit_batch=100), FaultPlan())


def test_flush_reaches_the_inner_store(tmp_path):
    with _store(tmp_path) as store:
        store.put(DIGEST, OUTCOME)
        assert store._inner.io_stats()["buffered"] == 1
        store.flush()
        assert store._inner.io_stats()["buffered"] == 0
        assert store._inner.io_stats()["flushes"] == 1


def test_io_stats_are_the_inner_store_counters(tmp_path):
    with _store(tmp_path) as store:
        store.put(DIGEST, OUTCOME)
        assert store.io_stats() == store._inner.io_stats()
        assert store.io_stats()["puts"] == 1


def test_get_many_is_one_bulk_query(tmp_path, monkeypatch):
    with _store(tmp_path) as store:
        store.put(DIGEST, OUTCOME)
        bulk_calls = []
        inner_get_many = store._inner.get_many
        monkeypatch.setattr(store._inner, "get_many",
                            lambda fps: bulk_calls.append(1) or inner_get_many(fps))
        assert store.get_many([DIGEST, "0" * 64]) == {DIGEST: OUTCOME}
        assert bulk_calls == [1]
