"""Adaptive budgets on the batched kernel's grid, under the default runner.

``CampaignRunner`` batches by default, so an ``EarlyStopPolicy`` over a
verdict-only ``theorem8-solvable`` grid runs on ``_run_wave`` tasks.
Its skip hook is consulted as each wave task is drawn, so a point
certified by an earlier task drops its specs from every later task.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

import repro.simulation.batch_kernel as batch_kernel
from repro.campaign import CampaignRunner, theorem8_specs
from repro.store import CachingRunner, EarlyStopPolicy, MemoryResultStore, point_key

CHUNK = 2
SPECS = tuple(
    spec for spec in theorem8_specs(
        [4, 5], seeds=(1,), max_steps=4_000, recording="verdict-only")
    if spec.kind == "theorem8-solvable"
)


@pytest.fixture
def waves(monkeypatch):
    """Specs per ``execute_wave`` call."""
    calls = []
    real = batch_kernel.execute_wave

    def spy(specs, *args, **kwargs):
        calls.append(tuple(specs))
        return real(specs, *args, **kwargs)

    monkeypatch.setattr(batch_kernel, "execute_wave", spy)
    return calls


def by_point(specs):
    grouped = defaultdict(list)
    for spec in specs:
        grouped[point_key(spec)].append(spec)
    return grouped


@pytest.mark.parametrize("runner", [
    CampaignRunner(),
    CampaignRunner(backend="process", workers=1, chunk_size=CHUNK),
], ids=["serial", "inline-chunks"])
def test_accounting_adds_up_on_the_batched_path(runner, waves):
    policy = EarlyStopPolicy(stop_on=("ok",))
    caching = CachingRunner(MemoryResultStore(), runner, policy=policy)
    result = caching.run(SPECS)
    stats = caching.last_stats
    assert stats.total == len(SPECS)
    assert stats.cached + stats.executed + stats.skipped == stats.total
    assert stats.skipped == policy.skipped_count
    assert len(result.outcomes) == stats.executed
    assert sum(len(wave) for wave in waves) == stats.executed


def test_point_certified_by_an_earlier_task_skips_later_tasks(waves):
    policy = EarlyStopPolicy(stop_on=("ok",))
    caching = CachingRunner(
        MemoryResultStore(),
        CampaignRunner(backend="process", workers=1, chunk_size=CHUNK),
        policy=policy,
    )
    result = caching.run(SPECS)
    assert waves and all(len(wave) <= CHUNK for wave in waves)
    executed = by_point(o.spec for o in result.outcomes)
    straddling = 0
    for key, specs in by_point(SPECS).items():
        # Only the first task holding the point runs it: its specs there
        # are a prefix of the point's specs, and every later one is skipped.
        ran = executed[key]
        assert 1 <= len(ran) <= CHUNK
        assert ran == specs[:len(ran)]
        straddling += len(ran) < len(specs)
    assert straddling
    assert caching.last_stats.skipped == len(SPECS) - len(result.outcomes) > 0
