"""Task boundaries of the one dispatch pipeline (``CampaignRunner.plan``).

Every backend executes the tasks :meth:`CampaignRunner.plan` builds, so
task boundaries are pinned here directly rather than through campaign
results: positions partition the live specs exactly once, waves are
homogeneous and batchable, and chunk boundaries fall where
``chunk_size`` says — on every backend, with and without ``batch`` and
``should_skip``.  Nothing here executes a scenario.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.runner import _run_batch, _run_wave
from repro.simulation.batch_kernel import is_batchable, wave_key

#: Batchable verdict-only specs, scalar verdict-only specs (the
#: impossible side) and FULL-recording specs that never batch, in one
#: interleaved campaign.
SPECS = tuple(
    spec
    for pair in zip(
        theorem8_specs([4, 5], seeds=(1, 2), recording="verdict-only"),
        theorem8_specs([4, 5], seeds=(1, 2)),
    )
    for spec in pair
)
CHUNK = 5
WORKERS = 2
#: ``(backend, workers)``: serial, inline process (one worker) and pool.
BACKENDS = (("serial", WORKERS), ("process", 1), ("process", WORKERS))


def drop_every_third(spec):
    return SPECS.index(spec) % 3 == 0


def build(backend, batch, should_skip, chunk_size=CHUNK, workers=WORKERS):
    runner = CampaignRunner(
        backend=backend, workers=workers, chunk_size=chunk_size, batch=batch)
    tasks, count = runner.plan(SPECS, should_skip)
    return list(tasks), count


def live_positions(should_skip):
    return [position for position, spec in enumerate(SPECS)
            if should_skip is None or not should_skip(spec)]


@pytest.mark.parametrize("backend,workers", BACKENDS,
                         ids=["serial", "inline", "process"])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("should_skip", [None, drop_every_third])
class TestEveryConfiguration:
    def test_positions_partition_the_live_specs_exactly_once(
            self, backend, workers, batch, should_skip):
        tasks, count = build(backend, batch, should_skip, workers=workers)
        positions = [p for _, _, task_positions in tasks for p in task_positions]
        assert sorted(positions) == live_positions(should_skip)
        assert len(set(positions)) == len(positions)
        assert len(tasks) <= count

    def test_task_specs_match_their_positions(
            self, backend, workers, batch, should_skip):
        tasks, _ = build(backend, batch, should_skip, workers=workers)
        for _, specs, positions in tasks:
            assert specs
            assert specs == tuple(SPECS[p] for p in positions)
            assert list(positions) == sorted(positions)

    def test_waves_are_batchable_and_homogeneous(
            self, backend, workers, batch, should_skip):
        tasks, _ = build(backend, batch, should_skip, workers=workers)
        waves = [specs for fn, specs, _ in tasks if fn is _run_wave]
        if not batch:
            assert not waves
            return
        assert waves
        for specs in waves:
            assert all(is_batchable(spec) for spec in specs)
            assert len({wave_key(spec) for spec in specs}) == 1
        scalar = [spec for fn, specs, _ in tasks if fn is _run_batch
                  for spec in specs]
        assert scalar and not any(is_batchable(spec) for spec in scalar)


@pytest.mark.parametrize("workers", (1, WORKERS), ids=["inline", "process"])
@pytest.mark.parametrize("should_skip", [None, drop_every_third])
def test_unbatched_chunk_boundaries_fall_at_chunk_size(workers, should_skip):
    tasks, count = build("process", False, should_skip, workers=workers)
    assert count == -(-len(SPECS) // CHUNK)
    for _, _, positions in tasks:
        # Each task draws from one aligned chunk; skips only shrink it.
        assert len({p // CHUNK for p in positions}) == 1
    if should_skip is None:
        assert [len(specs) for _, specs, _ in tasks[:-1]] == (
            [CHUNK] * (len(tasks) - 1))
        assert [positions[0] for _, _, positions in tasks] == list(
            range(0, len(SPECS), CHUNK))


@pytest.mark.parametrize("should_skip", [None, drop_every_third])
def test_serial_runs_one_scalar_spec_per_task(should_skip):
    for batch in (False, True):
        tasks, _ = build("serial", batch, should_skip, chunk_size=None)
        assert all(len(specs) == 1 for fn, specs, _ in tasks
                   if fn is _run_batch)


def test_serial_waves_stay_whole_and_parallel_waves_are_cut():
    serial, _ = build("serial", True, None, chunk_size=None)
    wave_keys = [wave_key(specs[0]) for fn, specs, _ in serial
                 if fn is _run_wave]
    assert len(wave_keys) == len(set(wave_keys))  # one task per wave
    cut, _ = build("process", True, None, chunk_size=2)
    assert all(len(specs) <= 2 for _, specs, _ in cut)


def test_unbatched_skips_are_consulted_as_tasks_are_drawn():
    consulted = []

    def skip(spec):
        consulted.append(spec)
        return False

    runner = CampaignRunner(backend="process", workers=1, chunk_size=CHUNK,
                            batch=False)
    tasks, _ = runner.plan(SPECS, skip)
    assert consulted == []  # lazy: nothing asked before the first draw
    next(iter(tasks))
    assert consulted == list(SPECS[:CHUNK])


def test_default_chunk_size_splits_into_four_tasks_per_worker():
    runner = CampaignRunner(backend="process", workers=WORKERS, batch=False)
    tasks, count = runner.plan(SPECS)
    assert count == len(list(tasks)) == 4 * WORKERS
    # A one-worker process backend splits for its one worker.
    tasks, count = CampaignRunner(
        backend="process", workers=1, batch=False).plan(SPECS)
    assert count == len(list(tasks)) == 4


#: A campaign with no batchable spec: FULL recording never batches.
UNBATCHABLE = theorem8_specs([4, 5], seeds=(1, 2))


class Consulted:
    """A ``should_skip`` hook that records what it was asked."""

    def __init__(self, skip=lambda spec: False):
        self.asked = []
        self.skip = skip

    def __call__(self, spec):
        self.asked.append(spec)
        return self.skip(spec)


@pytest.mark.parametrize("backend,workers", BACKENDS,
                         ids=["serial", "inline", "process"])
@pytest.mark.parametrize("chunk_size", [CHUNK, None])
def test_nothing_batchable_gets_exactly_the_unbatched_plan(
        backend, workers, chunk_size):
    assert not any(is_batchable(spec) for spec in UNBATCHABLE)
    plans = {}
    for batch in (False, True):
        runner = CampaignRunner(backend=backend, workers=workers,
                                chunk_size=chunk_size, batch=batch)
        skip = Consulted(lambda spec: UNBATCHABLE.index(spec) % 3 == 0)
        tasks, count = runner.plan(UNBATCHABLE, skip)
        assert skip.asked == []  # lazy on both paths
        tasks = iter(tasks)
        first = next(tasks)
        after_first_draw = list(skip.asked)
        plans[batch] = (count, [first, *tasks], after_first_draw, skip.asked)
    assert plans[True] == plans[False]


def test_batched_skips_are_consulted_as_each_wave_is_drawn():
    skip = Consulted()
    tasks, _ = CampaignRunner(batch=True).plan(SPECS, skip)
    assert skip.asked == []  # nothing asked at plan() time
    asked_before = 0
    waves = 0
    for fn, specs, _ in tasks:
        # Exactly this task's specs were asked, when it was drawn.
        assert skip.asked[asked_before:] == list(specs)
        asked_before = len(skip.asked)
        waves += fn is _run_wave
    assert waves == len({wave_key(s) for s in SPECS if is_batchable(s)})
    assert sorted(skip.asked, key=SPECS.index) == list(SPECS)


def test_batched_skip_drops_specs_from_a_later_wave():
    # A wave drawn after the hook starts skipping loses those specs;
    # the skip is not frozen at plan() time.
    skipping = set()
    tasks, _ = CampaignRunner(batch=True).plan(SPECS, lambda s: s in skipping)
    tasks = iter(tasks)
    fn, first, _ = next(tasks)
    assert fn is _run_wave
    later = next(wave_key(s) for s in SPECS if is_batchable(s)
                 and wave_key(s) != wave_key(first[0]))
    skipping.update(s for s in SPECS if is_batchable(s) and wave_key(s) == later)
    drawn = [spec for _, specs, _ in tasks for spec in specs]
    assert not skipping & set(drawn)
    assert len(first) + len(drawn) == len(SPECS) - len(skipping)
