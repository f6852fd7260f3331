"""The batched verdict kernel against its oracle, the scalar executor.

The acceptance property of the batch work mirrors how PR 3 pinned the
zero-copy rewrite: over a pinned Theorem 8 grid, a ``batch=True``
campaign must produce **bit-identical** verdicts — and, at the run
level, bit-identical decision maps and volume counters — to the plain
scalar campaign, on every backend.  Alongside that, the partitioning
rules (what is batchable, what falls back) and the wiring (telemetry
``kernel:wave`` spans, ``should_skip``, ``on_outcome``, the caching
layer skimming hits before waves form) are pinned directly.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, ScenarioSpec, theorem8_specs
from repro.campaign.scenarios import execute_theorem8_solvable, theorem8_solvable_grid
from repro.simulation.batch_kernel import (
    BATCHABLE_SCHEDULERS,
    batchable_kinds,
    execute_wave,
    is_batchable,
    partition_waves,
    wave_key,
    wave_runs,
)
from repro.telemetry.spans import Tracer

PINNED_GRID = [4, 5]
PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}


def pinned_specs(recording: str = "verdict-only"):
    """The pinned mixed grid: batchable waves plus scalar fallbacks.

    ``theorem8_specs`` includes the impossible side (partitioning
    scheduler, no batched step function), so a batched campaign over it
    exercises waves and the scalar fallback in one run.
    """
    return theorem8_specs(PINNED_GRID, recording=recording, **PINNED_KWARGS)


class TestPartitioning:
    def test_registered_kinds(self):
        assert batchable_kinds() == ("theorem8-solvable",)

    def test_verdict_only_solvable_spec_is_batchable(self):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            recording="verdict-only")
        assert is_batchable(spec)
        assert wave_key(spec) == ("theorem8-solvable", 4, 1)

    @pytest.mark.parametrize("recording", ["full", "decisions-only"])
    def test_non_verdict_recording_falls_back(self, recording):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            recording=recording)
        assert not is_batchable(spec)

    def test_unknown_kind_and_scheduler_fall_back(self):
        impossible = ScenarioSpec(kind="theorem8-impossible", n=4, f=2, k=1,
                                  scheduler="partitioning",
                                  recording="verdict-only")
        assert not is_batchable(impossible)
        isolation = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                                 scheduler="isolation", recording="verdict-only")
        assert not is_batchable(isolation)
        assert "isolation" not in BATCHABLE_SCHEDULERS

    def test_partition_covers_every_position_exactly_once(self):
        specs = pinned_specs()
        waves, scalar = partition_waves(specs)
        positions = sorted(p for wave in waves for p in wave) + sorted(scalar)
        assert sorted(positions) == list(range(len(specs)))
        assert waves and scalar  # the pinned grid exercises both paths
        for wave in waves:
            keys = {wave_key(specs[p]) for p in wave}
            assert len(keys) == 1


class TestKernelOracle:
    """Field-for-field equivalence of kernel runs with scalar runs."""

    def test_wave_runs_bit_identical_to_scalar_executor(self):
        specs = [
            spec for spec in pinned_specs() if is_batchable(spec)
        ]
        waves, _ = partition_waves(specs)
        checked = 0
        for wave in waves:
            wave_specs = [specs[p] for p in wave]
            for spec, run in zip(wave_specs, wave_runs(wave_specs)):
                assert run is not None, spec.label()
                reference, _report = execute_theorem8_solvable(spec)
                assert run.decisions() == reference.decisions(), spec.label()
                assert run.completed == reference.completed
                assert run.truncated == reference.truncated
                assert run.length == reference.length
                assert run.messages_sent() == reference.messages_sent()
                assert run.messages_delivered() == reference.messages_delivered()
                checked += 1
        assert checked == len(specs)

    def test_mixed_key_wave_rejected(self):
        from repro.exceptions import ConfigurationError

        a = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                         recording="verdict-only")
        b = ScenarioSpec(kind="theorem8-solvable", n=5, f=1, k=1,
                         recording="verdict-only")
        with pytest.raises(ConfigurationError):
            execute_wave([a, b])

    def test_non_batchable_spec_in_wave_falls_back_to_scalar(self):
        """A spec the kernel cannot set up still yields the scalar outcome."""
        from repro.campaign.runner import run_scenario

        good = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            scheduler="random", seed=1,
                            recording="verdict-only", max_steps=4_000)
        bad = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                           scheduler="random", seed=2,
                           params={"delivery_bias": 2.0},
                           recording="verdict-only", max_steps=4_000)
        outcomes = execute_wave([good, bad])
        assert outcomes[0] == run_scenario(good)
        assert outcomes[1] == run_scenario(bad)
        assert outcomes[1].verdict == "error"


class TestBatchedCampaign:
    """CampaignRunner(batch=True) equals the scalar campaign everywhere."""

    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner().run(pinned_specs())

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 1), ("process", 2),
    ])
    def test_batched_campaign_identical_across_backends(
        self, reference, backend, workers
    ):
        result = CampaignRunner(
            backend=backend, workers=workers, batch=True).run(pinned_specs())
        assert result == reference  # outcome-for-outcome, in spec order

    def test_batched_campaign_calls_on_outcome_per_scenario(self):
        specs = pinned_specs()
        seen = []
        result = CampaignRunner(batch=True).run(
            specs, on_outcome=lambda outcome, seconds: seen.append(outcome))
        assert sorted(o.spec.label() for o in seen) == sorted(
            o.spec.label() for o in result.outcomes)

    def test_batched_campaign_honours_should_skip(self):
        specs = pinned_specs()
        kept = CampaignRunner(batch=True).run(
            specs, should_skip=lambda spec: spec.scheduler == "random")
        assert kept.outcomes
        assert all(o.spec.scheduler != "random" for o in kept.outcomes)

    def test_batched_campaign_emits_one_event_per_scenario(self):
        from repro.store import CollectingProgressReporter

        specs = pinned_specs()
        reporter = CollectingProgressReporter()
        CampaignRunner(batch=True).run(specs, progress=reporter)
        assert len(reporter.events) == len(specs)


class TestWaveTelemetry:
    def test_execute_wave_emits_kernel_wave_span(self):
        specs = [
            ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                         scheduler="round-robin", seed=s,
                         recording="verdict-only", max_steps=4_000)
            for s in (1, 2, 3)
        ]
        tracer = Tracer(trace_id="test-wave")
        execute_wave(specs, tracer=tracer)
        spans = [s for s in tracer.drain() if s.name == "kernel:wave"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["kind"] == "theorem8-solvable"
        assert (attrs["n"], attrs["f"]) == (4, 1)
        assert attrs["size"] == 3
        assert attrs["fallbacks"] == 0

    def test_wave_span_counts_fallbacks(self):
        specs = [
            ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                         scheduler="random", seed=1,
                         recording="verdict-only", max_steps=4_000),
            ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                         scheduler="random", seed=2,
                         params={"max_delay": -1},
                         recording="verdict-only", max_steps=4_000),
        ]
        tracer = Tracer(trace_id="test-wave")
        execute_wave(specs, tracer=tracer)
        (span,) = [s for s in tracer.drain() if s.name == "kernel:wave"]
        assert span.attrs["size"] == 2
        assert span.attrs["fallbacks"] == 1

    def test_batched_campaign_ships_wave_spans_on_events(self):
        from repro.store import CollectingProgressReporter
        from repro.telemetry.session import WorkerTelemetry

        grid = theorem8_solvable_grid([4], recording="verdict-only",
                                      **PINNED_KWARGS)
        specs = grid.compile()
        reporter = CollectingProgressReporter()
        CampaignRunner(batch=True).run(
            specs, progress=reporter,
            telemetry=WorkerTelemetry(campaign="batch-test"))
        names = [s.name for e in reporter.events for s in e.spans]
        assert "kernel:wave" in names


class TestCachingComposition:
    def test_caching_runner_skims_hits_before_waves_form(self, tmp_path):
        from repro.store import CachingRunner, open_store

        specs = pinned_specs()
        with open_store(tmp_path / "batch.sqlite") as store:
            cold_runner = CachingRunner(store, runner=CampaignRunner(batch=True))
            cold = cold_runner.run(specs)
            assert cold_runner.last_stats.cached == 0
            assert cold == CampaignRunner().run(specs)  # scalar oracle
            warm_runner = CachingRunner(store, runner=CampaignRunner(batch=True))
            warm = warm_runner.run(specs)
            assert warm_runner.last_stats.executed == 0
            assert warm == cold
