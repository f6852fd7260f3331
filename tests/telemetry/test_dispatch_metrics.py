"""Dispatch telemetry counts each fact in one place.

A traced process campaign records what shipping its tasks cost as
``dispatch:*`` counters that mirror the campaign's
:class:`~repro.faults.supervisor.DispatchStats` exactly.  Derived
figures (bytes per task, bytes per scenario) are ratios of those
counters, so no metric re-counts them.
"""

from __future__ import annotations

from repro.campaign import CampaignRunner, theorem8_specs
from repro.store import CachingRunner, MemoryResultStore
from repro.telemetry import TelemetryConfig, TelemetrySession


def test_process_campaign_dispatch_metrics_are_plain_counters():
    session = TelemetrySession(TelemetryConfig())
    runner = CachingRunner(
        MemoryResultStore(),
        CampaignRunner(backend="process", workers=2, chunk_size=5),
        telemetry=session,
    )
    result = runner.run(theorem8_specs([4], seeds=(1,), max_steps=4_000))
    shipped = result.dispatch_stats
    assert shipped.tasks_shipped > 1

    snapshot = session.metrics.snapshot()
    dispatch = {name: metric for name, metric in snapshot.items()
                if name.startswith("dispatch:")}
    assert "dispatch:bytes_per_task" not in dispatch
    assert dispatch["dispatch:tasks_shipped"]["value"] == shipped.tasks_shipped
    assert dispatch["dispatch:wire_bytes"]["value"] == shipped.wire_bytes
    assert all(metric["type"] == "counter" for metric in dispatch.values())
