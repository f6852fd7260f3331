"""Campaign execution: one dispatch pipeline behind two backends.

:class:`CampaignRunner` executes a flat list of scenario specs (or a
:class:`~repro.campaign.grid.ScenarioGrid`, which it compiles first) and
aggregates the outcomes into a :class:`CampaignResult`.  Every campaign
runs the same pipeline::

    specs → plan → (fn, specs, positions) tasks
          → Supervisor (run_inline | run_pool) → record by position

* **Plan.** :meth:`CampaignRunner.plan` lazily cuts the specs into
  tasks.  By default (``batch=True``) it first splits off
  same-``(kind, n, f)`` waves for the batched kernel (:func:`_run_wave`);
  everything else runs through the scalar entry point (:func:`_run_batch`).
* **Execute.** One :class:`~repro.faults.supervisor.Supervisor` runs the
  tasks — inline in the calling process, or on a ``multiprocessing``
  pool for the process backend with more than one worker.  Either way
  a raising task is retried, bisected and quarantined the same way.
* **Reassemble.** A single ``record`` hook writes each outcome into its
  spec's slot and fires ``on_outcome``; the result lists outcomes in
  spec order, whatever order the tasks completed in.

The two backends differ only in task size and executor:

* ``"serial"`` — one scalar spec or one whole wave per task, run
  inline; the reference backend the process backend must agree with.
* ``"process"`` — chunk-sized tasks on a pool of worker processes, or
  inline without forking when it has one worker.
  Because specs are plain data and every seeded scheduler derives its
  RNG stream from the scenario's identity
  (:meth:`ScenarioSpec.derived_seed`), the outcome of a scenario does
  not depend on which worker runs it or in which order — so all
  backends produce **identical** :class:`CampaignResult`\\ s (timing
  metadata aside, which is excluded from equality).

:meth:`CampaignRunner.run` additionally accepts three hooks that the
persistent store (:mod:`repro.store`) builds on:

* ``on_outcome`` — called in the **calling** process as soon as a
  task's outcomes exist (per scalar scenario or whole wave on the serial
  backend, per completed chunk otherwise).  This is what lets a store
  persist results incrementally, so a killed campaign resumes from its
  last completed task instead of from scratch.
* ``progress`` — a callable receiving one :class:`ScenarioEvent` per
  scenario, in the calling thread, exactly once.  Events are built where
  the scenario ran and travel back on their task's result together with
  the outcomes, so they keep the pid of the worker that ran them; the
  supervisor delivers them as the task settles — under the process
  backend, per task (about ``total ÷ (4 × workers)`` scenarios by
  default), not per scenario.  A task whose worker dies delivers
  nothing; its retry delivers each scenario once.
* ``should_skip`` — consulted once per scenario at dispatch time, when
  its task (scalar chunk or wave) is drawn; a ``True`` return drops the
  scenario from the campaign.  Adaptive
  budgets (:class:`repro.store.EarlyStopPolicy`) use this to stop
  sampling a sweep point once its outcome is certified.

The pool path keeps at most ``2 × workers`` tasks outstanding instead
of one bulk ``pool.map``: results arrive as they complete, which keeps
``on_outcome`` persistence incremental and lets ``should_skip`` see the
outcomes observed so far when deciding whether a later chunk still
needs to run.  The supervisor bounds every wait, gives in-flight tasks
deadlines, re-queues the work of dead or hung workers under the
runner's :class:`~repro.faults.plan.RetryPolicy`, and degrades a broken
pool to in-process execution instead of aborting.  The optional
``CampaignRunner(faults=FaultPlan(...))`` injects deterministic chaos
through the same machinery — see :mod:`repro.faults`.

The executor is CPU-bound pure Python, so the process backend is the one
that scales with cores; there is deliberately no thread backend (the GIL
would serialise it anyway).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign import codec
from repro.campaign.grid import ScenarioGrid
from repro.campaign.scenarios import get_kind
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.campaign.wire import encode_chunk, ensure_specs
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan, FaultStats, RetryPolicy
from repro.faults.supervisor import DispatchStats, Supervisor, TaskSpec
from repro.provenance.usage import ResourceUsage
from repro.telemetry.logs import get_logger
from repro.telemetry.session import WorkerTelemetry
from repro.telemetry.spans import SpanRecord, Tracer, activated

__all__ = ["CampaignRunner", "CampaignResult", "ScenarioEvent", "run_scenario"]

BACKENDS = ("serial", "process")

#: Format tag of :meth:`CampaignResult.to_json` payloads.
RESULT_JSON_FORMAT = 1

#: Hook signatures accepted by :meth:`CampaignRunner.run`.
OutcomeHook = Callable[[ScenarioOutcome, float], None]
ProgressHook = Callable[["ScenarioEvent"], None]
SkipHook = Callable[[ScenarioSpec], bool]


@dataclass(frozen=True)
class ScenarioEvent:
    """One scenario finished somewhere in the campaign.

    Events are produced where the scenario ran (worker-side under the
    process backend) and are plain picklable data, so they cross the
    process boundary inside their task's result.  ``cached`` marks
    events synthesised by :class:`repro.store.CachingRunner` for store
    hits, which never reach a worker.  ``fingerprint`` is the scenario's
    store digest and ``usage`` its
    :class:`~repro.provenance.usage.ResourceUsage` — both are what the
    campaign journal persists per scenario.  ``spans`` are
    the telemetry spans recorded while the scenario ran (empty unless a
    :class:`~repro.telemetry.session.WorkerTelemetry` sampled it):
    worker-side span buffers ship back on the event exactly like every
    other worker-side fact, so pool-wide traces need no extra channel.
    """

    label: str
    verdict: str
    seconds: float
    worker_pid: int
    cached: bool = False
    fingerprint: str = ""
    usage: Optional[ResourceUsage] = None
    spans: Tuple[SpanRecord, ...] = ()


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario, capturing failures as ``"error"`` outcomes.

    A raising scenario never aborts a campaign: the exception is folded
    into the outcome so that the other scenarios still run and the
    aggregation shows exactly which points broke.
    """
    kind = get_kind(spec.kind)
    try:
        return kind(spec)
    except Exception as exc:  # noqa: BLE001 - campaign robustness by design
        return ScenarioOutcome.from_error(spec, exc)


_log = get_logger("campaign.runner")

#: ``True`` only inside pool worker processes.  Gates the worker-level
#: fault kinds (crash/hang): injecting them into the calling process
#: would take the campaign down instead of exercising the supervisor.
_IN_POOL_WORKER = False


def _init_worker() -> None:
    """Pool initializer: mark this process as a pool worker."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def _event(spec: ScenarioSpec, outcome: ScenarioOutcome, seconds: float,
           spans: Tuple[SpanRecord, ...] = ()) -> ScenarioEvent:
    """The :class:`ScenarioEvent` of one finished scenario, stamped with
    the pid of the process that ran it."""
    # Function-level import: repro.store's caching layer imports this
    # module, so the fingerprint helper cannot be imported at the top.
    from repro.store.fingerprint import fingerprint_spec

    return ScenarioEvent(
        label=spec.label(),
        verdict=outcome.verdict,
        seconds=seconds,
        worker_pid=os.getpid(),
        fingerprint=fingerprint_spec(spec),
        usage=ResourceUsage.of_outcome(outcome, seconds=seconds),
        spans=spans,
    )


def _run_batch(
    specs: Sequence[ScenarioSpec],
    events_wanted: bool = False,
    telemetry: Optional[WorkerTelemetry] = None,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
) -> Tuple[List[ScenarioOutcome], List[float], List[ScenarioEvent]]:
    """Worker entry point: run a chunk of specs, timing each scenario.

    Returns ``(outcomes, timings, events)``; ``events`` holds one
    :class:`ScenarioEvent` per scenario when ``events_wanted`` (a
    ``progress`` hook listens) and is empty otherwise.  The supervisor
    passes the same arguments inline and on the pool.  ``attempt`` is
    its retry count for this submission and ``faults`` the injected
    chaos plan: planned faults fire *before* a scenario executes, so a
    crashed or raising task never produced a partial outcome for the
    scenario that triggered it.

    For each *sampled* scenario a fresh :class:`Tracer` is activated
    around the execution — the scenario root span nests the executor's
    ``execute`` span and any ``decision`` spans the scenario kind opens —
    and the drained records ride back on the scenario's event.
    Unsampled scenarios run with no ambient tracer at all, the same
    zero-overhead path as telemetry-off campaigns.

    ``specs`` may arrive as a compact :class:`repro.campaign.wire.WireChunk`
    (the pool path ships descriptors, not spec tuples);
    :func:`~repro.campaign.wire.ensure_specs` expands it — memoised, so a
    retried descriptor costs nothing — and passes real sequences through.
    """
    specs = ensure_specs(specs)
    outcomes: List[ScenarioOutcome] = []
    timings: List[float] = []
    events: List[ScenarioEvent] = []
    for spec in specs:
        if faults is not None:
            faults.perform(spec, attempt, in_worker=_IN_POOL_WORKER)
        spans: Tuple[SpanRecord, ...] = ()
        started = time.perf_counter()
        if telemetry is not None and telemetry.samples(spec):
            tracer = Tracer(trace_id=telemetry.campaign,
                            capture_phases=telemetry.capture_phases)
            with activated(tracer):
                with tracer.span(
                    "scenario", label=spec.label(), kind=spec.kind,
                    n=spec.n, f=spec.f, k=spec.k, seed=spec.seed,
                ):
                    outcome = run_scenario(spec)
            spans = tracer.drain()
        else:
            outcome = run_scenario(spec)
        seconds = time.perf_counter() - started
        outcomes.append(outcome)
        timings.append(seconds)
        if events_wanted:
            events.append(_event(spec, outcome, seconds, spans))
    return outcomes, timings, events


def _run_wave(
    specs: Sequence[ScenarioSpec],
    events_wanted: bool = False,
    telemetry: Optional[WorkerTelemetry] = None,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
) -> Tuple[List[ScenarioOutcome], List[float], List[ScenarioEvent]]:
    """Worker entry point for one batched wave (the sibling of
    :func:`_run_batch`, with the same arguments and result shape).

    The whole wave runs in one call to
    :func:`repro.simulation.batch_kernel.execute_wave`, so per-scenario
    wall-clock cannot be observed individually: every scenario is billed
    the wave mean.  When telemetry samples at least one wave member, the
    kernel's ``kernel:wave`` span (wave key, size, fallback count) is
    recorded and rides back on the first sampled scenario's event.
    """
    # Function-level import: the kernel's scalar fallback imports
    # run_scenario from this module, so the top level would be circular.
    from repro.simulation.batch_kernel import execute_wave

    specs = ensure_specs(specs)
    if faults is not None:
        # Wave-granular chaos: any planned fault fails (or kills) the
        # whole wave task before the kernel runs, and the supervisor's
        # bisection narrows it down exactly as for scalar chunks.
        for spec in specs:
            faults.perform(spec, attempt, in_worker=_IN_POOL_WORKER)
    sampled = [telemetry is not None and telemetry.samples(spec)
               for spec in specs]
    tracer: Optional[Tracer] = None
    if any(sampled):
        tracer = Tracer(trace_id=telemetry.campaign,
                        capture_phases=telemetry.capture_phases)
    started = time.perf_counter()
    outcomes = execute_wave(specs, tracer=tracer)
    seconds = (time.perf_counter() - started) / len(specs) if specs else 0.0
    spans = tracer.drain() if tracer is not None else ()
    first_sampled = sampled.index(True) if tracer is not None else -1
    events = [
        _event(spec, outcome, seconds,
               spans if position == first_sampled else ())
        for position, (spec, outcome) in enumerate(zip(specs, outcomes))
    ] if events_wanted else []
    return list(outcomes), [seconds] * len(specs), events


def _slices(fn: Callable, specs: Sequence[ScenarioSpec],
            positions: Sequence[int], size: int,
            should_skip: Optional[SkipHook] = None) -> Iterator[TaskSpec]:
    """Lazy ``(fn, specs, positions)`` tasks over ``size``-long runs of
    ``positions``; ``should_skip`` drops specs as each task is drawn."""
    for start in range(0, len(positions), size):
        piece = [p for p in positions[start:start + size]
                 if should_skip is None or not should_skip(specs[p])]
        if piece:
            yield fn, tuple(specs[p] for p in piece), tuple(piece)


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcomes of one campaign.

    Equality compares only the outcomes — backend, worker count and all
    timing metadata are excluded, which is what lets regression tests
    assert ``serial_result == parallel_result`` directly.
    """

    outcomes: Tuple[ScenarioOutcome, ...]
    backend: str = field(default="serial", compare=False)
    workers: int = field(default=1, compare=False)
    elapsed_seconds: float = field(default=0.0, compare=False)
    scenario_seconds: Tuple[float, ...] = field(default=(), compare=False)
    #: What the supervisor survived (worker deaths, retries, quarantines).
    #: Infrastructure history, not a result property — excluded from
    #: equality so a chaos run can compare equal to a fault-free one.
    fault_stats: FaultStats = field(default_factory=FaultStats, compare=False)
    #: What shipping the work cost (tasks, wire bytes, queue wait).  Pool
    #: dispatch accounting only — zero for inline campaigns — and
    #: excluded from equality for the same reason as ``fault_stats``.
    dispatch_stats: DispatchStats = field(
        default_factory=DispatchStats, compare=False)

    # -- rollups -----------------------------------------------------------

    @property
    def all_ok(self) -> bool:
        """``True`` when every scenario satisfied every property."""
        return all(outcome.all_ok for outcome in self.outcomes)

    def verdict_counts(self) -> Dict[str, int]:
        """How many scenarios ended ``ok`` / ``violation`` / ``error``."""
        counts = {"ok": 0, "violation": 0, "error": 0}
        for outcome in self.outcomes:
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
        return counts

    def property_rollup(self) -> Dict[str, int]:
        """Per-property failure counts across all scenarios."""
        return {
            "agreement_failures": sum(1 for o in self.outcomes if not o.agreement_ok),
            "validity_failures": sum(1 for o in self.outcomes if not o.validity_ok),
            "termination_failures": sum(1 for o in self.outcomes if not o.termination_ok),
            "truncated_runs": sum(1 for o in self.outcomes if o.truncated),
        }

    def failures(self) -> Tuple[ScenarioOutcome, ...]:
        """Every outcome that is not ``ok``, in campaign order."""
        return tuple(outcome for outcome in self.outcomes if not outcome.all_ok)

    def by_point(self) -> Dict[Tuple[int, int, int], Tuple[ScenarioOutcome, ...]]:
        """Group outcomes by their ``(n, f, k)`` parameter point."""
        grouped: Dict[Tuple[int, int, int], List[ScenarioOutcome]] = {}
        for outcome in self.outcomes:
            key = (outcome.spec.n, outcome.spec.f, outcome.spec.k)
            grouped.setdefault(key, []).append(outcome)
        return {key: tuple(value) for key, value in grouped.items()}

    def wall_time_stats(self) -> Dict[str, float]:
        """Total and per-scenario wall-time statistics (seconds)."""
        data = sorted(self.scenario_seconds)
        count = len(data)
        if not count:
            return {"total": self.elapsed_seconds, "count": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0, "median": 0.0}
        middle = count // 2
        median = data[middle] if count % 2 else (data[middle - 1] + data[middle]) / 2.0
        return {
            "total": self.elapsed_seconds,
            "count": float(count),
            "mean": sum(data) / count,
            "min": data[0],
            "max": data[-1],
            "median": median,
        }

    @property
    def scenarios_per_second(self) -> float:
        """Campaign throughput (0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed_seconds

    def summary(self) -> Dict[str, object]:
        """Headline numbers for benchmark ``extra_info`` and reports."""
        return {
            "scenarios": len(self.outcomes),
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "scenarios_per_second": round(self.scenarios_per_second, 3),
            **self.verdict_counts(),
            **self.property_rollup(),
        }

    # -- serialisation -----------------------------------------------------

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise the full result — outcomes and metadata — to JSON.

        The round trip is lossless: ``CampaignResult.from_json(r.to_json())``
        compares equal to ``r`` (and also restores the non-compared
        backend/timing metadata), which is what lets campaign results be
        archived, diffed and re-aggregated without re-running anything.
        """
        payload = {
            "format": RESULT_JSON_FORMAT,
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "scenario_seconds": list(self.scenario_seconds),
            "fault_stats": self.fault_stats.as_dict(),
            "dispatch_stats": self.dispatch_stats.as_dict(),
            "outcomes": [codec.outcome_to_dict(o) for o in self.outcomes],
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if payload.get("format") != RESULT_JSON_FORMAT:
            raise ConfigurationError(
                f"unsupported campaign-result format {payload.get('format')!r}; "
                f"this build reads format {RESULT_JSON_FORMAT}"
            )
        return cls(
            outcomes=tuple(codec.outcome_from_dict(o) for o in payload["outcomes"]),
            backend=payload["backend"],
            workers=int(payload["workers"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            scenario_seconds=tuple(float(s) for s in payload["scenario_seconds"]),
            # Absent in payloads written before the faults subsystem.
            fault_stats=FaultStats.from_dict(payload.get("fault_stats") or {}),
            # Absent in payloads written before compact dispatch.
            dispatch_stats=DispatchStats.from_dict(
                payload.get("dispatch_stats") or {}),
        )


@dataclass(frozen=True)
class CampaignRunner:
    """Executes campaigns over one of the :data:`BACKENDS`.

    Every campaign takes the same three steps, whatever the backend:
    :meth:`plan` turns the specs into ``(fn, specs, positions)`` tasks,
    one :class:`~repro.faults.supervisor.Supervisor` executes them
    (:meth:`~repro.faults.supervisor.Supervisor.run_pool` for the
    process backend with more than one worker,
    :meth:`~repro.faults.supervisor.Supervisor.run_inline` otherwise),
    and a single ``record`` hook writes each outcome into its spec's
    slot and fires ``on_outcome``.  The backends differ only in task
    size and executor.

    Attributes
    ----------
    backend:
        ``"serial"`` (default) or ``"process"``.
    workers:
        Worker-process count for the process backend (default: the CPU
        count, capped at 8); one worker runs its tasks inline, without
        a pool.  Ignored by the serial backend.
    chunk_size:
        Scenarios per task for the process backend (default: an even
        split into roughly ``4 * workers`` tasks).
    batch:
        ``True`` (default): specs the batched kernel can execute
        (:func:`repro.simulation.batch_kernel.is_batchable`) are grouped
        into same-``(kind, n, f)`` waves and run through
        :func:`_run_wave`; everything else — FULL/DECISIONS_ONLY
        recording, kinds without a batched step function, unknown
        schedulers — takes the scalar path unchanged, and a campaign
        with no batchable spec gets exactly the unbatched plan.
        Outcomes are reassembled in spec order, so a batched campaign
        compares equal to the same campaign without batching on every
        backend.  ``False`` runs every spec on the scalar executor, the
        oracle the kernel is checked against.
    faults:
        An optional :class:`~repro.faults.plan.FaultPlan` injecting
        deterministic chaos (worker crashes, hangs, task exceptions,
        delays) at planned points.  Worker-level faults (crash/hang)
        only fire under the process backend; the others fire everywhere,
        so a quarantine-free plan yields the *same* ``CampaignResult``
        on every backend — the fault-tolerance equality invariant.
    retry:
        The :class:`~repro.faults.plan.RetryPolicy` governing the
        supervised dispatch loop (attempts, backoff, per-task deadlines,
        worker-death grace).  Defaults to ``RetryPolicy()``.  Every
        campaign is supervised, so a raising task is retried, bisected
        and quarantined the same way on every backend, with or without
        injected chaos.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    batch: bool = True
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown campaign backend {self.backend!r}; choose one of {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")

    # -- public API --------------------------------------------------------

    def run(
        self,
        scenarios: Union[ScenarioGrid, Iterable[ScenarioSpec]],
        *,
        on_outcome: Optional[OutcomeHook] = None,
        progress: Optional[ProgressHook] = None,
        should_skip: Optional[SkipHook] = None,
        telemetry: Optional[WorkerTelemetry] = None,
    ) -> CampaignResult:
        """Compile (if needed) and execute a campaign.

        ``on_outcome(outcome, seconds)`` fires in the calling process as
        each task's outcomes become available; ``progress`` receives one
        :class:`ScenarioEvent` per scenario, in the calling thread, just
        before its outcome (per settled task under the process backend,
        exactly once even when tasks are retried); ``should_skip(spec)`` is consulted once per
        scenario at dispatch time and drops the scenario when ``True``.
        Without hooks the behaviour is exactly the hook-free campaign.

        ``telemetry`` (a :class:`~repro.telemetry.session.WorkerTelemetry`)
        turns on span tracing for sampled scenarios.  Spans ride back on
        :class:`ScenarioEvent`\\ s, so tracing requires a ``progress``
        sink — with ``progress=None`` the spans would have nowhere to go
        and ``telemetry`` is ignored.
        """
        if isinstance(scenarios, ScenarioGrid):
            specs: Tuple[ScenarioSpec, ...] = scenarios.compile()
        else:
            specs = tuple(scenarios)
        for spec in specs:
            get_kind(spec.kind)  # fail fast on unknown kinds, before executing
        if progress is None:
            telemetry = None
        if telemetry is not None and specs:
            # A stride filter over few specs can sample nothing at all;
            # force at least one traced scenario so the campaign's trace
            # (and the report CLI reading it) is never silently empty.
            telemetry = telemetry.ensure_samples(specs)

        stats = FaultStats()
        dispatch = DispatchStats()
        results: Dict[int, Tuple[ScenarioOutcome, float]] = {}

        def record(indices: Sequence[int],
                   outcomes: Sequence[ScenarioOutcome],
                   timings: Sequence[float]) -> None:
            for index, outcome, seconds in zip(indices, outcomes, timings):
                results[index] = (outcome, seconds)
                if on_outcome is not None:
                    on_outcome(outcome, seconds)

        started = time.perf_counter()
        workers = self._effective_workers()
        tasks, task_count = self.plan(specs, should_skip)
        if workers > 1 and task_count:
            workers = self._run_on_pool(
                tasks, min(workers, task_count), progress, telemetry, record,
                stats, dispatch)
        else:
            self._make_supervisor(
                record, progress, telemetry, stats).run_inline(tasks)
            workers = 1
        elapsed = time.perf_counter() - started

        ordered = sorted(results)
        return CampaignResult(
            outcomes=tuple(results[i][0] for i in ordered),
            backend=self.backend,
            workers=workers,
            elapsed_seconds=elapsed,
            scenario_seconds=tuple(results[i][1] for i in ordered),
            fault_stats=stats,
            dispatch_stats=dispatch,
        )

    def plan(
        self,
        specs: Sequence[ScenarioSpec],
        should_skip: Optional[SkipHook] = None,
    ) -> Tuple[Iterable[TaskSpec], int]:
        """The campaign's ``(fn, specs, positions)`` tasks and their count.

        With :attr:`batch` the specs are first split by
        :func:`~repro.simulation.batch_kernel.partition_waves`: each
        same-``(kind, n, f)`` wave becomes :func:`_run_wave` tasks and
        the scalar rest :func:`_run_batch` tasks; without it (or when no
        spec is batchable) every spec is scalar, so such a grid gets
        exactly the unbatched plan.  Task size is where the backends
        differ: on ``"serial"`` a wave is one task and a scalar spec is
        one task; on ``"process"`` both are cut at :attr:`chunk_size`
        specs (default: an even split into about ``4 × workers`` tasks).
        ``positions`` index into ``specs``, so outcomes reassemble in
        spec order whatever order the tasks complete in.

        The tasks are lazy: ``should_skip`` is consulted for a task's
        specs only when that task is drawn — after earlier completions
        were delivered, which is what adaptive budgets rely on — and the
        count is an upper bound.
        """
        # Function-level import: the kernel's scalar fallback imports
        # run_scenario from this module.
        from repro.simulation.batch_kernel import partition_waves

        if self.batch:
            waves, scalar = partition_waves(specs)
        else:
            waves, scalar = [], range(len(specs))
        if self.backend == "serial":
            wave_size, scalar_size = len(specs) or 1, 1
        else:
            wave_size = scalar_size = self._effective_chunk_size(
                len(specs), self._effective_workers())
        count = (sum(-(-len(wave) // wave_size) for wave in waves)
                 + -(-len(scalar) // scalar_size))
        tasks = itertools.chain(
            *(_slices(_run_wave, specs, wave, wave_size, should_skip)
              for wave in waves),
            _slices(_run_batch, specs, scalar, scalar_size, should_skip))
        return tasks, count

    # -- internals ---------------------------------------------------------

    def _effective_workers(self) -> int:
        if self.backend != "process":
            return 1
        if self.workers is not None:
            return self.workers
        return max(1, min(os.cpu_count() or 1, 8))

    def _effective_chunk_size(self, total: int, workers: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if total == 0:
            return 1
        return max(1, -(-total // max(1, workers * 4)))

    def _retry_policy(self) -> RetryPolicy:
        return self.retry if self.retry is not None else RetryPolicy()

    def _make_supervisor(self, record, progress: Optional[ProgressHook],
                         telemetry: Optional[WorkerTelemetry],
                         stats: FaultStats,
                         max_outstanding: int = 1,
                         dispatch: Optional[DispatchStats] = None,
                         pack=None) -> Supervisor:
        return Supervisor(
            retry=self._retry_policy(), faults=self.faults, stats=stats,
            record=record, progress=progress, telemetry=telemetry,
            max_outstanding=max_outstanding, pack=pack, dispatch=dispatch)

    def _run_on_pool(
        self,
        tasks,
        pool_processes: int,
        progress: Optional[ProgressHook],
        telemetry: Optional[WorkerTelemetry],
        record,
        stats: FaultStats,
        dispatch: Optional[DispatchStats] = None,
    ) -> int:
        """Pool plumbing for the process backend.

        ``tasks`` (an iterable of ``(fn, specs, slot indices)``) is
        consumed lazily by the supervisor at submission time.  The
        supervisor owns the dispatch loop — bounded waits, per-task
        deadlines, retry/bisection/quarantine, worker-death re-queueing,
        in-process degradation when the pool breaks — and hands every
        task its context (event wish, telemetry slice, fault plan) as
        call arguments; this method owns the pool's lifecycle: fork
        context and uniform, deadlock-free teardown.  Tasks cross the
        pipe as compact wire descriptors (``pack=encode_chunk``); the
        worker entry points expand them via :func:`ensure_specs`.
        Outcomes and events come back together on the task's result.
        """
        workers = self._effective_workers()
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()

        supervisor = self._make_supervisor(
            record, progress, telemetry, stats,
            max_outstanding=max(2, workers * 2),
            dispatch=dispatch, pack=encode_chunk)
        try:
            pool = context.Pool(processes=max(1, pool_processes),
                                initializer=_init_worker)
        except (OSError, PermissionError):  # pragma: no cover - locked-down hosts
            # Environments that forbid forking still get a correct (if
            # serial) campaign rather than a crash.
            supervisor.run_inline(tasks)
            return 1

        try:
            supervisor.run_pool(pool, tasks)
        finally:
            self._teardown_pool(pool)
        return workers

    def _teardown_pool(self, pool) -> None:
        """Uniform pool teardown, safe on every exit path.

        Workers get a bounded join, then ``terminate()`` — and even that
        gets a bounded wait: a worker SIGKILLed while blocked in the
        shared task queue's ``get()`` dies *holding* the queue's reader
        lock, and ``Pool._terminate_pool`` then deadlocks trying to
        acquire it.  The terminate runs on a daemon thread; if it wedges,
        the remaining workers are SIGKILLed directly and the wedged
        thread is abandoned (every handler thread it could be waiting on
        is a daemon too).
        """
        grace = self._retry_policy().teardown_grace_seconds
        pool.close()
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(timeout=grace)
        if joiner.is_alive():
            _log.warning(
                "pool workers still running %.1fs after close (hung or "
                "saturated); terminating them", grace)
        terminator = threading.Thread(target=pool.terminate, daemon=True)
        terminator.start()
        terminator.join(timeout=max(grace, 1.0))
        if terminator.is_alive():  # pragma: no cover - needs a wedged queue lock
            _log.error(
                "pool terminate wedged — a killed worker can die holding "
                "the shared task-queue lock; force-killing remaining "
                "workers")
            for proc in list(getattr(pool, "_pool", None) or []):
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError, TypeError):
                    pass
            terminator.join(timeout=max(grace, 1.0))
