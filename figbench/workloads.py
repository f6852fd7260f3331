"""The benchmark's workloads: the reproduced figures through the real stack.

Each workload runs one *repetition* at a time — the whole figure, from
the figure call to its checked points — through the public entry points
``sweep_theorem8``, ``corollary13_specs`` + ``CachingRunner``,
``open_store`` and ``CampaignJournal``:

* ``figures-cold``: the Theorem 8 and Corollary 13 figures into an empty
  SQLite store with a fresh journal, every other setting at its default.
* ``t8-pool``: the Theorem 8 figure on the fast path (verdict-only
  recording, process backend with one worker per CPU, batched kernel)
  and no store.

The Theorem 8 grids are scaled so that a repetition takes seconds, not
tens of seconds; see ``figbench/README.md`` for the measured sizes.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import theorem8_verdict
from repro.analysis.border_sweep import sweep_theorem8
from repro.campaign import CampaignRunner, corollary13_specs, theorem8_specs
from repro.provenance.journal import CampaignJournal, read_journal
from repro.simulation.batch_kernel import is_batchable, partition_waves
from repro.store import CachingRunner, open_store

from benchmarks.bench_corollary13_border import classify_campaign
from figbench.ledger import Ledger

#: Theorem 8 n-range of ``figures-cold`` and its grid size in specs.
STORE_T8_N = tuple(range(4, 8))
STORE_T8_SPECS = 1294
#: Theorem 8 n-range of ``t8-pool`` (the full figure) and its grid size.
POOL_T8_N = tuple(range(4, 13))
POOL_T8_SPECS = 9070
#: How far a drawn grid may be from its size, as a share of the size.
SPECS_TOLERANCE = 0.01
#: Corollary 13 n-range (45 specs; negligible next to Theorem 8).
C13_N = tuple(range(3, 9))


def t8_seeds(seed: int, n_values: Sequence[int], size: int) -> Tuple[int, int, int]:
    """The three Theorem 8 seeds (random schedulers and crash patterns).

    A seeded crash pattern that coincides with a fixed one or with another
    seed's is dropped, so the grid's size depends on the seeds: over seeds the
    grid of ``n = 4..7`` holds 1,120-1,430 specs.  Triples are drawn from
    ``random.Random(seed)`` until the grid is within ``SPECS_TOLERANCE``
    of ``size``, so that every seed gives the same amount of work.
    """
    rng = random.Random(seed)
    while True:
        seeds = tuple(rng.randrange(1, 2**31) for _ in range(3))
        specs = len(theorem8_specs(n_values, seeds=seeds, recording="verdict-only"))
        if abs(specs - size) <= SPECS_TOLERANCE * size:
            return seeds


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Kept:
    """Delegates ``run`` to a campaign runner and keeps what it returned."""

    def __init__(self, runner) -> None:
        self.runner = runner
        #: ``(specs, CampaignResult)`` per call.
        self.calls: List[Tuple[Sequence, object]] = []
        self.cache_stats: List[object] = []

    def run(self, specs):
        result = self.runner.run(specs)
        self.calls.append((specs, result))
        stats = getattr(self.runner, "last_stats", None)
        if stats is not None:
            self.cache_stats.append(stats)
        return result


@dataclass
class Rep:
    """One repetition of a workload's figure(s)."""

    figure_s: float
    cpu_s: float
    open_s: float
    points: int
    failed: int
    #: Counts that must repeat exactly for a fixed seed.
    counts: Dict[str, int]
    ledger: Optional[Ledger] = None
    layers: Dict[str, float] = field(default_factory=dict)
    #: Broken invariants of the stack, each one a failed run.
    problems: List[str] = field(default_factory=list)


def _error_points(outcomes) -> Set[Tuple[int, int, int]]:
    """Points with an ``error`` outcome; quarantined outcomes are errors too."""
    return {(o.spec.n, o.spec.f, o.spec.k) for o in outcomes if o.verdict == "error"}


def check_theorem8(n_values, points, result) -> Tuple[int, int]:
    """``(points, failed)``: failed points disagree with ``theorem8_verdict``,
    are missing, or saw an ``error`` outcome.

    The evidence is also read off the outcomes, not only off the sweep's
    own ``agrees`` flag: every run of a solvable point must satisfy every
    property, every run of an impossible point must break agreement or
    termination.
    """
    by_point = result.by_point()
    errors = _error_points(result.outcomes)
    expected = {(n, f, k) for n in n_values for f in range(1, n) for k in range(1, n)}
    seen = set()
    failed = 0
    for point in points:
        key = (point.n, point.f, point.k)
        seen.add(key)
        verdict = theorem8_verdict(*key)
        outcomes = by_point.get(key, ())
        if verdict.is_solvable:
            holds = bool(outcomes) and all(o.all_ok for o in outcomes)
        else:
            holds = bool(outcomes) and all(
                not o.agreement_ok or not o.termination_ok for o in outcomes)
        good = (
            key in expected
            and point.predicted == verdict.verdict
            and holds
            and point.agrees
            and key not in errors
        )
        failed += not good
    return len(expected), failed + len(expected - seen)


def check_corollary13(n_values, result) -> Tuple[int, int]:
    """``(points, failed)``: failed points disagree with
    ``corollary13_verdict`` (as classified by the E10 benchmark) or saw an
    ``error`` outcome."""
    errors = _error_points(result.outcomes)
    rows = classify_campaign(n_values, result)
    failed = sum(1 for n, k, _verdict, _observation, agrees in rows
                 if agrees != "yes" or (n, n - 1, k) in errors)
    return len(rows), failed


def outcome_counts(kept: Kept, batched: bool) -> Dict[str, int]:
    """The deterministic counts of one repetition's campaigns."""
    counts = {"specs": 0, "steps": 0, "messages_sent": 0, "batched_specs": 0,
              "tasks_shipped": 0, "scenarios_shipped": 0, "wire_bytes": 0}
    for specs, result in kept.calls:
        counts["specs"] += len(specs)
        counts["steps"] += sum(o.steps for o in result.outcomes)
        counts["messages_sent"] += sum(o.messages_sent for o in result.outcomes)
        if batched:
            counts["batched_specs"] += sum(1 for s in specs if is_batchable(s))
        dispatch = result.dispatch_stats
        counts["tasks_shipped"] += dispatch.tasks_shipped
        counts["scenarios_shipped"] += dispatch.scenarios_shipped
        counts["wire_bytes"] += dispatch.wire_bytes
    return counts


class FiguresWorkload:
    """``figures-cold``: both figures into an empty store."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = t8_seeds(seed, STORE_T8_N, STORE_T8_SPECS)
        self.workdir = workdir

    def grid(self) -> Dict[str, object]:
        return {"theorem8_n": list(STORE_T8_N), "theorem8_seeds": list(self.seeds),
                "corollary13_n": list(C13_N), "recording": "full",
                "backend": "serial", "store": "sqlite", "journal": True}

    def rep(self, index: int, ledger) -> Rep:
        store_path = self.workdir / f"store-{index}.sqlite"
        journal_path = self.workdir / f"journal-{index}.jsonl"
        started = time.perf_counter()
        store = open_store(store_path)
        journal = CampaignJournal(journal_path)
        open_s = time.perf_counter() - started
        try:
            kept = Kept(CachingRunner(store, journal=journal))
            cpu = cpu_seconds()
            started = time.perf_counter()
            with ledger.span("figure"):
                with ledger.span("analysis.border_sweep"):
                    points = sweep_theorem8(STORE_T8_N, seeds=self.seeds, runner=kept)
                with ledger.span("campaign.scenarios"):
                    c13_specs = corollary13_specs(C13_N)
                kept.run(c13_specs)
                with ledger.span("figbench.check"):
                    (_, t8), (_, c13) = kept.calls
                    t8_points, t8_failed = check_theorem8(STORE_T8_N, points, t8)
                    c13_points, c13_failed = check_corollary13(C13_N, c13)
            figure_s = time.perf_counter() - started
            cpu_s = cpu_seconds() - cpu
            io = store.io_stats()
        finally:
            journal.close()
            store.close()
        counts = outcome_counts(kept, batched=False)
        counts.update(points=t8_points + c13_points,
                      rows_written=io["committed_rows"], commits=io["commits"],
                      cached=sum(s.cached for s in kept.cache_stats))
        rep = Rep(figure_s, cpu_s, open_s, counts["points"], t8_failed + c13_failed,
                  counts)
        if ledger.traced:
            rep.ledger = ledger
            rep.layers = layer_metrics(ledger, kept, io, journal_path, figure_s)
            if rep.layers["fingerprint.calls"] != rep.layers["scenarios.specs"]:
                rep.problems.append("fingerprint_spec calls differ from specs")
        return rep


class PoolWorkload:
    """``t8-pool``: the Theorem 8 figure on the batched process pool."""

    def __init__(self, seed: int, workers: int) -> None:
        self.seeds = t8_seeds(seed, POOL_T8_N, POOL_T8_SPECS)
        self.workers = workers

    def grid(self) -> Dict[str, object]:
        return {"theorem8_n": list(POOL_T8_N), "theorem8_seeds": list(self.seeds),
                "recording": "verdict-only", "backend": "process",
                "workers": self.workers, "batch": True, "store": None}

    def rep(self, index: int, ledger) -> Rep:
        kept = Kept(CampaignRunner(backend="process", workers=self.workers, batch=True))
        cpu = cpu_seconds()
        started = time.perf_counter()
        with ledger.span("figure"):
            with ledger.span("analysis.border_sweep"):
                points = sweep_theorem8(
                    POOL_T8_N, seeds=self.seeds, recording="verdict-only", runner=kept)
            with ledger.span("figbench.check"):
                (_, result), = kept.calls
                attempted, failed = check_theorem8(POOL_T8_N, points, result)
        figure_s = time.perf_counter() - started
        cpu_s = cpu_seconds() - cpu
        counts = outcome_counts(kept, batched=True)
        counts.update(points=attempted, rows_written=0, commits=0, cached=0)
        rep = Rep(figure_s, cpu_s, 0.0, attempted, failed, counts)
        if ledger.traced:
            rep.ledger = ledger
            rep.layers = layer_metrics(ledger, kept, None, None, figure_s)
        return rep


def make_workload(name: str, seed: int, workdir: Path, workers: int):
    if name == "t8-pool":
        return PoolWorkload(seed, workers)
    return FiguresWorkload(seed, workdir)


def layer_metrics(ledger: Ledger, kept: Kept, io, journal_path,
                  figure_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    scalar = {"busy": 0.0, "scenarios": 0, "steps": 0, "messages": 0}
    batched = {"busy": 0.0, "scenarios": 0, "waves": 0}
    executed = worker_seconds = runner_wall = 0.0
    workers = 1
    dispatch = {"tasks": 0, "queue": 0.0, "bytes": 0, "shipped": 0}
    faults = {"task_retries": 0, "quarantined": 0, "worker_deaths": 0}
    for runner, result in ledger.runs:
        specs = [o.spec for o in result.outcomes]
        executed += len(specs)
        worker_seconds += sum(result.scenario_seconds)
        runner_wall += result.elapsed_seconds
        workers = max(workers, result.workers)
        if runner.batch:
            batched["waves"] += len(partition_waves(specs)[0])
        for outcome, seconds in zip(result.outcomes, result.scenario_seconds):
            if runner.batch and is_batchable(outcome.spec):
                batched["busy"] += seconds
                batched["scenarios"] += 1
            else:
                scalar["busy"] += seconds
                scalar["scenarios"] += 1
                scalar["steps"] += outcome.steps
                scalar["messages"] += outcome.messages_sent
        d = result.dispatch_stats
        dispatch["tasks"] += d.tasks_shipped
        dispatch["queue"] += d.queue_seconds
        dispatch["bytes"] += d.wire_bytes
        dispatch["shipped"] += d.scenarios_shipped
        for name in faults:
            faults[name] += getattr(result.fault_stats, name)
    total = sum(s.total for s in kept.cache_stats)
    residual = ledger.self_seconds["figure"]
    return {
        "scenarios.compile_s": ledger.seconds("campaign.scenarios"),
        "scenarios.specs": sum(len(specs) for specs, _ in kept.calls),
        "fingerprint.s": ledger.seconds("store.fingerprint"),
        "fingerprint.calls": ledger.count("store.fingerprint"),
        "sqlite.get_many_s": ledger.seconds("store.sqlite.get_many"),
        "sqlite.put_s": ledger.seconds("store.sqlite.put"),
        "sqlite.flush_s": ledger.seconds("store.sqlite.flush"),
        "sqlite.commits": io["commits"] if io else 0,
        "sqlite.rows_written": io["committed_rows"] if io else 0,
        "caching.self_s": ledger.seconds("store.caching"),
        "caching.hit_ratio": (sum(s.cached for s in kept.cache_stats) / total
                              if total else 0.0),
        "journal.write_s": ledger.seconds("provenance.journal"),
        "journal.records": len(read_journal(journal_path)) if journal_path else 0,
        "journal.bytes": journal_path.stat().st_size if journal_path else 0,
        "executor.busy_s": scalar["busy"],
        "executor.scenarios": scalar["scenarios"],
        "executor.steps": scalar["steps"],
        "executor.messages_sent": scalar["messages"],
        "batch_kernel.busy_s": batched["busy"],
        "batch_kernel.waves": batched["waves"],
        "batch_kernel.batched_ratio": batched["scenarios"] / executed if executed else 0.0,
        "runner.self_s": ledger.seconds("campaign.runner"),
        "runner.parallel_efficiency": (worker_seconds / (workers * runner_wall)
                                       if runner_wall else 0.0),
        "supervisor.tasks": dispatch["tasks"],
        "supervisor.queue_task_s": dispatch["queue"],
        "supervisor.task_retries": faults["task_retries"],
        "supervisor.quarantined": faults["quarantined"],
        "supervisor.worker_deaths": faults["worker_deaths"],
        "wire.bytes_per_scenario": (dispatch["bytes"] / dispatch["shipped"]
                                    if dispatch["shipped"] else 0.0),
        "wire.encode_s": ledger.seconds("campaign.wire"),
        "border_sweep.assemble_s": ledger.seconds("analysis.border_sweep"),
        "ledger.coverage": (figure_s - residual) / figure_s,
        "ledger.residual_s": residual,
    }
