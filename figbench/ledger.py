"""Traced runs: span wrappers around each layer and the wall-time ledger.

A traced figure run installs wrappers on the public names each layer is
looked up by (:data:`PATCHES`), records one span per call, and removes
the wrappers again when the run ends.  A layer's *self* time is its
spans' duration minus the part covered by nested spans, so the self
times of every layer on the parent's blocking path, plus the residual
self time of the root ``figure`` span, sum exactly to the figure's wall
time.  Work done inside pool workers is not on that path: forked workers
inherit the wrappers, but their spans stay in the workers' memory.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

import repro.analysis.border_sweep as border_sweep
import repro.campaign.runner as campaign_runner
import repro.simulation.batch_kernel as batch_kernel
import repro.store.caching as caching
from repro.provenance.journal import CampaignJournal
from repro.store.sqlite import SqliteResultStore

#: ``(owner, attribute, span name)``: every name is patched on the module
#: or class the calling code looks it up on.
PATCHES: Tuple[Tuple[object, str, str], ...] = (
    (border_sweep, "theorem8_specs", "campaign.scenarios"),
    (caching, "fingerprint_spec", "store.fingerprint"),
    (caching.CachingRunner, "run", "store.caching"),
    (campaign_runner.CampaignRunner, "run", "campaign.runner"),
    (campaign_runner, "run_scenario", "simulation.executor"),
    (batch_kernel, "execute_wave", "simulation.batch_kernel"),
    (campaign_runner, "encode_chunk", "campaign.wire"),
    (SqliteResultStore, "get_many", "store.sqlite.get_many"),
    (SqliteResultStore, "put", "store.sqlite.put"),
    (SqliteResultStore, "put_many", "store.sqlite.put"),
    (SqliteResultStore, "flush", "store.sqlite.flush"),
    (CampaignJournal, "campaign_started", "provenance.journal"),
    (CampaignJournal, "scenario", "provenance.journal"),
    (CampaignJournal, "scenario_event", "provenance.journal"),
    (CampaignJournal, "early_stop", "provenance.journal"),
    (CampaignJournal, "campaign_finished", "provenance.journal"),
)

#: Ledger rows in blocking-path order; a row sums the spans whose name
#: starts with it.  ``figbench.check`` is the benchmark's own verdict
#: check, which ``figure_s`` includes by definition.
ROWS = (
    "analysis.border_sweep",
    "campaign.scenarios",
    "store.caching",
    "store.fingerprint",
    "store.sqlite",
    "provenance.journal",
    "campaign.runner",
    "simulation.executor",
    "simulation.batch_kernel",
    "campaign.wire",
    "figbench.check",
)


class NullLedger:
    """The untraced run: spans cost one ``with`` on a shared no-op."""

    traced = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Ledger:
    """Self-time accounting for one traced figure run."""

    traced = True

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``(runner, result)`` of every ``CampaignRunner.run`` call.
        self.runs: List[Tuple[object, object]] = []
        self._stack: List[List[float]] = []
        self._thread = threading.get_ident()

    def _enter(self) -> List[float]:
        frame = [0.0]  # seconds covered by child spans
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float], seconds: float) -> None:
        self._stack.pop()
        self.self_seconds[name] += seconds - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += seconds

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._enter()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, time.perf_counter() - started)

    def _wrap(self, name: str, fn: Callable, keep_result: bool) -> Callable:
        def wrapper(*args, **kwargs):
            # Calls from other threads are not on the blocking path and
            # would corrupt the span stack; none of the workloads makes any.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            frame = self._enter()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, time.perf_counter() - started)
            if keep_result:
                self.runs.append((args[0], result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Patch every :data:`PATCHES` name for the ``with`` body only."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PATCHES]
        try:
            for (owner, attr, name), (_, _, original) in zip(PATCHES, saved):
                keep = owner is campaign_runner.CampaignRunner and attr == "run"
                setattr(owner, attr, self._wrap(name, original, keep))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- reading the ledger -------------------------------------------------

    def seconds(self, prefix: str) -> float:
        return sum(s for name, s in self.self_seconds.items()
                   if name.startswith(prefix))

    def count(self, prefix: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(prefix))

    def rows(self) -> List[Tuple[str, float]]:
        """``(row, self seconds)`` per :data:`ROWS` entry plus the residual."""
        return [(row, self.seconds(row)) for row in ROWS] + [
            ("residual", self.self_seconds["figure"])]

    def figure_seconds(self) -> float:
        return sum(seconds for _, seconds in self.rows())


def format_ledger(ledger: Ledger, beside: Dict[str, float]) -> str:
    """The ledger table; ``beside`` holds figures reported next to it."""
    total = ledger.figure_seconds()
    lines = [f"{'layer (self time on the parent path)':<40}{'seconds':>12}{'share':>9}"]
    for row, seconds in ledger.rows():
        share = seconds / total if total else 0.0
        lines.append(f"{row:<40}{seconds:>12.6f}{share:>9.2%}")
    lines.append(f"{'figure_s (sum of rows)':<40}{total:>12.6f}{1:>9.2%}")
    for name, value in beside.items():
        lines.append(f"  beside the table: {name} = {value:.6g}")
    return "\n".join(lines)
