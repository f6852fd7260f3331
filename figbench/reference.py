"""The host-speed reference: a fixed pure-Python workload.

The benchmark's host is a few virtual CPUs of a shared machine.  Its
speed changes in phases: the same code runs up to about 1.5x slower for
seconds to minutes at a time, when other tenants are busy.  A run of one
minute cannot average that out, so the end-to-end times are normalised.
Before each repetition, and once after the last, the run times a short
burst of :func:`reference_call`; a repetition's time is divided by the
mean of the bursts on either side of it and multiplied by
:data:`REFERENCE_S`.  The result is the repetition's time on a host where
one reference call takes :data:`REFERENCE_S` seconds.

The reference uses nothing from the program, so a change to the program
cannot move it.  It runs while the program is idle, between repetitions.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Tuple

#: The nominal time of one reference call, in seconds.
REFERENCE_S = 0.010
#: Reference calls per burst (about 0.15 s).
BURST_CALLS = 15
#: Simulated steps per reference call.
STEPS = 9000


class _Process:
    __slots__ = ("pid", "round", "seen")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.round = 0
        self.seen: Dict[Tuple[int, int, int], int] = {}


def reference_call() -> int:
    """A small round-based message simulation, like the executor's work:
    attribute updates, tuple and dict churn, and every 50 steps a JSON
    record hashed with SHA-256."""
    processes = [_Process(pid) for pid in range(8)]
    log: List[Tuple[int, int, int]] = []
    for step in range(STEPS):
        process = processes[step % 8]
        process.round += 1
        message = (process.pid, process.round, step % 5)
        process.seen[message] = process.seen.get(message, 0) + 1
        log.append(message)
        if step % 50 == 0:
            record = json.dumps({"step": step, "messages": log[-20:]}, sort_keys=True)
            hashlib.sha256(record.encode()).hexdigest()
    log.sort()
    return len(log)


def burst() -> float:
    """Mean seconds of one reference call over a burst."""
    started = time.perf_counter()
    for _ in range(BURST_CALLS):
        reference_call()
    return (time.perf_counter() - started) / BURST_CALLS
