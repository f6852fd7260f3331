"""Figure benchmark: the reproduced Theorem 8 / Corollary 13 figures, timed.

Run from the repository root::

    python3 figbench/run.py --workload figures-cold --seed 1 --seconds 60 --trace 0

The run repeats its workload's figure(s) until ``--seconds`` are spent
(at least three repetitions) and reports medians.  A burst of the
host-speed reference (``figbench/reference.py``) runs before each
repetition and after the last; the figure and CPU times are reported
normalised by it.  ``--trace 0`` prints the end-to-end metrics, measured
with no wrappers installed.
``--trace 1`` alternates untraced and traced repetitions, prints the
wall-time ledger of the median traced repetition and reports the
per-layer metrics.  Every repetition checks each figure point against
its closed form, and the deterministic counts (steps, messages, rows
written, tasks, wire bytes, batched specs) must repeat exactly between
repetitions; either failure makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, grid shape, CPU count, Python version and commit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".figbench"
MIN_REPS = {0: 3, 1: 4}
IMPORT_SAMPLES = 9

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures-cold", "t8-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe() -> float:
    """``import repro`` timed inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_reps(workload, seconds: float, trace: int, ledgers, reference):
    """Repeat the figure until ``seconds`` are spent; traced reps alternate.

    Returns the repetitions, the import probes and the reference bursts:
    one before each repetition and one after the last.  The import probes
    are spread over the run, so that set-up time sees the same mix of
    host load as the figures do.
    """
    reps, imports, bursts = [], [], []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(imports) < IMPORT_SAMPLES and elapsed >= len(imports) * seconds / IMPORT_SAMPLES:
            imports.append(import_probe())
        gc.collect()  # no repetition pays for the previous one's garbage
        bursts.append(reference.burst())
        if trace and len(reps) % 2 == 1:
            ledger = ledgers.Ledger()
            with ledger.installed():
                reps.append(workload.rep(len(reps), ledger))
        else:
            reps.append(workload.rep(len(reps), ledgers.NullLedger()))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS[trace] and elapsed * (1 + 1 / len(reps)) > seconds:
            bursts.append(reference.burst())
            imports += [import_probe() for _ in range(IMPORT_SAMPLES - len(imports))]
            return reps, imports, bursts


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from figbench import ledger as ledgers
        from figbench import reference
        from figbench.workloads import make_workload
    except ImportError as exc:
        print(f"figbench: cannot import the program from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"figbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    workers = len(os.sched_getaffinity(0))
    try:
        workload = make_workload(args.workload, args.seed, WORKDIR, workers)
        reps, imports, bursts = run_reps(workload, args.seconds, args.trace, ledgers, reference)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    # The largest child is a pool worker on t8-pool and an import probe
    # on the serial workloads.
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # Each repetition against the mean of the reference bursts around it.
    speed = [reference.REFERENCE_S / ((before + after) / 2)
             for before, after in zip(bursts, bursts[1:])]
    untraced = [i for i, rep in enumerate(reps) if rep.ledger is None]
    traced = [rep for rep in reps if rep.ledger is not None]
    figure_s = statistics.median(reps[i].figure_s for i in untraced)
    setup_s = statistics.median(imports) + statistics.median(rep.open_s for rep in reps)
    attempted = sum(rep.points for rep in reps)
    failed = sum(rep.failed for rep in reps)
    unsteady = sorted({name for rep in reps for name, value in rep.counts.items()
                       if value != reps[0].counts[name]})
    if failed:
        print(f"figbench: {failed} of {attempted} figure points failed", file=sys.stderr)
    if unsteady:
        print(f"figbench: counts differ between repetitions: {unsteady}",
              file=sys.stderr)
    problems = sorted({problem for rep in reps for problem in rep.problems})
    for problem in problems:
        print(f"figbench: {problem}", file=sys.stderr)

    if args.trace:
        traced.sort(key=lambda rep: rep.figure_s)
        chosen = traced[(len(traced) - 1) // 2]
        metrics = dict(chosen.layers)
        metrics["ledger.trace_overhead_ratio"] = (
            statistics.median(rep.figure_s for rep in traced) / figure_s)
        print(ledgers.format_ledger(chosen.ledger, {
            "measured figure_s": chosen.figure_s,
            "ledger.coverage": metrics["ledger.coverage"],
            "ledger.trace_overhead_ratio": metrics["ledger.trace_overhead_ratio"],
            "worker busy seconds (executor + batch kernel)":
                metrics["executor.busy_s"] + metrics["batch_kernel.busy_s"],
            "runner.parallel_efficiency": metrics["runner.parallel_efficiency"],
        }))
    else:
        metrics = {
            "figure_norm_s": statistics.median(reps[i].figure_s * speed[i] for i in untraced),
            "cpu_norm_s": statistics.median(reps[i].cpu_s * speed[i] for i in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": parent_rss + child_rss,
            "points_ok_ratio": 1 - failed / attempted,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"figbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "grid": workload.grid(), "nproc": workers,
        "python": platform.python_version(), "commit": git_commit(),
        "samples": len(untraced), "traced_samples": len(traced),
        "figure_s": figure_s,
        "cpu_s": statistics.median(reps[i].cpu_s for i in untraced),
        "figure_s_samples": [reps[i].figure_s for i in untraced],
        "reference_call_s_samples": bursts,
        "import_s_samples": imports,
        "peak_rss_parent_mb": parent_rss, "peak_rss_child_mb": child_rss,
        "counts": reps[0].counts,
    }}))
    print(json.dumps({
        "correct": not (failed or unsteady or problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.pop(m["name"]), "unit": m["unit"]}
                    for m in declared},
    }))
    if metrics:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(metrics)}")
    return 1 if failed or unsteady or problems else 0


if __name__ == "__main__":
    sys.exit(main())
