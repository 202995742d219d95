#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, checked outputs.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Leave out ``--workload`` and/or ``--trace`` (or pass
``--runs K``) and it runs every combination asked for, each in a fresh
process so ``setup_s`` and ``peak_rss_mb`` stay per-run, with seeds
``N .. N+K-1``.  ``--out FILE`` appends one JSON record per run;
``compare.py`` reads those files.  See README.md beside this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("des-alltoall", "loop-influx", "monitor-stream", "cp-day")


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--runs", type=int, default=1, help="repeat with seeds N..N+K-1")
    parser.add_argument("--quick", action="store_true", help="test sizes")
    parser.add_argument("--out", help="append one JSON record per run to this file")
    parser.add_argument(
        "--scrub-env",
        action="store_true",
        help="unset REPRO_* variables instead of refusing to run with them",
    )
    return parser.parse_args(argv)


def check_env(scrub: bool) -> None:
    """Production defaults are what is measured: no ``REPRO_*`` may leak in."""
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if not leaked:
        return
    if not scrub:
        sys.exit(
            f"refusing to run with {', '.join(leaked)} set; unset them or pass --scrub-env"
        )
    for name in leaked:
        del os.environ[name]


def fingerprint(seed: int) -> dict:
    import numpy

    from harness import REF_UNIT_S
    from repro.simulator.hybrid import resolve_hybrid_mode

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = "unknown"
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if git.returncode == 0:
            git_sha = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "seed": seed,
        "engine_mode": resolve_hybrid_mode(None),
        "ref_unit_s": REF_UNIT_S,
    }


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The worker pool's shared-memory slots start it as a helper process
    that exits only once it sees its parent gone, i.e. ~15 ms *after*
    this process: a process left running when the run is over.  Call
    this after the pool is closed (its workers hold the tracker's pipe
    too); it does nothing when no tracker was started.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)  # EOF on its pipe is the tracker's cue to exit
    tracker._fd = None
    if tracker._pid is not None:
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


# ---------------------------------------------------------------------------
# One run, in this process
# ---------------------------------------------------------------------------


def run_single(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bodies
        import metrics
        from harness import MAX_UNITS_PER_TICK, Probe, Stat, measure
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    probe = Probe()
    # Imports ran before the probe existed: sample the speed they ran at.
    probe.burst(MAX_UNITS_PER_TICK)
    import_ref = import_s * probe.factor_since((0.0, 0))

    workload = bodies.WORKLOADS[args.workload](args.seed, args.quick)
    trace = bool(args.trace)
    try:
        setup_ref, samples = measure(workload, probe, args.seconds, trace)
    finally:
        workload.teardown()
        stop_resource_tracker()

    # Output checks: every body repeats the first body's digest, and no
    # body's own checks failed.
    notes = [note for s in samples for note in s.outcome.notes]
    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    for sample in samples[1:]:
        if sample.outcome.digest != samples[0].outcome.digest:
            notes.append(f"body {sample.body_id} did not reproduce the first body's digest")
            failed += sample.outcome.attempted - sample.outcome.failed
    correct = not notes and failed == 0

    if trace:
        stats = metrics.per_layer(samples, probe.spans)
    else:
        stats = metrics.end_to_end(
            setup_ref, import_ref, samples, workload.uses_children
        )
    record = {
        "workload": args.workload,
        "trace": int(trace),
        "seconds": args.seconds,
        "quick": args.quick,
        **fingerprint(args.seed),
        "executor_strategy": sorted(getattr(workload, "strategies", ())),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": samples[0].outcome.digest,
        "metrics": {
            name: {"value": stat.value, "unit": metrics.UNITS[name]}
            for name, stat in stats.items()
        },
        "bodies": len(samples),
        "wall_ref_s": [s.wall * s.factor for s in samples],
        "wall_raw_s": [s.wall for s in samples],
        "speed_factor": [s.factor for s in samples],
        "setup_ref_s": setup_ref,
        "import_ref_s": import_ref,
        "exact": samples[0].outcome.counts,
    }
    if trace:
        bodies.OUT_DIR.mkdir(exist_ok=True)
        spans_path = bodies.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps(
                {
                    "columns": ["id", "parent", "body", "name", "start", "end"],
                    "spans": probe.spans,
                }
            )
        )
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    walls = Stat.of([s.wall * s.factor for s in samples if not s.traced])
    print(
        f"{args.workload}  seed {args.seed}  trace {int(trace)}  "
        f"{len(samples)} bodies  body wall {walls.value:.4f} s "
        f"[{walls.q1:.4f}, {walls.q3:.4f}] n={walls.n}  "
        f"speed factor {Stat.of(record['speed_factor']).value:.3f}  (times in reference s)"
    )
    print(f"  {'metric':34s} {'median':>14s} unit   [q1, q3] n")
    for name, stat in stats.items():
        print(
            f"  {name:34s} {stat.value:>14.6g} {metrics.UNITS[name]:6s} "
            f"[{stat.q1:.6g}, {stat.q3:.6g}] n={stat.n}"
        )
    for note in notes:
        print(f"  CHECK FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Many runs, one fresh process each
# ---------------------------------------------------------------------------


def run_many(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    traces = [args.trace] if args.trace is not None else [0, 1]
    status = 0
    for run in range(args.runs):
        for trace in traces:
            for workload in workloads:
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload,
                    "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]
                if args.quick:
                    command.append("--quick")
                if args.out:
                    command += ["--out", args.out]
                status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    check_env(args.scrub_env)
    if args.workload and args.trace is not None and args.runs == 1:
        return run_single(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
