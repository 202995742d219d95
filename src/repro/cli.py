"""Command-line interface: run scenarios without writing a script.

::

    python -m repro list-schemes
    python -m repro run --scheme paraleon --workload hadoop --duration 0.1
    python -m repro run --scheme paraleon --jobs 4 --trace t.jsonl
    python -m repro compare --workload hadoop --schemes default,expert,paraleon
    python -m repro sweep --workload hadoop --jobs 4
    python -m repro pfc-plan --scale medium --buffer-mb 2
    python -m repro telemetry t.jsonl            # summarize one trace
    python -m repro telemetry a.jsonl b.jsonl    # trace-diff two runs
    python -m repro telemetry --validate t.jsonl # schema-check every line
    python -m repro run --record r.json ...      # flight-record a run
    python -m repro report r.json --out r.html   # render the run report
    python -m repro env                          # list REPRO_* variables
    python -m repro env --markdown               # README env-var table

Every command prints a human-readable summary; ``run``/``compare``
report utility components and FCT slowdowns via the same machinery the
benchmarks use, so CLI results and benchmark results agree.  All
evaluation commands route through the parallel fabric
(:mod:`repro.parallel`): ``--jobs N`` fans independent runs out over N
worker processes (default: ``REPRO_JOBS`` env or the CPU count) with
results identical to ``--jobs 1``; ``--no-cache`` bypasses the
persistent evaluation cache under ``.repro_cache/``.

Output discipline (see :mod:`repro.telemetry.log`): the *product* of a
command goes to **stdout** via :func:`~repro.telemetry.log.echo` so it
pipes cleanly; diagnostics and usage errors go to **stderr** through
the ``repro`` logger, leveled by ``REPRO_LOG_LEVEL``.  ``--trace PATH``
(default ``REPRO_TRACE``) records a structured JSONL trace of the run
— engine intervals, FSD uploads, KL decisions, SA steps, cache and
executor activity — which ``python -m repro telemetry`` analyzes.
:func:`main` is the one place telemetry is switched on and off; pool
workers follow it through the session on each chunk message.
"""

from __future__ import annotations

import argparse
import math
import time
from typing import List, Optional

from repro import env
from repro.experiments.fct import FctStats
from repro.telemetry.tables import format_table
from repro.experiments.scenarios import SCHEME_FACTORIES, SPECS, make_tuner
from repro.parallel import EvalTask, ScenarioSpec, SweepExecutor
from repro.simulator.units import ms
from repro.telemetry import recorder, trace
from repro.telemetry.log import echo, get_logger
from repro.tuning.eval_cache import EvalCache, default_cache

_log = get_logger("cli")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _positive_float(value: str) -> float:
    x = float(value)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return x


def _open_fraction(value: str) -> float:
    x = float(value)
    if not 0.0 < x < 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return x


def _add_executor(parser: argparse.ArgumentParser) -> None:
    """The eval-fabric flags :func:`_make_executor` reads."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for independent runs "
             "(default: REPRO_JOBS env, then CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent evaluation cache (.repro_cache/)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=["hadoop", "llm", "influx", "incast"],
        default="hadoop",
        help="traffic scenario (default: hadoop)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SPECS),
        default="medium",
        help="fabric size class (default: medium, 16 hosts)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--duration", type=_positive_float, default=0.1,
        help="simulated seconds to run (default: 0.1)",
    )
    parser.add_argument(
        "--load", type=_open_fraction, default=0.3,
        help="offered load for the hadoop workload, in (0, 1) "
             "(default: 0.3)",
    )
    parser.add_argument(
        "--monitor-interval-ms", type=_positive_float, default=1.0,
        help="monitor interval in milliseconds (default: 1.0)",
    )
    _add_executor(parser)
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append a structured JSONL trace of this run to PATH, "
             "pool workers included (default: REPRO_TRACE env)",
    )
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="write a flight-recorder snapshot (queue depth, DCQCN "
             "rate/alpha, PFC counters, flow FCTs) to PATH; render it "
             "with `python -m repro report`; pool workers record too "
             "and ship their snapshots back",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="capture a cProfile of this command to PATH "
             "(inspect with `python -m pstats PATH`)",
    )


def _make_spec(args) -> ScenarioSpec:
    """The CLI scenario as a picklable spec (same knobs as before)."""
    return ScenarioSpec(
        workload=args.workload,
        scale=args.scale,
        duration=args.duration,
        monitor_interval=ms(args.monitor_interval_ms),
        seed=args.seed,
        workload_seed=args.seed,
        load=args.load,
    )


def _make_executor(args) -> tuple:
    """``(executor, cache)`` honoring ``--jobs``/``--no-cache``."""
    cache: Optional[EvalCache] = default_cache(enabled=not args.no_cache)
    return SweepExecutor(jobs=args.jobs, cache=cache), cache


def cmd_list_schemes(_args) -> int:
    echo("available tuning schemes:")
    for name in sorted(SCHEME_FACTORIES):
        echo(f"  {name}")
    return 0


def cmd_run(args) -> int:
    spec = _make_spec(args)
    executor, _cache = _make_executor(args)
    task = EvalTask(scenario=spec, seed=args.seed, scheme=args.scheme)
    result = executor.map([task])[0]
    fabric = SPECS[args.scale]
    echo(f"scheme          : {make_tuner(args.scheme).name}")
    echo(f"fabric          : {args.scale} ({fabric.n_hosts} hosts)")
    echo(f"flows completed : {len(result.records)} / {result.n_flows_total}")
    echo(f"mean utility    : {result.mean_utility(skip=5):.4f}")
    echo(f"param dispatches: {result.dispatches}")
    echo(f"dropped packets : {result.dropped_packets}")
    if result.records:
        stats = FctStats.compute(args.scheme, result.records, fabric)
        echo(f"avg FCT slowdown: {stats.overall_avg:.2f} "
             f"(p99.9 {stats.overall_p999:.1f})")
    if trace.active:
        echo(f"trace           : {trace.trace_path()}")
    if recorder.active and result.recording is not None:
        path = recorder.write_snapshot(result.recording)
        echo(f"recording       : {path}")
    return 0


def cmd_compare(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    unknown = [s for s in schemes if s not in SCHEME_FACTORIES]
    if unknown:
        _log.error("unknown schemes: %s", ", ".join(unknown))
        return 2
    spec = _make_spec(args)
    executor, _cache = _make_executor(args)
    tasks = [
        EvalTask(scenario=spec, seed=args.seed, scheme=scheme, index=i)
        for i, scheme in enumerate(schemes)
    ]
    results = executor.map(tasks)
    fabric = SPECS[args.scale]
    rows = []
    for scheme, result in zip(schemes, results):
        row = [make_tuner(scheme).name, f"{result.mean_utility(skip=5):.4f}"]
        if result.records:
            stats = FctStats.compute(scheme, result.records, fabric)
            row.append(f"{stats.overall_avg:.2f}")
        else:
            row.append("-")
        row.append(str(result.dispatches))
        rows.append(row)
    echo(
        format_table(
            ["scheme", "mean utility", "avg FCT slowdown", "dispatches"],
            rows,
            title=f"{args.workload} @ {args.scale}, {args.duration}s",
        )
    )
    return 0


def cmd_sweep(args) -> int:
    from repro.parallel.sweeps import offline_grid_search_parallel
    from repro.parallel.tasks import scheduled_interval_count
    from repro.tuning.fidelity import SurrogateScreen
    from repro.tuning.grid import DEFAULT_GRID

    spec = _make_spec(args)
    try:
        intervals = scheduled_interval_count(spec)
        if args.skip >= intervals:
            raise ValueError(
                f"--skip {args.skip} leaves none of the scenario's "
                f"{intervals} monitor intervals to average"
            )
        if args.screen_ratio is not None:
            # Fails on a bad ratio or on a workload the fluid model
            # cannot score, before the sweep runs any DES point.
            SurrogateScreen(spec, args.screen_ratio)
    except ValueError as exc:
        _log.error("bad sweep: %s", exc)
        return 2
    executor, cache = _make_executor(args)
    t0 = time.perf_counter()
    best, results = offline_grid_search_parallel(
        spec,
        DEFAULT_GRID,
        executor=executor,
        skip_intervals=args.skip,
        screen_ratio=args.screen_ratio,
    )
    wall = time.perf_counter() - t0
    des_points = sum(1 for r in results if r.fidelity == "des")
    counts = f"DES {des_points}, fluid {len(results) - des_points}"
    echo(f"grid points     : {len(results)}")
    if args.screen_ratio is None:
        echo(f"fidelity        : full ({counts})")
    else:
        echo(f"fidelity        : screen (ratio {args.screen_ratio:g}, {counts})")
    echo(f"jobs            : {executor.jobs}")
    echo(f"strategy        : {executor.last_strategy}")
    echo(f"wall time       : {wall:.2f} s")
    if cache is not None:
        stats = cache.stats()
        echo(f"cache           : {stats['hits']} hits / "
             f"{stats['misses']} misses ({stats['entries']} entries)")
        cache.save()
    echo(f"best utility    : {best.utility:.4f}")
    echo("best parameters :")
    for name, value in sorted(best.params.as_dict().items()):
        echo(f"  {name:28s} = {value!r}")
    if recorder.active and best.recording is not None:
        # The executor's best-K pruning keeps the winner's recording;
        # writing it makes "why did the winner win" inspectable.
        path = recorder.write_snapshot(best.recording)
        echo(f"best recording  : {path}")
    return 0


def cmd_controlplane(args) -> int:
    import json

    from repro.controlplane.service import (
        ControlPlaneConfig,
        ControlPlaneService,
    )
    from repro.controlplane.topology import ShardTopology
    from repro.controlplane.traffic import (
        TenantProfile,
        TrafficConfig,
        TrafficShift,
    )

    try:
        topology = ShardTopology(
            n_shards=args.shards,
            agents_per_shard=args.agents_per_shard,
            agents_per_rack=args.agents_per_rack,
            racks_per_pod=args.racks_per_pod,
            n_tenants=args.tenants,
        )
        shifts = ()
        if not args.no_shift:
            shift_interval = (
                args.shift_interval
                if args.shift_interval is not None
                else max(1, args.intervals // 3)
            )
            shifts = (
                TrafficShift(
                    tenant=args.shift_tenant,
                    interval=shift_interval,
                    profile=TenantProfile(
                        elephant_fraction=args.shift_elephant,
                        pe_fraction=0.10,
                    ),
                ),
            )
        config = ControlPlaneConfig(
            topology=topology,
            traffic=TrafficConfig(seed=args.seed, shifts=shifts),
            intervals=args.intervals,
            theta=args.theta,
        )
    except ValueError as exc:
        _log.error("bad control-plane day: %s", exc)
        return 2
    executor, _cache = _make_executor(args)
    t0 = time.perf_counter()
    result = ControlPlaneService(config, executor=executor).run()
    wall = time.perf_counter() - t0
    echo(f"topology        : {topology.n_shards} shards x "
         f"{topology.agents_per_shard} agents = {topology.n_agents} ToRs, "
         f"{topology.n_racks} racks, {topology.n_pods} pods, "
         f"{topology.n_tenants} tenants")
    echo(f"intervals       : {args.intervals} ({wall:.2f} s wall)")
    triggers = [t for o in result.outcomes for t in o.triggers]
    echo(f"triggers fired  : "
         + (", ".join(
             f"tenant {t.tenant} @ interval {t.interval} (KL {t.kl:.3f})"
             for t in triggers
         ) or "none"))
    for retune in result.retunes:
        echo(f"retune          : tenant {retune.tenant} finished @ interval "
             f"{retune.finished_interval}, utility {retune.utility:.4f} "
             f"({retune.evaluations} evaluations)")
    echo(f"bytes agent→rack: {result.agent_rack_bytes}")
    echo(f"bytes rack→pod  : {result.rack_pod_bytes}")
    echo(f"bytes pod→global: {result.pod_global_bytes}")
    echo(f"bytes dispatch  : {result.param_update_bytes}")
    echo(f"run digest      : {result.result_digest()}")
    if trace.active:
        echo(f"trace           : {trace.trace_path()}")
    if args.out:
        snapshot = {
            "meta": {"kind": "controlplane", "source": "repro controlplane"},
            "control_plane": result.to_snapshot(),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        echo(f"snapshot        : {args.out} "
             f"(render with `python -m repro report {args.out}`)")
    return 0


def cmd_pfc_plan(args) -> int:
    from repro.simulator.pfc_planning import min_buffer_for_alpha, plan_pfc

    spec = SPECS[args.scale]
    buffer_bytes = int(args.buffer_mb * 1e6)
    plan = plan_pfc(spec, buffer_bytes)
    echo(
        f"fabric {args.scale}: {spec.n_hosts} hosts at "
        f"{spec.host_rate_bps / 1e9:.0f} Gbps, "
        f"{spec.prop_delay_s * 1e6:.1f} us wires"
    )
    echo(f"shared buffer        : {buffer_bytes / 1e6:.2f} MB")
    echo(f"PFC headroom per port: {plan.headroom_per_port} B")
    echo(f"planned alpha        : {plan.alpha:.4f} "
         f"(operational cap 1/8 = 0.125)")
    echo(
        f"min lossless buffer at alpha=1/8: "
        f"{min_buffer_for_alpha(spec) / 1e6:.2f} MB"
    )
    return 0


def cmd_env(args) -> int:
    from repro import env as env_registry

    if args.markdown:
        echo(env_registry.markdown_table())
    else:
        echo(env_registry.format_listing())
    return 0


def _load_trace_summary(path):
    """TraceSummary for ``path``, or None (with a message) if unreadable.

    Absent or unreadable traces are an expected state for analysis
    commands — the run may simply not have been traced — so the caller
    reports cleanly and exits 0 instead of raising.
    """
    from repro.telemetry.summary import TraceSummary

    try:
        return TraceSummary.from_file(path)
    except OSError as exc:
        echo(f"cannot read trace {path} ({exc.strerror or exc}); "
             "nothing to report")
        return None


def cmd_telemetry(args) -> int:
    from repro.telemetry.schema import validate_file
    from repro.telemetry.summary import format_diff, format_summary

    paths = args.trace_file
    if args.validate:
        status = 0
        for path in paths:
            try:
                count, problems = validate_file(path)
            except OSError as exc:
                _log.error("cannot read %s: %s", path, exc)
                return 2
            if problems:
                status = 1
                echo(f"{path}: {count} records, "
                     f"{len(problems)} schema problem(s)")
                for lineno, problem in problems[:20]:
                    echo(f"  line {lineno}: {problem}")
                if len(problems) > 20:
                    echo(f"  ... and {len(problems) - 20} more")
            else:
                echo(f"{path}: {count} records, all schema-valid")
        return status

    if len(paths) == 1:
        summary = _load_trace_summary(paths[0])
        if summary is None:
            return 0
        if not summary.records:
            echo(f"{paths[0]}: empty trace (0 records); nothing to summarize")
            return 0
        echo(format_summary(summary, top=args.top))
        return 0
    if len(paths) == 2:
        a = _load_trace_summary(paths[0])
        b = _load_trace_summary(paths[1])
        if a is None or b is None:
            return 0
        echo(format_diff(a, b))
        return 0
    _log.error("telemetry takes one trace file (summary) or two (diff)")
    return 2


def cmd_report(args) -> int:
    from repro.telemetry import report as report_mod
    from repro.telemetry.recorder import load_snapshot

    try:
        recording = load_snapshot(args.recording)
    except OSError as exc:
        echo(f"no recording at {args.recording} ({exc.strerror or exc}); "
             "run with --record PATH to produce one")
        return 0
    except ValueError as exc:
        _log.error("cannot parse recording %s: %s", args.recording, exc)
        return 2
    fmt = args.format
    if fmt is None:
        out = args.out or ""
        fmt = "markdown" if out.endswith((".md", ".markdown")) else "html"
    trace_summary = None
    if args.trace_file:
        summary = _load_trace_summary(args.trace_file)
        if summary is not None and summary.records:
            trace_summary = summary
    text = report_mod.render(
        recording,
        fmt=fmt,
        trace_summary=trace_summary,
        top=args.top,
        source=args.recording,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        echo(f"report written  : {args.out} ({fmt}, {len(text)} bytes)")
    else:
        echo(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Paraleon reproduction: run DCQCN tuning scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schemes", help="list tuning schemes").set_defaults(
        func=cmd_list_schemes
    )

    run_parser = sub.add_parser("run", help="run one scheme on a scenario")
    run_parser.add_argument(
        "--scheme", default="paraleon", choices=sorted(SCHEME_FACTORIES)
    )
    _add_common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    cmp_parser = sub.add_parser("compare", help="run several schemes")
    cmp_parser.add_argument(
        "--schemes", default="default,expert,paraleon",
        help="comma-separated scheme list",
    )
    _add_common(cmp_parser)
    cmp_parser.set_defaults(func=cmd_compare)

    sweep_parser = sub.add_parser(
        "sweep", help="offline exhaustive grid search (parallel)"
    )
    sweep_parser.add_argument(
        "--screen-ratio", type=float, default=None, metavar="R",
        help="screen the grid with the fluid model: only the best 1 in R "
        "points (R finite, >= 1) runs the full simulation "
        "(default: every point runs it)",
    )
    sweep_parser.add_argument(
        "--skip", type=_non_negative_int, default=5,
        help="warm-up monitor intervals excluded from the mean (default: 5)",
    )
    _add_common(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    cp_parser = sub.add_parser(
        "controlplane",
        help="run the sharded many-ToR control plane 'day in the life'",
    )
    cp_parser.add_argument(
        "--shards", type=_positive_int, default=4,
        help="agent shards (default: 4)",
    )
    cp_parser.add_argument(
        "--agents-per-shard", type=_positive_int, default=32,
        help="simulated ToR agents per shard (default: 32)",
    )
    cp_parser.add_argument(
        "--tenants", type=_positive_int, default=2,
        help="tenant count; racks are assigned round-robin (default: 2)",
    )
    cp_parser.add_argument(
        "--agents-per-rack", type=_positive_int, default=16,
        help="rack aggregator fan-in (default: 16)",
    )
    cp_parser.add_argument(
        "--racks-per-pod", type=_positive_int, default=4,
        help="pod aggregator fan-in (default: 4)",
    )
    cp_parser.add_argument(
        "--intervals", type=_positive_int, default=6,
        help="monitor intervals to simulate (default: 6)",
    )
    cp_parser.add_argument("--seed", type=int, default=1)
    cp_parser.add_argument(
        "--theta", type=float, default=0.01,
        help="per-tenant KL trigger threshold (default: 0.01)",
    )
    _add_executor(cp_parser)
    cp_parser.add_argument(
        "--shift-tenant", type=int, default=0,
        help="tenant whose traffic matrix shifts mid-run, in "
             "[0, tenants) (default: 0)",
    )
    cp_parser.add_argument(
        "--shift-interval", type=int, default=None,
        help="interval the shift lands on, in [1, intervals): interval 0 "
             "has no earlier FSD to diverge from (default: intervals // 3)",
    )
    cp_parser.add_argument(
        "--shift-elephant", type=float, default=0.40,
        help="post-shift elephant fraction for the shifted tenant "
             "(default: 0.40)",
    )
    cp_parser.add_argument(
        "--no-shift", action="store_true",
        help="run a quiet day: no traffic shift, no triggers",
    )
    cp_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write a report-compatible JSON snapshot of the run to PATH",
    )
    cp_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append a structured JSONL trace of this run to PATH, "
             "pool workers included (default: REPRO_TRACE env)",
    )
    cp_parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="capture a cProfile of this command to PATH",
    )
    cp_parser.set_defaults(func=cmd_controlplane)

    pfc_parser = sub.add_parser(
        "pfc-plan", help="precompute the stable PFC alpha for a fabric"
    )
    pfc_parser.add_argument("--scale", choices=sorted(SPECS), default="medium")
    pfc_parser.add_argument("--buffer-mb", type=_positive_float, default=2.0)
    pfc_parser.set_defaults(func=cmd_pfc_plan)

    env_parser = sub.add_parser(
        "env",
        help="list every REPRO_* environment variable (type, default, "
        "current value)",
    )
    env_parser.add_argument(
        "--markdown", action="store_true",
        help="emit the generated README environment-variable table",
    )
    env_parser.set_defaults(func=cmd_env)

    tel_parser = sub.add_parser(
        "telemetry",
        help="summarize a JSONL trace, diff two traces, or validate schema",
    )
    tel_parser.add_argument(
        "trace_file", nargs="+",
        help="trace file(s): one to summarize, two to diff",
    )
    tel_parser.add_argument(
        "--validate", action="store_true",
        help="check every record against the trace schema and exit",
    )
    tel_parser.add_argument(
        "--top", type=_positive_int, default=10,
        help="span names to show in the self-time table (default: 10)",
    )
    tel_parser.set_defaults(func=cmd_telemetry)

    report_parser = sub.add_parser(
        "report",
        help="render an HTML/markdown run report from a flight recording",
    )
    report_parser.add_argument(
        "recording",
        help="recording snapshot JSON (written by --record PATH)",
    )
    report_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    report_parser.add_argument(
        "--format", choices=("html", "markdown"), default=None,
        help="report format (default: inferred from the --out suffix, "
             "html otherwise)",
    )
    report_parser.add_argument(
        "--trace-file", default=None, metavar="PATH", dest="trace_file",
        help="embed this JSONL trace's span self-time table in the report",
    )
    report_parser.add_argument(
        "--top", type=_positive_int, default=10,
        help="span names to show in the embedded self-time table "
             "(default: 10)",
    )
    report_parser.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None) or env.get("REPRO_TRACE")
    if trace_path:
        trace.configure(trace_path)
    record_path = getattr(args, "record", None)
    if record_path:
        recorder.configure(record_path)
    profile_path = getattr(args, "profile", None)
    try:
        if profile_path:
            from repro.experiments.runner import profile_capture

            with profile_capture(profile_path):
                status = args.func(args)
            echo(f"profile         : {profile_path} "
                 f"(inspect with `python -m pstats {profile_path}`)")
            return status
        return args.func(args)
    finally:
        if record_path:
            recorder.disable()
        if trace_path:
            trace.disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
