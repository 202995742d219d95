"""The four benchmark workloads.

Each workload is a closed loop of identical *bodies*: one generator
process runs the next body only after the previous one returned.
``--seed`` drives every fabric, workload, stream and traffic seed; a
body reads no ``REPRO_*`` variable (``run.py`` refuses to start with
one set), so production defaults are what is measured.

A body calls only public entry points of ``src/repro`` and reads
public attributes of the objects it built itself.  Layers are timed
from outside: :meth:`harness.Probe.wrap` shadows a bound method on one
instance with a span-recording wrapper — for traced bodies only.  The
untraced bodies carry just the two probes the end-to-end metrics need
(interval closed / decision returned).

Sizes are for the 2-vCPU reference box: ~1-3 s per body so that a
20 s run times seven to twenty of them.  ``quick`` sizes are for the
tests.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import BodyOutcome, Probe, percentile

from repro.controlplane import (
    ControlPlaneConfig,
    ControlPlaneService,
    ShardTopology,
    TenantProfile,
    TrafficConfig,
    TrafficShift,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.monitor.agent import SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.monitor.fsd import FlowSizeDistribution
from repro.parallel.executor import SweepExecutor
from repro.parallel.pool import close_shared_pool, get_shared_pool
from repro.parallel.tasks import ScenarioSpec, fct_digest, interval_digest
from repro.simulator.units import mb
from repro.telemetry.registry import get_registry
from repro.tuning.annealing import AnnealingSchedule
from repro.tuning.eval_cache import EvalCache
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

OUT_DIR = Path(__file__).resolve().parent / "out"


def _counters() -> Dict[str, float]:
    return get_registry().snapshot()["counters"]


def _delta(before: Dict[str, float], after: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _sha(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# des-alltoall and loop-influx: build -> install -> ExperimentRunner.run
# ---------------------------------------------------------------------------


class _DesWorkload:
    """One packet-level run per body; subclasses pick fabric and tuner."""

    name: str
    scale: str
    duration: float
    uses_children = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, probe: Probe) -> None:
        """Nothing outlives a body; set-up is the warm-up body alone."""

    def teardown(self) -> None:
        pass

    def install(self, network) -> None:
        raise NotImplementedError

    def make_tuner(self):
        raise NotImplementedError

    def trace_tuner(self, probe: Probe, tuner) -> None:
        """Wrap the layers behind ``tuner`` once ``attach`` built them."""

    def layer_counts(self, tuner, counters_before, counters_after) -> Dict[str, float]:
        return {}

    def failed_intervals(self, result, tuner) -> int:
        return sum(
            1
            for stats, value in zip(result.intervals, result.utilities)
            if stats.dropped_packets or not math.isfinite(value)
        )

    def body(self, probe: Probe) -> BodyOutcome:
        before = _counters()
        network = probe.call(
            "simulator.build", make_network, self.scale, seed=self.seed
        )
        probe.call("workloads.install", self.install, network)
        tuner = self.make_tuner()
        runner = ExperimentRunner(network, tuner)

        probe.wrap(network, "run_until", "simulator.run")
        probe.wrap(network.stats, "end_interval", "simulator.end_interval")
        probe.wrap(network, "set_all_params", "simulator.set_params")
        probe.wrap(tuner, "on_interval", "core.on_interval")
        if probe.tracing:
            attach = tuner.attach

            def traced_attach(net):
                attach(net)
                self.trace_tuner(probe, tuner)

            tuner.attach = traced_attach

        # The two end-to-end probes: monitor interval closed in the
        # data plane -> tuner returned its decision for it.
        closed: List[float] = []
        decisions: List[float] = []
        run_until, on_interval = network.run_until, tuner.on_interval

        def probed_run_until(end_time):
            probe.tick()
            dispatched = run_until(end_time)
            closed.append(probe.now())
            return dispatched

        def probed_on_interval(stats):
            params = on_interval(stats)
            decisions.append(probe.now() - closed[-1])
            return params

        network.run_until = probed_run_until
        tuner.on_interval = probed_on_interval

        result = probe.call("experiments.run", runner.run, self.duration)

        hops = sum(host.egress.link.tx_packets for host in network.hosts) + sum(
            egress.link.tx_packets
            for switch in network.switches
            for egress in switch.egress
        )
        counts = {
            "simulator.builds": 1,
            "simulator.hops": hops,
            "simulator.events": result.events,
            "simulator.compactions": network.sim.telemetry_snapshot()["compactions"],
            "simulator.pfc_pauses": network.total_pfc_pauses(),
            "simulator.ecn_marked": network.total_ecn_marked(),
            "simulator.dropped": result.dropped_packets,
            "simulator.flows_completed": len(result.records),
            "simulator.param_dispatches": result.dispatches,
            "workloads.flows": len(network.flows),
            "core.dispatches": result.dispatches,
        }
        counts.update(self.layer_counts(tuner, before, _counters()))
        failed = self.failed_intervals(result, tuner)
        notes = []
        if result.dropped_packets:
            notes.append(f"{result.dropped_packets} packets dropped in a lossless fabric")
        return BodyOutcome(
            work=hops,
            quality=result.mean_utility(),
            digest=_sha(
                fct_digest(result.records), interval_digest(result.intervals)
            ),
            attempted=self.attempted(result),
            failed=min(failed, self.attempted(result)),
            decisions=decisions,
            counts=counts,
            notes=notes,
        )

    def attempted(self, result) -> int:
        return len(result.intervals)


class DesAllToAll(_DesWorkload):
    """Saturated 16-host all-to-all elephants under a frozen setting."""

    name = "des-alltoall"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.scale = "small" if quick else "medium"
        self.n_workers = 8 if quick else 16
        self.duration = 0.002 if quick else 0.02

    def install(self, network) -> None:
        AllToAllOnce(n_workers=self.n_workers, flow_size=mb(2.0)).install(network)

    def make_tuner(self):
        return StaticTuner(default_params(), "default")

    # One body is the unit an operator would retry here.
    def attempted(self, result) -> int:
        return 1


class LoopInflux(_DesWorkload):
    """Fig. 1/8 in situ: LLM background, Hadoop burst, Paraleon tuning."""

    name = "loop-influx"
    scale = "small"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed)
        self.duration = 0.008 if quick else 0.05
        self.burst_start = 0.003 if quick else 0.015
        self.burst_duration = 0.003 if quick else 0.015

    def install(self, network) -> None:
        # --seed drives the fabric (ECN coin flips, probe peers), which
        # already sends the closed loop down a different trajectory.  The
        # Hadoop burst keeps install_influx's default arrival schedule:
        # 15 ms of heavy-tailed arrivals re-drawn per seed swing the mean
        # utility by +-9 % and the hops by +-9 %, more than any bound
        # this benchmark may set could resolve.
        install_influx(
            network,
            influx_start=self.burst_start,
            influx_duration=self.burst_duration,
        )

    def make_tuner(self):
        return make_tuner("paraleon")

    def trace_tuner(self, probe: Probe, tuner) -> None:
        controller = tuner.controller
        for agent in tuner.agents:
            probe.wrap(agent, "collect", "monitor.agent_collect")
            probe.wrap(agent.sketch, "observe_batch", "sketch.insert")
            probe.wrap(agent.sketch, "read_and_reset_arrays", "sketch.read_reset")
            probe.wrap(agent.classifier, "update_arrays", "monitor.classify")
            probe.wrap(agent.classifier, "snapshot_columns", "monitor.snapshot")
        probe.wrap(controller.aggregator, "collect", "monitor.merge")
        probe.wrap(controller.aggregator, "kl_from_previous", "monitor.kl")
        probe.wrap(controller.annealer, "propose", "tuning.propose")
        probe.wrap(controller.annealer, "feedback", "tuning.feedback")

    def failed_intervals(self, result, tuner) -> int:
        bad_kl = sum(1 for entry in tuner.controller.log if not math.isfinite(entry.kl))
        return super().failed_intervals(result, tuner) + bad_kl

    def layer_counts(self, tuner, before, after) -> Dict[str, float]:
        controller = tuner.controller
        theta = controller.config.theta
        fired = [i for i, entry in enumerate(controller.log) if entry.kl > theta]
        burst_interval = round(self.burst_start / controller.config.monitor_interval)
        after_burst = [i for i in fired if i >= burst_interval]
        aggregator = controller.aggregator
        return {
            "sketch.packets": _delta(before, after, "repro_sketch_batch_packets_total"),
            "sketch.evictions": sum(a.sketch.evictions for a in tuner.agents),
            "sketch.memory_bytes": sum(a.sketch.memory_bytes() for a in tuner.agents),
            "monitor.reports": sum(a.reports_made for a in tuner.agents),
            "monitor.tracked_flows": sum(
                r.tracked_flows for r in aggregator.last_reports
            ),
            "monitor.upload_bytes": aggregator.upload_bytes_per_interval(),
            "monitor.kl_triggers": len(fired),
            "monitor.trigger_lag_intervals": (
                after_burst[0] - burst_interval if after_burst else -1
            ),
            "tuning.sa_steps": _delta(before, after, "repro_sa_steps_total"),
            "tuning.sa_accepts": _delta(before, after, "repro_sa_accepts_total"),
            "core.kl_triggers": (
                controller.tuning_processes_started
                + controller.tuning_processes_restarted
            ),
            "core.restarts": controller.tuning_processes_restarted,
        }


# ---------------------------------------------------------------------------
# monitor-stream: sketch + monitor at full size, simulator never run
# ---------------------------------------------------------------------------


class MonitorStream:
    """Four real ToR agents fed a seeded packet stream with a mid-stream shift."""

    name = "monitor-stream"
    uses_children = False
    n_agents = 4
    heavy_ids = 16
    chunk = 4096
    tau = mb(1.0)
    delta = 3
    theta = 0.01

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.intervals = 18 if quick else 48
        # A third of the way in, not half: with two equal phases the
        # median report would sit in the gap between their two costs.
        self.shift = self.intervals // 3
        self.packets = 2048 if quick else 8192   # per agent per interval
        self.mice_ids = (1024, 128) if quick else (4096, 512)
        self.heavy_share = (0.3, 0.8)
        self.stream: List[List[tuple]] = []
        self.truth: List[FlowSizeDistribution] = []
        self.stream_digest = ""

    def setup(self, probe: Probe) -> None:
        """Generate the stream and its per-interval ground truth."""
        rng = np.random.default_rng(self.seed)
        span = self.heavy_ids + self.mice_ids[0]   # id space of one agent
        cumulative = np.zeros(self.n_agents * span, dtype=np.int64)
        last_active = np.full(cumulative.size, -self.delta, dtype=np.int64)
        digest = hashlib.sha256()
        self.stream, self.truth = [], []
        for t in range(self.intervals):
            phase = 0 if t < self.shift else 1
            row = []
            for agent in range(self.n_agents):
                heavy = rng.random(self.packets) < self.heavy_share[phase]
                ids = agent * span + np.where(
                    heavy,
                    rng.integers(0, self.heavy_ids, self.packets),
                    self.heavy_ids + rng.integers(0, self.mice_ids[phase], self.packets),
                )
                nbytes = np.where(
                    heavy, 1024, rng.integers(64, 1024, self.packets)
                ).astype(np.int64)
                ids = ids.astype(np.int64)
                digest.update(ids.tobytes())
                digest.update(nbytes.tobytes())
                row.append((ids, nbytes))
                cumulative += np.bincount(ids, weights=nbytes, minlength=cumulative.size).astype(np.int64)
                last_active[np.unique(ids)] = t
            self.stream.append(row)
            # Truth mirrors the classifier's horizon: a flow silent for
            # delta intervals has expired; the rest split at tau.
            live = last_active > t - self.delta
            elephants = int(np.count_nonzero(live & (cumulative >= self.tau)))
            self.truth.append(
                FlowSizeDistribution(
                    elephant_weight=float(elephants),
                    mice_weight=float(np.count_nonzero(live) - elephants),
                )
            )
        self.stream_digest = digest.hexdigest()

    def teardown(self) -> None:
        self.stream, self.truth = [], []

    def body(self, probe: Probe) -> BodyOutcome:
        before = _counters()
        network = probe.call("simulator.build", make_network, "medium", seed=self.seed)
        with probe.span("monitor.agent_build"):
            agents = [
                SwitchAgent(tor, tau=self.tau, delta=self.delta)
                for tor in network.tors[: self.n_agents]
            ]
            aggregator = FsdAggregator(agents)
        for agent in agents:
            probe.wrap(agent, "collect", "monitor.agent_collect")
            probe.wrap(agent.sketch, "observe_batch", "sketch.insert")
            probe.wrap(agent.sketch, "read_and_reset_arrays", "sketch.read_reset")
            probe.wrap(agent.classifier, "update_arrays", "monitor.classify")
            probe.wrap(agent.classifier, "snapshot_columns", "monitor.snapshot")
        probe.wrap(aggregator, "collect", "monitor.merge")
        probe.wrap(aggregator, "kl_from_previous", "monitor.kl")

        reports: List[float] = []
        kls: List[float] = []
        accuracy: List[float] = []
        merged_digest = hashlib.sha256()
        for t, row in enumerate(self.stream):
            probe.tick()
            for agent, (ids, nbytes) in zip(agents, row):
                observe = agent.sketch.observe_batch
                for lo in range(0, self.packets, self.chunk):
                    observe(ids[lo : lo + self.chunk], nbytes[lo : lo + self.chunk])
            closed = probe.now()
            merged = aggregator.collect(t * 1e-3)
            kl = aggregator.kl_from_previous()
            reports.append(probe.now() - closed)
            kls.append(kl)
            accuracy.append(merged.distribution_accuracy(self.truth[t]))
            merged_digest.update(
                repr((merged.elephant_weight, merged.mice_weight, merged.histogram)).encode()
            )

        after = _counters()
        steady = kls[self.delta + 1 : self.shift]
        peak = max(kls[self.shift : self.shift + self.delta + 1])
        fired = [t for t, kl in enumerate(kls) if kl > self.theta]
        after_shift = [t for t in fired if t >= self.shift]
        notes = []
        if not peak > percentile(steady, 0.95):
            notes.append(
                f"KL peak {peak:.4g} within {self.delta} intervals of the shift "
                f"does not exceed the steady-state p95 {percentile(steady, 0.95):.4g}"
            )
        counts = {
            "simulator.builds": 1,
            "sketch.packets": _delta(before, after, "repro_sketch_batch_packets_total"),
            "sketch.evictions": sum(a.sketch.evictions for a in agents),
            "sketch.memory_bytes": sum(a.sketch.memory_bytes() for a in agents),
            "monitor.reports": sum(a.reports_made for a in agents),
            "monitor.tracked_flows": sum(
                r.tracked_flows for r in aggregator.last_reports
            ),
            "monitor.upload_bytes": aggregator.upload_bytes_per_interval(),
            "monitor.kl_triggers": len(fired),
            "monitor.trigger_lag_intervals": (
                after_shift[0] - self.shift if after_shift else -1
            ),
        }
        bad = sum(
            1 for kl, acc in zip(kls, accuracy)
            if not (math.isfinite(kl) and math.isfinite(acc))
        )
        return BodyOutcome(
            work=self.n_agents * self.packets * self.intervals,
            quality=sum(accuracy) / len(accuracy),
            digest=_sha(self.stream_digest, merged_digest.hexdigest()),
            attempted=self.intervals,
            failed=bad,
            decisions=reports,
            counts=counts,
            notes=notes,
        )


# ---------------------------------------------------------------------------
# cp-day: 1024-ToR control plane, cold retune then cache replay
# ---------------------------------------------------------------------------


class CpDay:
    """Shift -> hierarchical FSD -> tenant KL -> multiplexed SA -> dispatch.

    One body is one cache life-cycle: a *cold* day on an empty eval
    cache (the SA evaluations run on the worker pool), ``cache.save()``,
    then a *warm* day on a fresh service with the cache reloaded (every
    evaluation replays from it).
    """

    name = "cp-day"
    uses_children = True

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.jobs = min(2, os.cpu_count() or 1)
        self.shift = 2 if quick else 8
        topology = (
            ShardTopology(n_shards=4, agents_per_shard=8, agents_per_rack=8, racks_per_pod=2)
            if quick
            else ShardTopology(n_shards=32, agents_per_shard=32, agents_per_rack=16, racks_per_pod=4)
        )
        # Table III temperatures and cooling; two iterations per level
        # (Table III: 20) so a cold retune is ~30 evaluations and fits
        # a run several times.
        schedule = (
            AnnealingSchedule(initial_temp=90.0, final_temp=50.0, cooling_rate=0.6, iterations_per_temp=2)
            if quick
            else AnnealingSchedule(iterations_per_temp=2)
        )
        self.config = ControlPlaneConfig(
            topology=topology,
            traffic=TrafficConfig(
                seed=seed,
                shifts=(TrafficShift(0, self.shift, TenantProfile(0.40, 0.10)),),
            ),
            intervals=6 if quick else 24,
            scenario=ScenarioSpec(
                workload="alltoall",
                duration=0.003 if quick else 0.02,
                n_workers=4,
                stop_on_completion=True,
                seed=seed,
                workload_seed=seed,
            ),
            batch_size=4,
            schedule=schedule,
        )
        self.tmp: Optional[Path] = None
        self.pool_spawn_s = 0.0
        self.strategies: set = set()
        self._bodies = 0

    def setup(self, probe: Probe) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cp-day-", dir=OUT_DIR))
        if self.jobs > 1:
            start = probe.now()
            pool = get_shared_pool(self.jobs)
            self.pool_spawn_s = probe.now() - start
            probe.wrap(pool, "run", "parallel.pool_run", always=True)

    def teardown(self) -> None:
        close_shared_pool()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _day(self, probe: Probe, cache_path: Path) -> dict:
        cache = probe.call("tuning.cache_load", EvalCache, cache_path)
        executor = SweepExecutor(jobs=self.jobs, cache=cache)
        service = ControlPlaneService(self.config, executor)

        probe.wrap(cache, "get", "tuning.cache_get")
        probe.wrap(cache, "put", "tuning.cache_put")
        probe.wrap(executor, "map", "parallel.map")
        probe.wrap(service.aggregator, "begin_interval", "controlplane.aggregate")
        probe.wrap(service.aggregator, "ingest", "controlplane.aggregate")
        probe.wrap(service.aggregator, "aggregate", "controlplane.aggregate")
        probe.wrap(service.triggers, "observe", "controlplane.trigger")
        probe.wrap(service.tuner, "trigger", "controlplane.tuner")
        probe.wrap(service.tuner, "step", "controlplane.tuner")

        # End-to-end probes: every executor.map result, and the clock
        # at every tuner.step return (= the end of one interval).
        evaluations: list = []
        tasks_mapped = [0]
        executor_map, tuner_step = executor.map, service.tuner.step

        def probed_map(tasks):
            results = executor_map(tasks)
            tasks_mapped[0] += len(results)
            evaluations.extend(r for r in results if not r.from_cache)
            self.strategies.add(executor.last_strategy)
            return results

        step_end: List[float] = []
        finished_at: List[int] = []

        def probed_step(interval):
            finished = tuner_step(interval)
            if finished:
                finished_at.append(len(step_end))
            step_end.append(probe.now())
            probe.tick()
            return finished

        executor.map = probed_map
        service.tuner.step = probed_step

        start = probe.now()
        result = probe.call("controlplane.run", service.run)
        edges = [start] + step_end
        return {
            "result": result,
            "cache": cache,
            "evaluations": evaluations,
            "tasks": tasks_mapped[0],
            "interval_s": [b - a for a, b in zip(edges, edges[1:])],
            "retune_s": (
                edges[finished_at[0] + 1] - edges[self.shift] if finished_at else None
            ),
        }

    def _check_day(self, label: str, day: dict, notes: List[str]) -> None:
        result = day["result"]
        triggers = [(t.tenant, t.interval) for o in result.outcomes for t in o.triggers]
        if triggers != [(0, self.shift)]:
            notes.append(f"{label} day fired triggers {triggers}, expected [(0, {self.shift})]")
        if len(result.retunes) != 1 or result.retunes[0].tenant != 0:
            notes.append(f"{label} day finished {len(result.retunes)} retunes, expected one for tenant 0")

    def body(self, probe: Probe) -> BodyOutcome:
        before = _counters()
        self._bodies += 1
        cache_path = self.tmp / f"cache-{self._bodies}.json"
        cold = self._day(probe, cache_path)
        probe.call("tuning.cache_save", cold["cache"].save)
        warm = self._day(probe, cache_path)
        cache_path.unlink()
        after = _counters()

        notes: List[str] = []
        self._check_day("cold", cold, notes)
        self._check_day("warm", warm, notes)
        cold_result, warm_result = cold["result"], warm["result"]
        if warm_result.result_digest() != cold_result.result_digest():
            notes.append("warm day's result_digest differs from the cold day's")
        if cold["cache"].hits or warm["cache"].misses:
            notes.append(
                f"cache: {cold['cache'].hits} hits cold, "
                f"{warm['cache'].misses} misses warm; expected 0 and 0"
            )
        retried = _delta(before, after, "repro_executor_retried_chunks_total")
        bad = sum(
            1 for r in cold["evaluations"]
            if r.dropped_packets or not math.isfinite(r.utility)
        )
        if bad:
            notes.append(f"{bad} evaluations dropped packets or scored a non-finite utility")
        if retried:
            notes.append(f"{retried:.0f} chunks retried after a worker failure")

        retune = cold_result.retunes[0] if cold_result.retunes else None
        done = len(cold["evaluations"])
        measured = {
            "simulator.eval_run_s": sum(r.wall_time for r in cold["evaluations"]),
            "parallel.stolen_chunks": _delta(before, after, "repro_executor_steals_total"),
            "parallel.pool_spawn_s": self.pool_spawn_s,
        }
        counts = {
            "simulator.eval_events": sum(r.events for r in cold["evaluations"]),
            "tuning.sa_steps": _delta(before, after, "repro_sa_steps_total"),
            "tuning.sa_accepts": _delta(before, after, "repro_sa_accepts_total"),
            "tuning.cache_hits": cold["cache"].hits + warm["cache"].hits,
            "tuning.cache_misses": cold["cache"].misses + warm["cache"].misses,
            "tuning.cache_hit_ratio": warm["cache"].hit_rate,
            "parallel.tasks": cold["tasks"] + warm["tasks"],
            "parallel.pool_tasks": _delta(before, after, "repro_executor_pool_tasks_total"),
            "parallel.retried_chunks": retried,
            "parallel.jobs": self.jobs,
            "controlplane.intervals": len(cold_result.outcomes) + len(warm_result.outcomes),
            "controlplane.triggers": sum(
                len(o.triggers) for r in (cold_result, warm_result) for o in r.outcomes
            ),
            "controlplane.retunes": len(cold_result.retunes) + len(warm_result.retunes),
            "controlplane.retune_intervals": (
                retune.finished_interval - retune.trigger_interval + 1 if retune else 0
            ),
            "controlplane.tier_bytes": (
                cold_result.agent_rack_bytes
                + cold_result.rack_pod_bytes
                + cold_result.pod_global_bytes
            ),
            "controlplane.param_update_bytes": cold_result.param_update_bytes,
        }
        return BodyOutcome(
            work=done,
            quality=retune.utility if retune else 0.0,
            digest=cold_result.result_digest(),
            attempted=max(done, 1),
            failed=min(done, bad + int(retried)),
            decisions=cold["interval_s"] + warm["interval_s"],
            counts=counts,
            work_window=cold["retune_s"],
            measured=measured,
            notes=notes,
        )


WORKLOADS = {w.name: w for w in (DesAllToAll, LoopInflux, MonitorStream, CpDay)}
