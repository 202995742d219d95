"""Canonical topologies, workloads and scheme factories per figure.

Every benchmark builds its scenario through this module so that the
comparisons across schemes are apples-to-apples: same fabric, same
seeds, same workload schedule — only the tuner differs.

Scale classes (see DESIGN.md §5 for the scale-down policy):

* ``small``  —  8 hosts, 2 ToR / 1 spine (fast unit/integration tests);
* ``medium`` — 16 hosts, 4 ToR / 2 spine, 2:1 oversubscription (the
  default benchmark fabric);
* ``large``  — 32 hosts, 8 ToR / 4 spine, the paper's switch counts at
  reduced host fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines import (
    AccTuner,
    DcqcnPlusTuner,
    default_tuner,
    expert_tuner,
    pretrained_tuner,
)
from repro.core import MonitorKind, ParaleonConfig, ParaleonSystem
from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import SPECS
from repro.simulator.units import mb, ms
from repro.tuning.grid import GridSearchTuner
from repro.tuning.search import Tuner
from repro.tuning.utility import THROUGHPUT_SENSITIVE_WEIGHTS
from repro.workloads import (
    FbHadoopWorkload,
    LlmTrainingWorkload,
    SolarRpcWorkload,
)

# SPECS (the named scale classes) now lives with the topology code in
# repro.simulator.topology; the import above keeps this module the
# public home for scenario construction.


def make_network(
    scale: str = "medium",
    seed: int = 1,
    params: Optional[DcqcnParams] = None,
) -> Network:
    """A fresh fabric of the requested scale class."""
    spec = SPECS[scale]
    if params is not None:
        config = NetworkConfig(spec=spec, seed=seed, params=params)
    else:
        config = NetworkConfig(spec=spec, seed=seed)
    return Network(config)


# ---------------------------------------------------------------------------
# Scheme factories — new tuner instance per call (they hold state)
# ---------------------------------------------------------------------------

SCHEME_FACTORIES: Dict[str, Callable[[], Tuner]] = {
    "default": default_tuner,
    "expert": expert_tuner,
    "acc": AccTuner,
    "dcqcn+": DcqcnPlusTuner,
    "pretrained-llm": lambda: pretrained_tuner("llm"),
    "pretrained-hadoop": lambda: pretrained_tuner("hadoop"),
    "paraleon": lambda: ParaleonSystem(),
    # The paper's prescribed weighting for throughput-sensitive
    # workloads such as LLM training: (w_TP, w_RTT, w_PFC) = (.5,.2,.3).
    "paraleon-tp": lambda: ParaleonSystem(
        config=ParaleonConfig(weights=THROUGHPUT_SENSITIVE_WEIGHTS),
        name="Paraleon",
    ),
    "paraleon-naive-sa": lambda: ParaleonSystem(
        annealer="naive", name="naive_SA"
    ),
    # Section III-C's foil: exhaustive search, optimal but untimely.
    "grid-search": GridSearchTuner,
    "paraleon-no-fsd": lambda: ParaleonSystem(
        monitor=MonitorKind.NONE, name="No FSD"
    ),
    "paraleon-netflow": lambda: ParaleonSystem(
        monitor=MonitorKind.NETFLOW, name="NetFlow"
    ),
    "paraleon-naive-sketch": lambda: ParaleonSystem(
        monitor=MonitorKind.NAIVE_SKETCH, name="Elastic Sketch"
    ),
}

#: The Fig. 7/8 head-to-head set.
MAIN_SCHEMES: List[str] = ["default", "expert", "acc", "dcqcn+", "paraleon"]


def make_tuner(scheme: str) -> Tuner:
    try:
        return SCHEME_FACTORIES[scheme]()
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Workload scenario builders
# ---------------------------------------------------------------------------


def install_hadoop(
    network: Network,
    load: float = 0.3,
    duration: float = 0.05,
    seed: int = 42,
    start: float = 0.0,
) -> FbHadoopWorkload:
    """The FB_Hadoop scenario of Fig. 7(a)/(b) and Fig. 10/11."""
    workload = FbHadoopWorkload(
        load=load, duration=duration, seed=seed, start=start
    )
    workload.install(network)
    return workload


def install_llm(
    network: Network,
    n_workers: int = 8,
    flow_size: int = mb(2.0),
    off_period: float = ms(10.0),
    start: float = 0.0,
    max_rounds: Optional[int] = None,
) -> LlmTrainingWorkload:
    """The ON-OFF alltoall scenario of Fig. 7(c)/(d) and Fig. 13."""
    workload = LlmTrainingWorkload(
        n_workers=n_workers,
        flow_size=flow_size,
        off_period=off_period,
        start=start,
        max_rounds=max_rounds,
    )
    workload.install(network)
    return workload


@dataclass
class InfluxScenario:
    """Fig. 8/9: LLM training background + an FB_Hadoop burst."""

    llm: LlmTrainingWorkload
    hadoop: FbHadoopWorkload
    influx_start: float
    influx_duration: float


def install_influx(
    network: Network,
    influx_start: float = 0.03,
    influx_duration: float = 0.03,
    llm_workers: int = 8,
    llm_flow_size: int = mb(2.0),
    hadoop_load: float = 0.3,
    seed: int = 42,
) -> InfluxScenario:
    llm = install_llm(
        network, n_workers=llm_workers, flow_size=llm_flow_size,
        off_period=ms(5.0),
    )
    hadoop = FbHadoopWorkload(
        load=hadoop_load,
        duration=influx_duration,
        seed=seed,
        start=influx_start,
        tag="hadoop-influx",
    )
    hadoop.install(network)
    return InfluxScenario(llm, hadoop, influx_start, influx_duration)


@dataclass
class TestbedDynamicsScenario:
    """Fig. 14: alltoall background + a SolarRPC burst."""

    llm: LlmTrainingWorkload
    solar: SolarRpcWorkload
    burst_start: float
    burst_duration: float


def install_testbed_dynamics(
    network: Network,
    burst_start: float = 0.03,
    burst_duration: float = 0.03,
    llm_workers: int = 8,
    llm_flow_size: int = mb(2.0),
    rpc_rate_per_host: float = 3000.0,
    seed: int = 42,
) -> TestbedDynamicsScenario:
    llm = install_llm(
        network, n_workers=llm_workers, flow_size=llm_flow_size,
        off_period=ms(5.0),
    )
    solar = SolarRpcWorkload(
        rate_per_host=rpc_rate_per_host,
        start=burst_start,
        duration=burst_duration,
        seed=seed,
    )
    solar.install(network)
    return TestbedDynamicsScenario(llm, solar, burst_start, burst_duration)
