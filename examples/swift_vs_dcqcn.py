#!/usr/bin/env python3
"""Related-work demo: DCQCN vs Swift-style delay-based CC (Section VI).

The paper targets DCQCN because it is the deployed de-facto standard,
but notes that RTT-based schemes (TIMELY, Swift) face the same tuning
problem and that Paraleon's philosophy applies to them too.  This
example runs the same incast under both congestion controllers and
shows the classic contrast: DCQCN's ECN-driven AIMD collapses and
recovers slowly at default parameters, while Swift's delay target
converges quickly — which is precisely *why* DCQCN parameter tuning
matters so much.

Each run goes through :class:`~repro.experiments.runner.ExperimentRunner`
with the flight recorder on; the peak queue and the mean QP rate
trajectory are read from the recording's ``switches.*.queue_bytes``
and ``qp.rate_mean`` series (one sample per 1 ms monitor interval).

Run:  python examples/swift_vs_dcqcn.py
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentRunner
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import mb, ms
from repro.telemetry import recorder
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner

SPEC = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=4)
SENDERS = (0, 1, 2)
RECEIVER = 4
FLOW_SIZE = mb(2.0)


def run(cc: str) -> None:
    network = Network(NetworkConfig(spec=SPEC, cc=cc, seed=2))
    flows = [network.add_flow(s, RECEIVER, FLOW_SIZE, 0.0) for s in SENDERS]
    runner = ExperimentRunner(
        network, StaticTuner(default_params(), "default"),
        monitor_interval=ms(1.0),
    )
    recorder.configure()  # no path: the snapshot comes back on the result
    try:
        recording = runner.run(ms(120.0)).recording
    finally:
        recorder.disable()

    print(f"\n=== {cc.upper()} ===")
    ideal = len(SENDERS) * FLOW_SIZE * 8 / SPEC.host_rate_bps * 1e3
    for flow in flows:
        status = f"{flow.fct() * 1e3:6.2f} ms" if flow.completed else "stalled"
        print(f"  flow {flow.src}->{flow.dst}: {status}")
    done = [f.fct() for f in flows if f.completed]
    if len(done) == len(flows):
        efficiency = ideal / (max(done) * 1e3) * 100
        print(f"  3-share ideal {ideal:.1f} ms -> efficiency {efficiency:.0f}%")
    print(f"  ECN marks: {network.total_ecn_marked()}, "
          f"PFC pauses: {network.total_pfc_pauses()}, "
          f"drops: {network.total_dropped_packets()}")
    peak = max(
        max(series["queue_bytes"], default=0)
        for series in recording["switches"].values()
    )
    print(f"  peak queue: {peak // 1000} KB")

    # Mean QP rate while any QP is active.
    points = [
        (t, rate)
        for t, n, rate in zip(
            recording["time"], recording["qp"]["n"], recording["qp"]["rate_mean"]
        )
        if n
    ]
    if points:
        shown = "  ".join(
            f"({t * 1e3:.0f}ms,{r / 1e9:.2f}G)" for t, r in points[::3][:10]
        )
        print(f"  mean QP rate trajectory: {shown}")


def main() -> None:
    print(
        f"{len(SENDERS)}-to-1 incast, {FLOW_SIZE // mb(1)} MB per flow, "
        f"{SPEC.host_rate_bps / 1e9:.0f} Gbps fabric"
    )
    run("dcqcn")
    run("swift")
    print(
        "\nDCQCN's slow recovery at default parameters is the paper's "
        "motivation; Swift's delay target sidesteps it but brings its "
        "own tuning surface (target delay, AI step, beta)."
    )


if __name__ == "__main__":
    main()
