"""Vectorized fluid-model surrogate of the DCQCN fabric.

The discrete-event simulator charges one full packet-level run per
candidate evaluation — the dominant cost of every offline tuning loop.
This module trades packet fidelity for speed: it integrates the DCQCN
*fluid* equations (Zhu et al., SIGCOMM 2015, §4) for a population of
identical greedy flows sharing one bottleneck, stepped at a fixed
sub-interval ``dt`` and aggregated per monitor interval, producing the
same ``O_TP/O_RTT/O_PFC`` objective terms the utility function
(Equation 1) consumes.

Two properties make it useful as a *screening* fidelity:

* **Vectorized over candidates** — the rate/queue/alpha state is held
  in numpy arrays with one lane per candidate parameter set, so a
  whole SA batch (or a full parameter grid) is scored in a handful of
  array sweeps.  Scoring hundreds of candidates costs about as much as
  scoring one, which is where the 100-1000x speedup over the DES comes
  from.
* **Deterministic** — the model is a closed-form integration with no
  randomness, so a screening decision is reproducible bit-for-bit and
  never perturbs the digests of the full-fidelity runs that follow.

The model is *approximate in level but faithful in shape*: absolute
utilities drift from the DES (no packet quantization, no ECMP
collisions, one bottleneck instead of a fabric), but the monotone
response to the tuned knobs — deeper ECN thresholds buy throughput and
cost RTT, aggressive marking does the reverse, slower cuts and faster
increases push the operating point up the queue — is preserved, which
is all a *ranking* screen needs.  :class:`FluidCalibration` is an
affine fit of fluid scores to DES utilities on the candidates measured
at both fidelities; a screened sweep reports its screened-out points
on the calibrated scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.topology import SPECS
from repro.simulator.units import DEFAULT_MTU, HEADER_BYTES, mb

#: Integration sub-step.  DCQCN's fastest time constants (alpha timer
#: 55 us, CNP pacing 50 us) need a few samples each; 10 us keeps the
#: integration stable over the whole tuning space while a 1 ms monitor
#: interval still costs only 100 vector steps.
DEFAULT_DT = 10e-6

#: Shared-buffer size assumed for the PFC term; matches the default
#: :class:`repro.simulator.switch.SwitchConfig`.
DEFAULT_BUFFER_BYTES = mb(2.0)
DEFAULT_PFC_ALPHA = 1.0 / 8.0


@dataclass
class FluidResult:
    """Per-interval objective terms from one fluid integration."""

    o_tp: List[float]
    o_rtt: List[float]
    o_pfc: List[float]
    utilities: List[float]
    utility: float                      # mean over all intervals
    steps: int                          # integration sub-steps taken

    def mean_utility(self, skip: int = 0) -> float:
        values = self.utilities[skip:]
        return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class TrafficProfile:
    """Per-interval bottleneck load for the fluid integration.

    ``flows[i]`` is the number of greedy flows sharing the bottleneck
    during interval ``i`` and ``active_frac[i]`` the fraction of the
    interval they are present (bursty workloads load the link in
    episodes, not continuously).  Zero flows model idle/OFF intervals.
    """

    capacity_bps: float
    base_rtt: float
    n_intervals: int
    monitor_interval: float
    flows: Tuple[float, ...]
    active_frac: Tuple[float, ...]
    buffer_bytes: float = DEFAULT_BUFFER_BYTES
    pfc_alpha: float = DEFAULT_PFC_ALPHA
    mtu_wire: int = DEFAULT_MTU + HEADER_BYTES


def _interval_count(duration: float, monitor_interval: float) -> int:
    """Number of monitor intervals the runner closes for ``duration``.

    Mirrors :meth:`repro.experiments.runner.ExperimentRunner.run`:
    intervals are closed while ``now < end - 1e-12`` with the last one
    clamped to ``end``.
    """
    return max(1, int(math.ceil(duration / monitor_interval - 1e-9)))


def profile_for_scenario(spec) -> TrafficProfile:
    """Derive a deterministic bottleneck profile from a scenario spec.

    ``spec`` is a :class:`repro.parallel.tasks.ScenarioSpec` (accepted
    structurally to avoid an import cycle into the parallel package).
    The mapping is deliberately coarse — a single bottleneck with a
    per-interval flow count — because screening only needs the
    candidate *ranking* to survive, and the ranking is produced by the
    DCQCN dynamics, not by topology detail.
    """
    clos = SPECS[spec.scale]
    capacity = clos.host_rate_bps
    # Representative inter-ToR pair: worst-case base RTT.
    base_rtt = clos.base_rtt(0, clos.n_hosts - 1)
    n_intervals = _interval_count(spec.duration, spec.monitor_interval)
    interval = spec.monitor_interval

    flows = [0.0] * n_intervals
    frac = [0.0] * n_intervals

    if spec.workload == "hadoop":
        # Poisson arrivals at offered load rho: congestion arrives in
        # episodes (several flows collide on a downlink / shared
        # uplink).  Model each loaded interval as an episode of
        # ``n_eff`` greedy flows active for a load-dependent fraction.
        active_end = spec.workload_duration or spec.duration * 0.6
        load = min(max(spec.load, 0.0), 1.0)
        n_eff = max(2.0, round(clos.hosts_per_tor * max(load, 0.25) * 2))
        episode = min(1.0, 0.35 + load)
        # One interval of drain past the arrival window.
        drain_until = active_end + interval
        for i in range(n_intervals):
            t_mid = (i + 0.5) * interval
            if t_mid < active_end:
                flows[i] = n_eff
                frac[i] = episode
            elif t_mid < drain_until:
                flows[i] = max(1.0, n_eff / 2.0)
                frac[i] = episode / 2.0
    elif spec.workload in ("alltoall", "llm"):
        # n_workers peers, each uplink/downlink carrying ~(n-1) flows
        # of ``flow_size`` bytes.  The phase ends when the slowest flow
        # drains; past that the fabric is idle (one-shot alltoall) or
        # in an OFF period (llm) — either way the bottleneck is empty.
        n = max(2, int(spec.n_workers))
        per_link = float(n - 1)
        total_bytes = per_link * spec.flow_size
        drain_time = total_bytes * 8.0 / capacity
        if spec.workload == "llm":
            # ON-OFF rounds: off period defaults to 10 ms in the
            # installer; approximate the duty cycle.
            round_len = drain_time + 10e-3
            for i in range(n_intervals):
                t_mid = (i + 0.5) * interval
                phase = t_mid % round_len if round_len > 0 else 0.0
                if phase < drain_time:
                    flows[i] = per_link
                    frac[i] = 1.0
        else:
            for i in range(n_intervals):
                t_mid = (i + 0.5) * interval
                if t_mid < drain_time:
                    flows[i] = per_link
                    frac[i] = 1.0
    elif spec.workload == "influx":
        # LLM background with a hadoop burst riding on top.
        n = max(2, int(spec.n_workers))
        start = spec.influx_start or spec.duration * 0.3
        burst = spec.influx_duration or spec.duration * 0.3
        for i in range(n_intervals):
            t_mid = (i + 0.5) * interval
            flows[i] = float(n - 1)
            frac[i] = 0.6
            if start <= t_mid < start + burst:
                flows[i] += max(2.0, clos.hosts_per_tor)
                frac[i] = 1.0
    else:
        raise ValueError(
            f"the fluid model has no profile for workload {spec.workload!r}"
        )

    return TrafficProfile(
        capacity_bps=capacity,
        base_rtt=base_rtt,
        n_intervals=n_intervals,
        monitor_interval=interval,
        flows=tuple(flows),
        active_frac=tuple(frac),
    )


def _param_arrays(params: Sequence[DcqcnParams]) -> dict:
    """Column-stack the tuned fields of a candidate batch."""
    names = (
        "rpg_ai_rate", "rpg_hai_rate", "rpg_time_reset", "rpg_byte_reset",
        "rpg_threshold", "rpg_min_rate", "rate_reduce_monitor_period",
        "min_dec_fac", "dce_tcp_g", "dce_tcp_rtt", "initial_alpha",
        "min_time_between_cnps", "k_min", "k_max", "p_max",
    )
    return {
        name: np.array([float(getattr(p, name)) for p in params])
        for name in names
    }


def fluid_rate_cols(p: dict, dt: float) -> dict:
    """Derived per-lane parameter columns for :func:`fluid_rate_step`.

    ``p`` is the output of :func:`_param_arrays` (one column per tuned
    field, one row per lane).  Time constants are floored at ``dt`` so
    a single integration step never overshoots a whole timer period.
    """
    return {
        "g": p["dce_tcp_g"],
        "t_alpha": np.maximum(p["dce_tcp_rtt"], dt),
        "rrmp": np.maximum(p["rate_reduce_monitor_period"], dt),
        "cnp_gap": np.maximum(p["min_time_between_cnps"], dt),
        "thr": p["rpg_threshold"],
        "cut_factor_floor": 1.0 - p["min_dec_fac"],
        "r_min": p["rpg_min_rate"],
        "ai": p["rpg_ai_rate"],
        "hai": p["rpg_hai_rate"],
        "byte_reset_bits": p["rpg_byte_reset"] * 8.0,
        "time_reset": p["rpg_time_reset"],
    }


def fluid_rate_step(
    rc: np.ndarray,
    rt: np.ndarray,
    alpha: np.ndarray,
    byte_stage: np.ndarray,
    time_stage: np.ndarray,
    incr_iter: np.ndarray,
    mark_p: np.ndarray,
    line_rate,
    dt: float,
    mtu_bits: float,
    cols: dict,
):
    """One Euler step of the DCQCN fluid equations (Zhu et al. §4).

    Advances the per-lane RP state given each lane's current ECN
    marking probability ``mark_p``.  This is the inner loop of the
    candidate surrogate (:class:`FluidModel`); the op sequence below is
    its reference dynamics and must not be reordered (screening results
    are digest-compared across refactors).

    Returns the updated ``(rc, rt, alpha, byte_stage, time_stage,
    incr_iter)`` arrays.
    """
    g = cols["g"]
    t_alpha = cols["t_alpha"]

    # Per-flow marked-packet rate -> CNP rate (paced).
    pkt_rate = rc / mtu_bits
    mark_rate = mark_p * pkt_rate
    cnp_rate = np.minimum(mark_rate, 1.0 / cols["cnp_gap"])

    # Alpha: rise g(1-alpha) per CNP; decay (1-g) per idle
    # alpha-timer period, weighted by P(no CNP in period).
    p_quiet = np.exp(-np.minimum(cnp_rate * t_alpha, 50.0))
    alpha = alpha + g * (1.0 - alpha) * cnp_rate * dt
    alpha = alpha - g * alpha * p_quiet * dt / t_alpha
    # minimum(maximum(...)) == clip value-for-value; the raw ufuncs
    # skip np.clip's dispatch overhead, which dominates on the few
    # candidate lanes a screen steps thousands of times per profile.
    alpha = np.minimum(np.maximum(alpha, 0.0), 1.0)

    # Rate cuts: at most one per monitor period; renewal rate
    # 1/(rrmp + mean CNP interarrival).  The inner maximum() keeps the
    # division finite, so no errstate guard is needed.
    cut_rate = np.where(
        cnp_rate > 1e-12,
        1.0 / (cols["rrmp"] + 1.0 / np.maximum(cnp_rate, 1e-12)),
        0.0,
    )
    cuts = np.minimum(np.maximum(cut_rate * dt, 0.0), 1.0)
    factor = np.maximum(1.0 - alpha / 2.0, cols["cut_factor_floor"])
    rt = rt * (1.0 - cuts) + rc * cuts
    rc = rc * (1.0 - cuts + cuts * factor)
    rc = np.maximum(rc, cols["r_min"])
    byte_stage = byte_stage * (1.0 - cuts)
    time_stage = time_stage * (1.0 - cuts)
    incr_iter = incr_iter * (1.0 - cuts)

    # Rate increase: byte-counter and timer stages.
    byte_stage = byte_stage + rc * dt / cols["byte_reset_bits"]
    time_stage = time_stage + dt / cols["time_reset"]
    ev = rc / cols["byte_reset_bits"] + 1.0 / cols["time_reset"]
    ev_dt = ev * dt
    hi = np.maximum(byte_stage, time_stage)
    lo = np.minimum(byte_stage, time_stage)
    additive = (hi >= cols["thr"]) & (lo < cols["thr"])
    hyper = lo >= cols["thr"]
    rt = rt + additive * cols["ai"] * ev_dt
    incr_iter = np.where(hyper, incr_iter + ev_dt, incr_iter)
    rt = rt + hyper * incr_iter * cols["hai"] * ev_dt
    rt = np.minimum(rt, line_rate)
    # Fast recovery toward rt on every increase event.
    rc = rc + (rt - rc) * np.minimum(np.maximum(0.5 * ev_dt, 0.0), 0.5)
    rc = np.minimum(np.maximum(rc, cols["r_min"]), line_rate)
    return rc, rt, alpha, byte_stage, time_stage, incr_iter


class FluidModel:
    """Integrates the DCQCN fluid equations for a candidate batch.

    One instance is reusable across batches; it holds no mutable state
    between calls.  ``dt`` trades accuracy against speed and is part of
    the screening configuration so a run's screening decisions are
    reproducible from its recorded config.
    """

    def __init__(self, dt: float = DEFAULT_DT):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    # -- public API -----------------------------------------------------

    def evaluate(
        self,
        spec,
        params: DcqcnParams,
        weights=None,
    ) -> FluidResult:
        """Score a single candidate; see :meth:`evaluate_batch`."""
        return self.evaluate_batch(spec, [params], weights)[0]

    def evaluate_batch(
        self,
        spec,
        params: Sequence[DcqcnParams],
        weights=None,
    ) -> List[FluidResult]:
        """Score a batch of candidates on one scenario.

        Returns one :class:`FluidResult` per candidate, positionally
        aligned with ``params``.  All candidates integrate in lockstep
        as numpy lanes.
        """
        profile = profile_for_scenario(spec)
        if weights is None:
            weights = spec.utility_weights()
        return self.evaluate_profile(profile, params, weights)

    def evaluate_profile(
        self,
        profile: TrafficProfile,
        params: Sequence[DcqcnParams],
        weights,
    ) -> List[FluidResult]:
        if not params:
            return []
        p = _param_arrays(params)
        B = len(params)
        C = profile.capacity_bps
        dt = self.dt
        mtu_bits = profile.mtu_wire * 8.0

        # Per-candidate state lanes.
        rc = np.full(B, C)               # current rate (fresh QPs start
        rt = np.full(B, C)               # at line rate)
        alpha = p["initial_alpha"].copy()
        byte_stage = np.zeros(B)
        time_stage = np.zeros(B)
        incr_iter = np.zeros(B)
        q = np.zeros(B)                  # bottleneck queue (bytes)

        # PFC: the DT threshold at equilibrium occupancy q is
        # ``pfc_alpha * (buffer - q)``; pausing begins once the queue
        # crosses alpha/(1+alpha) of the buffer.
        pfc_q = (
            profile.pfc_alpha / (1.0 + profile.pfc_alpha)
        ) * profile.buffer_bytes

        cols = fluid_rate_cols(p, dt)
        g = cols["g"]
        t_alpha = cols["t_alpha"]
        k_min = p["k_min"]
        k_span = np.maximum(p["k_max"] - p["k_min"], 1.0)
        p_max = p["p_max"]

        steps_per_interval = max(1, int(round(profile.monitor_interval / dt)))
        results: List[List[float]] = [[] for _ in range(4)]  # tp, rtt, pfc, u
        o_tp_all: List[np.ndarray] = []
        o_rtt_all: List[np.ndarray] = []
        o_pfc_all: List[np.ndarray] = []
        total_steps = 0

        for i in range(profile.n_intervals):
            n_flows = profile.flows[i]
            active = profile.active_frac[i]
            tp_acc = np.zeros(B)
            inv_rtt_acc = np.zeros(B)
            pause_acc = np.zeros(B)
            if n_flows <= 0.0 or active <= 0.0:
                # Idle interval: queue drains, rates recover toward
                # line rate through the increase machinery (coarse:
                # snap to target), alpha decays.
                q *= 0.0
                decay = np.exp(-profile.monitor_interval / t_alpha)
                alpha *= (1.0 - g) * (1.0 - decay) + decay
                rc = np.minimum((rc + rt) / 2.0 + p["rpg_ai_rate"], C)
                rt = np.minimum(rt + p["rpg_ai_rate"], C)
                o_tp_all.append(np.zeros(B))
                o_rtt_all.append(np.ones(B))
                o_pfc_all.append(np.ones(B))
                continue

            for _ in range(steps_per_interval):
                total_steps += 1
                # Offered aggregate during the loaded part of the
                # interval; the idle remainder is folded in afterwards.
                demand = n_flows * rc
                q = np.clip(
                    q + (demand - C) * dt / 8.0, 0.0, profile.buffer_bytes
                )

                # ECN marking probability at the current depth.
                mark_p = np.clip((q - k_min) / k_span, 0.0, 1.0) * p_max
                mark_p = np.where(q >= k_min + k_span, 1.0, mark_p)

                # Advance RP dynamics (alpha / cuts / increase).
                rc, rt, alpha, byte_stage, time_stage, incr_iter = (
                    fluid_rate_step(
                        rc, rt, alpha, byte_stage, time_stage, incr_iter,
                        mark_p, C, dt, mtu_bits, cols,
                    )
                )

                tp_acc += np.minimum(demand, C) / C
                qdelay = q * 8.0 / C
                inv_rtt_acc += profile.base_rtt / (profile.base_rtt + qdelay)
                pause_acc += q > pfc_q

            inv = 1.0 / steps_per_interval
            # Fold the idle fraction of a bursty interval: no load, no
            # queueing, no pausing during (1 - active) of the interval.
            o_tp = tp_acc * inv * active
            o_rtt = inv_rtt_acc * inv * active + (1.0 - active)
            o_pfc = 1.0 - pause_acc * inv * active
            o_tp_all.append(np.minimum(o_tp, 1.0))
            o_rtt_all.append(np.minimum(o_rtt, 1.0))
            o_pfc_all.append(np.clip(o_pfc, 0.0, 1.0))

            # Idle tail of the interval lets the queue drain.
            if active < 1.0:
                drain = (1.0 - active) * profile.monitor_interval * C / 8.0
                q = np.maximum(q - drain, 0.0)

        w_tp, w_rtt, w_pfc = weights.w_tp, weights.w_rtt, weights.w_pfc
        out: List[FluidResult] = []
        tp_m = np.stack(o_tp_all)        # (n_intervals, B)
        rtt_m = np.stack(o_rtt_all)
        pfc_m = np.stack(o_pfc_all)
        util_m = w_tp * tp_m + w_rtt * rtt_m + w_pfc * pfc_m
        for b in range(B):
            utilities = [float(u) for u in util_m[:, b]]
            out.append(
                FluidResult(
                    o_tp=[float(v) for v in tp_m[:, b]],
                    o_rtt=[float(v) for v in rtt_m[:, b]],
                    o_pfc=[float(v) for v in pfc_m[:, b]],
                    utilities=utilities,
                    utility=sum(utilities) / len(utilities),
                    steps=total_steps,
                )
            )
        return out


# ---------------------------------------------------------------------------
# Calibration against DES ground truth
# ---------------------------------------------------------------------------


@dataclass
class FluidCalibration:
    """Affine residual fit ``u_des ~= scale * u_fluid + offset``.

    Fit on a small anchor set of full DES evaluations; ``residual_rms``
    is the root-mean-square error of the fit on the anchors, which is
    the honest error bar to attach to any calibrated prediction.
    """

    scale: float = 1.0
    offset: float = 0.0
    residual_rms: float = 0.0
    n_anchors: int = 0
    spearman: float = 0.0

    def apply(self, fluid_utility: float) -> float:
        return self.scale * fluid_utility + self.offset


def spearman_rank_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rho between two score vectors (ties get mean ranks)."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    n = len(a)
    if n < 2:
        return 1.0

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            mean_rank = (i + j) / 2.0
            for k in range(i, j + 1):
                out[order[k]] = mean_rank
            i = j + 1
        return out

    ra, rb = ranks(list(a)), ranks(list(b))
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = math.sqrt(sum((x - ma) ** 2 for x in ra))
    vb = math.sqrt(sum((y - mb) ** 2 for y in rb))
    if va == 0.0 or vb == 0.0:
        return 0.0
    return cov / (va * vb)


def fit_calibration(
    fluid_utilities: Sequence[float],
    des_utilities: Sequence[float],
) -> FluidCalibration:
    """Least-squares affine fit of fluid scores to DES ground truth."""
    if len(fluid_utilities) != len(des_utilities):
        raise ValueError("anchor length mismatch")
    n = len(fluid_utilities)
    if n == 0:
        return FluidCalibration()
    x = np.asarray(fluid_utilities, dtype=float)
    y = np.asarray(des_utilities, dtype=float)
    if n == 1 or float(np.var(x)) < 1e-18:
        offset = float(np.mean(y) - np.mean(x))
        resid = y - (x + offset)
        return FluidCalibration(
            scale=1.0,
            offset=offset,
            residual_rms=float(np.sqrt(np.mean(resid**2))),
            n_anchors=n,
            spearman=spearman_rank_correlation(list(x), list(y)),
        )
    scale, offset = np.polyfit(x, y, 1)
    resid = y - (scale * x + offset)
    return FluidCalibration(
        scale=float(scale),
        offset=float(offset),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_anchors=n,
        spearman=spearman_rank_correlation(list(x), list(y)),
    )
