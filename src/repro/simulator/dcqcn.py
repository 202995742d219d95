"""DCQCN: parameter set and per-QP Reaction Point state machine.

The implementation follows Zhu et al., *Congestion Control for
Large-Scale RDMA Deployments* (SIGCOMM 2015), with the parameter
surface named after the NVIDIA ConnectX knobs the paper tunes
(``rpg_ai_rate``, ``rpg_hai_rate``, ``rate_reduce_monitor_period``,
``min_time_between_cnps``, ECN thresholds ``k_min``/``k_max``/``p_max``
and friends).

Reaction Point (sender QP) state:

* ``rc`` — current sending rate, ``rt`` — target rate, ``alpha`` —
  congestion estimate in ``(0, 1]``.
* On a CNP: ``alpha ← (1-g)·alpha + g`` always; a *rate cut*
  (``rt ← rc``, ``rc ← rc·(1 − alpha/2)``) happens at most once per
  ``rate_reduce_monitor_period``; all increase stages reset on a cut.
* Alpha decay timer (``dce_tcp_rtt``): each interval without a CNP,
  ``alpha ← (1-g)·alpha``.
* Rate increase is driven by a byte counter (``rpg_byte_reset``) and a
  timer (``rpg_time_reset``).  Each expiry bumps its stage counter and
  triggers an increase event: *fast recovery* while
  ``max(stages) < rpg_threshold`` (``rc ← (rc+rt)/2``), *additive*
  while only one stage crossed (``rt += rpg_ai_rate``), and *hyper*
  once both crossed (``rt += i·rpg_hai_rate``).

The Notification Point (receiver) and Congestion Point (switch) logic
live in :mod:`repro.simulator.host` and :mod:`repro.simulator.switch`;
both read their knobs from the same :class:`DcqcnParams` object so a
tuner can swap one object per device and affect all three roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional

import numpy as np

from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.units import kb, mbps, us

_DISARMED = float("inf")


@dataclass
class DcqcnParams:
    """Full DCQCN parameter set (RNIC and switch sides).

    Defaults approximate the NVIDIA out-of-box configuration scaled to
    this simulator's 10 Gbps reference fabric; see
    ``repro.tuning.parameters`` for the tuning space, the expert
    setting (Table I of the paper), and the scale-down rationale.
    """

    # --- Rate increase (RP) ---
    rpg_ai_rate: float = mbps(20.0)      # additive increase step (bps)
    rpg_hai_rate: float = mbps(200.0)    # hyper increase step (bps)
    rpg_time_reset: float = us(300.0)    # increase timer period (s)
    rpg_byte_reset: int = kb(32.0)       # increase byte counter (bytes)
    rpg_threshold: int = 5               # stages before AI/HAI
    rpg_min_rate: float = mbps(10.0)     # rate floor (bps)

    # --- Rate decrease (RP) ---
    rate_reduce_monitor_period: float = us(50.0)  # min gap between cuts (s)
    min_dec_fac: float = 0.5             # max fractional cut per event

    # --- Alpha update (RP) ---
    dce_tcp_g: float = 1.0 / 256.0       # EWMA gain g
    dce_tcp_rtt: float = us(55.0)        # alpha decay timer (s)
    initial_alpha: float = 1.0

    # --- Notification point (receiver RNIC) ---
    min_time_between_cnps: float = us(50.0)  # per-flow CNP pacing (s)

    # --- Congestion point (switch ECN marking) ---
    k_min: int = kb(20.0)                # start-marking threshold (bytes)
    k_max: int = kb(200.0)               # all-marking threshold (bytes)
    p_max: float = 0.1                   # marking probability at k_max

    def validate(self) -> None:
        """Raise ValueError on an internally inconsistent setting."""
        if self.rpg_ai_rate <= 0 or self.rpg_hai_rate <= 0:
            raise ValueError("increase rates must be positive")
        if self.rpg_time_reset <= 0 or self.rpg_byte_reset <= 0:
            raise ValueError("increase timer/byte counter must be positive")
        if self.rpg_threshold < 1:
            raise ValueError("rpg_threshold must be >= 1")
        if not 0.0 < self.dce_tcp_g <= 1.0:
            raise ValueError("dce_tcp_g must be in (0, 1]")
        if not 0.0 < self.initial_alpha <= 1.0:
            raise ValueError("initial_alpha must be in (0, 1]")
        if not 0.0 < self.min_dec_fac <= 1.0:
            raise ValueError("min_dec_fac must be in (0, 1]")
        if self.k_min < 0 or self.k_max <= 0:
            raise ValueError("ECN thresholds must be non-negative")
        if self.k_min >= self.k_max:
            raise ValueError(f"k_min ({self.k_min}) must be < k_max ({self.k_max})")
        if not 0.0 < self.p_max <= 1.0:
            raise ValueError("p_max must be in (0, 1]")
        if self.min_time_between_cnps < 0:
            raise ValueError("min_time_between_cnps must be >= 0")
        if self.rate_reduce_monitor_period < 0:
            raise ValueError("rate_reduce_monitor_period must be >= 0")

    def copy(self, **overrides) -> "DcqcnParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "DcqcnParams":
        return cls(**values)


class DcqcnRp:
    """Reaction Point state for one sender QP.

    The QP reads its knobs through ``params_ref`` (a zero-argument
    callable returning the host's current :class:`DcqcnParams`) so that
    a controller dispatching new parameters affects live QPs
    immediately, as on real RNICs.
    """

    def __init__(
        self,
        sim: Simulator,
        line_rate_bps: float,
        params_ref: Callable[[], DcqcnParams],
        on_rate_change: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.line_rate = line_rate_bps
        self.params_ref = params_ref
        self.on_rate_change = on_rate_change

        params = params_ref()
        self.rc = line_rate_bps          # current rate
        self.rt = line_rate_bps          # target rate
        self.alpha = params.initial_alpha

        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0          # consecutive hyper-increase count
        self._last_cut_time = -float("inf")
        self._cnp_seen_since_alpha_timer = False

        # Timer deadlines (inf = disarmed).  A tick acts only when the
        # clock equals its deadline, so stopping or re-arming cancels
        # nothing: the superseded tick fires as a no-op.  Ticks of QPs
        # that share an exact deadline ride one engine event.
        self._alpha_deadline = _DISARMED
        self._increase_deadline = _DISARMED
        self._active = False

        # Counters for diagnostics / tests.
        self.cnps_received = 0
        self.rate_cuts = 0
        self.increase_events = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Activate timers when the QP begins transmitting."""
        if self._active:
            return
        self._active = True
        params = self.params_ref()
        self._arm_alpha_timer(params)
        self._arm_increase_timer(params)

    def stop(self) -> None:
        """Disarm timers when the flow finishes."""
        self._active = False
        self._alpha_deadline = self._increase_deadline = _DISARMED

    @property
    def active(self) -> bool:
        return self._active

    # ------------------------------------------------------------------
    # CNP handling (rate decrease + alpha increase)
    # ------------------------------------------------------------------

    def on_ack(self, delay: float, hops: int = 0) -> None:
        """DCQCN is ECN-driven; delay feedback is a no-op.

        Present for interface parity with delay-based controllers
        (:class:`repro.simulator.swift.SwiftCc`).
        """

    def on_cnp(self) -> None:
        """React to a congestion notification packet."""
        if not self._active:
            return
        params = self.params_ref()
        g = params.dce_tcp_g
        self.alpha = (1.0 - g) * self.alpha + g
        self._cnp_seen_since_alpha_timer = True
        self.cnps_received += 1

        now = self.sim.now
        if now - self._last_cut_time >= params.rate_reduce_monitor_period:
            self._cut_rate(params)
            self._last_cut_time = now

    def _cut_rate(self, params: DcqcnParams) -> None:
        self.rt = self.rc
        factor = max(1.0 - self.alpha / 2.0, 1.0 - params.min_dec_fac)
        self.rc = max(self.rc * factor, params.rpg_min_rate)
        self.rate_cuts += 1
        # A cut resets the whole increase state machine.
        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0
        self._arm_increase_timer(params)
        if self.on_rate_change is not None:
            self.on_rate_change()

    # ------------------------------------------------------------------
    # Alpha decay timer
    # ------------------------------------------------------------------

    def _arm_alpha_timer(self, params: DcqcnParams) -> None:
        sim = self.sim
        self._alpha_deadline = deadline = sim.now + params.dce_tcp_rtt
        sim.coalesce_at(deadline, self._alpha_tick)

    def _alpha_tick(self) -> None:
        if self.sim.now != self._alpha_deadline:
            return
        params = self.params_ref()
        if not self._cnp_seen_since_alpha_timer:
            self.alpha = (1.0 - params.dce_tcp_g) * self.alpha
        self._cnp_seen_since_alpha_timer = False
        self._arm_alpha_timer(params)

    # ------------------------------------------------------------------
    # Rate increase: byte counter and timer stages
    # ------------------------------------------------------------------

    def on_packet_sent(self, wire_bytes: int) -> None:
        """Account transmitted bytes toward the increase byte counter."""
        if not self._active:
            return
        self._byte_counter += wire_bytes
        params = self.params_ref()
        while self._byte_counter >= params.rpg_byte_reset:
            self._byte_counter -= params.rpg_byte_reset
            self._byte_stage += 1
            self._increase_event(params)

    def _arm_increase_timer(self, params: DcqcnParams) -> None:
        sim = self.sim
        self._increase_deadline = deadline = sim.now + params.rpg_time_reset
        sim.coalesce_at(deadline, self._increase_tick)

    def _increase_tick(self) -> None:
        if self.sim.now != self._increase_deadline:
            return
        params = self.params_ref()
        self._time_stage += 1
        self._increase_event(params)
        self._arm_increase_timer(params)

    def _increase_event(self, params: DcqcnParams) -> None:
        """One fast-recovery / additive / hyper increase step."""
        self.increase_events += 1
        threshold = params.rpg_threshold
        if max(self._byte_stage, self._time_stage) < threshold:
            pass  # fast recovery: rt unchanged
        elif min(self._byte_stage, self._time_stage) < threshold:
            self.rt += params.rpg_ai_rate
        else:
            self._increase_iter += 1
            self.rt += self._increase_iter * params.rpg_hai_rate
        self.rt = min(self.rt, self.line_rate)
        self.rc = min((self.rc + self.rt) / 2.0, self.line_rate)
        self.rc = max(self.rc, params.rpg_min_rate)
        if self.on_rate_change is not None:
            self.on_rate_change()


class DcqcnLaneBank:
    """Vectorized RP timer plane: all QPs' timers in numpy lanes.

    The scalar :class:`DcqcnRp` schedules two engine events per QP per
    timer period (alpha decay at ``dce_tcp_rtt``, rate increase at
    ``rpg_time_reset``) plus one cancel-and-rearm per rate cut — the
    dominant event population on a busy host.  The bank keeps the same
    state in float64/int64 arrays, one lane per QP, and schedules a
    *single* engine event at the minimum pending deadline; every lane
    whose deadline equals that exact float advances in one array step.

    Bit-identity contract (the ``lanes`` gating mode): every arithmetic
    operation below is the same IEEE-double expression the scalar class
    evaluates, element-wise, and coalesced same-time ticks only touch
    per-lane state, so lane-mode runs produce byte-identical digests.
    Parameters are read through each lane's ``params_ref`` at tick time,
    exactly like the scalar timers, so controller dispatches take effect
    immediately.
    """

    def __init__(self, sim: Simulator, capacity: int = 16):
        self.sim = sim
        self._cap = max(4, capacity)
        n = self._cap
        self.rc = np.zeros(n)
        self.rt = np.zeros(n)
        self.alpha = np.zeros(n)
        self.line_rate = np.zeros(n)
        self.byte_counter = np.zeros(n, dtype=np.int64)
        self.byte_stage = np.zeros(n, dtype=np.int64)
        self.time_stage = np.zeros(n, dtype=np.int64)
        self.incr_iter = np.zeros(n, dtype=np.int64)
        self.last_cut = np.full(n, -np.inf)
        self.cnp_seen = np.zeros(n, dtype=bool)
        self.active = np.zeros(n, dtype=bool)
        # inf = timer disarmed; the engine event sits at the global min.
        self.alpha_deadline = np.full(n, np.inf)
        self.incr_deadline = np.full(n, np.inf)
        self.cnps_received = np.zeros(n, dtype=np.int64)
        self.rate_cuts = np.zeros(n, dtype=np.int64)
        self.increase_events = np.zeros(n, dtype=np.int64)
        self.params_ref: List[Optional[Callable[[], DcqcnParams]]] = [None] * n
        self.on_rate_change: List[Optional[Callable[[], None]]] = [None] * n
        self._free: List[int] = list(range(n - 1, -1, -1))
        self._n = 0                      # high-water mark of lanes in use
        self._event: Optional[EventHandle] = None
        # Diagnostics: coalesced ticks vs lanes advanced.
        self.ticks = 0
        self.lanes_fired = 0

    # -- lane lifecycle -------------------------------------------------

    def _grow(self) -> None:
        old = self._cap
        new = old * 2
        for name in (
            "rc", "rt", "alpha", "line_rate", "byte_counter", "byte_stage",
            "time_stage", "incr_iter", "last_cut", "cnp_seen", "active",
            "alpha_deadline", "incr_deadline", "cnps_received", "rate_cuts",
            "increase_events",
        ):
            arr = getattr(self, name)
            fill = np.inf if name in ("alpha_deadline", "incr_deadline") else (
                -np.inf if name == "last_cut" else 0
            )
            grown = np.full(new, fill, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self.params_ref.extend([None] * old)
        self.on_rate_change.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._cap = new

    def new_rp(
        self,
        line_rate_bps: float,
        params_ref: Callable[[], DcqcnParams],
        on_rate_change: Optional[Callable[[], None]] = None,
    ) -> "LanedDcqcnRp":
        """Allocate a lane initialized exactly like ``DcqcnRp.__init__``."""
        if not self._free:
            self._grow()
        i = self._free.pop()
        self._n = max(self._n, i + 1)
        params = params_ref()
        self.rc[i] = line_rate_bps
        self.rt[i] = line_rate_bps
        self.alpha[i] = params.initial_alpha
        self.line_rate[i] = line_rate_bps
        self.byte_counter[i] = 0
        self.byte_stage[i] = 0
        self.time_stage[i] = 0
        self.incr_iter[i] = 0
        self.last_cut[i] = -np.inf
        self.cnp_seen[i] = False
        self.active[i] = False
        self.alpha_deadline[i] = np.inf
        self.incr_deadline[i] = np.inf
        self.cnps_received[i] = 0
        self.rate_cuts[i] = 0
        self.increase_events[i] = 0
        self.params_ref[i] = params_ref
        self.on_rate_change[i] = on_rate_change
        return LanedDcqcnRp(self, i)

    def start(self, i: int) -> None:
        if self.active[i]:
            return
        self.active[i] = True
        params = self.params_ref[i]()
        now = self.sim.now
        self.alpha_deadline[i] = now + params.dce_tcp_rtt
        self.incr_deadline[i] = now + params.rpg_time_reset
        self._refresh_event()

    def stop(self, i: int) -> None:
        self.active[i] = False
        self.alpha_deadline[i] = np.inf
        self.incr_deadline[i] = np.inf
        self._free.append(i)
        self.params_ref[i] = None
        self.on_rate_change[i] = None

    # -- per-packet paths (scalar, one lane) ----------------------------

    def on_cnp(self, i: int) -> None:
        if not self.active[i]:
            return
        params = self.params_ref[i]()
        g = params.dce_tcp_g
        self.alpha[i] = (1.0 - g) * self.alpha[i] + g
        self.cnp_seen[i] = True
        self.cnps_received[i] += 1
        now = self.sim.now
        if now - self.last_cut[i] >= params.rate_reduce_monitor_period:
            self._cut_rate(i, params, now)
            self.last_cut[i] = now

    def _cut_rate(self, i: int, params: DcqcnParams, now: float) -> None:
        rc = self.rc[i]
        self.rt[i] = rc
        factor = max(1.0 - self.alpha[i] / 2.0, 1.0 - params.min_dec_fac)
        self.rc[i] = max(rc * factor, params.rpg_min_rate)
        self.rate_cuts[i] += 1
        self.byte_counter[i] = 0
        self.byte_stage[i] = 0
        self.time_stage[i] = 0
        self.incr_iter[i] = 0
        self.incr_deadline[i] = now + params.rpg_time_reset
        self._refresh_event()
        callback = self.on_rate_change[i]
        if callback is not None:
            callback()

    def on_packet_sent(self, i: int, wire_bytes: int) -> None:
        if not self.active[i]:
            return
        counter = int(self.byte_counter[i]) + wire_bytes
        params = self.params_ref[i]()
        reset = params.rpg_byte_reset
        while counter >= reset:
            counter -= reset
            self.byte_stage[i] += 1
            self._increase_event_scalar(i, params)
        self.byte_counter[i] = counter

    def _increase_event_scalar(self, i: int, params: DcqcnParams) -> None:
        self.increase_events[i] += 1
        threshold = params.rpg_threshold
        byte_stage = self.byte_stage[i]
        time_stage = self.time_stage[i]
        rt = self.rt[i]
        if max(byte_stage, time_stage) < threshold:
            pass  # fast recovery: rt unchanged
        elif min(byte_stage, time_stage) < threshold:
            rt = rt + params.rpg_ai_rate
        else:
            self.incr_iter[i] += 1
            rt = rt + self.incr_iter[i] * params.rpg_hai_rate
        line = self.line_rate[i]
        rt = min(rt, line)
        rc = min((self.rc[i] + rt) / 2.0, line)
        rc = max(rc, params.rpg_min_rate)
        self.rt[i] = rt
        self.rc[i] = rc
        callback = self.on_rate_change[i]
        if callback is not None:
            callback()

    # -- coalesced timer plane ------------------------------------------

    def _refresh_event(self) -> None:
        """Keep one engine event pending at the minimum deadline."""
        n = self._n
        if n == 0:
            next_t = np.inf
        else:
            next_t = min(
                self.alpha_deadline[:n].min(), self.incr_deadline[:n].min()
            )
        event = self._event
        if next_t == np.inf:
            if event is not None:
                event.cancel()
                self._event = None
            return
        if event is not None:
            if event.time <= next_t:
                return  # fires at/before the min; spurious wakes re-arm
            event.cancel()
        self._event = self.sim.at(float(next_t), self._tick)

    def _tick(self) -> None:
        self._event = None
        now = self.sim.now
        n = self._n
        self.ticks += 1
        alpha_fired = np.flatnonzero(self.alpha_deadline[:n] == now)
        incr_fired = np.flatnonzero(self.incr_deadline[:n] == now)
        # Alpha before increase: the two planes touch disjoint state
        # (alpha/cnp flag vs rc/rt/stages), so same-time order between
        # them — and among coalesced lanes — cannot change the outcome.
        if alpha_fired.size:
            self._alpha_fire(alpha_fired, now)
        if incr_fired.size:
            self._incr_fire(incr_fired, now)
        self.lanes_fired += int(alpha_fired.size + incr_fired.size)
        self._refresh_event()

    def _gather(self, idx: np.ndarray, names: tuple) -> List[np.ndarray]:
        """Live per-lane parameter columns for the fired lanes."""
        refs = self.params_ref
        cols = [np.empty(idx.size) for _ in names]
        for k, i in enumerate(idx):
            params = refs[i]()
            for c, name in enumerate(names):
                cols[c][k] = getattr(params, name)
        return cols

    def _alpha_fire(self, idx: np.ndarray, now: float) -> None:
        if idx.size == 1:
            # Scalar fast path: staggered start times make one-lane
            # ticks the common case, where array temporaries cost more
            # than the work.  Same IEEE-double expressions as below.
            i = int(idx[0])
            params = self.params_ref[i]()
            if not self.cnp_seen[i]:
                self.alpha[i] = (1.0 - params.dce_tcp_g) * self.alpha[i]
            self.cnp_seen[i] = False
            self.alpha_deadline[i] = now + params.dce_tcp_rtt
            return
        g, period = self._gather(idx, ("dce_tcp_g", "dce_tcp_rtt"))
        alpha = self.alpha[idx]
        quiet = ~self.cnp_seen[idx]
        # Same expression as the scalar `_alpha_tick`, element-wise.
        self.alpha[idx] = np.where(quiet, (1.0 - g) * alpha, alpha)
        self.cnp_seen[idx] = False
        self.alpha_deadline[idx] = now + period

    def _incr_fire(self, idx: np.ndarray, now: float) -> None:
        if idx.size == 1:
            # Scalar fast path; mirrors `_increase_event_scalar` plus
            # the timer re-arm, exactly like `DcqcnRp._increase_tick`.
            i = int(idx[0])
            params = self.params_ref[i]()
            self.time_stage[i] += 1
            self._increase_event_scalar(i, params)
            self.incr_deadline[i] = now + params.rpg_time_reset
            return
        ai, hai, threshold, period, line_min = self._gather(
            idx,
            (
                "rpg_ai_rate", "rpg_hai_rate", "rpg_threshold",
                "rpg_time_reset", "rpg_min_rate",
            ),
        )
        self.time_stage[idx] += 1
        self.increase_events[idx] += 1
        byte_stage = self.byte_stage[idx]
        time_stage = self.time_stage[idx]
        hi = np.maximum(byte_stage, time_stage)
        lo = np.minimum(byte_stage, time_stage)
        additive = (hi >= threshold) & (lo < threshold)
        hyper = lo >= threshold
        rt = self.rt[idx]
        # x + 0.0 == x for the positive rates involved, so masked adds
        # are bit-identical to the scalar branchy version.
        rt = rt + np.where(additive, ai, 0.0)
        incr_iter = self.incr_iter[idx] + hyper
        rt = rt + np.where(hyper, incr_iter * hai, 0.0)
        line = self.line_rate[idx]
        rt = np.minimum(rt, line)
        rc = np.minimum((self.rc[idx] + rt) / 2.0, line)
        rc = np.maximum(rc, line_min)
        self.incr_iter[idx] = incr_iter
        self.rt[idx] = rt
        self.rc[idx] = rc
        self.incr_deadline[idx] = now + period
        callbacks = self.on_rate_change
        for i in idx:
            callback = callbacks[i]
            if callback is not None:
                callback()

    def qp_sample(self) -> dict:
        """Aggregate rate/alpha/CNP state over active lanes (read-only).

        One masked numpy reduction per field — the flight recorder's
        vectorized alternative to walking every host's QP table.
        """
        n = self._n
        mask = self.active[:n]
        count = int(np.count_nonzero(mask))
        if count == 0:
            return {
                "n": 0, "rate_sum": 0.0, "rate_min": 0.0,
                "alpha_sum": 0.0, "alpha_max": 0.0, "cnps": 0,
            }
        rc = self.rc[:n][mask]
        alpha = self.alpha[:n][mask]
        return {
            "n": count,
            "rate_sum": float(rc.sum()),
            "rate_min": float(rc.min()),
            "alpha_sum": float(alpha.sum()),
            "alpha_max": float(alpha.max()),
            "cnps": int(self.cnps_received[:n][mask].sum()),
        }

    def reset(self) -> None:
        """Drop every lane and the pending tick (warm-rebuild path)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.active[:] = False
        self.alpha_deadline[:] = np.inf
        self.incr_deadline[:] = np.inf
        self.params_ref = [None] * self._cap
        self.on_rate_change = [None] * self._cap
        self._free = list(range(self._cap - 1, -1, -1))
        self._n = 0
        self.ticks = 0
        self.lanes_fired = 0


class LanedDcqcnRp:
    """``DcqcnRp``-compatible view over one :class:`DcqcnLaneBank` lane.

    Hosts hand these to :class:`~repro.simulator.host.SenderQp` in
    ``lanes``/``hybrid`` engine modes; the per-packet interface is
    identical to the scalar class, only timer bookkeeping moves into
    the bank's coalesced event.
    """

    __slots__ = ("bank", "lane")

    def __init__(self, bank: DcqcnLaneBank, lane: int):
        self.bank = bank
        self.lane = lane

    # -- rate state -----------------------------------------------------

    @property
    def rc(self) -> float:
        return float(self.bank.rc[self.lane])

    @property
    def rt(self) -> float:
        return float(self.bank.rt[self.lane])

    @property
    def alpha(self) -> float:
        return float(self.bank.alpha[self.lane])

    @property
    def active(self) -> bool:
        return bool(self.bank.active[self.lane])

    # -- counters (diagnostics / tests) ---------------------------------

    @property
    def cnps_received(self) -> int:
        return int(self.bank.cnps_received[self.lane])

    @property
    def rate_cuts(self) -> int:
        return int(self.bank.rate_cuts[self.lane])

    @property
    def increase_events(self) -> int:
        return int(self.bank.increase_events[self.lane])

    # -- lifecycle / events ---------------------------------------------

    def start(self) -> None:
        self.bank.start(self.lane)

    def stop(self) -> None:
        if self.bank.active[self.lane]:
            self.bank.stop(self.lane)

    def on_ack(self, delay: float, hops: int = 0) -> None:
        """ECN-driven like the scalar RP; delay feedback is a no-op."""

    def on_cnp(self) -> None:
        self.bank.on_cnp(self.lane)

    def on_packet_sent(self, wire_bytes: int) -> None:
        self.bank.on_packet_sent(self.lane, wire_bytes)


def ecn_mark_probability(queue_bytes: int, params: DcqcnParams) -> float:
    """RED-style marking curve used at the Congestion Point.

    0 below ``k_min``; linear up to ``p_max`` at ``k_max``; 1 above
    ``k_max`` (every packet marked), per the DCQCN paper.
    """
    if queue_bytes <= params.k_min:
        return 0.0
    if queue_bytes >= params.k_max:
        return 1.0
    span = params.k_max - params.k_min
    return params.p_max * (queue_bytes - params.k_min) / span
