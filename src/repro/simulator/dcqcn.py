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

from dataclasses import dataclass, fields, replace
from operator import attrgetter

from repro.simulator.engine import Simulator
from repro.simulator.units import kb, mbps, us

_DISARMED = float("inf")


@dataclass(frozen=True)
class DcqcnParams:
    """Full DCQCN parameter set (RNIC and switch sides).

    Defaults approximate the NVIDIA out-of-box configuration scaled to
    this simulator's 10 Gbps reference fabric; see
    ``repro.tuning.parameters`` for the tuning space, the expert
    setting (Table I of the paper), and the scale-down rationale.

    Frozen: a device's knobs change only by swapping the whole object
    (:meth:`copy`), which lets a reaction point's lazy timers catch up
    under the knobs they expired under (:class:`DcqcnRp`).
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
        if not self.dce_tcp_rtt > 0:
            raise ValueError("alpha timer (dce_tcp_rtt) must be positive")
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
        return dict(zip(_PARAM_FIELDS, _read_param_fields(self)))

    @classmethod
    def from_dict(cls, values: dict) -> "DcqcnParams":
        return cls(**values)


# Field names in declaration order, and one C-level read of them all.
_PARAM_FIELDS = tuple(f.name for f in fields(DcqcnParams))
_read_param_fields = attrgetter(*_PARAM_FIELDS)


class DcqcnRp:
    """Reaction Point state for one sender QP.

    The QP holds its knobs, a :class:`DcqcnParams`; the host hands
    every live QP the new object when a controller dispatches one
    (:class:`~repro.simulator.host.Host`'s ``params`` setter), so new
    parameters affect live QPs immediately, as on real RNICs.

    Both timers are *lazy*: a timer is a float deadline (``inf`` =
    disarmed) and posts no engine event.  Whenever the QP is observed —
    a CNP, a transmitted packet, ``stop()``, a read of ``rc``/``rt``/
    ``alpha``/``increase_events`` — :meth:`catch_up` first applies every
    expiry with ``deadline <= sim.now``, oldest first, with the float
    operations an eagerly dispatched tick would have used.  A tick at
    exactly ``now`` therefore applies before the observer; DESIGN.md
    §16 shows that is also where ``(time, seq)`` order put it.  The
    ``params`` setter catches up before it stores the new knobs, so
    that earlier expiries apply under the old ones.
    """

    def __init__(
        self,
        sim: Simulator,
        line_rate_bps: float,
        params: DcqcnParams,
    ):
        self.sim = sim
        self.line_rate = line_rate_bps
        self._params = params

        self._rc = line_rate_bps         # current rate
        self._rt = line_rate_bps         # target rate
        self._alpha = params.initial_alpha

        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0          # consecutive hyper-increase count
        self._last_cut_time = -float("inf")
        self._cnp_seen_since_alpha_timer = False

        self._alpha_deadline = _DISARMED
        self._increase_deadline = _DISARMED
        self._active = False

        # Counters for diagnostics / tests.
        self.cnps_received = 0
        self.rate_cuts = 0
        self._increase_events = 0

    @property
    def params(self) -> DcqcnParams:
        """The knobs this QP runs under."""
        return self._params

    @params.setter
    def params(self, params: DcqcnParams) -> None:
        # Timer expiries up to now apply under the knobs in force then.
        self.catch_up()
        self._params = params

    # ------------------------------------------------------------------
    # Timer-driven state, caught up to sim.now on every read
    # ------------------------------------------------------------------

    @property
    def rc(self) -> float:
        """Current sending rate (bps)."""
        self.catch_up()
        return self._rc

    @rc.setter
    def rc(self, value: float) -> None:
        self.catch_up()
        self._rc = value

    @property
    def rt(self) -> float:
        """Target rate (bps)."""
        self.catch_up()
        return self._rt

    @property
    def alpha(self) -> float:
        """Congestion estimate in ``(0, 1]``."""
        self.catch_up()
        return self._alpha

    @property
    def increase_events(self) -> int:
        """Rate-increase events so far (byte and timer stages)."""
        self.catch_up()
        return self._increase_events

    def catch_up(self) -> None:
        """Apply every timer expiry due by ``sim.now``, oldest first."""
        now = self.sim.now
        deadline = self._alpha_deadline
        if deadline <= now:
            params = self._params
            period = params.dce_tcp_rtt
            if self._cnp_seen_since_alpha_timer:
                self._cnp_seen_since_alpha_timer = False
                deadline += period
            alpha = self._alpha
            while deadline <= now:
                alpha = (1.0 - params.dce_tcp_g) * alpha
                deadline += period
            self._alpha = alpha
            self._alpha_deadline = deadline
        deadline = self._increase_deadline
        if deadline <= now:
            params = self._params
            period = params.rpg_time_reset
            while deadline <= now:
                self._time_stage += 1
                self._increase_event(params)
                deadline += period
            self._increase_deadline = deadline

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the timers when the QP begins transmitting."""
        if self._active:
            return
        self._active = True
        params = self._params
        now = self.sim.now
        self._alpha_deadline = now + params.dce_tcp_rtt
        self._increase_deadline = now + params.rpg_time_reset

    def stop(self) -> None:
        """Disarm the timers when the flow finishes."""
        self.catch_up()
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
        self.catch_up()
        params = self._params
        g = params.dce_tcp_g
        self._alpha = (1.0 - g) * self._alpha + g
        self._cnp_seen_since_alpha_timer = True
        self.cnps_received += 1

        now = self.sim.now
        if now - self._last_cut_time >= params.rate_reduce_monitor_period:
            self._cut_rate(params)
            self._last_cut_time = now

    def _cut_rate(self, params: DcqcnParams) -> None:
        self._rt = self._rc
        factor = max(1.0 - self._alpha / 2.0, 1.0 - params.min_dec_fac)
        self._rc = max(self._rc * factor, params.rpg_min_rate)
        self.rate_cuts += 1
        # A cut resets the whole increase state machine, timer included.
        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0
        self._increase_deadline = self.sim.now + params.rpg_time_reset

    # ------------------------------------------------------------------
    # Rate increase: byte counter and timer stages
    # ------------------------------------------------------------------

    def on_packet_sent(self, wire_bytes: int) -> float:
        """Account transmitted bytes toward the increase byte counter.

        Returns the sending rate to pace the QP's next packet from, so
        the host's per-packet path reads it without a property call.
        """
        if not self._active:
            return self._rc
        now = self.sim.now
        if self._alpha_deadline <= now or self._increase_deadline <= now:
            self.catch_up()
        self._byte_counter += wire_bytes
        params = self._params
        while self._byte_counter >= params.rpg_byte_reset:
            self._byte_counter -= params.rpg_byte_reset
            self._byte_stage += 1
            self._increase_event(params)
        return self._rc

    def _increase_event(self, params: DcqcnParams) -> None:
        """One fast-recovery / additive / hyper increase step."""
        self._increase_events += 1
        threshold = params.rpg_threshold
        if max(self._byte_stage, self._time_stage) < threshold:
            pass  # fast recovery: rt unchanged
        elif min(self._byte_stage, self._time_stage) < threshold:
            self._rt += params.rpg_ai_rate
        else:
            self._increase_iter += 1
            self._rt += self._increase_iter * params.rpg_hai_rate
        self._rt = min(self._rt, self.line_rate)
        self._rc = min((self._rc + self._rt) / 2.0, self.line_rate)
        self._rc = max(self._rc, params.rpg_min_rate)


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
