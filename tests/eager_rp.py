"""Eager reference for the DCQCN Reaction Point's lazy timers.

:class:`EagerDcqcnRp` is the per-tick reaction point the simulator ran
before its timers became lazy: every alpha-decay and rate-increase
expiry is its own engine event (one ``post_at`` entry per tick), and a
tick acts only if the clock still equals its timer's deadline, so a
superseded tick (after ``stop()`` or a rate cut's re-arm) fires as a
no-op.  Because a tick runs when it is due, a parameter swap needs no
catch-up: whatever ``params`` holds when a tick fires is what it uses.

The shipped :class:`~repro.simulator.dcqcn.DcqcnRp` must agree with it
bit for bit on every observable (``rc``, ``rt``, ``alpha``, the stage
counters, ``increase_events``) after any interleaving of operations —
``tests/unit/test_dcqcn.py`` drives both side by side, and
``tests/integration/test_golden_digests.py`` runs whole fabrics on it.
"""

from __future__ import annotations

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator

_DISARMED = float("inf")


class EagerDcqcnRp:
    """Reaction Point state for one sender QP, one event per timer tick."""

    def __init__(
        self,
        sim: Simulator,
        line_rate_bps: float,
        params: DcqcnParams,
    ):
        self.sim = sim
        self.line_rate = line_rate_bps
        self.params = params

        self.rc = line_rate_bps
        self.rt = line_rate_bps
        self.alpha = params.initial_alpha

        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0
        self._last_cut_time = -float("inf")
        self._cnp_seen_since_alpha_timer = False

        self._alpha_deadline = _DISARMED
        self._increase_deadline = _DISARMED
        self._active = False

        self.cnps_received = 0
        self.rate_cuts = 0
        self.increase_events = 0

    # -- the surface a host drives --------------------------------------

    def catch_up(self) -> None:
        """Nothing is ever owed: every tick ran when it was due."""

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        params = self.params
        self._arm_alpha_timer(params)
        self._arm_increase_timer(params)

    def stop(self) -> None:
        self._active = False
        self._alpha_deadline = self._increase_deadline = _DISARMED

    @property
    def active(self) -> bool:
        return self._active

    def on_ack(self, delay: float, hops: int = 0) -> None:
        pass

    def on_cnp(self) -> None:
        if not self._active:
            return
        params = self.params
        g = params.dce_tcp_g
        self.alpha = (1.0 - g) * self.alpha + g
        self._cnp_seen_since_alpha_timer = True
        self.cnps_received += 1
        now = self.sim.now
        if now - self._last_cut_time >= params.rate_reduce_monitor_period:
            self._cut_rate(params)
            self._last_cut_time = now

    def on_packet_sent(self, wire_bytes: int) -> float:
        if not self._active:
            return self.rc
        self._byte_counter += wire_bytes
        params = self.params
        while self._byte_counter >= params.rpg_byte_reset:
            self._byte_counter -= params.rpg_byte_reset
            self._byte_stage += 1
            self._increase_event(params)
        return self.rc

    # -- the state machine -----------------------------------------------

    def _cut_rate(self, params: DcqcnParams) -> None:
        self.rt = self.rc
        factor = max(1.0 - self.alpha / 2.0, 1.0 - params.min_dec_fac)
        self.rc = max(self.rc * factor, params.rpg_min_rate)
        self.rate_cuts += 1
        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0
        self._arm_increase_timer(params)

    def _arm_alpha_timer(self, params: DcqcnParams) -> None:
        self._alpha_deadline = deadline = self.sim.now + params.dce_tcp_rtt
        self.sim.post_at(deadline, self._alpha_tick)

    def _alpha_tick(self) -> None:
        if self.sim.now != self._alpha_deadline:
            return
        params = self.params
        if not self._cnp_seen_since_alpha_timer:
            self.alpha = (1.0 - params.dce_tcp_g) * self.alpha
        self._cnp_seen_since_alpha_timer = False
        self._arm_alpha_timer(params)

    def _arm_increase_timer(self, params: DcqcnParams) -> None:
        self._increase_deadline = deadline = self.sim.now + params.rpg_time_reset
        self.sim.post_at(deadline, self._increase_tick)

    def _increase_tick(self) -> None:
        if self.sim.now != self._increase_deadline:
            return
        params = self.params
        self._time_stage += 1
        self._increase_event(params)
        self._arm_increase_timer(params)

    def _increase_event(self, params: DcqcnParams) -> None:
        self.increase_events += 1
        threshold = params.rpg_threshold
        if max(self._byte_stage, self._time_stage) < threshold:
            pass
        elif min(self._byte_stage, self._time_stage) < threshold:
            self.rt += params.rpg_ai_rate
        else:
            self._increase_iter += 1
            self.rt += self._increase_iter * params.rpg_hai_rate
        self.rt = min(self.rt, self.line_rate)
        self.rc = min((self.rc + self.rt) / 2.0, self.line_rate)
        self.rc = max(self.rc, params.rpg_min_rate)
