"""Deterministic synthetic traffic for the sharded control plane.

Scaling the control plane to 1000+ agents needs a traffic source that
is (a) cheap enough to generate for a thousand ToRs per interval and
(b) *location-independent*: the flows agent ``a`` observes in interval
``t`` must be byte-identical whichever block of agents generates them
and in whatever order the blocks run.  A stateful RNG cannot give (b)
without careful per-agent stream plumbing, so flow attributes here are
a **pure function** of ``(seed, interval, flow slot)`` via a vectorized
splitmix64 finalizer — a counter-based generator with no sequential
state at all.

Each agent owns ``flows_per_agent`` flow-id slots, disjoint from every
other agent's (flow id = global slot + 1) — the synthetic analogue of
the TOS-bit dedup guarantee that each flow is measured at exactly one
switch.  A slot's uniforms are fixed per run; its class comes from
comparing them against the owning tenant's *current* profile
thresholds, so a profile shift flips exactly the slots whose uniforms
sit between the old and new thresholds:

* **elephant** (``u < elephant_fraction``): cumulative bytes in
  ``[tau, 16·tau)`` — classified ``E``;
* **potential elephant** (next ``pe_fraction`` of mass): cumulative
  bytes in ``[tau/2, tau)`` — classified ``PE``, contributing a
  *fractional* elephant likelihood ``cum/tau`` exactly like the real
  sliding-window classifier;
* **mice** (the rest): small flows well under ``tau``.

A :class:`TrafficShift` rewrites one tenant's profile from a given
interval on — the "traffic matrix changed" event that must fire that
tenant's KL trigger and nobody else's.

Two readers of the same generator: :func:`flow_columns` materializes
the raw ``(flow_ids, cum, codes)`` columns of any agent block and is
the reference the tests compare against; :class:`SlotColumns` is what
the control plane runs per interval — it computes everything the
generator defines as a function of ``(seed, slot)`` once per run and
leaves only the threshold compares and selects to the interval.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.monitor.fsd import HISTOGRAM_BUCKETS
from repro.monitor.states import CODE_ELEPHANT, CODE_MICE, CODE_PE
from repro.simulator.units import mb

#: splitmix64 constants (Steele et al.; the standard finalizer).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping math)."""
    with np.errstate(over="ignore"):
        z = x + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


def _unit(x: np.ndarray) -> np.ndarray:
    """Map uint64 words to uniform float64 in [0, 1)."""
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _slot_uniforms(seed: int, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(u_class, u_size)`` of global flow slots (uint64).

    One scalar stream key per seed; per-flow words mix in the global
    slot, so values never depend on sharding or call order.  The
    interval deliberately does NOT enter the mix: a slot's uniforms
    are fixed for the whole run and the interval acts only through
    the profile *thresholds*.  An unshifted tenant therefore
    reproduces its distribution exactly (KL = 0) — the trigger fires
    on real traffic-matrix shifts, never on resampling noise.
    """
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed) * _SM_M1 + _SM_GAMMA)
        base = _mix64(slots * _SM_GAMMA + key)
        return _unit(base), _unit(_mix64(base + _SM_M2))


def _class_size(u_size: np.ndarray, tau: int, code: int) -> np.ndarray:
    """Cumulative bytes each slot carries when its class is ``code``."""
    if code == CODE_ELEPHANT:
        return tau + (u_size * (15 * tau)).astype(np.int64)
    if code == CODE_PE:
        return tau // 2 + (u_size * (tau // 2 - 1)).astype(np.int64)
    return 64 + (u_size * (tau // 16)).astype(np.int64)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic mix."""

    elephant_fraction: float = 0.10
    pe_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise ValueError("elephant_fraction must be in [0, 1]")
        if not 0.0 <= self.pe_fraction <= 1.0 - self.elephant_fraction:
            raise ValueError("elephant + PE fractions must not exceed 1")


@dataclass(frozen=True)
class TrafficShift:
    """From ``interval`` on, ``tenant`` runs ``profile`` instead."""

    tenant: int
    interval: int
    profile: TenantProfile


@dataclass(frozen=True)
class TrafficConfig:
    """Picklable description of the whole synthetic traffic matrix."""

    seed: int = 1
    flows_per_agent: int = 64
    tau: int = mb(1.0)
    profiles: Tuple[TenantProfile, ...] = (
        TenantProfile(0.10, 0.15),
        TenantProfile(0.12, 0.12),
    )
    shifts: Tuple[TrafficShift, ...] = ()

    def __post_init__(self) -> None:
        if not _is_int(self.flows_per_agent) or self.flows_per_agent < 1:
            raise ValueError(
                f"flows_per_agent must be a positive integer, got "
                f"{self.flows_per_agent!r}"
            )
        if not self.profiles:
            raise ValueError("profiles must hold at least one TenantProfile")
        # Mice are [64, 64 + tau//16) bytes, PE flows [tau/2, tau) and
        # elephants [tau, 16·tau) (_class_size): a tau that lets the
        # mice reach the PE range would mislabel sizes, and tau <= 0
        # divides by zero or inverts the ranges.
        if not _is_int(self.tau) or 64 + max(self.tau // 16, 1) > self.tau // 2:
            raise ValueError(
                f"tau must be an integer byte count that keeps mice "
                f"[64, 64 + tau//16) below PE flows [tau/2, tau), got "
                f"{self.tau!r}"
            )

    def profile_at(self, tenant: int, interval: int) -> TenantProfile:
        """The profile ``tenant`` runs during ``interval`` (shifts applied)."""
        profile = self.profiles[tenant % len(self.profiles)]
        best = -1
        for shift in self.shifts:
            if shift.tenant == tenant and best < shift.interval <= interval:
                profile = shift.profile
                best = shift.interval
        return profile


def flow_columns(
    config: TrafficConfig,
    agent_ids: np.ndarray,
    tenants: np.ndarray,
    interval: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flow_ids, cumulative_bytes, state_codes)`` for a block of agents.

    ``agent_ids`` must be the agents in canonical order (the caller
    passes a contiguous shard range); ``tenants`` gives each agent's
    tenant.  Rows come back agent-major — agent ``agent_ids[i]`` owns
    rows ``[i*F, (i+1)*F)`` — which is what lets per-agent reductions
    run on contiguous slices.
    """
    n_agents = int(agent_ids.size)
    per = config.flows_per_agent
    slots = (
        np.repeat(agent_ids.astype(np.uint64), per) * np.uint64(per)
        + np.tile(np.arange(per, dtype=np.uint64), n_agents)
    )
    u_class, u_size = _slot_uniforms(config.seed, slots)

    p_e = np.empty(n_agents)
    p_pe = np.empty(n_agents)
    for i, tenant in enumerate(tenants.tolist()):
        profile = config.profile_at(int(tenant), interval)
        p_e[i] = profile.elephant_fraction
        p_pe[i] = profile.pe_fraction
    p_e = np.repeat(p_e, per)
    p_pe = np.repeat(p_pe, per)

    is_elephant = u_class < p_e
    is_pe = ~is_elephant & (u_class < p_e + p_pe)
    codes = np.where(
        is_elephant, CODE_ELEPHANT, np.where(is_pe, CODE_PE, CODE_MICE)
    ).astype(np.int8)
    tau = int(config.tau)
    cum = np.where(
        is_elephant,
        _class_size(u_size, tau, CODE_ELEPHANT),
        np.where(
            is_pe,
            _class_size(u_size, tau, CODE_PE),
            _class_size(u_size, tau, CODE_MICE),
        ),
    )
    flow_ids = slots.astype(np.int64) + 1
    return flow_ids, cum, codes


def _log2_buckets(cum: np.ndarray) -> np.ndarray:
    """``FlowSizeDistribution.from_columns``' histogram bucket per flow.

    int8: a bucket is < 31.  Sizes below one byte land in bucket 0
    there, which is what clamping them to 1 before the log does here.
    """
    return np.minimum(
        np.log2(np.maximum(cum, 1)).astype(np.int8), HISTOGRAM_BUCKETS - 1
    )


class SlotColumns:
    """The flow slots of agents ``[agent_lo, agent_hi)``, run constants hoisted.

    The generator is counter-based: a slot's uniforms, and with them
    the size, log2 bucket and PE likelihood it *would* have in each of
    the three classes, are a function of ``(seed, slot)`` only.  They
    are computed here once; an interval chooses among them with two
    threshold compares.  Nothing else may be hoisted — in particular no
    finished column is memoised by profile, because a real fabric's
    columns change every interval and only what the generator defines
    as run-constant is constant.

    All arrays are ``(agents, flows_per_agent)``: row ``i`` is agent
    ``agent_lo + i``'s slice of what :func:`flow_columns` returns.
    """

    def __init__(
        self,
        config: TrafficConfig,
        agent_lo: int,
        agent_hi: int,
        tenants: np.ndarray,
    ):
        per = config.flows_per_agent
        shape = (agent_hi - agent_lo, per)
        tau = int(config.tau)
        slots = np.arange(agent_lo * per, agent_hi * per, dtype=np.uint64)
        u_class, u_size = _slot_uniforms(config.seed, slots)
        self.config = config
        self.tenants = tenants
        self._n_tenants = int(tenants.max()) + 1
        self.flow_ids = (slots.astype(np.int64) + 1).reshape(shape)
        self._u_class = u_class.reshape(shape)
        # from_columns' likelihood of a PE flow; elephants are 1.0 and
        # mice 0.0 whatever their size.
        self._pe_likelihood = np.minimum(
            1.0, _class_size(u_size, tau, CODE_PE) / tau
        ).reshape(shape)
        # Buckets as the mice column plus the step a slot takes when it
        # turns PE or elephant; see at().  One class at a time, so one
        # int64 size column is alive at once, not three.
        mice, pe, elephant = (
            _log2_buckets(_class_size(u_size, tau, code)).reshape(shape)
            for code in (CODE_MICE, CODE_PE, CODE_ELEPHANT)
        )
        self._buckets = (mice, pe - mice, elephant - mice)

    def at(self, interval: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(elephant likelihood, histogram bucket)`` of every slot."""
        profiles = [
            self.config.profile_at(tenant, interval)
            for tenant in range(self._n_tenants)
        ]
        p_e = np.array([p.elephant_fraction for p in profiles])[self.tenants]
        p_pe = np.array([p.pe_fraction for p in profiles])[self.tenants]
        is_elephant = self._u_class < p_e[:, None]
        is_pe = ~is_elephant & (self._u_class < (p_e + p_pe)[:, None])
        # The class selects, written as arithmetic on the 0/1 masks: at
        # most one mask is set per slot and x*1, x*0, x+0 are exact, so
        # this equals the nested np.where of flow_columns/from_columns
        # bit for bit, and vectorises where np.where does not (>5x).
        mice, pe_step, elephant_step = self._buckets
        return (
            is_elephant + is_pe * self._pe_likelihood,
            mice + is_pe * pe_step + is_elephant * elephant_step,
        )
