"""Content-addressed cache of utility evaluations.

A simulated-annealing tuning process and the figure benchmarks both
evaluate *pure* functions: ``(scenario, seed, params) -> utility``.
The same parameter point is frequently revisited — SA walks back into
regions it has explored, re-runs of a figure sweep repeat every grid
point — so caching the mapping skips whole simulations.

Keys are content-addressed: a scenario *fingerprint* (any stable
string; :class:`repro.parallel.tasks.ScenarioSpec` provides one)
concatenated with the evaluation seed and a **quantized**
:class:`~repro.simulator.dcqcn.DcqcnParams` vector.  Quantization
(default 9 significant digits) makes keys robust against float
round-trip noise (e.g. JSON persistence) without merging genuinely
distinct parameter points: the coarsest tuning step in the search
space is many orders of magnitude above 1e-9 relative.

The cache stores a small payload dict (utility, digests, counters) —
never simulator objects — so it is trivially JSON-persistable.  Hit
and miss counters make cache effectiveness observable; the executor
and the CLI surface them.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional

from repro import env
from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace

#: Default on-disk location (override per-instance or with
#: ``REPRO_EVAL_CACHE``; ``--no-cache`` in the CLI disables entirely).
DEFAULT_CACHE_PATH = Path(env.REGISTRY["REPRO_EVAL_CACHE"].default)

_PARAM_FIELD_NAMES = tuple(sorted(f.name for f in fields(DcqcnParams)))


def quantize_params(params: DcqcnParams, sig_digits: int = 9) -> str:
    """A stable string key for a parameter vector.

    Floats are rounded to ``sig_digits`` significant digits so that a
    value surviving a JSON round-trip (or an equivalent-but-differently-
    computed float) maps to the same key; integral knobs pass through
    exactly.
    """
    parts = []
    values = params.as_dict()
    for name in _PARAM_FIELD_NAMES:
        value = values[name]
        if isinstance(value, float):
            parts.append(f"{name}={value:.{sig_digits}g}")
        else:
            parts.append(f"{name}={value}")
    return ";".join(parts)


class EvalCache:
    """In-memory map of evaluation keys to result payloads.

    Payloads are plain dicts (JSON-safe).  ``path=None`` keeps the
    cache memory-only; with a path, :meth:`load` / :meth:`save` persist
    it across runs — which is what lets a *repeated* figure benchmark
    or SA search skip re-simulation entirely.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        sig_digits: int = 9,
    ):
        self.path = Path(path) if path is not None else None
        self.sig_digits = sig_digits
        self._store: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self.load()

    # -- keys -----------------------------------------------------------

    def key(self, scenario_fp: str, seed: int, params: DcqcnParams) -> str:
        return f"{scenario_fp}|seed={seed}|{quantize_params(params, self.sig_digits)}"

    # -- access ---------------------------------------------------------

    def get(self, scenario_fp: str, seed: int, params: DcqcnParams) -> Optional[dict]:
        """Payload for a prior evaluation, or None (counts hit/miss)."""
        payload = self._store.get(self.key(scenario_fp, seed, params))
        hit = payload is not None
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if trace.active:
            trace.event(
                "cache.lookup", {"hit": hit, "scenario": scenario_fp, "seed": seed}
            )
        return payload

    def put(
        self, scenario_fp: str, seed: int, params: DcqcnParams, payload: dict
    ) -> None:
        self._store[self.key(scenario_fp, seed, params)] = payload

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 if none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    # -- persistence -----------------------------------------------------

    @staticmethod
    def _read(source: Path) -> Dict[str, dict]:
        """Entries on disk; a missing or corrupt file is simply cold."""
        try:
            data = json.loads(source.read_text())
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def load(self, path: Optional[os.PathLike] = None) -> int:
        """Merge entries from disk; returns the number loaded."""
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no cache path configured")
        data = self._read(source)
        self._store.update(data)
        return len(data)

    def save(self, path: Optional[os.PathLike] = None) -> None:
        """Write the union of this cache and what is on disk.

        Concurrent savers serialise on an exclusive lock (a sidecar
        file: the target itself is replaced, so its inode cannot carry
        one) and each folds in what the others wrote instead of
        overwriting it.  Evaluations are pure, so equal keys hold equal
        payloads and the union needs no conflict rule.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no cache path configured")
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target.with_name(target.name + ".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            merged = {**self._read(target), **self._store}
            tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(merged))
            tmp.replace(target)


def default_cache(enabled: bool = True) -> Optional[EvalCache]:
    """The process-wide default cache honouring ``REPRO_EVAL_CACHE``.

    ``REPRO_EVAL_CACHE`` may name a JSON file or be ``0``/empty to
    disable.  Returns None when disabled.
    """
    if not enabled:
        return None
    path = env.get("REPRO_EVAL_CACHE")
    if path is None:
        return None
    return EvalCache(path=path)
