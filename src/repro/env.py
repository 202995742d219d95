"""Central registry of ``REPRO_*`` environment variables.

Every environment knob the package honours is declared **once** here —
name, type, default, and a docstring — and every runtime read or write
of the process environment goes through this module.  That buys three
things the previous scattered ``os.environ.get`` calls could not:

* **One parsing convention.**  Disable-able paths accept
  ``0``/``off``/empty uniformly; integers clamp to >= 1 and reject
  non-numeric text with a ``ValueError`` naming the variable.
* **A self-documenting surface.**  ``python -m repro env`` lists every
  variable with its type, default, and current value;
  ``python -m repro env --markdown`` emits the README table, so docs
  are generated from the same declarations the runtime parses.
* **A statically checkable invariant.**  The replint RL004 check
  (``tools/replint``) flags any direct ``os.environ``/``os.getenv``
  access outside this file, so new knobs cannot bypass the registry.

Reads are *live*: values are parsed from ``os.environ`` at call time
(no import-time snapshot), so tests may monkeypatch the environment
and pool workers inherit whatever the parent exported via
:func:`export_env` before the pool spawned.
"""

from __future__ import annotations

import os  # the one module allowed to touch os.environ (replint RL004)
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

#: Strings that disable an optional-path variable.
_PATH_OFF = ("", "0", "off")


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment variable."""

    name: str
    kind: str  # "str" | "int" | "path"
    default: Any
    doc: str

    def parse(self, raw: Optional[str]) -> Any:
        """Parsed value of ``raw``; ``None``/empty falls to the default."""
        if raw is None:
            return self.default
        if self.kind == "int":
            text = raw.strip()
            if not text:
                return self.default
            try:
                return max(1, int(text))
            except ValueError:
                raise ValueError(
                    f"{self.name} must be an integer, got {raw!r}"
                ) from None
        if self.kind == "path":
            if raw.strip().lower() in _PATH_OFF:
                return None
            return raw
        if not raw:
            return self.default
        return raw


REGISTRY: Dict[str, EnvVar] = {}


def _declare(name: str, kind: str, default: Any, doc: str) -> EnvVar:
    var = EnvVar(name=name, kind=kind, default=default, doc=doc)
    REGISTRY[name] = var
    return var


# ---------------------------------------------------------------------------
# The catalog.  Order here is presentation order in `python -m repro env`
# and the generated README table.
# ---------------------------------------------------------------------------

_declare(
    "REPRO_JOBS", "int", None,
    "Worker processes for parallel evaluation; `--jobs N` overrides, "
    "CPU count is the fallback. Values < 1 clamp to 1.",
)
_declare(
    "REPRO_EVAL_CACHE", "path", str(os.path.join(".repro_cache", "eval_cache.json")),
    "Evaluation-cache JSON path; `0`/`off`/empty disables the cache "
    "(like `--no-cache`).",
)
_declare(
    "REPRO_TRACE", "path", None,
    "Append a structured JSONL trace of the run to this path (same as "
    "`--trace PATH`); `0`/`off`/empty disables. Pool workers inherit it.",
)
_declare(
    "REPRO_TRACE_RUN", "str", None,
    "Run id joining a trace already in progress; exported by "
    "`trace.configure` so pool workers tag records with the parent's "
    "run id. Not normally set by hand.",
)
_declare(
    "REPRO_RECORD", "path", None,
    "Write a flight-recorder snapshot of the run (queue depth, per-QP "
    "rate/alpha, PFC counters, flow lifecycle) to this JSON path (same "
    "as `--record PATH`); `0`/`off`/empty disables. Pool workers "
    "inherit it and ship recordings back with their results.",
)
_declare(
    "REPRO_RECORD_BUDGET", "int", 512,
    "Flight-recorder sample budget: when a run closes more monitor "
    "intervals than this, retained samples are stride-decimated "
    "deterministically so memory stays bounded at any run length.",
)
_declare(
    "REPRO_LOG_LEVEL", "str", "WARNING",
    "Level for the `repro.*` stderr logger: a name (`DEBUG`, `INFO`, "
    "...) or a numeric level; anything else raises `ValueError`.",
)


# ---------------------------------------------------------------------------
# Access API
# ---------------------------------------------------------------------------


def _lookup(name: str) -> EnvVar:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"{name} is not a registered REPRO_* variable; declare it in "
            "repro/env.py"
        ) from None


def raw(name: str) -> Optional[str]:
    """Unparsed ``os.environ`` value of a *registered* variable."""
    _lookup(name)
    return os.environ.get(name)


def get(name: str) -> Any:
    """Parsed, live value of a registered variable (default if unset)."""
    return _lookup(name).parse(os.environ.get(name))


def export_env(name: str, value: Any) -> None:
    """Publish ``name=value`` to the process environment.

    The registry is also the chokepoint for *writes*: values exported
    here are inherited by pool workers spawned afterwards (how
    ``--trace`` and ``--record`` propagate).
    """
    _lookup(name)
    os.environ[name] = str(value)


def clear_env(name: str) -> None:
    """Remove a registered variable from the process environment."""
    _lookup(name)
    os.environ.pop(name, None)


def describe() -> Iterator[EnvVar]:
    """Registered variables in declaration order."""
    return iter(REGISTRY.values())


# ---------------------------------------------------------------------------
# Introspection / docs generation (`python -m repro env`)
# ---------------------------------------------------------------------------


def _default_text(var: EnvVar) -> str:
    if var.default is None:
        return "unset"
    return f"`{var.default}`"


def markdown_table() -> str:
    """The README "Environment variables" table (generated, not typed)."""
    lines: List[str] = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for var in describe():
        lines.append(
            f"| `{var.name}` | {var.kind} | {_default_text(var)} "
            f"| {var.doc} |"
        )
    return "\n".join(lines)


def format_listing() -> str:
    """Human-readable listing with current values (the CLI default)."""
    lines: List[str] = []
    for var in describe():
        current = os.environ.get(var.name)
        state = f"= {current!r}" if current is not None else "(unset)"
        lines.append(f"{var.name:24s} {var.kind:5s} {state}")
        lines.append(f"    default: {_default_text(var)}")
        lines.append(f"    {var.doc}")
    return "\n".join(lines)
