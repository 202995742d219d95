"""Central registry of ``REPRO_*`` environment variables.

Every environment knob the package honours is declared **once** here —
name, type, default, and a docstring — and every runtime read of the
process environment goes through this module.  That buys three
things the previous scattered ``os.environ.get`` calls could not:

* **One parsing convention.**  Disable-able paths accept
  ``0``/``off``/empty uniformly and reject a directory; integers clamp
  to >= 1 and reject non-numeric text.  Either failure is a
  ``ValueError`` naming the variable, raised before any work starts.
* **A self-documenting surface.**  ``python -m repro env`` lists every
  variable with its type, default, and current value;
  ``python -m repro env --markdown`` emits the README table, so docs
  are generated from the same declarations the runtime parses.
* **A statically checkable invariant.**  The replint RL004 check
  (``tools/replint``) flags any direct ``os.environ``/``os.getenv``
  access outside this file, so new knobs cannot bypass the registry.

The module is read-only: nothing in the package writes the process
environment, and no module configures itself from it at import time.
Reads are *live*: values are parsed from ``os.environ`` at call time,
so tests may monkeypatch the environment.  Telemetry reaches pool
workers on the chunk message (:func:`repro.telemetry.session`), never
through the environment.
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
            if os.path.isdir(raw):
                raise ValueError(
                    f"{self.name} must name a file, got the directory {raw!r}"
                )
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
    "Default of `--trace PATH`: append a structured JSONL trace of the "
    "command to this path; `0`/`off`/empty disables.",
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
