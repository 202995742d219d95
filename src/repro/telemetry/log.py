"""Stdlib-logging shim: diagnostics to stderr, user output to stdout.

Every module in ``repro`` that previously reached for a bare
``print()`` now goes through this module:

* :func:`get_logger` — a child of the ``repro`` logger hierarchy.
  The root ``repro`` logger writes to **stderr** with a timestamped
  format; its level comes from the ``REPRO_LOG_LEVEL`` environment
  variable (default ``WARNING``), so diagnostics are silent by default
  and turn on without code changes.
* :func:`echo` — intentional **stdout** user-facing output (CLI
  tables, summaries).  Keeping it here, not in call sites as bare
  ``print``, separates "the product of the command" (stdout, pipeable)
  from "how it's going" (stderr, loggable) everywhere in the package.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

from repro import env

_ROOT_NAME = "repro"
_configured = False


class _DynamicStderrHandler(logging.StreamHandler):
    """StreamHandler that resolves ``sys.stderr`` at emit time.

    Binding the stream at handler creation would pin the stderr object
    that happened to be installed when the first logger was requested —
    wrong under capture harnesses (pytest capsys) and stream rebinding.
    """

    def __init__(self) -> None:
        super().__init__(sys.stderr)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # the base __init__ assigns; ignore
        pass


def _configure_root() -> None:
    global _configured
    if _configured:
        return
    root = logging.getLogger(_ROOT_NAME)
    if not root.handlers:
        handler = _DynamicStderrHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    root.setLevel(level_from_env())
    root.propagate = False
    _configured = True


def level_from_env(default: int = logging.WARNING) -> int:
    """Resolve ``REPRO_LOG_LEVEL`` (name or number) to a logging level.

    Empty or unset means ``default``; anything that is neither a
    decimal number nor a ``logging`` level name raises ``ValueError``.
    """
    raw = env.raw("REPRO_LOG_LEVEL") or ""
    text = raw.strip()
    if not text:
        return default
    if text.isdigit():
        return int(text)
    # getLevelName maps a registered name to its number and anything
    # else to a "Level ..." string (getLevelNamesMapping is 3.11+).
    level = logging.getLevelName(text.upper())
    if not isinstance(level, int):
        raise ValueError(
            f"REPRO_LOG_LEVEL must be a logging level name or number, "
            f"got {raw!r}"
        )
    return level


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Logger under the ``repro`` hierarchy (stderr, env-leveled)."""
    _configure_root()
    if name:
        return logging.getLogger(f"{_ROOT_NAME}.{name}")
    return logging.getLogger(_ROOT_NAME)


def set_level(level: int) -> None:
    """Override the package log level programmatically."""
    _configure_root()
    logging.getLogger(_ROOT_NAME).setLevel(level)


def echo(message: object = "") -> None:
    """User-facing output on stdout (the CLI's deliverable)."""
    sys.stdout.write(f"{message}\n")


def eecho(message: object = "") -> None:
    """User-facing *error* output on stderr (usage errors)."""
    sys.stderr.write(f"{message}\n")
