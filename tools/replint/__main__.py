"""``python -m tools.replint`` — run the invariant suite.

::

    python -m tools.replint src                   # lint, text report
    python -m tools.replint src --format json     # machine-readable
    python -m tools.replint src --disable RL005   # skip one check
    python -m tools.replint --list-checks

Every run parses every file and runs every check.  Exit codes: 0 clean
(every finding suppressed by a pragma), 1 any finding or unparsable
file, 2 usage error.  Wall time prints to *stderr*, so stdout reports
are byte-identical between runs over the same tree.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from tools.replint.checks import default_checks
from tools.replint.core import run_replint
from tools.replint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description="repo-specific static analysis for reproducibility "
        "invariants (determinism, telemetry-schema sync, fork safety, "
        "layering, determinism taint, fork reachability, contract sync)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the report to PATH (used by CI for artifacts)",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="CHECK",
        help="disable a check id (repeatable), e.g. --disable RL005",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print the check catalog and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    checks = default_checks(disable=args.disable)

    if args.list_checks:
        for check in checks:
            print(f"{check.id}  {check.name:18s} {check.description}")
        return 0

    started = time.perf_counter()
    result = run_replint([Path(p) for p in args.paths], checks)
    elapsed = time.perf_counter() - started

    render = render_json if args.format == "json" else render_text
    report = render(result)
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n")
    print(
        f"replint: {elapsed:.3f}s wall ({result.files_scanned} files)",
        file=sys.stderr,
    )
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
