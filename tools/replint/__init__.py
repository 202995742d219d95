"""replint: repo-specific static analysis for reproducibility invariants.

The paraleon reproduction sells *bit-stable* results — SHA-256 run
digests that survive process pools, eval caches, and fidelity modes.
The invariants that make those digests stable are social contracts
("never call wall-clock in a simulated path", "all RNG flows from a
seed", "telemetry emit sites match the schema catalog") until a tool
checks them.  ``replint`` is that tool: a small, stdlib-``ast``-only
lint suite whose checks encode *this repo's* rules, run on every
commit via ``make lint`` and the CI ``lint`` job.

The eleven checks (RL001-RL011) live in :mod:`tools.replint.checks`;
``python -m tools.replint --list-checks`` prints the catalog.  Every
run parses every file and runs every check.

Suppression: a per-line pragma ``# replint: disable=RL001`` (comma
lists and ``disable=all`` accepted) silences findings on that line,
and ``# replint: disable-file=RL001`` silences a check for the whole
file.  Pragmas are the only escape hatch, so every excused finding
carries its rationale at the site.

Run ``python -m tools.replint src`` (or ``make lint``).
"""

from tools.replint.core import (  # noqa: F401
    Check,
    FileContext,
    Finding,
    LintResult,
    run_replint,
)

__version__ = "1.0"
