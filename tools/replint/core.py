"""replint framework: findings, pragmas, check protocol, runner.

Design goals, in order:

1. **Zero dependencies** — stdlib ``ast`` only, so the lint gate runs
   anywhere the repo's tests run (and in CI before any install step
   beyond the checkout).
2. **One way to run** — every lint parses every file and runs every
   check.  A check splits into a pure per-file :meth:`Check.extract`
   (AST -> facts) and :meth:`Check.file_findings` /
   :meth:`Check.finalize` passes that derive findings from facts; the
   whole-program passes (RL008-RL011) need every file's facts before
   they can finalise.
3. **Escape hatches that leave a paper trail** — a per-line pragma
   (``# replint: disable=RL001``) or a file-level pragma
   (``# replint: disable-file=RL009``), each at the site it excuses,
   are the only suppressions.

Everything user-visible is deterministically ordered: findings sort on
the total key ``(path, line, check, message)``, so runs on different
machines produce byte-identical reports.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from tools.replint.graph import ProjectGraph, extract_file_facts

#: Pragma grammar: ``# replint: disable=RL001`` / ``=RL001,RL005`` /
#: ``=all``, anywhere in the line's trailing comment.  The file-level
#: variant ``# replint: disable-file=RL009`` suppresses a check for
#: the whole file, wherever it appears (conventionally line 1).
_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)",
    re.IGNORECASE,
)
_FILE_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*disable-file="
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)",
    re.IGNORECASE,
)

_ALL = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    check: str  # "RL001"
    path: str  # repo-relative posix path
    line: int  # 1-based
    message: str

    @property
    def sort_key(self):
        """Total order: ties on (path, line, check) break on message,
        so report order never depends on check evaluation order."""
        return (self.path, self.line, self.check, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.check} {self.message}"


def _disabled_ids(match: re.Match) -> Set[str]:
    return {name.strip().lower() for name in match.group(1).split(",")}


class FileContext:
    """One parsed source file handed to every check's ``extract``."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: lineno -> lowercased check ids disabled on that line.
        self.pragmas: Dict[int, Set[str]] = {}
        #: Lowercased check ids disabled for the whole file.
        self.file_disables: Set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match is not None:
                self.pragmas[lineno] = _disabled_ids(match)
            match = _FILE_PRAGMA_RE.search(line)
            if match is not None:
                self.file_disables |= _disabled_ids(match)


@dataclass
class FileRecord:
    """Everything the runner keeps per file once its AST is gone."""

    relpath: str
    pragmas: Dict[int, Set[str]]
    file_disables: Set[str]
    graph: Dict
    facts: Dict[str, Any]  # check id -> extracted facts

    def suppressed(self, check_id: str, line: int) -> bool:
        wanted = check_id.lower()
        if _ALL in self.file_disables or wanted in self.file_disables:
            return True
        disabled = self.pragmas.get(line)
        if not disabled:
            return False
        return _ALL in disabled or wanted in disabled


class ProjectIndex:
    """Whole-program view handed to every check's ``finalize``."""

    def __init__(self, records: Sequence[FileRecord], root: Path):
        self.records = list(records)
        self.by_path: Dict[str, FileRecord] = {
            r.relpath: r for r in self.records
        }
        self.root = Path(root)
        self._graph: Optional[ProjectGraph] = None

    @property
    def graph(self) -> ProjectGraph:
        if self._graph is None:
            self._graph = ProjectGraph(
                {r.relpath: r.graph for r in self.records}
            )
        return self._graph

    def facts(self, check_id: str, relpath: str):
        record = self.by_path.get(relpath)
        return record.facts.get(check_id) if record else None


class Check:
    """Base class for one lint rule.

    Subclasses set ``id`` / ``name`` / ``description`` and implement
    some subset of:

    * :meth:`extract` — pure per-file AST -> facts (it must not read
      anything but the given :class:`FileContext`);
    * :meth:`file_findings` — findings derivable from one file's facts
      alone;
    * :meth:`finalize` — whole-program findings from the
      :class:`ProjectIndex` (graph, all files' facts).

    ``start`` resets per-run state so a check instance can be reused
    across runs (the test suite does).
    """

    id: str = "RL000"
    name: str = "base"
    description: str = ""

    def start(self) -> None:
        """Reset per-run state."""

    def extract(self, ctx: FileContext) -> Any:
        return None

    def file_findings(self, relpath: str, facts: Any) -> Iterable[Finding]:
        return ()

    def finalize(self, project: ProjectIndex) -> Iterable[Finding]:
        return ()

    # -- helpers shared by concrete checks ------------------------------

    def finding(self, ctx_or_path, line: int, message: str) -> Finding:
        relpath = (
            ctx_or_path.relpath
            if isinstance(ctx_or_path, FileContext)
            else str(ctx_or_path)
        )
        return Finding(self.id, relpath, line, message)


@dataclass
class LintResult:
    """Everything a reporter needs."""

    findings: List[Finding] = field(default_factory=list)  # unsuppressed
    parse_errors: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    checks: List[Check] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.parse_errors) else 0


# ---------------------------------------------------------------------------
# File discovery + runner
# ---------------------------------------------------------------------------


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through verbatim)."""
    found: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = sub.parts
                if any(
                    p == "__pycache__" or p.startswith(".") for p in parts
                ):
                    continue
                found.append(sub)
    return found


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _build_record(
    path: Path, relpath: str, source: str, checks: Sequence[Check]
) -> FileRecord:
    ctx = FileContext(path, relpath, source)
    return FileRecord(
        relpath=relpath,
        pragmas=ctx.pragmas,
        file_disables=ctx.file_disables,
        graph=extract_file_facts(relpath, ctx.tree),
        facts={check.id: check.extract(ctx) for check in checks},
    )


def run_replint(
    paths: Sequence[Path],
    checks: Sequence[Check],
    root: Optional[Path] = None,
) -> LintResult:
    """Run ``checks`` over every Python file under ``paths``.

    ``root`` anchors repo-relative paths in findings (defaults to the
    current working directory — i.e. the repo root when invoked via
    ``make lint`` / ``python -m tools.replint``).
    """
    root = Path(root) if root is not None else Path.cwd()
    result = LintResult(checks=list(checks))

    for check in checks:
        check.start()

    records: List[FileRecord] = []
    for path in iter_python_files(paths):
        relpath = _relpath(path, root)
        try:
            records.append(
                _build_record(path, relpath, path.read_text(), checks)
            )
        except (UnicodeDecodeError, OSError, SyntaxError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            result.parse_errors.append(
                Finding("PARSE", relpath, line, f"cannot analyze: {exc}")
            )
    result.files_scanned = len(records)

    project = ProjectIndex(records, root=root)

    raw: List[Finding] = []
    for check in checks:
        for record in records:
            raw.extend(
                check.file_findings(
                    record.relpath, record.facts.get(check.id)
                )
            )
        raw.extend(check.finalize(project))

    for finding in sorted(raw, key=lambda f: f.sort_key):
        record = project.by_path.get(finding.path)
        if record is None or not record.suppressed(
            finding.check, finding.line
        ):
            result.findings.append(finding)
    return result
