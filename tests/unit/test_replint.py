"""replint: per-check fixtures, suppression paths, and the self-run gate.

Each check gets a positive fixture (seeded violation detected), a
negative fixture (idiomatic code passes), and both pragma forms (per
line, per file) are exercised end to end.  The whole-program passes
(RL008-RL011) get multi-file fixture packages.  The final tests are
the actual repo gate: ``src/`` lints with zero findings, and the
telemetry emit sites round-trip exactly against the schema catalog.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from tools.replint.checks import default_checks
from tools.replint.checks.telemetry import (
    extract_catalog,
    extract_emit_sites,
)
from tools.replint.core import run_replint
from tools.replint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A minimal schema module so RL003 has a catalog inside lint fixtures.
SCHEMA_FIXTURE = """
EVENT_ATTRS = {
    "cache.lookup": ("hit", "scenario", "seed"),
}
SPAN_ATTRS = {
    "eval.task": ("seed", "kind"),
}
"""


def lint(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_replint([tmp_path], default_checks(), root=tmp_path)


def checks_of(result):
    return [f.check for f in result.findings]


# ---------------------------------------------------------------------------
# RL001 unseeded-rng
# ---------------------------------------------------------------------------


def test_rl001_flags_module_level_rng(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/foo.py": """
            import random
            import numpy as np

            def jitter():
                return random.random() + np.random.rand()
        """,
    })
    assert checks_of(result) == ["RL001", "RL001"]


def test_rl001_flags_unseeded_constructors(tmp_path):
    result = lint(tmp_path, {
        "src/repro/workloads/foo.py": """
            import random
            import numpy as np

            rng = random.Random()
            gen = np.random.default_rng()
        """,
    })
    assert checks_of(result) == ["RL001", "RL001"]


def test_rl001_allows_seeded_and_instance_rng(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/foo.py": """
            import random
            import numpy as np

            def make(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.uniform()
        """,
    })
    assert result.findings == []


def test_rl001_ignores_files_outside_deterministic_packages(tmp_path):
    result = lint(tmp_path, {
        "src/repro/experiments/foo.py": """
            import random

            def roll():
                return random.random()
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL002 wall-clock
# ---------------------------------------------------------------------------


def test_rl002_flags_wall_clock_reads(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            import time
            from time import perf_counter
            from datetime import datetime

            def stamp():
                return time.time(), perf_counter(), datetime.now()
        """,
    })
    assert checks_of(result) == ["RL002", "RL002", "RL002"]


def test_rl002_allowlists_timing_shims(tmp_path):
    result = lint(tmp_path, {
        "src/repro/parallel/tasks.py": """
            import time

            def wall():
                return time.perf_counter()
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL003 telemetry-sync
# ---------------------------------------------------------------------------


def test_rl003_flags_unknown_name_and_attr_drift(tmp_path):
    result = lint(tmp_path, {
        "src/repro/telemetry/schema.py": SCHEMA_FIXTURE,
        "src/repro/core/foo.py": """
            from repro.telemetry import trace

            def probe():
                trace.event("no.such.event", {"x": 1})
                trace.event("cache.lookup", {"hit": True})
                trace.event(
                    "cache.lookup",
                    {"hit": True, "scenario": "fp", "seed": 1, "bogus": 2},
                )
        """,
    })
    messages = [f.message for f in result.findings]
    assert len(messages) == 3
    assert "not in the telemetry catalog" in messages[0]
    assert "missing catalogued keys: scenario, seed" in messages[1]
    assert "not in catalog: bogus" in messages[2]


def test_rl003_spread_suppresses_missing_not_extra(tmp_path):
    result = lint(tmp_path, {
        "src/repro/telemetry/schema.py": SCHEMA_FIXTURE,
        "src/repro/core/foo.py": """
            from repro.telemetry import trace

            def probe(snapshot):
                trace.event("cache.lookup", {**snapshot, "hit": True})
                trace.event("cache.lookup", {**snapshot, "oops": 1})
        """,
    })
    messages = [f.message for f in result.findings]
    assert len(messages) == 1
    assert "not in catalog: oops" in messages[0]


def test_rl003_matching_site_and_span_pass(tmp_path):
    result = lint(tmp_path, {
        "src/repro/telemetry/schema.py": SCHEMA_FIXTURE,
        "src/repro/core/foo.py": """
            from repro.telemetry import trace

            def probe():
                trace.event(
                    "cache.lookup", {"hit": True, "scenario": "f", "seed": 0}
                )
                with trace.span("eval.task", {"seed": 1, "kind": "params"}):
                    pass
        """,
    })
    assert result.findings == []


def test_rl003_without_schema_in_tree_is_silent(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            from repro.telemetry import trace

            def probe():
                trace.event("anything.goes", {"x": 1})
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL004 env-registry
# ---------------------------------------------------------------------------


def test_rl004_flags_direct_environ_access(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            import os

            def jobs():
                os.environ["REPRO_JOBS"] = "4"
                return os.getenv("REPRO_JOBS")
        """,
    })
    assert checks_of(result) == ["RL004", "RL004"]


def test_rl004_allows_the_registry_itself(tmp_path):
    result = lint(tmp_path, {
        "src/repro/env.py": """
            import os

            def raw(name):
                return os.environ.get(name)
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL005 fork-safety
# ---------------------------------------------------------------------------


def test_rl005_flags_lambda_and_nested_callable_submissions(tmp_path):
    result = lint(tmp_path, {
        "src/repro/parallel/foo.py": """
            def sweep(pool, tasks):
                futures = [pool.submit(lambda t: t.run(), t) for t in tasks]

                def helper(t):
                    return t.run()

                futures.append(pool.submit(helper, tasks[0]))
                return futures
        """,
    })
    assert checks_of(result) == ["RL005", "RL005"]


def test_rl005_flags_lambda_in_eval_task(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            from repro.parallel import EvalTask

            def make(spec):
                return EvalTask(scenario=spec, stop_when=lambda s: False)
        """,
    })
    assert checks_of(result) == ["RL005"]


def test_rl005_flags_module_level_mutable_state_in_parallel(tmp_path):
    result = lint(tmp_path, {
        "src/repro/parallel/foo.py": """
            _CACHE = {}
            _SLOTS: list = []
            _OK = None
            __all__ = ["run"]
        """,
    })
    assert checks_of(result) == ["RL005", "RL005"]


def test_rl005_module_state_ok_outside_pool_packages(tmp_path):
    result = lint(tmp_path, {
        "src/repro/sketch/foo.py": """
            _TABLE = {}
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL006 silent-except
# ---------------------------------------------------------------------------


def test_rl006_flags_silent_broad_handlers(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
                try:
                    return None
                except:
                    pass
        """,
    })
    assert checks_of(result) == ["RL006", "RL006"]


def test_rl006_allows_narrow_or_handled(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            def load(path):
                try:
                    return open(path).read()
                except OSError:
                    pass
                try:
                    return None
                except Exception as exc:
                    raise RuntimeError("context") from exc
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL007 pool-boundary
# ---------------------------------------------------------------------------


def test_rl007_flags_fabric_constructors_outside_parallel(tmp_path):
    result = lint(tmp_path, {
        "src/repro/tuning/foo.py": """
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import shared_memory

            def fan_out(tasks):
                with ProcessPoolExecutor(4) as pool:
                    list(pool.map(str, tasks))
                shared_memory.SharedMemory(create=True, size=64)
        """,
    })
    assert checks_of(result) == ["RL007", "RL007"]


def test_rl007_flags_multiprocessing_workers_outside_parallel(tmp_path):
    result = lint(tmp_path, {
        "src/repro/tuning/foo.py": """
            import multiprocessing

            def fan_out(tasks):
                with multiprocessing.Pool(2) as pool:
                    pool.map(str, tasks)

            def spawn(target):
                worker = multiprocessing.get_context("fork").Process(
                    target=target, daemon=True
                )
                worker.start()
                return worker
        """,
    })
    assert checks_of(result) == ["RL007", "RL007"]
    assert [f.line for f in result.findings] == [5, 9]


def test_rl007_allows_fabric_inside_parallel_and_threads_anywhere(tmp_path):
    result = lint(tmp_path, {
        "src/repro/parallel/pool.py": """
            import multiprocessing
            from multiprocessing import shared_memory

            def make_slot(size):
                return shared_memory.SharedMemory(create=True, size=size)

            def spawn(target):
                return multiprocessing.get_context("fork").Process(target=target)

            def fan_out(tasks):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(str, tasks)
        """,
        "src/repro/report/foo.py": """
            from concurrent.futures import ThreadPoolExecutor

            def render_all(pages):
                with ThreadPoolExecutor(2) as pool:
                    return list(pool.map(str, pages))
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL008 layering (whole-program: architecture DAG from layers.toml)
# ---------------------------------------------------------------------------


def test_rl008_flags_upward_import(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/a.py": """
            from repro.tuning.b import helper

            def use():
                return helper()
        """,
        "src/repro/tuning/b.py": """
            def helper():
                return 1
        """,
    })
    assert checks_of(result) == ["RL008"]
    assert "higher layer 'tuning'" in result.findings[0].message
    assert result.findings[0].path == "src/repro/simulator/a.py"


def test_rl008_flags_lazy_upward_but_exempts_typeonly(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/a.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.tuning.b import Helper

            def go():
                from repro.tuning.b import helper
                return helper()
        """,
        "src/repro/tuning/b.py": """
            def helper():
                return 1

            class Helper:
                pass
        """,
    })
    assert checks_of(result) == ["RL008"]
    assert "(lazy)" in result.findings[0].message


def test_rl008_flags_eager_import_cycle(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/a.py": "import repro.core.b\n",
        "src/repro/core/b.py": "import repro.core.a\n",
    })
    assert checks_of(result) == ["RL008"]
    assert "eager import cycle" in result.findings[0].message


def test_rl008_lazy_import_breaks_cycle_and_downward_is_fine(tmp_path):
    result = lint(tmp_path, {
        # Downward edge (tuning -> simulator): allowed.
        "src/repro/tuning/b.py": """
            from repro.simulator.a import helper

            def use():
                return helper()
        """,
        # a <-> b cycle where one direction is lazy: not an eager cycle.
        "src/repro/simulator/a.py": """
            def helper():
                from repro.simulator.c import deep
                return deep()
        """,
        "src/repro/simulator/c.py": """
            from repro.simulator.a import helper

            def deep():
                return 0
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL009 determinism taint (whole-program: sources -> digest sinks)
# ---------------------------------------------------------------------------


def test_rl009_taint_flows_through_helper_across_modules(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/helper.py": """
            import os

            def token():
                return os.urandom(8)
        """,
        "src/repro/tuning/agg.py": """
            from repro.simulator.helper import token

            def seal(run_digest):
                return run_digest(token())
        """,
    })
    assert checks_of(result) == ["RL009"]
    assert "run_digest" in result.findings[0].message
    assert result.findings[0].path == "src/repro/tuning/agg.py"


def test_rl009_sorted_sanitizes_the_flow(tmp_path):
    result = lint(tmp_path, {
        "src/repro/simulator/helper.py": """
            import os

            def token():
                return os.urandom(8)
        """,
        "src/repro/tuning/agg.py": """
            from repro.simulator.helper import token

            def seal(run_digest):
                return run_digest(sorted(token()))
        """,
    })
    assert result.findings == []


def test_rl009_strict_packages_flag_set_iteration_structurally(tmp_path):
    result = lint(tmp_path, {
        "src/repro/sketch/s.py": """
            def tally(items):
                seen = set(items)
                total = 0
                for x in seen:
                    total += x
                return total

            def total(items):
                return sum(set(items))

            def ordered(items):
                seen = set(items)
                return [x for x in sorted(seen)]
        """,
    })
    assert checks_of(result) == ["RL009", "RL009"]
    assert "iteration over a set" in result.findings[0].message
    assert "sum() over a set" in result.findings[1].message


def test_rl009_sink_fields_are_scoped_to_digest_fields(tmp_path):
    # wall_time / worker_pid are deliberate per-process metrics; only
    # the digest-bearing EvalResult fields are sinks.
    result = lint(tmp_path, {
        "src/repro/parallel/res.py": """
            import os

            def pack(EvalResult):
                return EvalResult(
                    wall_time=os.getpid(),
                    worker_pid=os.getpid(),
                    fct_digest=os.urandom(4),
                )
        """,
    })
    assert checks_of(result) == ["RL009"]
    assert "EvalResult.fct_digest" in result.findings[0].message


# ---------------------------------------------------------------------------
# RL010 fork reachability (whole-program: worker closure vs globals)
# ---------------------------------------------------------------------------


def test_rl010_flags_worker_reachable_global_mutation(tmp_path):
    result = lint(tmp_path, {
        "src/repro/tuning/state.py": """
            _HITS = {}

            def bump(key):
                _HITS[key] = 1
        """,
        "src/repro/parallel/worker.py": """
            from repro.tuning.state import bump

            def _worker_main():
                bump("x")
        """,
    })
    assert checks_of(result) == ["RL010"]
    assert "mutates module-level '_HITS'" in result.findings[0].message
    assert result.findings[0].path == "src/repro/tuning/state.py"


def test_rl010_flags_reads_of_runtime_mutated_state(tmp_path):
    result = lint(tmp_path, {
        "src/repro/tuning/state.py": """
            _HITS = {}

            def bump(key):
                _HITS[key] = 1

            def peek():
                return len(_HITS)
        """,
        "src/repro/parallel/worker.py": """
            from repro.tuning.state import peek

            def _worker_main():
                return peek()
        """,
    })
    assert checks_of(result) == ["RL010"]
    assert "reads module-level '_HITS'" in result.findings[0].message


def test_rl010_unreachable_mutation_is_fine(tmp_path):
    result = lint(tmp_path, {
        "src/repro/tuning/state.py": """
            _HITS = {}

            def bump(key):
                _HITS[key] = 1
        """,
        "src/repro/parallel/worker.py": """
            def _worker_main():
                return None
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# RL011 contract sync (env.py / cli.py / README / build files)
# ---------------------------------------------------------------------------

ENV_FIXTURE = """
    def _declare(name, kind, default, doc):
        return default

    JOBS = _declare("REPRO_JOBS", "int", 0, "workers (see `--jobs`)")
    TRACE = _declare("REPRO_TRACE", "str", "", "trace (see `--trace`)")
"""


def test_rl011_flags_flag_and_readme_drift(tmp_path):
    result = lint(tmp_path, {
        "src/repro/env.py": ENV_FIXTURE,
        "src/repro/cli.py": """
            import argparse

            def build():
                parser = argparse.ArgumentParser()
                parser.add_argument("--jobs")
                return parser
        """,
        "README.md": """
            <!-- env-table:begin -->
            | `REPRO_JOBS` | str | 0 | workers |
            | `REPRO_STALE` | int | 1 | gone |
            <!-- env-table:end -->
        """,
    })
    messages = sorted(f.message for f in result.findings)
    assert checks_of(result) == ["RL011"] * 4
    assert any("'--trace' which cli.py does not declare" in m
               for m in messages)
    assert any("REPRO_TRACE is missing from the README" in m
               for m in messages)
    assert any("lists REPRO_JOBS as 'str' but env.py declares 'int'" in m
               for m in messages)
    assert any("REPRO_STALE which env.py no longer declares" in m
               for m in messages)


def test_rl011_flags_build_file_drift(tmp_path):
    result = lint(tmp_path, {
        "src/repro/env.py": ENV_FIXTURE,
        "src/repro/cli.py": """
            import argparse

            def build():
                parser = argparse.ArgumentParser()
                parser.add_argument("--jobs")
                parser.add_argument("--trace")
                return parser
        """,
        "tests/unit/test_x.py": """
            def test_present():
                pass
        """,
        "Makefile": """
            bench:
            \tREPRO_BOGUS=1 pytest tests/unit/test_x.py::test_missing -q
        """,
    })
    messages = sorted(f.message for f in result.findings)
    assert checks_of(result) == ["RL011"] * 2
    assert any("defines no function 'test_missing'" in m for m in messages)
    assert any("mentions REPRO_BOGUS which env.py does not declare" in m
               for m in messages)


def test_rl011_in_sync_artifacts_pass(tmp_path):
    result = lint(tmp_path, {
        "src/repro/env.py": ENV_FIXTURE,
        "src/repro/cli.py": """
            import argparse

            def build():
                parser = argparse.ArgumentParser()
                parser.add_argument("--jobs")
                parser.add_argument("--trace")
                return parser
        """,
        "README.md": """
            <!-- env-table:begin -->
            | `REPRO_JOBS` | int | 0 | workers |
            | `REPRO_TRACE` | str |  | trace |
            <!-- env-table:end -->
        """,
        "tests/unit/test_x.py": """
            def test_present():
                pass
        """,
        "Makefile": """
            bench:
            \tREPRO_JOBS=2 pytest tests/unit/test_x.py::test_present -q
        """,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# Suppression: pragmas
# ---------------------------------------------------------------------------


def test_pragma_suppresses_on_the_flagged_line(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            def load(path):
                try:
                    return open(path).read()
                except Exception:  # replint: disable=RL006
                    pass
        """,
    })
    assert result.findings == []


def test_pragma_disable_all_and_case_insensitivity(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            import os

            def a():
                return os.getenv("REPRO_JOBS")  # replint: disable=all

            def b():
                return os.getenv("REPRO_JOBS")  # replint: disable=rl004
        """,
    })
    assert result.findings == []


def test_pragma_on_other_line_does_not_suppress(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            # replint: disable=RL004
            import os

            def a():
                return os.getenv("REPRO_JOBS")
        """,
    })
    assert checks_of(result) == ["RL004"]


def test_file_pragma_disables_one_check_for_the_whole_file(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            # replint: disable-file=RL004
            import os

            def a():
                return os.getenv("REPRO_JOBS")

            def b():
                return os.getenv("REPRO_TRACE")
        """,
    })
    assert result.findings == []


def test_file_pragma_leaves_other_checks_armed(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            # replint: disable-file=RL004
            import os

            def a():
                try:
                    return os.getenv("REPRO_JOBS")
                except Exception:
                    pass
        """,
    })
    assert checks_of(result) == ["RL006"]


# ---------------------------------------------------------------------------
# Reporters and CLI
# ---------------------------------------------------------------------------


def test_json_reporter_shape(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            import os

            def a():
                return os.getenv("REPRO_JOBS")
        """,
    })
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["counts"] == {"new": 1}
    assert payload["exit_code"] == 1
    [finding] = payload["findings"]
    assert finding["check"] == "RL004"
    assert finding["path"] == "src/repro/core/foo.py"
    assert {c["id"] for c in payload["checks"]} == {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL010", "RL011",
    }


def test_text_reporter_mentions_location_and_summary(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/foo.py": """
            import os

            def a():
                return os.getenv("REPRO_JOBS")
        """,
    })
    text = render_text(result)
    assert "src/repro/core/foo.py:" in text
    assert "RL004" in text
    assert "1 finding(s)" in text


def test_parse_error_is_reported_and_fails(tmp_path):
    result = lint(tmp_path, {"src/repro/core/foo.py": "def broken(:\n"})
    assert result.findings == []
    assert len(result.parse_errors) == 1
    assert result.exit_code == 1


def test_cli_main_list_checks_and_disable(tmp_path, capsys, monkeypatch):
    from tools.replint.__main__ import main

    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "RL003" in out and "telemetry-sync" in out
    assert "RL008" in out and "layering" in out
    assert "RL009" in out and "determinism-taint" in out
    assert "RL010" in out and "fork-reachability" in out
    assert "RL011" in out and "contract-sync" in out
    assert "RL012" not in out

    target = tmp_path / "src" / "repro" / "core" / "foo.py"
    target.parent.mkdir(parents=True)
    target.write_text("import os\nVALUE = os.getenv('REPRO_JOBS')\n")
    monkeypatch.chdir(tmp_path)
    assert main([str(target)]) == 1
    assert main([str(target), "--disable", "RL004"]) == 0


def test_cli_main_json_output_file(tmp_path, capsys, monkeypatch):
    from tools.replint.__main__ import main

    target = tmp_path / "src" / "repro" / "core" / "foo.py"
    target.parent.mkdir(parents=True)
    target.write_text("X = 1\n")
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "replint.json"
    assert main(
        [str(target), "--format", "json", "--output", str(report)]
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["exit_code"] == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The repo gate: src/ is clean, and the telemetry catalog round-trips
# ---------------------------------------------------------------------------


def test_self_run_over_src_is_clean():
    result = run_replint([REPO_ROOT / "src"], default_checks(), root=REPO_ROOT)
    assert result.parse_errors == []
    assert result.findings == [], [f.format() for f in result.findings]


def test_telemetry_catalog_round_trip():
    """Emit sites and the schema catalog agree exactly, both ways."""
    from repro.telemetry.schema import EVENT_ATTRS, SPAN_ATTRS

    schema_path = REPO_ROOT / "src" / "repro" / "telemetry" / "schema.py"
    events, spans = extract_catalog(ast.parse(schema_path.read_text()))
    # The runtime catalog is statically evaluable and identical.
    assert events == EVENT_ATTRS
    assert spans == SPAN_ATTRS

    emitted = {"event": set(), "span": set()}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relpath = path.relative_to(REPO_ROOT).as_posix()
        if relpath.endswith(
            ("repro/telemetry/trace.py", "repro/telemetry/schema.py")
        ):
            continue
        for site in extract_emit_sites(
            ast.parse(path.read_text()), relpath
        ):
            assert site.name is not None, f"dynamic name at {relpath}"
            emitted[site.kind].add(site.name)
            catalog = EVENT_ATTRS if site.kind == "event" else SPAN_ATTRS
            assert site.name in catalog, f"{site.name} not catalogued"
            if site.attrs_is_literal and not site.has_spread:
                assert set(site.keys) == set(catalog[site.name]), (
                    f"{relpath}:{site.line} {site.name} keys "
                    f"{sorted(site.keys)} != catalog "
                    f"{sorted(catalog[site.name])}"
                )
    # ... and nothing in the catalog is an orphan: every declared
    # record name has at least one emit site in the tree.
    assert emitted["event"] == set(EVENT_ATTRS)
    assert emitted["span"] == set(SPAN_ATTRS)


def test_recorder_and_report_names_in_catalog():
    """The flight-recorder / run-report emit sites are catalogued with
    the attribute tuples their call sites actually use (satellite of
    the recorder PR; the round-trip test above covers the mechanics,
    this pins the specific names so a rename cannot slip through as a
    paired catalog+site edit by accident).
    """
    from repro.telemetry.schema import EVENT_ATTRS, SPAN_ATTRS

    assert EVENT_ATTRS["record.snapshot"] == (
        "samples", "seen", "stride", "flows", "budget"
    )
    assert SPAN_ATTRS["report.render"] == ("source", "format")
