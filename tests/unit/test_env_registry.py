"""repro.env: parsing semantics, the read-only registry, and docs generation."""

from __future__ import annotations

import logging
from pathlib import Path

import pytest

from repro import env
from repro.cli import main
from repro.telemetry.log import level_from_env

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def test_every_runtime_variable_is_declared():
    assert set(env.REGISTRY) == {
        "REPRO_JOBS", "REPRO_EVAL_CACHE", "REPRO_TRACE", "REPRO_LOG_LEVEL",
    }
    # Read-only: nothing in the package writes the environment.
    assert not hasattr(env, "export_env") and not hasattr(env, "clear_env")
    for var in env.describe():
        assert var.name.startswith("REPRO_")
        assert var.kind in ("str", "int", "path")
        assert var.doc


def test_unknown_variable_raises():
    with pytest.raises(KeyError):
        env.get("REPRO_NOPE")
    with pytest.raises(KeyError):
        env.raw("REPRO_NOPE")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_int_parsing_clamps_and_falls_back(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert env.get("REPRO_JOBS") == 4
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert env.get("REPRO_JOBS") == 1  # clamped, matches old max(1, ...)
    monkeypatch.setenv("REPRO_JOBS", "four")
    with pytest.raises(ValueError, match="REPRO_JOBS.*'four'"):
        env.get("REPRO_JOBS")  # garbage fails loudly, never the default
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert env.get("REPRO_JOBS") is None  # resolver uses cpu count
    monkeypatch.setenv("REPRO_LOG_LEVEL", "verbose")
    with pytest.raises(ValueError, match="REPRO_LOG_LEVEL.*'verbose'"):
        level_from_env()  # not a level name: loud, never WARNING
    monkeypatch.setenv("REPRO_LOG_LEVEL", "info")
    assert level_from_env() == logging.INFO
    monkeypatch.setenv("REPRO_LOG_LEVEL", "15")
    assert level_from_env() == 15
    monkeypatch.setenv("REPRO_LOG_LEVEL", "")
    assert level_from_env() == logging.WARNING
    # A path variable naming a directory fails at parse time, naming
    # the variable -- before any evaluation runs or any file is opened.
    for name in ("REPRO_TRACE", "REPRO_EVAL_CACHE"):
        monkeypatch.setenv(name, str(tmp_path))
        with pytest.raises(ValueError, match=f"{name}.*directory"):
            env.get(name)
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path))
    with pytest.raises(ValueError, match="REPRO_EVAL_CACHE"):
        main(["sweep", "--scale", "small", "--duration", "0.004"])
    assert not list(tmp_path.parent.glob(f"{tmp_path.name}.*.tmp"))


def test_path_parsing_disable_sentinels(monkeypatch):
    for off in ("", "0", "off", "OFF"):
        monkeypatch.setenv("REPRO_TRACE", off)
        assert env.get("REPRO_TRACE") is None
    monkeypatch.setenv("REPRO_TRACE", "t.jsonl")
    assert env.get("REPRO_TRACE") == "t.jsonl"
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert env.get("REPRO_TRACE") is None

    monkeypatch.delenv("REPRO_EVAL_CACHE", raising=False)
    assert env.get("REPRO_EVAL_CACHE").endswith("eval_cache.json")
    monkeypatch.setenv("REPRO_EVAL_CACHE", "0")
    assert env.get("REPRO_EVAL_CACHE") is None


def test_consumers_resolve_through_the_registry(monkeypatch, cores):
    from repro.parallel.executor import resolve_jobs
    from repro.tuning.eval_cache import default_cache

    cores(8)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    monkeypatch.setenv("REPRO_EVAL_CACHE", "0")
    assert default_cache() is None
    monkeypatch.setenv("REPRO_EVAL_CACHE", "custom.json")
    cache = default_cache()
    assert cache is not None and str(cache.path) == "custom.json"


# ---------------------------------------------------------------------------
# Docs generation and the CLI subcommand
# ---------------------------------------------------------------------------


def test_markdown_table_lists_every_variable():
    table = env.markdown_table()
    assert table.startswith("| Variable | Type | Default | Meaning |")
    for var in env.describe():
        assert f"`{var.name}`" in table


def test_readme_env_table_is_generated_from_the_registry():
    """The README table is `python -m repro env --markdown` output."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert env.markdown_table() in readme, (
        "README env-var table is stale; regenerate with "
        "`python -m repro env --markdown` and paste between the "
        "env-table markers"
    )


def test_cli_env_subcommand(capsys):
    assert main(["env"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_JOBS" in out and "default:" in out

    assert main(["env", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("| Variable |")
    assert "`REPRO_TRACE`" in out
