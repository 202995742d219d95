"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_list_schemes(capsys):
    assert main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    for scheme in ("default", "expert", "acc", "dcqcn+", "paraleon"):
        assert scheme in out


def test_pfc_plan(capsys):
    assert main(["pfc-plan", "--scale", "small", "--buffer-mb", "2"]) == 0
    out = capsys.readouterr().out
    assert "planned alpha" in out
    assert "headroom" in out


def test_run_command(capsys):
    code = main([
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.02", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean utility" in out
    assert "avg FCT slowdown" in out
    assert "dropped packets : 0" in out


def test_compare_command(capsys):
    code = main([
        "compare", "--schemes", "default,expert",
        "--workload", "hadoop", "--scale", "small",
        "--duration", "0.02", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Default" in out and "Expert" in out


def test_compare_rejects_unknown_scheme(capsys):
    code = main([
        "compare", "--schemes", "default,warpdrive",
        "--duration", "0.01", "--scale", "small",
    ])
    assert code == 2
    assert "unknown schemes" in capsys.readouterr().err


def test_run_with_jobs_flag_matches_default(capsys):
    argv = [
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.02", "--seed", "3",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    with_jobs = capsys.readouterr().out
    assert with_jobs == plain


def test_sweep_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # keep .repro_cache out of the repo
    code = main([
        "sweep", "--workload", "hadoop", "--scale", "small",
        "--duration", "0.004", "--skip", "1", "--jobs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid points     : 81" in out
    assert "best utility" in out
    assert "cache" in out
    assert (tmp_path / ".repro_cache" / "eval_cache.json").exists()
    # Second run is served from the persisted cache.
    assert main([
        "sweep", "--workload", "hadoop", "--scale", "small",
        "--duration", "0.004", "--skip", "1", "--jobs", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "81 hits" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "warpdrive"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--hybrid-engine", "lanes"],
        ["sweep", "--strategy", "thread"],
        ["run", "--batched-monitor"],
        ["bench", "trend"],
        ["sweep", "--strategy", "auto"],
        ["controlplane", "--strategy", "inline"],
        ["sweep", "--hybrid-engine", "hybrid"],
        ["run", "--hybrid-engine", "hybrid"],
        ["sweep", "--fidelity", "hybrid"],
        ["sweep", "--fidelity", "screen"],
        ["sweep", "--fidelity", "surrogate"],
        ["sweep", "--early-abort"],
    ],
)
def test_parser_rejects_the_removed_surface(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# Flight recorder / run report
# ---------------------------------------------------------------------------


def test_run_record_then_report_end_to_end(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    out = tmp_path / "report.html"
    code = main([
        "run", "--scheme", "paraleon", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.01", "--seed", "3",
        "--jobs", "1", "--no-cache", "--record", str(rec),
    ])
    assert code == 0
    assert "recording" in capsys.readouterr().out
    assert rec.exists()

    assert main(["report", str(rec), "--out", str(out)]) == 0
    assert "report written" in capsys.readouterr().out
    html = out.read_text()
    for section_id in ("fct-cdf", "queue-depth", "rate-alpha", "pfc-events"):
        assert f'id="{section_id}"' in html


def test_run_record_leaves_no_env_behind(tmp_path, monkeypatch):
    import os
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    assert main([
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.004", "--seed", "3",
        "--jobs", "1", "--no-cache", "--record", str(tmp_path / "r.json"),
        "--trace", str(tmp_path / "t.jsonl"),
    ]) == 0
    assert not [n for n in os.environ if n.startswith("REPRO_")]


def test_repro_trace_is_the_default_of_trace(tmp_path, monkeypatch):
    from repro.telemetry import trace
    from repro.telemetry.schema import validate_file

    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    assert not trace.active  # importing the package configured nothing
    assert main([
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.004", "--seed", "3",
        "--jobs", "1", "--no-cache",
    ]) == 0
    assert not trace.active
    count, problems = validate_file(path)
    assert count > 0 and problems == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--tenants", "2", "--shift-tenant", "5"],
        ["--shift-tenant", "-1"],
        ["--intervals", "5", "--shift-interval", "9"],
        ["--shift-interval", "-1"],
        ["--shift-interval", "0"],
        ["--shift-elephant", "1.7"],
        ["--shift-elephant", "0.95"],
        ["--theta", "nan"],
        ["--theta", "inf"],
        ["--theta", "-0.01"],
    ],
)
def test_controlplane_rejects_a_shift_that_cannot_happen(flags, capsys):
    """A shift outside the run (or at interval 0, with nothing earlier
    to diverge from) would pass as a quiet day, and so would a theta
    no KL can exceed (``kl > nan`` is never true); a bad shifted
    profile or a negative theta used to end in a traceback.  All are
    usage errors."""
    argv = [
        "controlplane", "--shards", "1", "--agents-per-shard", "64",
        "--jobs", "1", "--no-cache",
    ]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert "bad " in captured.err
    assert "triggers fired" not in captured.out


@pytest.mark.parametrize(
    "flags",
    [
        ["--screen-ratio", "0.5"],
        ["--workload", "incast", "--screen-ratio", "3"],
        ["--skip", "500", "--duration", "0.005"],
        ["--skip", "4"],
        ["--screen-ratio", "nan"],
        ["--screen-ratio", "inf"],
    ],
)
def test_sweep_usage_errors_exit_2(flags, capsys):
    """A bad screen ratio, a screen on a workload the fluid model
    cannot score, or a warm-up skip that leaves no interval to average
    is a usage error: one line on stderr, no DES run."""
    argv = ["sweep", "--scale", "small", "--duration", "0.004",
            "--skip", "1", "--jobs", "1", "--no-cache"]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert "bad sweep:" in captured.err
    assert "grid points" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["pfc-plan", "--buffer-mb", "0"],
        ["run", "--duration", "0"],
        ["run", "--monitor-interval-ms", "0"],
        ["sweep", "--duration", "-1"],
        ["compare", "--duration", "nan"],
        ["run", "--duration", "inf"],
        ["sweep", "--skip", "-3"],
        ["run", "--load", "nan"],
        ["compare", "--load", "-0.5"],
        ["sweep", "--load", "1"],
        ["telemetry", "--top", "0", "t.jsonl"],
        ["report", "--top", "-3", "r.json"],
    ],
)
def test_non_positive_values_exit_2(argv, capsys):
    """A value out of its range (a non-positive duration or top count,
    a negative skip, a load outside (0, 1)) fails in the parser: exit
    2 with the offending flag named on stderr, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_report_missing_recording_is_graceful(capsys, tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == 0
    assert "no recording at" in capsys.readouterr().out


def test_report_corrupt_recording_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 2


def test_telemetry_missing_trace_is_graceful(capsys, tmp_path):
    assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 0
    assert "nothing to report" in capsys.readouterr().out


def test_telemetry_empty_trace_is_graceful(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert main(["telemetry", str(empty)]) == 0
    assert "empty trace" in capsys.readouterr().out


def test_telemetry_validate_missing_still_fails(tmp_path):
    assert main(["telemetry", "--validate", str(tmp_path / "nope.jsonl")]) == 2
