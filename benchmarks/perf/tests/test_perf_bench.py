"""The benchmark's own tests (``--quick`` sizes, whole file < 30 s).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


@functools.lru_cache(maxsize=None)
def run_once(workload: str, trace: int, seed: int = 1):
    """(exit status, last stdout line, full record) of one quick run."""
    out = PERF / "out" / f"test-{workload}-{trace}-{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    argv = [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--quick", "--out", str(out),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = run.main(argv)
    record = json.loads(out.read_text())
    out.unlink()
    return status, stdout.getvalue().strip().splitlines()[-1], record


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_runs_and_emits_exactly_the_declared_names(workload, trace):
    status, last_line, record = run_once(workload, trace)
    assert status == 0, record["notes"]
    result = json.loads(last_line)
    assert set(result) == CONTRACT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))
        if not trace:
            assert cell["value"] > 0, f"{metric['name']} must never be 0"


def test_benchmark_json_shape():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_sums_to_the_body_and_spans_nest(workload):
    _status, _line, record = run_once(workload, 1)
    assert record["metrics"]["bench.ledger_residual_frac"]["value"] < 0.02
    payload = json.loads((ROOT / record["spans_file"]).read_text())
    by_body: dict = {}
    for span in payload["spans"]:
        by_body.setdefault(span[2], []).append(span)
    assert by_body, "a traced run records spans"
    for spans in by_body.values():
        index = {s[0]: s for s in spans}
        roots = [s for s in spans if s[1] == -1]
        assert [s[3] for s in roots] == ["bench.body"]
        for span_id, parent, _body, _name, start, end in spans:
            assert start <= end
            if parent != -1:
                assert index[parent][4] <= start and end <= index[parent][5]


def test_bypass_predictions_hold():
    layer = {w: run_once(w, 1)[2]["metrics"] for w in WORKLOADS}

    def value(workload, name):
        return layer[workload][name]["value"]

    for name in layer["des-alltoall"]:
        if name.split(".")[0] in ("sketch", "monitor", "parallel"):
            assert value("des-alltoall", name) == 0, name
    assert value("des-alltoall", "simulator.param_dispatches") == 0
    assert value("monitor-stream", "simulator.run_s") == 0
    assert value("monitor-stream", "sketch.insert_s") > 0
    assert value("loop-influx", "sketch.insert_s") > 0
    assert value("loop-influx", "tuning.propose_s") > 0
    for workload in WORKLOADS:
        calls = value(workload, "parallel.map_calls")
        assert (calls > 0) == (workload == "cp-day")
    assert value("cp-day", "tuning.cache_hit_ratio") == 1
    assert value("cp-day", "tuning.cache_hits") == value("cp-day", "tuning.cache_misses")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_values_repeat_and_follow_the_seed(workload):
    first = run_once(workload, 1)[2]
    again = run_once(workload, 0)[2]   # a second run, and untraced
    other = run_once(workload, 1, seed=2)[2]
    assert again["digest"] == first["digest"]
    assert again["exact"] == first["exact"]
    assert again["metrics"]["quality"]["value"] > 0
    assert other["digest"] != first["digest"], "a new seed must change the inputs"
    assert set(other["metrics"]) == set(first["metrics"])


def test_refuses_leaked_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    with pytest.raises(SystemExit):
        run.check_env(scrub=False)
    run.check_env(scrub=True)
    assert "REPRO_JOBS" not in run.os.environ


def test_fails_without_the_program_under_test(tmp_path):
    """In a tree holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "cp-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_cp_day_leaves_no_process_behind():
    """Pool workers *and* multiprocessing's resource tracker end with the run."""
    # Every process the run starts inherits its stderr (the tracker too,
    # which outlives an unstopped run by ~15 ms): once the run has
    # ended, the pipe is at end-of-file only if they have all ended.
    done = subprocess.Popen(
        [sys.executable, str(PERF / "run.py"), "--workload", "cp-day", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    os.set_blocking(done.stderr.fileno(), False)
    assert done.wait() == 0  # no timeout: that would poll, and look too late
    try:
        while os.read(done.stderr.fileno(), 65536):
            pass
    except BlockingIOError:
        pytest.fail("a process the run started is still running after it")
    finally:
        done.stderr.close()


def test_compare_verdicts(tmp_path, capsys):
    def runs(*values):
        return dict(enumerate(values))

    flat = runs(1.0, 1.0, 1.0, 1.0)
    assert compare.verdict(flat, runs(1.2, 1.2, 1.2, 1.2), "lower", 0.1) == "worse"
    assert compare.verdict(flat, runs(0.8, 0.8, 0.8, 0.8), "lower", 0.1) == "better"
    assert compare.verdict(flat, runs(0.8, 0.8, 0.8, 0.8), "higher", 0.1) == "worse"
    # Better median, but it wins only half the pairs.
    assert compare.verdict(flat, runs(0.9, 0.9, 1.01, 1.01), "lower", 0.3) == "unchanged"
    noisy = runs(0.8, 0.9, 1.1, 1.2)
    assert compare.verdict(noisy, runs(0.5, 0.5, 0.5, 0.5), "lower", 0.1) == "unresolved"

    def result_set(path, wall):
        lines = []
        for seed in range(4):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
            metrics["decision_ms_p50"]["value"] = wall + 0.001 * seed
            lines.append(json.dumps(
                {"workload": "cp-day", "trace": 0, "seed": seed, "metrics": metrics}
            ))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    a = result_set(tmp_path / "a.jsonl", 1.0)
    b = result_set(tmp_path / "b.jsonl", 1.5)
    assert compare.main([a, a]) == 0
    assert compare.main([a, b]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([a]) == 0
