PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint perf perf-ab report figures clean

# Tier-1 suite (the gate every PR must keep green).
test:
	$(PYTHON) -m pytest -x -q

# Repo-specific static analysis (tools/replint): determinism, wall-clock,
# telemetry-schema sync, env registry, fork safety, silent excepts, plus
# the whole-program passes (layering DAG, determinism taint, fork
# reachability, contract sync).  Every run parses the whole tree; wall
# time prints to stderr.
lint:
	$(PYTHON) -m tools.replint src

# The repo benchmark (BENCHMARK.json): four workloads, end-to-end and
# per-layer metrics, ~4 min.  See benchmarks/perf/README.md.
perf:
	python3 benchmarks/perf/run.py

# Verdicts for result set B against base A (files written by
# `benchmarks/perf/run.py --runs 10 --trace 0 --out FILE`):
#   make perf-ab A=benchmarks/perf/out/A.jsonl B=benchmarks/perf/out/B.jsonl
perf-ab:
	python3 benchmarks/perf/compare.py $(A) $(B)

# Record a short scenario and render the HTML run report.  influx keeps
# 32-56 QPs below line rate in every interval, so the rate/alpha plot
# shows DCQCN at work.
report:
	$(PYTHON) -m repro run --scheme paraleon --workload influx --scale small \
		--duration 0.02 --jobs 1 --no-cache \
		--record report_recording.json --trace report_trace.jsonl
	$(PYTHON) -m repro report report_recording.json \
		--trace-file report_trace.jsonl --out report.html
	@echo "wrote report.html"

# Regenerate every paper figure/table (slow).
figures:
	$(PYTHON) -m pytest benchmarks/ -q -s

clean:
	rm -rf .pytest_cache .hypothesis .repro_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
