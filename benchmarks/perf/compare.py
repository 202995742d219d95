#!/usr/bin/env python3
"""Compare two result sets, or show the spread of one.

    python3 benchmarks/perf/compare.py A.jsonl            # noise band of A
    python3 benchmarks/perf/compare.py A.jsonl B.jsonl    # B against base A

A result set is the file ``run.py --out`` appends to: one JSON record
per run, several runs (seeds) per workload.  Only untraced records
carry end-to-end metrics; traced ones are ignored here.

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A (base A), the bound from ``BENCHMARK.json``
and a verdict (choosing-metrics sections 6-8):

* ``unresolved`` — a side's own quartiles are further apart than the
  bound, so the runs cannot resolve a move of that size;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread (the
  distance between A's quartiles) **and** B wins at least nine tenths
  of the pairs, a pair being the two runs of one seed, ties counting
  for neither side;
* ``unchanged`` — otherwise.

Exit status 1 when any row is ``worse``.  With one file the table is
that set's noise band: spread = (q3 - q1) / median, the number the
driver holds against the bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from harness import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict:
    """{(workload, metric): {seed: value}} over the untraced runs."""
    values = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        for metric, cell in record["metrics"].items():
            values[(record["workload"], metric)][record["seed"]] = cell["value"]
    return values


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a`` and ``b`` map seed -> value; see the module docstring."""
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    b_q1, b_med, b_q3 = quartiles(list(b.values()))
    if (a_q3 - a_q1) > bound * a_med or (b_q3 - b_q1) > bound * b_med:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    if sign * (b_med - a_med) < -bound * a_med:
        return "worse"
    pairs = [sign * (b[seed] - a[seed]) for seed in a if seed in b]
    wins = sum(1 for d in pairs if d > 0)
    losses = sum(1 for d in pairs if d < 0)
    if sign * (b_med - a_med) > (a_q3 - a_q1) and wins >= 0.9 * (wins + losses) > 0:
        return "better"
    return "unchanged"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    base = load(argv[0])
    other = load(argv[1]) if len(argv) == 2 else None
    worse = False
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in base or (other is not None and key not in other):
                continue
            a = quartiles(list(base[key].values()))
            row = (
                f"{workload:15s} {metric['name']:16s} "
                f"A {a[1]:12.6g} [{a[0]:.6g}, {a[2]:.6g}] n={len(base[key])}"
            )
            if other is None:
                share = spread(list(base[key].values()))
                flag = "" if share <= metric["bound"] / 3 else "  > bound/3"
                if share > metric["bound"]:
                    flag = "  > BOUND"
                print(f"{row}  spread {share:.4f}  bound {metric['bound']}{flag}")
                continue
            b = quartiles(list(other[key].values()))
            outcome = verdict(base[key], other[key], metric["better"], metric["bound"])
            worse = worse or outcome == "worse"
            print(
                f"{row}  B {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}] n={len(other[key])}  "
                f"B/A {b[1] / a[1] if a[1] else float('nan'):.4f} (base A)  "
                f"bound {metric['bound']}  {outcome}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
