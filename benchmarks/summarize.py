#!/usr/bin/env python3
"""Summarise benchmark runs.

    python3 benchmarks/summarize.py [RESULT_JSON ...] > summary.json

Reads the `result.json` files that run.py leaves under `.bench_out/` (all of
them by default) and prints one JSON object with, per workload:

- `end_to_end` and `per_layer`: per metric, the median over runs and the
  spread, i.e. the interquartile range over the median as
  `statistics.quantiles(values, n=4)` gives it;
- `tracing_overhead`: per end-to-end metric, the median over seeds with
  both a traced and an untraced run of traced ÷ untraced − 1 (run the two
  back to back: the machine's speed drifts over minutes);
- `digests`: per seed, the output digests of the untraced runs.

`baseline.json` next to this file is this output for the commit it names.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "runs": len(values)}
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / abs(median)
    return out


def summarize(paths: list[Path]) -> dict:
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    runs = [r for r in runs if not r["tiny"]]
    by_workload = defaultdict(list)
    for run in runs:
        by_workload[run["workload"]].append(run)
    summary = {"environment": runs[0]["environment"] if runs else None, "workloads": {}}
    for workload, group in sorted(by_workload.items()):
        untraced = [r for r in group if not r["trace"]]
        traced = [r for r in group if r["trace"]]
        entry = {}
        for key, subset in (("end_to_end", untraced), ("per_layer", traced)):
            names = subset[0][key] if subset else {}
            entry[key] = {n: spread([r[key][n] for r in subset]) for n in names}
        by_seed = {r["seed"]: r for r in untraced}
        pairs = [(by_seed[r["seed"]], r) for r in traced if r["seed"] in by_seed]
        if pairs:
            entry["tracing_overhead"] = {
                name: statistics.median(
                    t["end_to_end"][name] / u["end_to_end"][name] - 1 for u, t in pairs
                )
                for name in pairs[0][0]["end_to_end"]
            }
        entry["digests"] = {str(r["seed"]): r["digests"] for r in sorted(untraced, key=lambda r: r["seed"])}
        entry["runs_with_failures"] = sum(r["failed_ops_ratio"] > 0 for r in group)
        summary["workloads"][workload] = entry
    return summary


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / ".bench_out").glob("*/result.json"))
    if not paths:
        print("error: no result.json files", file=sys.stderr)
        return 2
    print(json.dumps(summarize(paths), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
