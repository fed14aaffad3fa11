#!/usr/bin/env python3
"""Summarise the benchmark results kept in ``.perfbench/results``.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]

For every workload it prints, per end-to-end metric of ``BENCHMARK.json``,
the number of runs, the median, the quartiles and the spread (distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), marking spreads above a
third of the metric's bound.  Per-layer metrics are shown as the median over
the traced runs.  ``--write`` stores the same figures, with the records
digest of every seed and the environment of the runs, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, ROOT  # noqa: E402


def load(trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted((OUT / "results").glob(f"*-trace{trace}.json")):
        saved = json.loads(path.read_text())
        runs.setdefault(saved["workload"], []).append(saved)
    return runs


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarise benchmark results.")
    parser.add_argument("--write", type=Path, help="write the summary to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    untraced, traced = load(0), load(1)

    summary: dict = {"workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = {"why": wl["why"], "end_to_end": {}, "per_layer": {}}
        runs = untraced.get(name, [])
        if runs:
            summary["env"] = runs[0]["env"]
            entry["records_digests"] = {r["seed"]: r["records_digest"]
                                        for r in sorted(runs, key=lambda r: r["seed"])}
            entry["failed"] = sum(r["failed"] for r in runs)
            entry["attempted"] = sum(r["attempted"] for r in runs)
            print(f"{name}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} failed")
            for metric in runs[0]["metrics"]:
                unit = runs[0]["metrics"][metric]["unit"]
                stats = spread([r["metrics"][metric]["value"] for r in runs])
                stats["unit"] = unit
                entry["end_to_end"][metric] = stats
                bound = bounds.get(metric)
                mark = "" if bound is None or stats["spread"] <= bound / 3 else "  > bound/3"
                if bound is not None and stats["spread"] > bound:
                    mark = "  > bound"
                print(f"  {metric:<22} median {stats['median']:>12.6g} {unit:<6} "
                      f"spread {stats['spread']:.4f}{mark}")
        for run in traced.get(name, []):
            for metric, m in run["metrics"].items():
                entry["per_layer"].setdefault(metric, {"unit": m["unit"], "values": []})
                entry["per_layer"][metric]["values"].append(m["value"])
        for metric, m in entry["per_layer"].items():
            m["median"] = statistics.median(m.pop("values"))
        summary["workloads"][name] = entry

    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
