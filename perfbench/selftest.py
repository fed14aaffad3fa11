#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a source checkout::

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For every workload it makes two traced runs, under ``PYTHONHASHSEED`` 0 and
5, and checks that

* each run is correct: its traced and untraced passes give the same records
  digest, and its own reach checks pass (``global_tune`` once per generation
  on ``global-ub5d`` and never on ``plain-rs2d``, ``ols_fit`` reached through
  ``mggp.backprop`` wherever tuning runs, the report's call counts);
* the per-layer counts and the records digest repeat exactly across the two
  runs;
* every wrapper is reached by some workload, apart from those
  ``tracing.UNREACHED`` names.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402
from tracing import TARGETS, UNREACHED  # noqa: E402

HASH_SEEDS = ("0", "5")


def traced_run(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}: {done.stderr.strip()}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    saved = json.loads((OUT / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {"result": last, "saved": saved}


def counts(run: dict) -> dict:
    """The deterministic per-layer figures: counts and count ratios."""
    metrics = run["result"]["metrics"]
    out = {k: m["value"] for k, m in metrics.items()
           if m["unit"] == "count" or (m["unit"] == "ratio" and not k.startswith("trace."))}
    out.update({f"calls.{k}": v for k, v in run["saved"]["calls"].items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-tests of the benchmark.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    reached: set[str] = set()
    for workload in workloads:
        runs = [traced_run(workload, args.seed, h) for h in HASH_SEEDS]
        for hash_seed, run in zip(HASH_SEEDS, runs):
            errors = run["saved"]["errors"]
            check(run["result"]["correct"],
                  f"{workload} PYTHONHASHSEED={hash_seed}: correct"
                  + (f" ({'; '.join(errors)})" if errors else ""))
        a, b = (counts(r) for r in runs)
        differ = sorted(k for k in a if a[k] != b.get(k))
        check(not differ, f"{workload}: per-layer counts repeat across hash seeds"
              + (f" (differ: {', '.join(differ)})" if differ else ""))
        digests = {r["saved"]["records_digest"] for r in runs}
        check(len(digests) == 1, f"{workload}: records digest repeats ({', '.join(sorted(digests))})")
        reached |= {name for name, n in runs[0]["saved"]["calls"].items() if n > 0}

    if set(workloads) == set(WORKLOADS):
        missing = sorted({name for _, _, name in TARGETS} - UNREACHED - reached)
        check(not missing, "every wrapper is reached"
              + (f" (never: {', '.join(missing)})" if missing else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
