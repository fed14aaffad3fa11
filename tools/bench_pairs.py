#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree, in pairs.

    python3 tools/bench_pairs.py --base REV --workload NAME [--seeds N ...] [--seconds S]

Checks ``REV`` out with ``git worktree`` in a temporary directory, then
makes one pair of ``perfbench/run.py --trace 0`` runs per seed, one run in
the base checkout and one in the working tree.  Odd pairs run the base
first, even pairs the working tree first, so drift of the machine's speed
falls on both sides.  It prints one row per run: the pair, the side, the
records digest, the ``failed`` count and the end-to-end metrics of
``BENCHMARK.json``.  The worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def parse_run(stdout: str) -> dict:
    """The records digest, ``failed`` count and metric values of one
    ``perfbench/run.py`` output: the digest from its ``# <workload> ...
    records_digest=...`` line, the rest from its last line, one JSON
    object."""
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    digest = next(word.split("=", 1)[1] for line in lines if line.startswith("# ")
                  for word in line.split() if word.startswith("records_digest="))
    return {"digest": digest, "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def row(pair, side: str, run: dict) -> str:
    values = [f"{run['metrics'][name]:.6g}" for name in METRICS]
    return "\t".join([str(pair), side, run["digest"], str(run["failed"]), *values])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            print("\t".join(["pair", "side", "digest", "failed", *METRICS]))
            for pair, seed in enumerate(args.seeds, 1):
                sides = [("base", base), ("change", ROOT)]
                for side, checkout in sides if pair % 2 else sides[::-1]:
                    print(row(pair, side, bench(checkout, args.workload, seed, args.seconds)),
                          flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=ROOT, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
