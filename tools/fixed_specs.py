#!/usr/bin/env python3
"""Digest the records of the fixed specs, to show that a change kept them.

    python3 tools/fixed_specs.py

Runs ``mggp run`` for all 9 codenames, seeds 0-2: 3 generations on
``rs2d`` and 2 on ``ub5d`` (54 runs), with BLAS pinned to one thread.  It
prints one digest per spec (codename, dataset, seed) and one overall digest
of the records with their timing fields removed (``wall_time_s`` and the
elapsed-seconds column of ``history``).  Two checkouts, or two hash seeds,
that print the same lines produced the same records.  Records are written
to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mggp.cli import RECORDS_NAME, main  # noqa: E402

CODENAMES = ("baseline", "UM", "UB", "UC", "SM", "SB", "SC", "GB", "GC")
DATASETS = (("rs2d", 3), ("ub5d", 2))  # (dataset, generations)
SEEDS = 3  # seeds 0..SEEDS-1


def masked(line: str) -> dict:
    record = json.loads(line)
    del record["wall_time_s"]
    record["history"] = [row[:3] for row in record["history"]]
    return record


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def fixed_records() -> list[dict]:
    """The masked records of every fixed spec, in run order."""
    configs = [arg for name in CODENAMES for arg in ("--config", name)]
    with tempfile.TemporaryDirectory() as out:
        for dataset, generations in DATASETS:
            argv = ["run", "--dataset", dataset, *configs, "--runs", str(SEEDS),
                    "--generations", str(generations), "--seed", "0", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"mggp {' '.join(argv)} exited {code}")
        lines = (Path(out) / RECORDS_NAME).read_text().splitlines()
    return [masked(line) for line in lines]


def run() -> int:
    records = fixed_records()
    for record in records:
        spec = f"{record['codename']} {record['dataset']} seed={record['seed']}"
        print(f"{spec:<24} {digest(record)}")
    print(f"{'all ' + str(len(records)) + ' runs':<24} {digest(records)}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
