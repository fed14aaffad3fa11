"""Command-line experiment harness.

Subcommands
-----------
gen      write a generated benchmark dataset (train/test CSV pair + manifest)
run      execute seeded runs for one or more configuration codenames,
         appending one JSON record per run to ``records.jsonl`` and
         skipping the runs it already records
report   per-configuration summary table (text + CSV), with a
         versus-baseline Mann-Whitney verdict when baseline records exist
compare  rank-test two configurations from a records file

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .bench import GENERATORS, generate, load_csv, save_csv, split
from .errors import DataError, MggpError
from .evolve import EngineConfig, ModeConfig, RunBudget, run as run_engine
from .stats import compare_vs_baseline, mann_whitney_u, bonferroni, summarize

RECORDS_NAME = "records.jsonl"


@dataclasses.dataclass
class RunRecord:
    """One completed run, serialisable losslessly to a JSON line."""

    codename: str
    seed: int
    dataset: str
    dim: int
    train_r2: float
    test_r2: float
    lcf_ratio: float
    mean_depth: float
    generations: int
    wall_time_s: float
    history: list
    best_genes: list
    best_coeffs: list

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        return cls(**json.loads(line))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mggp", description="Symbolic-regression experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark dataset")
    p_gen.add_argument("dataset", help=f"generator name, one of {sorted(GENERATORS)}")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".", help="output directory")

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--dataset", required=True,
                       help="generator name or path to a CSV file")
    p_run.add_argument("--config", action="append", default=None,
                       help="configuration codename (repeatable); default baseline")
    p_run.add_argument("--runs", type=int, default=30)
    p_run.add_argument("--generations", type=int, default=None)
    p_run.add_argument("--seconds", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=0, help="base seed")
    p_run.add_argument("--out", default=".", help="output directory for records")
    p_run.add_argument("--target-col", default=None,
                       help="CSV target column name or 0-based index (default last)")
    p_run.add_argument("--header", action="store_true",
                       help="CSV file has a header row")
    p_run.add_argument("--split-seed", type=int, default=0,
                       help="base seed for CSV train/test splits")
    p_run.add_argument("--split-ratio", type=float, default=0.7)

    p_rep = sub.add_parser("report", help="summarise run records")
    p_rep.add_argument("records", help="records file or directory containing records.jsonl")
    p_rep.add_argument("--alpha", type=float, default=0.05)
    p_rep.add_argument("--comparisons", type=int, default=None,
                       help="Bonferroni divisor (default: number of non-baseline configs)")
    p_rep.add_argument("--out", default=None, help="directory for report.txt/report.csv")

    p_cmp = sub.add_parser("compare", help="rank-test two configurations")
    p_cmp.add_argument("records")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument("--comparisons", type=int, default=1)
    return parser


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    name = args.dataset.lower()
    train, test = generate(name, np.random.default_rng(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / f"{name}_train.csv"
    test_path = out / f"{name}_test.csv"
    save_csv(train, train_path)
    save_csv(test, test_path)
    manifest = {
        "generator": name,
        "seed": args.seed,
        "dim": train.dim,
        "rows_train": train.n,
        "rows_test": test.n,
        "files": {"train": train_path.name, "test": test_path.name},
    }
    (out / f"{name}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"{name}: wrote {train.n} train rows, {test.n} test rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# run


def _resolve_target(raw):
    if raw is None:
        return -1
    try:
        return int(raw)
    except ValueError:
        return raw


def _dataset_name(args) -> str:
    name = args.dataset
    return name.lower() if name.lower() in GENERATORS else Path(name).stem


def _dataset_source(args):
    """The ``(seed, run_index) -> (train, test)`` function of ``--dataset``.
    A generator resamples from the run's seed.  A CSV file is loaded here,
    once, and split per run from ``--split-seed`` plus the run index."""
    name = args.dataset
    if name.lower() in GENERATORS:
        return lambda seed, run_index: generate(name, np.random.default_rng(seed))
    path = Path(name)
    if not path.exists():
        raise DataError(f"dataset {name!r} is neither a generator nor a file")
    data = load_csv(path, target=_resolve_target(args.target_col),
                    header=args.header, name=path.stem, role="full")
    return lambda seed, run_index: split(
        data, args.split_ratio, np.random.default_rng(args.split_seed + run_index))


def _recorded_runs(path: Path) -> set:
    """The (codename, dataset, seed) runs ``path`` records, read under the
    rules of :func:`load_records` (a missing file records none).  An
    unfinished last line is cut off, so the next record starts a line of
    its own."""
    if not path.exists():
        return set()
    records, truncated = _read_records(path)
    data = path.read_bytes()
    if truncated:
        os.truncate(path, data.rfind(b"\n") + 1)
    elif data and not data.endswith(b"\n"):  # a last record without its newline
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return {(rec.codename, rec.dataset, rec.seed) for rec in records}


def _mode(codename) -> ModeConfig:
    """The configuration a codename names.  argparse hands the value of
    ``--config=--`` over as an empty list, not as ``--``."""
    return ModeConfig.from_codename("--" if codename == [] else codename)


def _cmd_run(args) -> int:
    codenames = args.config or ["baseline"]
    modes = [_mode(c) for c in codenames]
    if args.runs <= 0:
        raise DataError("--runs must be positive")
    if args.generations is None and args.seconds is None:
        args.generations = 50
    if args.generations is not None and args.generations <= 0:
        raise DataError("--generations must be positive")
    if args.seconds is not None and args.seconds <= 0:
        raise DataError("--seconds must be positive")
    if not 0.0 < args.split_ratio < 1.0:
        raise DataError("--split-ratio must be strictly between 0 and 1")
    budget = RunBudget(max_generations=args.generations, max_seconds=args.seconds)
    dataset_for_run = _dataset_source(args)
    out = Path(args.out)
    records_path = out / RECORDS_NAME
    recorded = _recorded_runs(records_path)
    ds_name = _dataset_name(args)
    written = 0
    for mode in modes:
        cfg = EngineConfig.for_mode(mode)
        for i in range(args.runs):
            seed = args.seed + i
            if (mode.codename, ds_name, seed) in recorded:
                print(f"{mode.codename} seed={seed} {ds_name}: already recorded, skipped")
                continue
            train, test = dataset_for_run(seed, i)
            result = run_engine(cfg, mode, train, test, budget, seed)
            record = RunRecord(
                codename=mode.codename,
                seed=seed,
                dataset=ds_name,
                dim=train.dim,
                train_r2=result.train_r2,
                test_r2=result.test_r2,
                lcf_ratio=result.lcf_ratio,
                mean_depth=result.mean_depth,
                generations=result.generations,
                wall_time_s=result.wall_time_s,
                history=[list(h) for h in result.history],
                best_genes=result.best_genes,
                best_coeffs=_best_coeffs(result),
            )
            # created with the first record, so a run that fails first leaves nothing;
            # appended and closed per record, so completed runs survive a crash
            out.mkdir(parents=True, exist_ok=True)
            with open(records_path, "a") as sink:
                sink.write(record.to_json() + "\n")
            recorded.add((mode.codename, ds_name, seed))  # a repeated --config runs once
            written += 1
            print(
                f"{mode.codename} seed={seed} {ds_name}: "
                f"train R2={result.train_r2:.6f} test R2={result.test_r2:.6f}"
            )
    print(f"wrote {written} records to {records_path}")
    return 0


def _best_coeffs(result) -> list:
    model = result.best.model
    if model is None:
        return []
    return [model.c0, *model.c.tolist()]


# ---------------------------------------------------------------------------
# report / compare


def load_records(where) -> list[RunRecord]:
    """Parse a records file (or the ``records.jsonl`` in a directory).

    A last line without its newline that does not parse is what an
    interrupted run leaves behind: it is skipped with a warning.  Any other
    line that is not a record is a :class:`DataError` naming the file, the
    line and the cause.
    """
    path = Path(where)
    if path.is_dir():
        path = path / RECORDS_NAME
    if not path.exists():
        raise DataError(f"no records at {path}")
    records, _ = _read_records(path)
    if not records:
        raise DataError(f"{path} holds no records")
    return records


def _read_records(path: Path) -> tuple[list[RunRecord], bool]:
    """The records of ``path``, and whether a truncated last line was
    skipped."""
    records = []
    truncated = False
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json(line))
            except json.JSONDecodeError as exc:
                cause = f"{exc.msg} at column {exc.colno}"
                if raw.endswith("\n"):
                    raise DataError(f"{path}, line {number}: not JSON: {cause}") from exc
                print(f"mggp: warning: {path}, line {number}: skipping a truncated last "
                      f"line ({cause})", file=sys.stderr)
                truncated = True
            except TypeError as exc:
                raise DataError(f"{path}, line {number}: not a run record: {exc}") from exc
    return records, truncated


def _group(records: list[RunRecord]) -> dict[str, list[RunRecord]]:
    """Records by codename; a run recorded twice would count twice in the
    rank tests, so repeated (codename, dataset, seed) triples are refused."""
    runs = Counter((rec.codename, rec.dataset, rec.seed) for rec in records)
    repeated = [f"{c} {d} seed {s} ({n} times)" for (c, d, s), n in runs.items() if n > 1]
    if repeated:
        raise DataError("runs recorded more than once: " + ", ".join(repeated))
    groups: dict[str, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.codename, []).append(rec)
    return groups


_VB_MARK = {"better": "+", "worse": "-", "indifferent": ""}


def _cmd_report(args) -> int:
    if args.comparisons is not None and args.comparisons < 1:
        raise ValueError("--comparisons must be >= 1")
    records = load_records(args.records)
    groups = _group(records)
    baseline = groups.get("baseline")
    others = [c for c in groups if c != "baseline"]
    m = args.comparisons if args.comparisons is not None else max(1, len(others))
    alpha_eff = bonferroni(args.alpha, m)
    show_vb = baseline is not None and bool(others)

    order = (["baseline"] if baseline else []) + sorted(others)
    header = ["config", "runs", "train_med", "train_max", "train_min",
              "test_med", "test_max", "test_min", "mean_lcf", "mean_depth"]
    if show_vb:
        header.append("vb")
    rows = []
    for codename in order:
        recs = groups[codename]
        s = summarize(recs)
        row = [codename, str(s.runs)] + [
            f"{v:.4g}" for v in (s.train_median, s.train_max, s.train_min,
                                 s.test_median, s.test_max, s.test_min,
                                 s.mean_lcf_ratio, s.mean_depth)
        ]
        if show_vb:
            if codename == "baseline":
                row.append("")
            else:
                res = compare_vs_baseline(
                    [r.test_r2 for r in recs], [r.test_r2 for r in baseline],
                    alpha=args.alpha, m=m,
                )
                row.append(_VB_MARK[res.verdict])
        rows.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    if show_vb:
        text += f"\n\nvb: Mann-Whitney vs baseline on test R2 at alpha={args.alpha}"
        text += f" / {m} comparisons (effective {alpha_eff:.6g}); + better, - worse"
    print(text)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text + "\n")
        with open(out / "report.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    return 0


def _cmd_compare(args) -> int:
    name_a, name_b = (_mode(n).codename for n in (args.config_a, args.config_b))
    if args.comparisons < 1:
        raise ValueError("--comparisons must be >= 1")
    groups = _group(load_records(args.records))
    for name in (name_a, name_b):
        if name not in groups:
            raise DataError(f"no records for configuration {name!r}")
    a = [r.test_r2 for r in groups[name_a]]
    b = [r.test_r2 for r in groups[name_b]]
    res = mann_whitney_u(a, b, alpha=bonferroni(args.alpha, args.comparisons))
    print(
        f"{name_a} vs {name_b}: U={res.u_statistic:.1f} "
        f"p={res.p_two_sided:.6g} -> {name_a} is {res.verdict}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "report": _cmd_report,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"mggp: error: {exc}", file=sys.stderr)
        return 1
    except MggpError as exc:
        print(f"mggp: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mggp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
