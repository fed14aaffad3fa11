#!/usr/bin/env python3
"""Benchmark of the mggp engine and report harness.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one process, one thread; the seed derives the
dataset draws and every run seed, and the program sees only the generated
inputs):

* ``plain-rs2d``   ``baseline`` runs on rs2d: no LCF leaves, backprop idle.
* ``sync-rs2d``    ``SB`` runs on rs2d: per-individual tuning plus sync repair.
* ``global-ub5d``  ``GB`` runs on ub5d: population-wide tuning, long arrays.
* ``report-exact`` ``mggp report`` over synthesised records whose pooled
  sizes take both the exact and the normal Mann-Whitney path.

A run sets up (imports plus dataset or records generation, timed in fresh
child processes spread over the run), makes one discarded warm-up pass, then
works through a fixed list of seeded engine runs (or report calls) and keeps
adding more until about ``--seconds`` have passed and there are enough
samples for the percentiles (``keep_going``).  An engine run lasts 50 generations, the length ``mggp run``
uses by default, so per-generation times cover whole runs as the trees grow;
on ``sync-rs2d`` and ``global-ub5d`` it lasts 10, for the reasons given
in ``WORKLOADS``.
Every engine run and report is checked (``checks.py``); R^2 medians and the
records digest come from the fixed list only, so they do not depend on the
speed of the machine.

``--trace 0`` prints the end-to-end metrics.  Their names are the same for
every workload; a step is one generation on the engine workloads and one
``report`` call on ``report-exact``:

* ``setup_s``: median over fresh processes of imports plus dataset (or
  records) generation;
* ``steps_per_s``: engine workloads, generations divided by the total wall
  time of the engine runs, initial populations included; ``report-exact``,
  calls divided by the total call time;
* ``step_ms.p50``, ``step_ms.p90``: wall time per step, over every step;
* ``peak_rss_mb``: peak resident set of the benchmark process;
* ``rss_growth_mb``: that peak less the resident set once the program and
  the benchmark's own modules are imported, i.e. the memory the workload's
  data and work add;
* ``train_r2.median``, ``test_r2.median``: engine workloads, the median of
  the reported R^2 over the fixed runs; ``report-exact``, the median over
  configurations of the medians the report prints.

The same figures are printed first under the names of their kind
(``gens_per_s``, ``gen_ms.*``, ``report_ms.*``) together with p75, the
sample count and ``failed_frac``, and the records digest is compared with
the one ``baseline.json`` holds for the seed, if it holds one.

``--trace 1`` runs the fixed list untraced and then traced (``tracing.py``),
checks that both give the same records digest and that the wrappers were
reached, and prints the per-layer metrics.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, with the BLAS, machine, version and commit details, and the spans
of a traced run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread.  numpy reads these once, when it loads; this module
# imports it only inside functions, so it has not loaded yet.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"

# The end-to-end metrics of BENCHMARK.json, in the order they are printed.
END_TO_END = ("setup_s", "steps_per_s", "step_ms.p50", "step_ms.p90", "peak_rss_mb",
              "rss_growth_mb", "train_r2.median", "test_r2.median")
MIN_STEPS = 100  # samples needed for a p90 with ten beyond it
MAX_SECONDS_FACTOR = 3  # stop adding runs at this multiple of --seconds
# Set-up is timed this many times per run, in probes spread evenly over the
# measured time, so that one run's median samples more than one stretch of
# the host's speed.
SETUP_PROBES = 11
DEFAULT_GENERATIONS = 50  # the length of a run of ``mggp run``
WARMUP_GENERATIONS = 5  # the warm-up run only has to reach every code path once
WARMUP_REPORTS = 3


@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    name: str
    codename: str
    dataset: str
    generations: int  # per engine run
    fixed_runs: int  # always run; R^2 medians, digest and traced counts come from these


@dataclasses.dataclass(frozen=True)
class ReportWorkload:
    name: str
    sizes: tuple  # (codename, runs); baseline first
    fixed_runs: int  # report calls always made, and made again when traced


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("plain-rs2d", "baseline", "rs2d", DEFAULT_GENERATIONS, fixed_runs=10),
        # A run's cost per generation is set early and kept: over 49 sync-rs2d
        # runs its mean had a coefficient of variation of 0.21 whether the
        # runs lasted 5, 10, 15 or 25 generations, and over 71 global-ub5d
        # runs 0.19-0.21.  So the figures of a seed follow its few engine runs
        # unless a measured run holds many of them: resampling those runs
        # into 25 s seeds, the spread of steps_per_s on sync-rs2d is 0.12 with
        # 25-generation runs and 0.075 with 10-generation ones.  Ten
        # generations stay representative: on sync-rs2d the mean time of
        # generations 1-10 is 1.01 times that of generations 1-25 over the same
        # 49 runs (per-generation means rise to generation 7, then ease), and
        # generations 1-25 cost 1.06 times a whole 50-generation run (median
        # of 9 runs), with tune at 66-84% of the time against 69-74% over the
        # whole run.  global-ub5d, generations 1-10 against all 50:
        # mean time 0.93 times (pooled; 0.72-1.16 per run, 14 runs);
        # global_tune 89-91% of every ten generations (2 traced runs).
        EngineWorkload("sync-rs2d", "SB", "rs2d", 10, fixed_runs=8),
        EngineWorkload("global-ub5d", "GB", "ub5d", 10, fixed_runs=10),
        # Pooled sizes with the 6 baseline runs: 10, 13, 16 and 19 take the
        # exact path, 22 the normal one.
        ReportWorkload("report-exact", (("baseline", 6), ("UM", 4), ("UB", 7), ("SB", 10),
                                        ("SM", 13), ("GB", 16)), fixed_runs=30),
    )
}

# Centre and spread of the synthesised test R^2 per configuration; values
# are rounded to 3 decimals and capped at 1, so ties occur as in real records.
REPORT_SCORES = {"baseline": (0.97, 0.012), "UM": (0.965, 0.015), "UB": (0.99, 0.008),
                 "SB": (0.998, 0.004), "SM": (0.972, 0.012), "GB": (0.985, 0.01)}


def load_program():
    """Import the program from the checkout's ``src``."""
    if not (SRC / "mggp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mggp package under {SRC}")
    sys.path.insert(0, str(SRC))
    from mggp import bench, cli, evolve, exprtree

    return bench, cli, evolve, exprtree


def derived_seed(seed: int, stream: int, i: int = 0) -> int:
    """Seed ``i`` of a stream: 0 datasets, 1 runs, 2 the warm-up's dataset
    and 3 the warm-up's run."""
    import numpy as np

    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


def make_dataset(bench, wl: EngineWorkload, data_seed: int):
    import numpy as np

    return bench.generate(wl.dataset, np.random.default_rng(data_seed))


def synth_records(wl: ReportWorkload, seed: int) -> list[dict]:
    rng = random.Random(seed)
    records = []
    for codename, runs in wl.sizes:
        centre, spread = REPORT_SCORES[codename]
        for i in range(runs):
            test = min(1.0, round(rng.gauss(centre, spread), 3))
            train = min(1.0, round(test + abs(rng.gauss(0.0, 0.004)), 3))
            records.append({
                "codename": codename, "seed": i, "dataset": "rs2d", "dim": 2,
                "train_r2": train, "test_r2": test,
                "lcf_ratio": 0.0 if codename == "baseline" else round(rng.random(), 4),
                "mean_depth": round(rng.uniform(2.0, 8.0), 4), "generations": 50,
                "wall_time_s": rng.uniform(1.0, 20.0),
                "history": [[g, min(train, 0.5 + g / 100.0), 100 * (g + 1), 0.1 * g]
                            for g in range(51)],
                "best_genes": ["(logsig (lcf 1 -0.21 0.7 -0.7))", "(mul (var 1) (const 2.5))"],
                "best_coeffs": [rng.uniform(-1, 1) for _ in range(3)],
            })
    return records


def write_records(wl: ReportWorkload, seed: int) -> tuple[Path, list[dict]]:
    records = synth_records(wl, seed)
    where = OUT / "records" / f"{wl.name}-{seed}"
    where.mkdir(parents=True, exist_ok=True)
    path = where / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path, records


def setup_probe(wl, seed: int) -> float:
    """Time imports plus input generation in this (fresh) process."""
    started = time.perf_counter()
    bench = load_program()[0]
    if isinstance(wl, EngineWorkload):
        make_dataset(bench, wl, derived_seed(seed, 0))
    else:
        write_records(wl, seed)
    return time.perf_counter() - started


class SetupTimer:
    """Times set-up (``setup_probe``) in fresh child processes, ``probes``
    times per run.  ``between`` runs the probe that is due once ``measured``
    seconds of work are done, so the probes spread over the run; the time
    they take (``paused``) is left out of the measured time."""

    def __init__(self, wl, seed: int, seconds: float, probes: int) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", wl.name, "--seed", str(seed)]
        self.probes = probes
        self.interval = seconds / max(probes, 1)
        self.times: list[float] = []
        self.paused = 0.0

    def between(self, measured: float) -> None:
        if len(self.times) < self.probes and measured >= len(self.times) * self.interval:
            self._probe()

    def median(self) -> float | None:
        """The median of all ``probes`` times, taking those not yet due."""
        while len(self.times) < self.probes:
            self._probe()
        return statistics.median(self.times) if self.times else None

    def _probe(self) -> None:
        started = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.paused += time.perf_counter() - started


def keep_going(done: int, fixed: int, steps: int, elapsed: float, seconds: float,
               trace: bool) -> bool:
    """Whether a measured loop starts another run or call: always for the
    first ``fixed``; untraced, also while there are fewer than ``MIN_STEPS``
    steps or the next one, taking as long as the average so far, would end
    less than half its length after ``seconds`` (so that a run ends near
    ``seconds`` on average), up to ``MAX_SECONDS_FACTOR`` times ``seconds``."""
    if done < fixed:
        return True
    if trace or elapsed >= MAX_SECONDS_FACTOR * seconds:
        return False
    return steps < MIN_STEPS or elapsed + 0.5 * elapsed / done < seconds


# ---------------------------------------------------------------------------
# engine workloads


def engine_run(evolve, wl: EngineWorkload, train, test, run_seed: int, generations: int):
    """One seeded run; returns its record, per-generation ms and wall time."""
    mode = evolve.ModeConfig.from_codename(wl.codename)
    cfg = evolve.EngineConfig.for_mode(mode)
    budget = evolve.RunBudget(max_generations=generations)
    started = time.perf_counter()
    result = evolve.run(cfg, mode, train, test, budget, run_seed)
    wall = time.perf_counter() - started
    elapsed = [h[3] for h in result.history]
    gen_ms = [1000.0 * (b - a) for a, b in zip(elapsed, elapsed[1:])]
    model = result.best.model
    record = {
        "seed": run_seed, "train_r2": result.train_r2, "test_r2": result.test_r2,
        "lcf_ratio": result.lcf_ratio, "mean_depth": result.mean_depth,
        "generations": result.generations,
        "history": [list(h[:3]) for h in result.history],  # without the elapsed column
        "best_genes": result.best_genes,
        "best_coeffs": [] if model is None else [model.c0, *model.c.tolist()],
    }
    return record, gen_ms, wall


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def baseline_digest(workload: str, seed: int):
    """The records digest ``baseline.json`` holds for this workload and
    seed, or ``None``."""
    with contextlib.suppress(OSError, ValueError):
        saved = json.loads(BASELINE.read_text())
        return saved["workloads"].get(workload, {}).get("records_digests", {}).get(str(seed))
    return None


class Tally:
    """Attempted and failed operations, with the first failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error


def checked_engine_run(program, wl, seed: int, i: int, tally: Tally, warmup: bool = False):
    """Run ``i`` of the workload on a dataset of its own, checked; the
    warm-up run has seeds and a length of its own."""
    import checks

    bench, cli, evolve, exprtree = program
    data_seed, run_seed = (derived_seed(seed, 2), derived_seed(seed, 3)) if warmup else \
        (derived_seed(seed, 0, i), derived_seed(seed, 1, i))
    try:
        train, test = make_dataset(bench, wl, data_seed)
        record, gen_ms, wall = engine_run(evolve, wl, train, test, run_seed,
                                          WARMUP_GENERATIONS if warmup else wl.generations)
        error = checks.check_engine_record(record, train, test, exprtree.parse_tree,
                                           exprtree.logsig_is_increasing())
    except Exception as exc:  # a run that raises is a failed operation
        tally.record(f"run {run_seed}: {type(exc).__name__}: {exc}")
        return None
    tally.record(None if error is None else f"run {run_seed}: {error}")
    return record, gen_ms, wall


def gens_per_s(walls: list[tuple[float, int]]) -> float:
    """Generations over wall time, from ``(wall s, generations)`` per run."""
    return sum(g for _, g in walls) / sum(w for w, _ in walls) if walls else 0.0


def engine_pass(program, wl, seed: int, seconds: float, trace: bool, tally: Tally,
                setup: SetupTimer, tracer=None) -> dict:
    """The measured loop of engine runs: records of the fixed runs,
    per-generation ms and ``(wall, generations)`` of every run."""
    records, gen_ms, walls = [], [], []
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started - setup.paused
        if not keep_going(i, wl.fixed_runs, len(gen_ms), elapsed, seconds, trace):
            break
        setup.between(elapsed)
        if tracer is not None:
            tracer.start_run(f"{wl.name}/{seed}/{i}")
        out = checked_engine_run(program, wl, seed, i, tally)
        if out is not None:
            if i < wl.fixed_runs:
                records.append(out[0])
            gen_ms.extend(out[1])
            walls.append((out[2], len(out[1])))
        i += 1
    return {"records": records, "steps": gen_ms, "walls": walls}


def bench_engine(program, wl: EngineWorkload, seed: int, seconds: float, trace: bool,
                 setup: SetupTimer):
    tally = Tally()
    checked_engine_run(program, wl, seed, 0, Tally(), warmup=True)
    done = engine_pass(program, wl, seed, seconds, trace, tally, setup)
    records = done["records"]
    result = {
        "tally": tally,
        "digest": digest(records),
        "steps": done["steps"],
        "steps_per_s": gens_per_s(done["walls"]),
        "train_r2": statistics.median(r["train_r2"] for r in records) if records else 0.0,
        "test_r2": statistics.median(r["test_r2"] for r in records) if records else 0.0,
    }
    if trace:
        result.update(trace_engine(program, wl, seed, setup, result))
    return result


def trace_engine(program, wl, seed, setup, untraced):
    """The fixed runs again, traced and checked."""
    from tracing import Tracer

    evolve = program[2]
    tracer = Tracer()
    tracer.install()
    try:
        done = engine_pass(program, wl, seed, 0.0, True, untraced["tally"], setup, tracer)
    finally:
        tracer.uninstall()
    errors = []
    if digest(done["records"]) != untraced["digest"]:
        errors.append("traced records differ from untraced records")
    generations = len(done["steps"])
    tables = tracer.layer_tables()
    calls, pairs = tables["calls"], tables["pairs"]
    mode = evolve.ModeConfig.from_codename(wl.codename)
    cfg = evolve.EngineConfig.for_mode(mode)
    per_individual = mode.uses_backprop and mode.mode in ("U", "S")
    expect = {
        "evolve.run": wl.fixed_runs,
        "evolve.step_generation": generations,
        "bench.generate": wl.fixed_runs,
        "backprop.global_tune": generations if mode.mode == "G" else 0,
        # every non-elite offspring is tuned once per generation
        "backprop.tune": (cfg.pop_size - cfg.elite) * generations if per_individual else 0,
    }
    for name, want in expect.items():
        if calls[name] != want:
            errors.append(f"{name} reached {calls[name]} times, expected {want}")
    if mode.uses_backprop:
        tuner = "backprop.global_tune" if mode.mode == "G" else "backprop.tune"
        if pairs[(tuner, "fitness.ols_fit")] == 0:
            errors.append(f"no fitness.ols_fit call seen through mggp.backprop in {tuner}")
    untraced_rate = untraced["steps_per_s"]
    return {"tracer": tracer, "trace_errors": errors,
            "overhead_ratio": gens_per_s(done["walls"]) / untraced_rate if untraced_rate else 0.0}


# ---------------------------------------------------------------------------
# report workload


def report_call(cli, argv) -> tuple[int, str, float]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    return code, sink.getvalue(), elapsed


def printed_medians(text: str) -> tuple[float, float]:
    """Median over configurations of the printed train and test medians."""
    import checks

    rows = checks.parse_report(text).values()
    return (statistics.median(float(r["train_med"]) for r in rows),
            statistics.median(float(r["test_med"]) for r in rows))


def report_pass(cli, wl, argv, expected, seconds: float, trace: bool, tally: Tally,
                setup: SetupTimer) -> dict:
    """The measured loop of checked report calls: ms per call and the
    distinct texts of the correct ones."""
    import checks

    steps, texts = [], set()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started - setup.paused
        if not keep_going(len(steps), wl.fixed_runs, len(steps), elapsed, seconds, trace):
            break
        setup.between(elapsed)
        try:
            code, text, ms = report_call(cli, argv)
            error = (f"exit code {code}" if code != 0
                     else checks.check_report(text, expected))
        except Exception as exc:  # a report that raises is a failed operation
            text, ms, error = "", 0.0, f"{type(exc).__name__}: {exc}"
        tally.record(error)
        steps.append(1000.0 * ms)
        if error is None:
            texts.add(text)
    return {"steps": steps, "texts": texts}


def bench_report(program, wl: ReportWorkload, seed: int, seconds: float, trace: bool,
                 setup: SetupTimer):
    import checks

    cli = program[1]
    path, records = write_records(wl, seed)
    expected = checks.expected_report(records, alpha=0.05)
    argv = ["report", str(path)]
    for _ in range(WARMUP_REPORTS):
        report_call(cli, argv)
    tally = Tally()
    done = report_pass(cli, wl, argv, expected, seconds, trace, tally, setup)
    text = min(done["texts"], default="")  # one text when the report is deterministic
    if len(done["texts"]) > 1:
        tally.first_error = tally.first_error or "report output changes between calls"
    steps = done["steps"]
    train_med, test_med = printed_medians(text) if text else (0.0, 0.0)
    result = {
        "tally": tally,
        "digest": digest([text]),
        "steps": steps,
        "steps_per_s": 1000.0 * len(steps) / sum(steps) if sum(steps) else 0.0,
        "train_r2": train_med,
        "test_r2": test_med,
    }
    if trace:
        result.update(trace_report(cli, wl, argv, expected, seed, setup, result))
    return result


def trace_report(cli, wl, argv, expected, seed, setup, untraced):
    """The fixed report calls again, traced and checked."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_run(f"{wl.name}/{seed}")
        done = report_pass(cli, wl, argv, expected, 0.0, True, untraced["tally"], setup)
    finally:
        tracer.uninstall()
    errors = []
    if {digest([text]) for text in done["texts"]} != {untraced["digest"]}:
        errors.append("traced report output differs from untraced output")
    comparisons = len(wl.sizes) - 1
    exact = sum(1 for _, n in wl.sizes[1:] if n + wl.sizes[0][1] < 20)
    expect = {"cli.main": wl.fixed_runs, "cli.load_records": wl.fixed_runs,
              "stats.mann_whitney_u": comparisons * wl.fixed_runs,
              "stats.exact": exact * wl.fixed_runs, "evolve.run": 0}
    calls = tracer.layer_tables()["calls"]
    for name, want in expect.items():
        if calls[name] != want:
            errors.append(f"{name} reached {calls[name]} times, expected {want}")
    traced_rate = 1000.0 * len(done["steps"]) / sum(done["steps"])
    return {"tracer": tracer, "trace_errors": errors,
            "overhead_ratio": traced_rate / untraced["steps_per_s"]}


# ---------------------------------------------------------------------------
# output


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def provenance() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "mggp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": {"cpu": cpu, "arch": platform.machine(), "cpus": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0)), "system": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result, setup_s: float, rss_base_mb: float) -> dict[str, tuple]:
    """Every end-to-end figure of the run: ``(value, unit)`` by name."""
    steps, tally = result["steps"], result["tally"]
    peak = peak_rss_mb()
    return {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (result["steps_per_s"], "1/s"),
        "step_ms.p50": (percentile(steps, 50), "ms"),
        "step_ms.p75": (percentile(steps, 75), "ms"),
        "step_ms.p90": (percentile(steps, 90), "ms"),
        "step_ms.samples": (len(steps), "count"),
        "peak_rss_mb": (peak, "MB"),
        "rss_growth_mb": (peak - rss_base_mb, "MB"),
        "train_r2.median": (result["train_r2"], "R2"),
        "test_r2.median": (result["test_r2"], "R2"),
        "failed_frac": (tally.failed / tally.attempted if tally.attempted else 1.0, "frac"),
    }


def per_layer(result) -> dict[str, tuple]:
    """Every per-layer figure of the traced run: ``(value, unit)`` by name."""
    values = result["tracer"].layer_metrics()
    values["trace.overhead_ratio"] = result["overhead_ratio"]
    units = {".calls": "count", "_ms": "ms", "ratio": "ratio", ".steps": "count",
             "node_samples": "count", "ns_per_node_sample": "ns"}
    return {name: (value, next(u for suffix, u in units.items() if name.endswith(suffix)))
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(setup_probe(wl, args.seed)))
        return 0

    program = load_program()
    import checks  # noqa: F401  (its imports count toward the base, not the growth)
    import tracing  # noqa: F401

    rss_base_mb = peak_rss_mb()
    setup = SetupTimer(wl, args.seed, args.seconds, 0 if args.trace else SETUP_PROBES)
    bench_workload = bench_engine if isinstance(wl, EngineWorkload) else bench_report
    result = bench_workload(program, wl, args.seed, args.seconds, bool(args.trace), setup)
    setup_s = setup.median()

    tally = result["tally"]
    errors = ([tally.first_error] if tally.first_error else []) + result.get("trace_errors", [])
    env = provenance()
    if args.trace:
        figures = per_layer(result)
        metrics = figures
    else:
        figures = end_to_end(result, setup_s, rss_base_mb)
        metrics = {name: figures[name] for name in END_TO_END}
        step = "gen" if isinstance(wl, EngineWorkload) else "report"
        figures = {name.replace("step", step): v for name, v in figures.items()}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    known = baseline_digest(wl.name, args.seed)
    versus = ("no baseline digest for this seed" if known is None
              else "same as baseline" if known == result["digest"] else f"baseline has {known}")
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"records_digest={result['digest']} ({versus})")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in figures.items():
        print(f"{wl.name:<13} {name:<36} {value:>14.6g} {unit}")
    for error in errors:
        print(f"# error: {error}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    saved = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "records_digest": result["digest"], "env": env,
             "attempted": tally.attempted, "failed": tally.failed, "errors": errors,
             "metrics": metrics, "figures": {name: {"value": v, "unit": u}
                                             for name, (v, u) in figures.items()}}
    if args.trace:
        tracer = result["tracer"]
        saved["calls"] = tracer.layer_tables()["calls"]
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(OUT / "traces" / f"{wl.name}.spans.jsonl.gz")
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")

    print(json.dumps({"correct": not errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
