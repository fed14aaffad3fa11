"""The parsing side of ``tools/bench_pairs.py``, on a canned
``perfbench/run.py --trace 0`` output."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

CANNED = """\
# sync-rs2d seed=1 trace=0 records_digest=1267265000d2788d (same as baseline)
# env {"blas": "scipy-openblas 0.3.31.188.0", "python": "3.11.7"}
sync-rs2d     setup_s                                    0.401 s
sync-rs2d     gens_per_s                                 25.98 1/s
sync-rs2d     failed_frac                                    0 frac
{"correct": true, "attempted": 70, "failed": 2, "metrics": {\
"setup_s": {"value": 0.401, "unit": "s"}, \
"steps_per_s": {"value": 25.98, "unit": "1/s"}, \
"step_ms.p50": {"value": 31.5, "unit": "ms"}, \
"step_ms.p90": {"value": 60.25, "unit": "ms"}, \
"peak_rss_mb": {"value": 75.5, "unit": "MB"}, \
"rss_growth_mb": {"value": 12.0, "unit": "MB"}, \
"train_r2.median": {"value": 0.9951, "unit": "R2"}, \
"test_r2.median": {"value": 0.9937, "unit": "R2"}}}
"""


def test_a_run_yields_its_digest_failures_and_metrics():
    run = bench_pairs.parse_run(CANNED)
    assert run["digest"] == "1267265000d2788d"
    assert run["failed"] == 2
    assert list(run["metrics"]) == bench_pairs.METRICS
    assert run["metrics"]["steps_per_s"] == 25.98
    assert run["metrics"]["test_r2.median"] == 0.9937


def test_a_row_holds_side_digest_failures_and_the_eight_metrics():
    fields = bench_pairs.row(3, "base", bench_pairs.parse_run(CANNED)).split("\t")
    assert fields[:4] == ["3", "base", "1267265000d2788d", "2"]
    assert fields[4:] == ["0.401", "25.98", "31.5", "60.25", "75.5", "12", "0.9951", "0.9937"]


def test_an_output_without_its_summary_line_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_run(CANNED.rsplit("\n", 2)[0])
