import json

import numpy as np
import pytest

import mggp.cli as cli
from mggp.bench import generate, load_csv, split
from mggp.cli import RunRecord, load_records, main
from mggp.exprtree import eval_batch, parse_tree
from mggp.fitness import ols_fit


def mask_timing(line: str) -> str:
    """Canonical record form with the wall-clock measurement fields removed
    (they are the only fields that legitimately differ between executions)."""
    data = json.loads(line)
    data.pop("wall_time_s")
    data["history"] = [h[:3] for h in data["history"]]
    return json.dumps(data, sort_keys=True)


class TestGen:
    def test_s5d_row_counts(self, tmp_path):
        assert main(["gen", "s5d", "--seed", "1", "--out", str(tmp_path)]) == 0
        train = (tmp_path / "s5d_train.csv").read_text().strip().splitlines()
        test = (tmp_path / "s5d_test.csv").read_text().strip().splitlines()
        assert len(train) == 501 and len(test) == 1251  # header + rows
        manifest = json.loads((tmp_path / "s5d_manifest.json").read_text())
        assert manifest["rows_train"] == 500 and manifest["rows_test"] == 1250

    def test_ub5d_row_counts(self, tmp_path):
        assert main(["gen", "ub5d", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "ub5d_manifest.json").read_text())
        assert manifest["rows_train"] == 1024 and manifest["rows_test"] == 5000

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "s2d", "--seed", "3", "--out", str(a)])
        main(["gen", "s2d", "--seed", "3", "--out", str(b)])
        assert (a / "s2d_train.csv").read_bytes() == (b / "s2d_train.csv").read_bytes()
        assert (a / "s2d_test.csv").read_bytes() == (b / "s2d_test.csv").read_bytes()

    def test_unknown_generator_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g1"
        code = main(["gen", "wat", "--out", str(out)])
        assert code == 2  # unknown dataset name is a data error
        assert "unknown generator" in capsys.readouterr().err
        assert not out.exists()


def run_small(tmp_path, *, configs=("baseline",), seed=7, runs=1, generations=2,
              dataset="s2d", out=None):
    out = out or tmp_path / "records"
    argv = ["run", "--dataset", dataset, "--runs", str(runs),
            "--generations", str(generations), "--seed", str(seed),
            "--out", str(out)]
    for c in configs:
        argv += ["--config", c]
    assert main(argv) == 0
    return out / "records.jsonl"


class TestRun:
    def test_writes_one_record_per_run(self, tmp_path):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=2)
        records = load_records(path)
        assert len(records) == 4
        assert {r.codename for r in records} == {"baseline", "UB"}
        assert sorted({r.seed for r in records}) == [7, 8]

    def test_backprop_codenames_use_reduced_population(self, tmp_path):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=1)
        by_name = {r.codename: r for r in load_records(path)}
        # generation 0 evaluates exactly the initial population once
        assert by_name["baseline"].history[0][2] == 100
        assert by_name["UB"].history[0][2] == 50

    def test_records_round_trip_losslessly(self, tmp_path):
        path = run_small(tmp_path)
        lines = path.read_text().strip().splitlines()
        for line in lines:
            rec = RunRecord.from_json(line)
            assert rec.to_json() == line

    def test_best_coeffs_are_the_fit_of_the_best_genes(self, tmp_path):
        path = run_small(tmp_path, configs=("baseline", "UB", "SB", "GB"), runs=2)
        for rec in load_records(path):
            train, _ = generate(rec.dataset, np.random.default_rng(rec.seed))
            columns = [eval_batch(parse_tree(text, rec.dim), train.X) for text in rec.best_genes]
            model = ols_fit(np.column_stack(columns), train.y)
            assert len(rec.best_coeffs) == 1 + len(rec.best_genes)
            assert rec.best_coeffs == [model.c0, *model.c.tolist()]

    def test_rerun_identical_modulo_wall_time(self, tmp_path):
        p1 = run_small(tmp_path, out=tmp_path / "r1")
        p2 = run_small(tmp_path, out=tmp_path / "r2")
        l1 = p1.read_text().strip().splitlines()
        l2 = p2.read_text().strip().splitlines()
        assert [mask_timing(a) for a in l1] == [mask_timing(b) for b in l2]

    def test_csv_dataset_with_split(self, tmp_path):
        gen_dir = tmp_path / "data"
        main(["gen", "s2d", "--seed", "2", "--out", str(gen_dir)])
        out = tmp_path / "records"
        code = main([
            "run", "--dataset", str(gen_dir / "s2d_train.csv"), "--header",
            "--target-col", "target", "--runs", "1", "--generations", "2",
            "--seed", "1", "--split-seed", "5", "--out", str(out),
        ])
        assert code == 0
        rec = load_records(out)[0]
        assert rec.dataset == "s2d_train"
        assert rec.dim == 2

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", str(tmp_path / "nope.csv"), "--runs", "1",
            "--generations", "1", "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("dataset, flags, message", [
        ("nosuch.csv", [], "neither a generator nor a file"),
        ("t.csv", ["--split-ratio", "1.5"], "--split-ratio"),
        ("t.csv", ["--split-ratio", "0"], "--split-ratio"),
        ("s2d", ["--split-ratio", "-1"], "--split-ratio"),
        ("t.csv", ["--target-col", "foo"], "non-numeric value 'x1'"),
        ("t.csv", ["--header", "--target-col", "foo"], "not in header"),
        ("t.csv", ["--header", "--target-col", "7"], "target column 7 out of range"),
        ("t.csv", ["--header", "--target-col", "-3"], "target column -3 out of range"),
    ])
    def test_bad_input_is_a_data_error_and_creates_nothing(self, tmp_path, capsys, dataset,
                                                           flags, message):
        (tmp_path / "t.csv").write_text("x1,target\n" + "".join(
            f"{k},{k * k % 7}\n" for k in range(20)))
        out = tmp_path / "records"
        code = main(["run", "--dataset", str(tmp_path / dataset) if "." in dataset else dataset,
                     "--runs", "2", "--generations", "1", "--out", str(out), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_csv_is_loaded_once_and_split_per_run(self, tmp_path, monkeypatch):
        main(["gen", "s2d", "--seed", "2", "--out", str(tmp_path / "data")])
        csv = tmp_path / "data" / "s2d_train.csv"
        loads, splits = [], []
        run_engine = cli.run_engine

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load_csv(*args, **kwargs)

        def recording_engine(cfg, mode, train, test, budget, seed):
            splits.append((train, test))
            return run_engine(cfg, mode, train, test, budget, seed)

        monkeypatch.setattr(cli, "load_csv", counting_load)
        monkeypatch.setattr(cli, "run_engine", recording_engine)
        assert main(["run", "--dataset", str(csv), "--header", "--config", "baseline",
                     "--config", "UB", "--runs", "3", "--generations", "1", "--split-seed", "4",
                     "--split-ratio", "0.6", "--out", str(tmp_path / "records")]) == 0
        assert len(loads) == 1
        data = load_csv(csv, header=True, name="s2d_train", role="full")
        expected = [split(data, 0.6, np.random.default_rng(4 + i)) for i in range(3)] * 2
        assert len(splits) == len(expected)
        for got, want in zip(splits, expected):
            for a, b in zip(got, want):
                assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs_is_a_data_error_and_creates_nothing(self, tmp_path, capsys, runs):
        out = tmp_path / "records"
        assert main(["run", "--dataset", "s2d", "--runs", runs, "--generations", "1",
                     "--out", str(out)]) == 2
        assert "--runs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--generations", "--seconds"])
    def test_a_zero_budget_is_a_data_error_and_creates_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "records"
        assert main(["run", "--dataset", "s2d", flag, "0", "--out", str(out)]) == 2
        assert f"{flag} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_a_rerun_adds_only_the_runs_not_yet_recorded(self, tmp_path, capsys):
        out = tmp_path / "records"
        run_small(tmp_path, runs=2, out=out)
        capsys.readouterr()
        path = run_small(tmp_path, runs=3, out=out)
        printed = capsys.readouterr().out
        assert "baseline seed=7 s2d: already recorded, skipped" in printed
        assert "baseline seed=8 s2d: already recorded, skipped" in printed
        assert "wrote 1 records" in printed
        assert [r.seed for r in load_records(path)] == [7, 8, 9]
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["baseline", "3"]

    @pytest.mark.parametrize("configs", [("baseline", "baseline"), ("UB", "ub")])
    def test_a_repeated_config_runs_once(self, tmp_path, capsys, configs):
        out = tmp_path / "records"
        path = run_small(tmp_path, configs=configs, runs=2, generations=1, out=out)
        printed = capsys.readouterr().out
        name = configs[0]
        assert f"{name} seed=7 s2d: already recorded, skipped" in printed
        assert f"{name} seed=8 s2d: already recorded, skipped" in printed
        assert "wrote 2 records" in printed
        assert [(r.codename, r.seed) for r in load_records(path)] == [(name, 7), (name, 8)]
        assert main(["report", str(out)]) == 0

    def test_a_rerun_cuts_a_truncated_last_line_and_redoes_its_run(self, tmp_path, capsys):
        out = tmp_path / "records"
        path = run_small(tmp_path, runs=2, out=out)
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][:40])  # an interrupted append
        run_small(tmp_path, runs=2, out=out)
        capsys.readouterr()
        assert [mask_timing(line) for line in path.read_text().splitlines()] == \
            [mask_timing(line) for line in whole.splitlines()]
        assert [r.seed for r in load_records(path)] == [7, 8]
        assert capsys.readouterr().err == ""  # nothing left to skip

    def test_a_rerun_terminates_a_last_record_without_its_newline(self, tmp_path):
        out = tmp_path / "records"
        path = run_small(tmp_path, runs=1, out=out)
        path.write_text(path.read_text().rstrip("\n"))
        run_small(tmp_path, runs=2, out=out)
        assert [r.seed for r in load_records(path)] == [7, 8]

    def test_a_rerun_over_a_corrupt_line_is_a_data_error_and_writes_nothing(self, tmp_path):
        out = tmp_path / "records"
        path = run_small(tmp_path, runs=1, out=out)
        path.write_text("[1, 2]\n" + path.read_text())
        before = path.read_bytes()
        assert main(["run", "--dataset", "s2d", "--runs", "2", "--generations", "2",
                     "--seed", "7", "--out", str(out)]) == 2
        assert path.read_bytes() == before

    def test_bad_codename_is_usage_error(self, tmp_path):
        code = main([
            "run", "--dataset", "s2d", "--config", "ZZ", "--runs", "1",
            "--generations", "1", "--out", str(tmp_path),
        ])
        assert code == 1


class TestReport:
    def test_baseline_only_has_no_vb_column(self, tmp_path, capsys):
        path = run_small(tmp_path)
        capsys.readouterr()  # drop the run command's output
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vb" not in out.splitlines()[0]

    def test_vb_column_and_csv_output(self, tmp_path, capsys):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=2)
        rep_dir = tmp_path / "rep"
        capsys.readouterr()
        assert main(["report", str(path), "--out", str(rep_dir)]) == 0
        out = capsys.readouterr().out
        assert "vb" in out.splitlines()[0]
        csv_text = (rep_dir / "report.csv").read_text().splitlines()
        assert csv_text[0].startswith("config,runs,")
        assert len(csv_text) == 3
        assert (rep_dir / "report.txt").exists()

    def test_report_medians_match_summarize(self, tmp_path, capsys):
        from mggp.stats import summarize

        path = run_small(tmp_path, runs=3, configs=("baseline",))
        records = load_records(path)
        s = summarize(records)
        rep_dir = tmp_path / "rep"
        main(["report", str(path), "--out", str(rep_dir)])
        row = (rep_dir / "report.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(s.train_median, rel=1e-3)
        assert float(row[5]) == pytest.approx(s.test_median, rel=1e-3)

    def test_identical_configs_indifferent(self, tmp_path, capsys):
        # the same runs on both sides: a repeated --config records them once
        path = run_small(tmp_path, runs=2)
        from mggp.stats import compare_vs_baseline

        scores = [r.test_r2 for r in load_records(path)]
        res = compare_vs_baseline(scores, list(scores), alpha=0.05, m=1)
        assert res.verdict == "indifferent"

    def test_empty_records_is_data_error(self, tmp_path):
        (tmp_path / "records.jsonl").write_text("")
        assert main(["report", str(tmp_path)]) == 2

    def test_a_missing_path_is_a_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["report", str(missing)]) == 2
        assert f"no records at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    def test_truncated_last_line_is_skipped_with_a_warning(self, tmp_path, capsys):
        path = run_small(tmp_path, runs=2)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][:40])  # an interrupted append
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "line 2: skipping a truncated last line" in captured.err
        assert captured.out.splitlines()[1].split()[1] == "1"  # runs
        assert [r.seed for r in load_records(path)] == [7]

    @pytest.mark.parametrize("bad, cause", [
        ("{\"codename\": ", "not JSON: Expecting value at column 13"),  # cut, not last
        ("[1, 2]", "not a run record"),
        ("{\"codename\": \"UB\"}", "not a run record"),
    ])
    @pytest.mark.parametrize("command", [["report"], ["compare", "--config-a", "baseline",
                                                      "--config-b", "baseline"]])
    def test_corrupt_line_is_a_data_error_naming_file_and_line(self, tmp_path, capsys,
                                                               bad, cause, command):
        path = run_small(tmp_path, runs=2)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + bad + "\n" + lines[1])
        capsys.readouterr()
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 2: {cause}" in err
        if "UB" in bad:
            assert "missing 12 required" in err

    def test_unterminated_last_line_that_parses_must_still_be_a_record(self, tmp_path, capsys):
        path = run_small(tmp_path)
        path.write_text(path.read_text() + "{}")
        assert main(["report", str(path)]) == 2
        assert "line 2: not a run record" in capsys.readouterr().err

    def test_repeated_runs_are_refused(self, tmp_path, capsys):
        out = tmp_path / "records"
        path = run_small(tmp_path, runs=2, out=out)
        path.write_text(path.read_text() * 2)  # every run recorded twice
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert "baseline s2d seed 7 (2 times)" in err and "baseline s2d seed 8 (2 times)" in err
        assert main(["compare", str(out), "--config-a", "baseline", "--config-b", "baseline"]) == 2

    def test_report_does_not_mutate_records(self, tmp_path):
        path = run_small(tmp_path)
        before = path.read_bytes()
        main(["report", str(path)])
        assert path.read_bytes() == before


class TestCompare:
    def test_compare_two_configs(self, tmp_path, capsys):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=2)
        assert main([
            "compare", str(path), "--config-a", "UB", "--config-b", "baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "UB vs baseline" in out
        assert "p=" in out

    def test_unknown_config_is_data_error(self, tmp_path):
        path = run_small(tmp_path)
        assert main([
            "compare", str(path), "--config-a", "SB", "--config-b", "baseline",
        ]) == 2

    def test_codenames_are_read_as_run_reads_them(self, tmp_path, capsys):
        out = tmp_path / "records"
        assert main(["run", "--dataset", "s2d", "--config=um", "--config=--", "--runs", "2",
                     "--generations", "2", "--out", str(out)]) == 0
        assert {r.codename for r in load_records(out)} == {"UM", "baseline"}
        capsys.readouterr()
        for a, b in [("um", "--"), (" Um ", "BASELINE"), ("UM", "baseline")]:
            assert main(["compare", str(out), f"--config-a={a}", f"--config-b={b}"]) == 0
            assert capsys.readouterr().out.startswith("UM vs baseline: U=")

    def test_an_unknown_codename_is_a_usage_error(self, tmp_path, capsys):
        path = run_small(tmp_path)
        capsys.readouterr()
        for a, b in [("UX", "baseline"), ("baseline", "GM")]:
            assert main(["compare", str(path), "--config-a", a, "--config-b", b]) == 1
            assert "expected one of baseline, UM, UB, UC, SM, SB, SC, GB, GC" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("compare", ["--config-a", "UB", "--config-b", "baseline"]), ("report", [])])
    def test_comparisons_below_one_is_a_usage_error(self, tmp_path, capsys, command, flags):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=2)
        capsys.readouterr()
        for m in ("0", "-3"):
            assert main([command, str(path), *flags, "--comparisons", m]) == 1
            captured = capsys.readouterr()
            assert "--comparisons must be >= 1" in captured.err and captured.out == ""

    def test_a_significance_level_outside_zero_one_is_a_usage_error(self, tmp_path, capsys):
        path = run_small(tmp_path, configs=("baseline", "UB"), runs=2)
        capsys.readouterr()
        for command, flags in [("compare", ["--config-a", "UB", "--config-b", "baseline"]),
                               ("report", [])]:
            for alpha in ("2", "7", "1", "0", "-0.05"):
                assert main([command, str(path), *flags, "--alpha", alpha]) == 1
                captured = capsys.readouterr()
                assert "alpha" in captured.err and captured.out == ""


class TestUsage:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "s2d", "--frobnicate"])
        assert exc.value.code == 1
