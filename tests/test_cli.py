import json

import pytest

from mggp.cli import RunRecord, load_records, main


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
        code = main(["gen", "wat", "--out", str(tmp_path)])
        assert code == 2  # unknown dataset name is a data error
        assert "unknown generator" in capsys.readouterr().err


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
        # same seeds and dataset, two labels: UM vs baseline won't be identical,
        # so run baseline twice under different output labels via two runs files
        path = run_small(tmp_path, configs=("baseline", "baseline"), runs=2)
        records = load_records(path)
        from mggp.stats import compare_vs_baseline

        scores = [r.test_r2 for r in records if r.codename == "baseline"]
        res = compare_vs_baseline(scores[:2], scores[2:], alpha=0.05, m=1)
        assert res.verdict == "indifferent"

    def test_empty_records_is_data_error(self, tmp_path):
        (tmp_path / "records.jsonl").write_text("")
        assert main(["report", str(tmp_path)]) == 2

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
        run_small(tmp_path, runs=2, out=out)
        run_small(tmp_path, runs=2, out=out)  # the same experiment, appended again
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


class TestUsage:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "s2d", "--frobnicate"])
        assert exc.value.code == 1
