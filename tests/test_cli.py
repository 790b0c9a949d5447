import csv
import io
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sphererec import cli, data, geometry, trainer
from sphererec.hypersphere import config_hash


FIT_FLAGS = ["--dim", "8", "--lr", "0.01", "--batch-size", "64",
             "--max-epochs", "3", "--patience", "5", "--seed", "7"]


def train_args(dataset, out_dir, **extra):
    argv = ["train", "--dataset", str(dataset), "--out-dir", str(out_dir), *FIT_FLAGS]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    return argv


def sweep_args(dataset, *extra):
    return ["sweep", "--dataset", str(dataset), *FIT_FLAGS, *extra]


def worker_thread_cap(*point_inputs):
    """A sweep point that reports the thread caps its worker process runs under."""
    return {"rau_num_threads": os.environ.get("RAU_NUM_THREADS"),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "best_val_ndcg@20": 0.0}


def pickled_types(obj) -> set[type]:
    """The types of the objects pickled with `obj` (but for plain ints, strs and tuples)."""
    seen = set()

    class Spy(pickle.Pickler):
        def reducer_override(self, value):
            seen.add(type(value))
            return NotImplemented

    Spy(io.BytesIO()).dump(obj)
    return seen


def only_run_dir(out_dir):
    runs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(runs) == 1
    return runs[0]


class TestTrainCommand:
    def test_writes_artifacts(self, synthetic_tsv, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        assert cli.main(train_args(synthetic_tsv, out_dir)) == 0
        run = only_run_dir(out_dir)
        for name in ("user.emb", "item.emb", "checkpoint.json", "report.json",
                     "diagnostics.csv", "split_manifest.json", "test_metrics.json"):
            assert (run / name).exists(), name
        diag_lines = (run / "diagnostics.csv").read_text().strip().split("\n")
        report = json.loads((run / "report.json").read_text())
        assert len(diag_lines) == 1 + report["epochs_run"]
        assert "R@20" in capsys.readouterr().out

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = cli.main(train_args(missing, tmp_path / "runs"))
        assert code == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_dataset_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(train_args(tmp_path, tmp_path / "runs")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_that_is_a_file_exits_2(self, synthetic_tsv, tmp_path, capsys):
        out_file = tmp_path / "runs"
        out_file.write_text("not a directory\n")
        assert cli.main(train_args(synthetic_tsv, out_file, **{"max-epochs": "1"})) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out_file.read_text() == "not a directory\n"

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    def test_unusable_out_dir_exits_2_before_fitting(self, synthetic_tsv, tmp_path, capsys,
                                                     monkeypatch, where):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran although --out-dir cannot be used")

        monkeypatch.setattr(trainer, "fit", no_fit)
        blocker = tmp_path / "runs"
        blocker.write_text("not a directory\n")
        out_dir = blocker if where == "a-file" else blocker / "nested"
        assert cli.main(train_args(synthetic_tsv, out_dir)) == 2
        assert str(blocker) in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_directau_equals_rau_with_zero_weights(self, synthetic_tsv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(train_args(synthetic_tsv, out_a, objective="directau")) == 0
        assert cli.main(train_args(synthetic_tsv, out_b, objective="rau",
                                   alpha="0", beta="0")) == 0
        csv_a = (only_run_dir(out_a) / "diagnostics.csv").read_text()
        csv_b = (only_run_dir(out_b) / "diagnostics.csv").read_text()
        assert csv_a == csv_b
        metrics_a = json.loads((only_run_dir(out_a) / "test_metrics.json").read_text())
        metrics_b = json.loads((only_run_dir(out_b) / "test_metrics.json").read_text())
        assert metrics_a == metrics_b

    def test_config_file_with_flag_override(self, synthetic_tsv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "objective": "directau", "dim": 8, "lr": 0.01, "batch_size": 64,
            "max_epochs": 2, "patience": 5, "seed": 7,
            "dataset": str(synthetic_tsv),
        }))
        out_dir = tmp_path / "runs"
        assert cli.main(["train", "--config", str(config), "--out-dir", str(out_dir),
                         "--max-epochs", "1"]) == 0
        report = json.loads((only_run_dir(out_dir) / "report.json").read_text())
        assert report["epochs_run"] == 1

    def test_mistyped_config_value_exits_2(self, synthetic_tsv, tmp_path, capsys):
        # "false" is a string, not a bool: it used to train without validation
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fixed_epochs": "false", "max_epochs": 1,
                                      "dataset": str(synthetic_tsv)}))
        out_dir = tmp_path / "runs"
        assert cli.main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert "fixed_epochs" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", ["3", '[["lr", 0.1]]', '"lr"', "null"],
                             ids=["number", "list-of-pairs", "string", "null"])
    def test_config_that_is_not_an_object_exits_2(self, synthetic_tsv, tmp_path, capsys, text):
        # a number or null used to crash with a TypeError, and a list of pairs trained
        # as if it were {"lr": 0.1}
        config = tmp_path / "config.json"
        config.write_text(text)
        out_dir = tmp_path / "runs"
        assert cli.main(["train", "--config", str(config), "--dataset", str(synthetic_tsv),
                         "--max-epochs", "1", "--fixed-epochs", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: expected a JSON object")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_weight_decay_that_zeroes_the_tables_exits_2(self, synthetic_tsv, tmp_path, capsys):
        # lr 0.01 * weight decay 1e5 makes Adam's decay factor about -999; this used to train
        # and exit 0
        out_dir = tmp_path / "runs"
        assert cli.main(train_args(synthetic_tsv, out_dir, **{"weight-decay": "1e5"})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lr * weight_decay must be below 1")
        assert err.count("\n") == 1
        assert not out_dir.exists()


@pytest.mark.parametrize("single_thread, rau_num_threads, expected", [
    (True, None, "1"), (False, "2", "2"),
])
def test_thread_cap_overrides_inherited_variables(monkeypatch, single_thread,
                                                  rau_num_threads, expected):
    for name in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(name, "4")
    if rau_num_threads is None:
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("RAU_NUM_THREADS", rau_num_threads)
    cli._apply_thread_cap(single_thread)
    assert [os.environ[name] for name in cli._THREAD_ENV_VARS] == [expected] * 4


@pytest.mark.parametrize("single_thread, rau_num_threads, workers, expected", [
    (False, None, 1, "16"), (False, None, 2, "4"), (False, None, 3, "2"), (False, None, 16, "1"),
    (True, None, 2, "1"), (False, "3", 2, "3"), (False, "3", 3, "2"),
])
def test_sweep_workers_cap_blas_at_their_share(monkeypatch, single_thread, rau_num_threads,
                                               workers, expected):
    # each worker inherits BLAS as numpy loaded it in the parent, so the parent caps it at
    # the worker's share of the 8 CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    for name in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(name, "16")
    if rau_num_threads is None:
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("RAU_NUM_THREADS", rau_num_threads)
    cli._apply_thread_cap(single_thread, workers)
    assert [os.environ[name] for name in cli._THREAD_ENV_VARS] == [expected] * 4


@pytest.mark.parametrize("rau_num_threads", ["abc", "0", ""])
def test_bad_thread_cap_exits_2_before_the_command(monkeypatch, synthetic_tsv, tmp_path, capsys,
                                                   rau_num_threads):
    # each used to be copied into the BLAS variables; under "0" OpenBLAS took every core
    for name in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(name, "4")
    monkeypatch.setenv("RAU_NUM_THREADS", rau_num_threads)
    assert cli.main(train_args(synthetic_tsv, tmp_path / "runs")) == 2
    assert "RAU_NUM_THREADS must be a positive integer" in capsys.readouterr().err
    assert [os.environ[name] for name in cli._THREAD_ENV_VARS] == ["4"] * 4
    assert not (tmp_path / "runs").exists()


DIRECTAU_NOTE = ("note: objective rau ran with alpha = beta = 0, so neither regularizer was on; "
                 "at gamma 0.5/0.5 these are the directau weights\n")


@pytest.mark.parametrize("extra, noted", [
    ({}, True), ({"gamma-user": 0.7, "gamma-item": 0.3}, True), ({"objective": "directau"}, False),
    ({"objective": "bpr"}, False), ({"alpha": 0.5}, False), ({"beta": 1}, False)])
def test_train_notes_an_rau_run_without_regularizers(synthetic_tsv, tmp_path, capsys, extra,
                                                     noted):
    argv = train_args(synthetic_tsv, tmp_path / "runs", **extra, **{"max-epochs": 0})
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (DIRECTAU_NOTE if noted else "")


@pytest.mark.parametrize("grid, noted", [
    (["alpha=0,0.5", "beta=0,1"], True), (["objective=rau,directau", "beta=0,1"], True),
    (["alpha=0.5", "beta=0,1"], False), (["objective=directau,bpr"], False)])
def test_sweep_notes_rau_points_without_regularizers_once(synthetic_tsv, tmp_path, capsys, grid,
                                                          noted):
    argv = sweep_args(synthetic_tsv, "--max-epochs", "0", *[arg for spec in grid
                                                            for arg in ("--grid", spec)],
                      "--out", str(tmp_path / "sweep.csv"))
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (DIRECTAU_NOTE if noted else "")


class TestEvalCommand:
    @pytest.fixture()
    def checkpoint(self, synthetic_tsv, tmp_path):
        out_dir = tmp_path / "runs"
        assert cli.main(train_args(synthetic_tsv, out_dir)) == 0
        return only_run_dir(out_dir)

    def test_default_ks(self, checkpoint, capsys):
        assert cli.main(["eval", "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "R@20" in out and "R@50" in out

    def test_recall_at_one_positive_on_trained_model(self, synthetic_tsv, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        argv = train_args(synthetic_tsv, out_dir)
        argv[argv.index("--max-epochs") + 1] = "40"
        assert cli.main(argv) == 0
        checkpoint = only_run_dir(out_dir)
        out_json = tmp_path / "metrics.json"
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--k", "1",
                         "--out", str(out_json)]) == 0
        metrics = json.loads(out_json.read_text())
        assert metrics["recall"]["1"] > 0.0

    @pytest.mark.parametrize("encoder", ["mf", "lightgcn"])
    @pytest.mark.parametrize("objective", ["rau", "bpr"])
    def test_eval_of_fresh_run_writes_its_test_metrics(self, synthetic_tsv, tmp_path,
                                                       encoder, objective):
        # the checkpoint read back from disk ranks exactly as the trained tables did
        out_dir = tmp_path / "runs"
        assert cli.main(train_args(synthetic_tsv, out_dir, encoder=encoder, objective=objective,
                                   dim=16, **{"batch-size": 128, "max-epochs": 6})) == 0
        run = only_run_dir(out_dir)
        out_json = tmp_path / "metrics.json"
        assert cli.main(["eval", "--checkpoint", str(run), "--out", str(out_json)]) == 0
        assert out_json.read_bytes() == (run / "test_metrics.json").read_bytes()

    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "user.emb").write_bytes(b"garbage")
        code = cli.main(["eval", "--checkpoint", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda sidecar: 3,
        lambda sidecar: "seed config_hash config",
        lambda sidecar: [sidecar],
        lambda sidecar: dict(sidecar, config=3, config_hash=config_hash(3)),
        lambda sidecar: dict(sidecar, config=[["lr", 0.01]],
                             config_hash=config_hash([["lr", 0.01]])),
    ], ids=["number", "string", "list", "config-number", "config-list"])
    def test_sidecar_that_is_not_an_object_exits_2(self, checkpoint, capsys, edit):
        # each used to crash with a TypeError or AttributeError traceback
        sidecar_path = checkpoint / "checkpoint.json"
        sidecar_path.write_text(json.dumps(edit(json.loads(sidecar_path.read_text()))))
        assert cli.main(["eval", "--checkpoint", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}/checkpoint.json")
        assert err.count("\n") == 1

    def test_repeated_k_exits_2(self, checkpoint, capsys):
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--k", "20", "20"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_csv_report_output(self, checkpoint, tmp_path):
        out_csv = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--out-csv", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "k,recall,ndcg"
        assert len(lines) == 3


class TestSweepCommand:
    def test_single_point_grid_matches_train_eval(self, synthetic_tsv, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, "--grid", "alpha=0.3", "--grid", "beta=2.0",
                          "--grid", "gamma_user/gamma_item=0.7/0.3", "--k", "10",
                          "--out", str(out_csv))
        assert cli.main(argv) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].endswith("*")

        out_dir = tmp_path / "runs"
        assert cli.main(train_args(synthetic_tsv, out_dir, objective="rau",
                                   alpha="0.3", beta="2.0",
                                   **{"gamma-user": "0.7", "gamma-item": "0.3"})) == 0
        run = only_run_dir(out_dir)
        test_metrics = json.loads((run / "test_metrics.json").read_text())
        header = lines[0].split(",")
        row = lines[1].split(",")
        sweep_recall = float(row[header.index("test_recall@10")])
        report = json.loads((run / "report.json").read_text())
        assert report["best_val"] is not None
        # same seeds, same config -> the sweep's fit is the training run
        direct = cli.main(["eval", "--checkpoint", str(run), "--k", "10",
                           "--out", str(tmp_path / "direct.json")])
        assert direct == 0
        direct_metrics = json.loads((tmp_path / "direct.json").read_text())
        assert sweep_recall == pytest.approx(direct_metrics["recall"]["10"], abs=1e-12)

    def test_bad_gamma_ratio_exits_2(self, synthetic_tsv, tmp_path, monkeypatch, capsys):
        # a coupled value needs one part per field
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        argv = sweep_args(synthetic_tsv, "--grid", "gamma_user/gamma_item=0.7/0.3,0.7:0.3",
                          "--out", str(tmp_path / "s.csv"))
        assert cli.main(argv) == 2
        assert fits == []
        assert "one part per field" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        (["--grid", "max_epoch=1,2"], "unknown config keys: ['max_epoch']"),
        (["--grid", "dataset=other.tsv"], "bad --grid fields ['dataset']: each may appear once"),
        (["--grid", "eval_k_for_stopping=5,10"], "bad --grid fields ['eval_k_for_stopping']"),
        (["--grid", "alpha=0", "--grid", "alpha=1"], "bad --grid fields ['alpha', 'alpha']"),
        (["--grid", "alpha/alpha=0/1"], "bad --grid fields ['alpha', 'alpha']"),
        (["--grid", "alpha"], "expected FIELD=V1,V2,..."),
        (["--grid", "alpha="], "expected FIELD=V1,V2,..."),
        (["--grid", "alpha=0.5/0.5"], "one part per field"),
        (["--grid", "gamma_user/gamma_item=0.5/0.5,0.7"], "one part per field"),
        (["--grid", "dim=8,16.5"], "dim must be of type int"),
        (["--grid", "objective=rau,dpo"], "objective must be one of"),
        (["--grid", "fixed_epochs=true,yes"], "fixed_epochs must be of type bool"),
    ], ids=["unknown", "dataset", "stopping-k", "twice", "twice-coupled", "no-equals",
            "no-values", "too-many-parts", "too-few-parts", "float-for-int", "bad-objective",
            "text-for-bool"])
    def test_bad_grid_exits_2_before_any_fit(self, synthetic_tsv, tmp_path, monkeypatch,
                                              capsys, bad, message):
        # eval_k_for_stopping on the grid used to crash with a KeyError after every fit
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        argv = sweep_args(synthetic_tsv, *bad, "--out", str(tmp_path / "s.csv"))
        assert cli.main(argv) == 2
        assert fits == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_every_point_is_checked_trainable_before_any_fit(self, tmp_path, monkeypatch,
                                                             capsys):
        # users with two pairs each leave the validation part empty, so only the
        # fixed_epochs=true point can train; the first point used to be fitted before the
        # second failed, and no CSV was written
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("a\tx\na\ty\nb\tx\nb\ty\n")
        argv = ["sweep", "--dataset", str(tiny), "--max-epochs", "1", "--batch-size", "2",
                "--grid", "fixed_epochs=true,false", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 2
        assert fits == []
        assert "validation split is empty" in capsys.readouterr().err

    def test_seed_grid_scores_every_seed_on_one_split(self, synthetic_tsv, tmp_path,
                                                      monkeypatch):
        evaluated = []
        evaluate_tables = cli._evaluate_tables

        def recording_evaluate_tables(split, user_table, item_table, cfg, **kwargs):
            report = evaluate_tables(split, user_table, item_table, cfg, **kwargs)
            evaluated.append((split, cfg, report))
            return report

        monkeypatch.setattr(cli, "_evaluate_tables", recording_evaluate_tables)
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, "--grid", "seed=1,2", "--k", "10",
                          "--out", str(out_csv))
        assert cli.main(argv) == 0
        with out_csv.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["seed"] for row in rows] == ["1", "2"]
        (split_1, cfg_1, report_1), (split_2, cfg_2, report_2) = evaluated
        assert split_1 is split_2 and split_1.split_seed == 7  # the --seed flag's split
        assert report_1.num_users_evaluated == report_2.num_users_evaluated > 0
        assert (cfg_1.seed, cfg_2.seed) == (1, 2)
        for row, (split, cfg, _) in zip(rows, evaluated):
            # each row is a fit of its config on the sweep's split
            _, user_table, item_table = trainer.fit(split, cfg)
            direct = evaluate_tables(split, user_table, item_table, cfg, ks=(10,))
            assert float(row["test_recall@10"]) == direct.recall[10]
            assert float(row["test_ndcg@10"]) == direct.ndcg[10]

    def test_objective_grid_runs_every_objective(self, synthetic_tsv, tmp_path, monkeypatch):
        # sweep used to exit 2 for any objective but rau
        objectives = []
        fit = trainer.fit

        def recording_fit(split, cfg):
            objectives.append(cfg.objective)
            return fit(split, cfg)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, "--grid", "objective=rau,directau,bpr", "--k", "10",
                          "--out", str(out_csv))
        assert cli.main(argv) == 0
        assert objectives == ["rau", "directau", "bpr"]
        with out_csv.open(newline="") as handle:
            assert [row["objective"] for row in csv.DictReader(handle)] == objectives

    def test_grid_columns_follow_the_flags(self, synthetic_tsv, tmp_path, monkeypatch):
        configs = []
        fit = trainer.fit

        def recording_fit(split, cfg):
            configs.append(cfg)
            return fit(split, cfg)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, "--max-epochs", "0", "--grid", "lr=1,0.5",
                          "--grid", "gamma_user/gamma_item=0.5/0.5,0.7/0.3",
                          "--grid", "encoder=lightgcn", "--k", "10", "--out", str(out_csv))
        assert cli.main(argv) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ("lr,gamma_user,gamma_item,encoder,best_val_ndcg@20,"
                            "test_recall@10,test_ndcg@10,best")
        assert [line.split(",")[:4] for line in lines[1:]] == [
            ["1", "0.5", "0.5", "lightgcn"], ["1", "0.7", "0.3", "lightgcn"],
            ["0.5", "0.5", "0.5", "lightgcn"], ["0.5", "0.7", "0.3", "lightgcn"]]
        # a grid value means what it means in a --config file: "lr": 1 stays an int
        assert type(configs[0].lr) is int
        assert configs[0] == trainer.TrainConfig.from_dict(
            {"dim": 8, "lr": 1, "batch_size": 64, "max_epochs": 0, "patience": 5, "seed": 7,
             "gamma_user": 0.5, "gamma_item": 0.5, "encoder": "lightgcn"})

    @pytest.mark.parametrize("bad", [["--grid", "alpha=0,-1"], ["--k", "20", "20"],
                                     ["--k", "0"]])
    def test_bad_grid_value_or_k_exits_2_before_any_fit(self, synthetic_tsv, tmp_path,
                                                        monkeypatch, bad):
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        argv = sweep_args(synthetic_tsv, *bad, "--out", str(tmp_path / "s.csv"))
        assert cli.main(argv) == 2
        assert fits == []

    @pytest.mark.parametrize("no_validation", [["--fixed-epochs"], ["--max-epochs", "0"]],
                             ids=["fixed-epochs", "max-epochs-0"])
    def test_fit_without_validation_marks_no_best_row(self, synthetic_tsv, tmp_path, capsys,
                                                      no_validation):
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, *no_validation, "--grid", "alpha=0.0,0.5",
                          "--k", "10", "--out", str(out_csv))
        assert cli.main(argv) == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert not any(row.endswith("*") for row in rows)
        assert "best grid point: none" in capsys.readouterr().out

    def test_parallel_workers_match_sequential(self, synthetic_tsv, tmp_path):
        def run(out_name, workers):
            out_csv = tmp_path / out_name
            argv = sweep_args(synthetic_tsv, "--grid", "alpha=0.0,0.5", "--k", "10",
                              "--out", str(out_csv), "--workers", str(workers))
            assert cli.main(argv) == 0
            return out_csv.read_bytes()

        assert run("seq.csv", 1) == run("par.csv", 2)

    def test_pool_tasks_carry_only_their_config(self, synthetic_tsv, tmp_path, monkeypatch):
        # the split reaches each worker once, through the pool's initializer
        sent = []
        pool_map = ProcessPoolExecutor.map

        def recording_map(pool, fn, *iterables, **kwargs):
            iterables = [list(tasks) for tasks in iterables]
            sent.extend(zip(*iterables))
            return pool_map(pool, fn, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
        argv = sweep_args(synthetic_tsv, "--grid", "alpha=0.0,0.5", "--k", "10",
                          "--out", str(tmp_path / "s.csv"), "--workers", "2")
        assert cli.main(argv) == 0
        assert [type(arg) for task in sent for arg in task] == [trainer.TrainConfig] * 2
        for task in sent:
            assert not pickled_types(task) & {data.SplitDataset, np.ndarray}

    def test_each_worker_gets_its_share_of_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
        assert [cli._worker_width(n) for n in (1, 2, 3, 4, 8, 16)] == [8, 4, 2, 2, 1, 1]
        monkeypatch.setenv("RAU_NUM_THREADS", "3")  # a user-set cap still holds
        assert [cli._worker_width(n) for n in (1, 2, 3, 4)] == [3, 3, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("RAU_NUM_THREADS")
        assert [cli._worker_width(n) for n in (1, 2, 3)] == [2, 1, 1]

    def test_workers_run_at_their_width(self, synthetic_tsv, tmp_path, monkeypatch):
        # four CPUs over two workers: each worker process runs under a cap of two threads,
        # for BLAS too (set before numpy loads, where the CLI runs in its own process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
        for name in cli._THREAD_ENV_VARS:
            monkeypatch.setenv(name, "4")
        monkeypatch.setattr(cli, "_sweep_point", worker_thread_cap)
        argv = sweep_args(synthetic_tsv, "--grid", "alpha=0.0,0.5", "--out",
                          str(tmp_path / "s.csv"), "--workers", "2")
        assert cli.main(argv) == 0
        rows = (tmp_path / "s.csv").read_text().strip().split("\n")
        assert [row.split(",")[:2] for row in rows] == [
            ["rau_num_threads", "openblas_num_threads"], ["2", "2"], ["2", "2"]]
        assert "RAU_NUM_THREADS" not in os.environ  # the caller's environment is left alone

    @pytest.mark.parametrize("where", ["a-directory", "under-a-file"])
    def test_unusable_out_exits_2_before_fitting(self, synthetic_tsv, tmp_path, capsys,
                                                 monkeypatch, where):
        # both used to fail only after every grid point had been fitted
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran although --out cannot be written")

        monkeypatch.setattr(trainer, "fit", no_fit)
        blocker = tmp_path / "blocker"
        if where == "a-directory":
            blocker.mkdir()
            out = blocker
        else:
            blocker.write_text("not a directory\n")
            out = blocker / "s.csv"
        argv = sweep_args(synthetic_tsv, "--grid", "alpha=0.0,0.5", "--out", str(out))
        assert cli.main(argv) == 2
        assert str(blocker) in capsys.readouterr().err

    def test_out_parent_is_created_before_fitting(self, synthetic_tsv, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise ValueError("no fit in this test")

        monkeypatch.setattr(trainer, "fit", failing_fit)
        out = tmp_path / "new" / "nested" / "s.csv"
        argv = sweep_args(synthetic_tsv, "--out", str(out))
        assert cli.main(argv) == 2
        assert out.parent.is_dir() and not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2_before_any_fit(self, synthetic_tsv, tmp_path,
                                                      monkeypatch, capsys, workers):
        # these used to run the grid serially without a word
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        argv = sweep_args(synthetic_tsv, "--workers", workers, "--out", str(tmp_path / "s.csv"))
        assert cli.main(argv) == 2
        assert fits == []
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--objective", "bpr"], ["--alpha", "0.5"], ["--beta", "2"],
                                      ["--gamma-user", "0.7"], ["--gamma-item", "0.3"],
                                      ["--out-dir", "runs"]], ids=lambda flag: flag[0])
    def test_flag_of_train_only_exits_2_before_any_fit(self, synthetic_tsv, tmp_path,
                                                       monkeypatch, capsys, flag):
        # sweep used to take these and then ignore or overwrite them
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(args))
        with pytest.raises(SystemExit) as exited:
            cli.main(sweep_args(synthetic_tsv, *flag, "--out", str(tmp_path / "s.csv")))
        assert exited.value.code == 2
        assert fits == []
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, header, expected", [
        ([], "best_val_ndcg@20", [(0.3, 2.0)]),
        (["--grid", "beta=1.0,5.0"], "beta,best_val_ndcg@20", [(0.3, 1.0), (0.3, 5.0)]),
    ], ids=["no-grid-flags", "beta-grid"])
    def test_a_grid_flag_not_given_keeps_the_config_weight(self, synthetic_tsv, tmp_path,
                                                           monkeypatch, grid, header, expected):
        # the grid flags' defaults used to replace the config's weights without a word; a
        # field not on the grid keeps the config's value and gets no column
        weights = []
        fit = trainer.fit

        def recording_fit(split, cfg):
            weights.append(cfg.weights)
            return fit(split, cfg)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.3, "beta": 2.0, "gamma_user": 0.7,
                                      "gamma_item": 0.3}))
        out_csv = tmp_path / "sweep.csv"
        argv = sweep_args(synthetic_tsv, "--config", str(config), *grid, "--k", "10",
                          "--out", str(out_csv))
        assert cli.main(argv) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith(header + ",")
        assert len(lines) == 1 + len(expected)
        assert [(w.alpha, w.beta) for w in weights] == expected
        assert {(w.gamma_user, w.gamma_item) for w in weights} == {(0.7, 0.3)}

    @pytest.mark.parametrize("objective", ["directau", "bpr"])
    def test_config_objective_other_than_rau_is_fitted(self, synthetic_tsv, tmp_path,
                                                       monkeypatch, objective):
        # sweep used to exit 2 here, and before that fitted rau whatever the config named
        objectives = []
        fit = trainer.fit

        def recording_fit(split, cfg):
            objectives.append(cfg.objective)
            return fit(split, cfg)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"objective": objective}))
        argv = sweep_args(synthetic_tsv, "--config", str(config), "--k", "10",
                          "--out", str(tmp_path / "s.csv"))
        assert cli.main(argv) == 0
        assert objectives == [objective]


class TestGeometryCommand:
    def test_default_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "geo"
        assert cli.main(["geometry", "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 361
        verification = json.loads((out_dir / "verification.json").read_text())
        assert verification["variance_at_min"] <= 1e-12

    def test_step_ninety(self, tmp_path):
        out_dir = tmp_path / "geo"
        assert cli.main(["geometry", "--step", "90", "--out-dir", str(out_dir)]) == 0
        assert len((out_dir / "sweep.csv").read_text().strip().split("\n")) == 5

    def test_invalid_step_exits_2(self, tmp_path, capsys):
        assert cli.main(["geometry", "--step", "7", "--out-dir", str(tmp_path)]) == 2
        assert "divide" in capsys.readouterr().err

    def test_step_planning_too_many_rows_exits_2_at_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "config_metrics", lambda cfg: calls.append(cfg))
        assert cli.main(["geometry", "--step", "1e-300", "--out-dir", str(tmp_path / "g")]) == 2
        assert "more than" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "g").exists()

    def test_case_metrics_printed(self, tmp_path, capsys):
        assert cli.main(["geometry", "--step", "90", "--out-dir", str(tmp_path / "g"),
                         "--case", "0", "0", "180"]) == 0
        assert "kernel_variance" in capsys.readouterr().out


class TestInspectCommand:
    def test_summary(self, synthetic_tsv, capsys):
        assert cli.main(["inspect", "--dataset", str(synthetic_tsv)]) == 0
        out = capsys.readouterr().out
        assert "users: 200" in out
        assert "interactions: 2000" in out

    def test_split_summary_and_manifest(self, synthetic_tsv, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert cli.main(["inspect", "--dataset", str(synthetic_tsv),
                         "--split-seed", "11", "--manifest", str(manifest)]) == 0
        assert manifest.exists()
        assert "train=" in capsys.readouterr().out

    def test_dataset_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["inspect", "--dataset", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_without_split_seed_exits_2(self, synthetic_tsv, tmp_path, capsys):
        # this used to exit 0 and write no manifest
        manifest = tmp_path / "manifest.json"
        assert cli.main(["inspect", "--dataset", str(synthetic_tsv),
                         "--manifest", str(manifest)]) == 2
        assert not manifest.exists()
        assert "needs --split-seed" in capsys.readouterr().err
