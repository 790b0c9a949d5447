"""The run-matrix script: a reduced matrix run twice gives byte-identical artifacts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sphererec import cli, data, evaluation, losses, trainer

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_matrix.py"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_reduced_matrix_is_byte_identical_across_runs(tmp_path):
    digests = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in digests:
        assert run_script("--reduced", "--out", path).returncode == 0
    files = json.loads(digests[0].read_text())["files"]
    for encoder in ("mf", "lightgcn"):
        for objective in ("rau", "directau", "bpr"):
            assert any(name.startswith(f"train/{encoder}-{objective}-early/")
                       and name.endswith("/report.json") for name in files)
    same = run_script("--compare", *digests)
    assert same.returncode == 0
    assert same.stdout.strip() == f"{len(files)} of {len(files)} byte-identical"

    name = sorted(files)[0]
    files[name] = "0" * 64
    digests[1].write_text(json.dumps({"files": files}))
    changed = run_script("--compare", *digests)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [f"differs: {name}",
                                           f"{len(files) - 1} of {len(files)} byte-identical"]


def load_run_matrix():
    spec = importlib.util.spec_from_file_location("run_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wide_section_reaches_the_threaded_paths(monkeypatch):
    # derived from the module constants, so a later constant change cannot shrink the
    # coverage unnoticed: at width 2, each thread ranks more than one chunk, Adam steps at
    # least 3 blocks and the kernel loss runs its two sides on two lanes
    matrix = load_run_matrix()
    num_users, num_items, per_user = matrix.WIDE_SHAPE
    split = data.split_per_user(data.two_cluster_dataset(num_users, num_items, per_user, seed=5),
                                seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
    chunks = []
    top_k = evaluation._top_k

    def recording_top_k(scores, k, work):
        chunks.append(scores.shape[0])
        return top_k(scores, k, work)

    monkeypatch.setattr(evaluation, "_top_k", recording_top_k)
    rng = np.random.default_rng(0)
    evaluation.evaluate(split, rng.normal(size=(num_users, 4)), rng.normal(size=(num_items, 4)))
    assert len(chunks) > 2  # more than one chunk for each of the two threads
    nodes = num_users + num_items
    assert -(-nodes * matrix.WIDE_DIM // trainer.ADAM_BLOCK_ENTRIES) >= 3
    # each side of the kernel loss spans more than one block, on a lane of its own under
    # both encoders, and the probe's users make more block pairs than a lane holds slots
    spans = -(-matrix.WIDE_BATCH // losses.KERNEL_BLOCK_ROWS)
    assert spans > 1
    assert {("mf", "rau"), ("lightgcn", "rau")} <= set(matrix.WIDE_RUNS)
    cfg = trainer.TrainConfig(dim=matrix.WIDE_DIM, batch_size=matrix.WIDE_BATCH)
    workspace = trainer.TrainState(split, cfg).workspace
    assert len(workspace.kernel_grad) == 2
    lane_slots = len(workspace.blocks) // 2 - 1
    assert lane_slots >= spans * (spans + 1) // 2
    probe_spans = -(-min(trainer.PROBE_LIMIT, num_users) // losses.KERNEL_BLOCK_ROWS)
    assert probe_spans * (probe_spans + 1) // 2 > lane_slots


def test_every_rau_train_runs_both_regularizers_with_asymmetric_gamma():
    matrix = load_run_matrix()
    argvs = [["train", *matrix.COMMON, *flags] for _, flags in matrix.main_trains(reduced=False)]
    argvs += [["train", *matrix.WIDE_COMMON, *matrix.model_flags(encoder, objective)]
              for encoder, objective in matrix.WIDE_RUNS]
    rau_weights = []
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        if args.objective == "rau":
            cfg, _ = cli._resolve_train_config(args)
            rau_weights.append(cfg.effective_weights())
    # three stopping modes per encoder in the main section, and both wide rau runs
    assert len(rau_weights) == 3 * 2 + 2
    for weights in rau_weights:
        assert weights.alpha > 0 and weights.beta > 0
        assert weights.gamma_user != weights.gamma_item


def test_compare_checks_each_width_pair(tmp_path):
    files = {"a.txt": "1" * 64, "wide/width-1/x.json": "2" * 64,
             "wide/width-default/x.json": "2" * 64}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"files": files}))
    same = run_script("--compare", path, path)
    assert same.returncode == 0
    assert same.stdout.splitlines() == ["3 of 3 byte-identical",
                                        *[f"{path}: 1 of 1 width pairs equal"] * 2]
    files["wide/width-default/x.json"] = "3" * 64
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"files": files}))
    changed = run_script("--compare", other, other)
    assert changed.returncode == 1
    assert f"width pair differs in {other}: x.json" in changed.stdout.splitlines()
