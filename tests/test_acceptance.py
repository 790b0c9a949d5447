"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The final criterion (full
Beauty-scale reproduction) is a multi-hour run and only executes when
RAU_BEAUTY_PATH points at the interaction file.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from conftest import xavier_table
from sphererec import cli, data, encoders, evaluation, losses, trainer
from sphererec.geometry import sweep_moving_point, verify_low_variance_claim
from sphererec.losses import LossWeights
from test_gradients import central_differences, max_relative_error

DATASET_SEED = 7
SPLIT_SEED = 11
FIT_SEED = 3

RAU_WEIGHTS = LossWeights(alpha=0.5, beta=5.0, gamma_user=0.7, gamma_item=0.3)


def _passed(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def split():
    ds = data.two_cluster_dataset(seed=DATASET_SEED)
    return data.split_per_user(ds, seed=SPLIT_SEED)


def synthetic_config(objective: str, weights: LossWeights = LossWeights()) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        objective=objective, encoder="mf", weights=weights, dim=32, lr=1e-2,
        batch_size=256, max_epochs=100, patience=100, weight_decay=1e-6,
        seed=FIT_SEED, eval_k_for_stopping=20,
    )


def test_criterion_1_loss_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    weights = LossWeights(alpha=0.9, beta=4.0, gamma_user=0.8, gamma_item=0.2)
    for _ in range(200):
        batch = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 17))
        users_raw = rng.normal(size=(batch, dim))
        items_raw = rng.normal(size=(batch, dim))
        users_list = oracles.normalize(users_raw.tolist())
        items_list = oracles.normalize(items_raw.tolist())
        users = np.array(users_list)
        items = np.array(items_list)

        oracle_align = oracles.align(users_list, items_list)
        oracle_uniform_u = oracles.uniform_part(users_list)
        oracle_uniform_i = oracles.uniform_part(items_list)
        oracle_ra = oracles.ra(users_list, items_list)
        oracle_var_u = oracles.kernel_variance(users_list)
        oracle_var_i = oracles.kernel_variance(items_list)
        oracle_wu = 0.8 * oracle_uniform_u + 0.2 * oracle_uniform_i
        oracle_ru = oracle_var_u + oracle_var_i
        oracle_total = (oracle_align + oracle_wu
                        + weights.alpha * oracle_ra + weights.beta * oracle_ru)

        assert abs(losses.align_loss(users, items) - oracle_align) <= 1e-10
        uniform_u, var_u = losses.uniformity_and_variance(users)
        uniform_i, var_i = losses.uniformity_and_variance(items)
        assert abs(uniform_u - oracle_uniform_u) <= 1e-10
        assert abs(uniform_i - oracle_uniform_i) <= 1e-10
        assert abs(var_u - oracle_var_u) <= 1e-10
        assert abs(var_i - oracle_var_i) <= 1e-10

        breakdown, _, _ = losses.rau_loss_and_gradient(users_raw, items_raw, weights)
        assert abs(breakdown.align - oracle_align) <= 1e-10
        assert abs(breakdown.weighted_uniform - oracle_wu) <= 1e-10
        assert abs(breakdown.ra - oracle_ra) <= 1e-10
        assert abs(breakdown.ru - oracle_ru) <= 1e-10
        assert abs(breakdown.total - oracle_total) <= 1e-10

        # one-column vectors against a unit user turn the scores into BPR margins
        pos = rng.normal(size=batch)
        neg = rng.normal(size=batch)
        bpr = losses.bpr_loss_and_gradient(np.ones((batch, 1)),
                                           np.concatenate([pos, neg])[:, None])[0]
        assert abs(bpr - oracles.bpr(pos.tolist(), neg.tolist())) <= 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _passed(1, f"200 random batches match the double-loop oracle within 1e-10 ({elapsed:.1f}s)")


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    weights = LossWeights(alpha=0.7, beta=3.0, gamma_user=0.7, gamma_item=0.3)

    worst_mf = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        users = rng.normal(size=(8, 4))
        items = rng.normal(size=(8, 4))
        _, grad_users, grad_items = losses.rau_loss_and_gradient(users, items, weights)
        fd_users = central_differences(
            lambda u: losses.rau_loss_and_gradient(u, items, weights)[0].total, users, step=1e-4)
        fd_items = central_differences(
            lambda i: losses.rau_loss_and_gradient(users, i, weights)[0].total, items, step=1e-4)
        worst_mf = max(worst_mf,
                       max_relative_error(grad_users, fd_users),
                       max_relative_error(grad_items, fd_items))
    assert worst_mf <= 1e-4

    # 5-node graph: 2 users, 3 items, duplicated batch ids exercise scatter adds
    graph = data.dataset_from_pairs(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    adjacency = encoders.build_norm_adjacency(graph)
    graph_cfg = encoders.GraphEncoderConfig(num_layers=2)
    user_ids = np.array([0, 1, 0, 1])
    item_ids = np.array([0, 1, 1, 2])
    frontiers = encoders.batch_frontiers(adjacency, graph_cfg, user_ids, item_ids)

    worst_graph = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        node_values = rng.normal(size=(5, 3))  # the 2 user rows, then the 3 item rows

        def loss_from_nodes(values):
            batch_u, batch_i = encoders.lightgcn_encode(values, graph_cfg, frontiers)
            return losses.rau_loss_and_gradient(batch_u, batch_i, weights)[0].total

        batch_u, batch_i = encoders.lightgcn_encode(node_values, graph_cfg, frontiers)
        _, grad_u, grad_i = losses.rau_loss_and_gradient(batch_u, batch_i, weights)
        rows, grad_rows = encoders.lightgcn_backward(
            adjacency, graph_cfg, user_ids, item_ids, grad_u, grad_i, frontiers)
        node_grad = oracles.full_table_gradient(rows, grad_rows, 5)
        fd = central_differences(loss_from_nodes, node_values, step=1e-4)
        # each side's error is scaled by that side's largest gradient entry
        for analytic, numeric in zip(encoders.split_nodes(node_grad, 2),
                                     encoders.split_nodes(fd, 2)):
            worst_graph = max(worst_graph, max_relative_error(analytic, numeric))
    assert worst_graph <= 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s (budget 30s)"
    _passed(2, f"analytic gradients within 1e-4 of central differences "
               f"(mf {worst_mf:.2e}, graph {worst_graph:.2e}, {elapsed:.1f}s)")


def test_criterion_3_directau_reduction(split):
    started = time.perf_counter()
    cfg_rau = trainer.TrainConfig(
        objective="rau", encoder="mf",
        weights=LossWeights(alpha=0.0, beta=0.0, gamma_user=0.5, gamma_item=0.5),
        dim=16, lr=1e-2, batch_size=256, max_epochs=12, patience=100,
        weight_decay=1e-6, seed=FIT_SEED)
    cfg_directau = trainer.TrainConfig(
        objective="directau", encoder="mf", dim=16, lr=1e-2, batch_size=256,
        max_epochs=12, patience=100, weight_decay=1e-6, seed=FIT_SEED)

    report_rau, user_rau, item_rau = trainer.fit(split, cfg_rau)
    report_dau, user_dau, item_dau = trainer.fit(split, cfg_directau)

    assert report_rau.epochs_run == report_dau.epochs_run
    for diag_rau, diag_dau in zip(report_rau.diagnostics, report_dau.diagnostics):
        assert diag_rau.align == diag_dau.align
        assert diag_rau.uniform_user == diag_dau.uniform_user
        assert diag_rau.uniform_item == diag_dau.uniform_item
        assert diag_rau.kernel_variance_user == diag_dau.kernel_variance_user
        assert diag_rau.kernel_variance_item == diag_dau.kernel_variance_item
    assert report_rau.val_history == report_dau.val_history
    assert np.array_equal(user_rau.values, user_dau.values)
    assert np.array_equal(item_rau.values, item_dau.values)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (budget 60s)"
    _passed(3, f"zero-weight run is bit-identical to the plain objective over "
               f"{report_rau.epochs_run} epochs ({elapsed:.1f}s)")


def test_criterion_4_geometry_reproduction():
    started = time.perf_counter()
    rows = sweep_moving_point((0.0, 120.0), 1.0)
    assert len(rows) == 360

    verification = verify_low_variance_claim(rows)
    # (a) global minimum at the equilateral completion, variance zero there
    assert verification.min_loss_angle_deg == 240.0
    assert verification.variance_at_min <= 1e-12

    # (b) every row stays strictly below the collapsed-pair configuration,
    # whose variance is evaluated here directly from the kernel definition
    kernels = [1.0, math.exp(-8.0), math.exp(-8.0)]
    mean = sum(kernels) / 3.0
    collapsed_variance = sum((v - mean) ** 2 for v in kernels) / 3.0
    assert collapsed_variance == pytest.approx(0.2220733, abs=1e-6)
    assert all(row.kernel_variance < collapsed_variance for row in rows)

    # (c) uniformity loss and kernel variance co-move
    assert verification.rank_correlation > 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f}s (budget 5s)"
    _passed(4, f"sweep minimum at 240 deg with zero variance, all rows below "
               f"{collapsed_variance:.5f}, Spearman {verification.rank_correlation:.3f} "
               f"({elapsed:.1f}s)")


def _align_trend_ok(diagnostics) -> tuple[bool, float, float]:
    """5-epoch moving average of align must not rise materially over the
    first 80% of epochs. The objective trades alignment against uniformity
    step to step, so 'non-increasing' is asserted up to 1% of the window's
    total decline."""
    aligns = np.array([d.align for d in diagnostics])
    smoothed = np.convolve(aligns, np.ones(5) / 5.0, mode="valid")
    window = smoothed[:int(0.8 * len(smoothed))]
    decline = window[0] - window[-1]
    max_rise = float(np.max(np.diff(window))) if window.size > 1 else 0.0
    return bool(decline > 0.3 and max_rise <= 0.01 * decline), decline, max_rise


def test_criterion_5_synthetic_end_to_end(split):
    started = time.perf_counter()

    # hypergeometric chance baseline: 10 slots out of the 91 unseen items
    random_users = xavier_table(split.num_users, 32, seed=101)
    random_items = xavier_table(split.num_items, 32, seed=102)
    random_report = evaluation.evaluate(split, random_users.values, random_items.values,
                                        ks=(10,), part="test")
    chance = 10.0 / 91.0
    sigma = math.sqrt(chance * (1.0 - chance) / split.num_users)
    assert abs(random_report.recall[10] - chance) <= 3 * sigma

    recalls = {}
    for objective, weights in (("directau", LossWeights()), ("rau", RAU_WEIGHTS)):
        report, user_table, item_table = trainer.fit(split, synthetic_config(objective, weights))
        assert report.epochs_run <= 100
        metrics = evaluation.evaluate(split, user_table.values, item_table.values,
                                      ks=(10,), part="test")
        recalls[objective] = metrics.recall[10]
        assert metrics.recall[10] >= 0.60, f"{objective}: recall@10 {metrics.recall[10]:.3f}"
        trend_ok, decline, max_rise = _align_trend_ok(report.diagnostics)
        assert trend_ok, (f"{objective}: align trend violated "
                          f"(decline {decline:.3f}, max rise {max_rise:.4f})")

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s (budget 300s)"
    _passed(5, f"recall@10 directau {recalls['directau']:.2f} / rau {recalls['rau']:.2f} "
               f"vs chance {random_report.recall[10]:.2f}; align trend holds ({elapsed:.1f}s)")


def test_criterion_6_determinism(synthetic_tsv, tmp_path):
    argv_base = [
        "--single-thread", "train", "--dataset", str(synthetic_tsv),
        "--objective", "directau", "--dim", "32", "--lr", "0.01",
        "--batch-size", "256", "--max-epochs", "100", "--patience", "100",
        "--seed", str(FIT_SEED),
    ]
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        assert cli.main(argv_base + ["--out-dir", str(out_dir)]) == 0
        run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
        outputs.append((run_dir / "diagnostics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    _passed(6, f"two seeded single-thread runs wrote byte-identical diagnostics "
               f"({len(outputs[0])} bytes)")


@pytest.mark.skipif("RAU_BEAUTY_PATH" not in os.environ,
                    reason="extended multi-hour run; set RAU_BEAUTY_PATH to enable")
def test_criterion_7_beauty_reproduction_extended():
    """Full-protocol run on the Beauty dataset (hours of CPU time).

    Expected: the plain alignment+uniformity objective lands at
    Recall@20 = 14.07 +/- 0.7 (%), the regularized objective at
    14.58 +/- 0.7 (%) and above the plain one.
    """
    path = os.environ["RAU_BEAUTY_PATH"]
    ds = data.load_interactions(path)
    assert abs(ds.num_users - 22_400) <= 200
    assert abs(ds.num_items - 12_100) <= 200
    assert abs(ds.num_interactions - 198_500) <= 2_000
    split = data.split_per_user(ds, seed=SPLIT_SEED)

    def protocol(objective, weights):
        cfg = trainer.TrainConfig(objective=objective, encoder="mf", weights=weights,
                                  dim=64, lr=1e-3, batch_size=256, max_epochs=500,
                                  patience=10, weight_decay=1e-6, seed=FIT_SEED)
        _, user_table, item_table = trainer.fit(split, cfg)
        report = evaluation.evaluate(split, user_table.values, item_table.values,
                                     ks=(20,), part="test")
        return 100.0 * report.recall[20]

    directau = protocol("directau", LossWeights())
    tuned = protocol("rau", LossWeights(alpha=0.4, beta=2.0, gamma_user=0.9, gamma_item=0.1))
    assert abs(directau - 14.07) <= 0.7
    assert abs(tuned - 14.58) <= 0.7
    assert tuned > directau
    _passed(7, f"Beauty recall@20: plain {directau:.2f}%, regularized {tuned:.2f}%")
