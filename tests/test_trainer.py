import dataclasses
import os
import pickle
import threading
import tracemalloc

import numpy as np
import oracles
import pytest

import sphererec
from sphererec import data, encoders, losses, trainer
from sphererec.losses import LossWeights
from sphererec.trainer import ADAM_BLOCK_ENTRIES, AdamState, TrainConfig, TrainState, adam_step

# rows per adam_step block at dim 7, so shapes can sit on and around block edges
BLOCK_7 = ADAM_BLOCK_ENTRIES // 7
# adam_step's block buffers, slots 0 and 1, which hold a block of any width used here;
# every call writes them before reading them, so nothing carries from one test to the next
WORKSPACE = losses.Workspace(2, 2)


def sparse_gradient(rng, shape, touched=0.3):
    """A gradient that is zero outside a random subset of rows, as a batch scatter gives."""
    grads = rng.standard_normal(shape)
    grads[rng.random(shape[0]) >= touched] = 0.0
    return grads


def assert_same_bits(params, state, want, want_state):
    """Params and both Adam moments hold the same bytes as the expected ones."""
    for got, expected in ((params, want), (state.first_moment, want_state.first_moment),
                          (state.second_moment, want_state.second_moment)):
        assert got.tobytes() == expected.tobytes()


class TestAdamStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = np.arange(6.0).reshape(2, 3)
        state = AdamState.like(params)
        before = params.copy()
        adam_step(params, np.zeros_like(params), state, 0.1, 0.0, np.arange(2), WORKSPACE)
        np.testing.assert_array_equal(params, before)

    def test_constant_gradient_limit_is_lr(self):
        # with a fixed gradient the bias-corrected update tends to lr * sign(g)
        params = np.zeros((1, 1))
        grads = np.full((1, 1), 3.7)
        state = AdamState.like(params)
        lr = 0.05
        previous = params.copy()
        for _ in range(500):
            previous = params.copy()
            adam_step(params, grads, state, lr, 0.0, np.arange(1), WORKSPACE)
        step = previous - params
        assert step[0, 0] == pytest.approx(lr, rel=1e-3)

    def test_decay_halves_params(self):
        params = np.full((2, 2), 8.0)
        state = AdamState.like(params)
        adam_step(params, np.zeros_like(params), state, 1.0, 0.5, np.arange(2), WORKSPACE)
        np.testing.assert_array_equal(params, np.full((2, 2), 4.0))

    def test_lr_zero_is_noop_even_with_gradient(self):
        params = np.ones((2, 2))
        state = AdamState.like(params)
        adam_step(params, np.full((2, 2), 2.0), state, 0.0, 0.0, np.arange(2), WORKSPACE)
        np.testing.assert_array_equal(params, np.ones((2, 2)))

    def test_shape_mismatch(self):
        params = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, np.zeros((3, 2)), AdamState.like(params), 0.1, 0.0, np.arange(2),
                      WORKSPACE)

    def test_non_finite_gradient_aborts(self):
        params = np.zeros((2, 2))
        grads = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(FloatingPointError, match="non-finite"):
            adam_step(params, grads, AdamState.like(params), 0.1, 0.0, np.arange(2), WORKSPACE)

    @pytest.mark.parametrize("lr", [1e-3, 0.0])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-6])
    @pytest.mark.parametrize("shape", [(1, 2), (BLOCK_7 - 1, 7), (BLOCK_7, 7), (BLOCK_7 + 1, 7),
                                       (3 * BLOCK_7 + 5, 7)])
    def test_blocked_update_is_bit_identical_to_whole_table_formula(self, shape, weight_decay,
                                                                    lr):
        rng = np.random.default_rng(shape[0])
        params = rng.standard_normal(shape)
        expected = params.copy()
        state, expected_state = AdamState.like(params), AdamState.like(params)
        for _ in range(20):
            grads = sparse_gradient(rng, shape)
            adam_step(params, grads, state, lr, weight_decay, np.arange(shape[0]), WORKSPACE)
            oracles.reference_adam_step(expected, grads, expected_state, lr, weight_decay)
        assert np.array_equal(params, expected)
        assert np.array_equal(state.first_moment, expected_state.first_moment)
        assert np.array_equal(state.second_moment, expected_state.second_moment)
        assert state.step_count == expected_state.step_count == 20

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-6])
    @pytest.mark.parametrize("pick", [
        lambda rng, n: np.array([0, BLOCK_7 - 1, BLOCK_7, BLOCK_7 + 1, 2 * BLOCK_7 - 1,
                                 2 * BLOCK_7, 3 * BLOCK_7, n - 1]),
        lambda rng, n: np.array([0, n - 1]),
        lambda rng, n: np.array([], dtype=np.int64),
        lambda rng, n: np.flatnonzero(rng.random(n) < 0.05),
    ], ids=["block-edges", "first-and-last", "empty", "random"])
    def test_row_sparse_update_is_bit_identical_to_whole_table_formula(self, pick,
                                                                       weight_decay):
        rng = np.random.default_rng(7)
        shape = (3 * BLOCK_7 + 5, 7)
        params = rng.standard_normal(shape)
        expected = params.copy()
        state, expected_state = AdamState.like(params), AdamState.like(params)
        for _ in range(20):
            rows = pick(rng, shape[0])
            grads = rng.standard_normal((rows.size, shape[1]))
            adam_step(params, grads, state, 1e-3, weight_decay, rows, WORKSPACE)
            oracles.reference_adam_step(expected,
                                        oracles.full_table_gradient(rows, grads, shape[0]),
                                        expected_state, 1e-3, weight_decay)
        assert_same_bits(params, state, expected, expected_state)
        assert state.step_count == expected_state.step_count == 20

    def test_untouched_subnormal_moments_keep_their_bits(self):
        # a row without a gradient skips `m + 0.0`; that is the same bits as long as
        # `m * 0.9` never rounds a non-zero moment to a signed zero, even at the
        # smallest subnormals
        rng = np.random.default_rng(11)
        shape = (2 * BLOCK_7 + 3, 7)
        params = rng.standard_normal(shape)
        tiny = np.array([5e-324, -5e-324, 1e-320, -1e-320])
        untouched = np.arange(1, shape[0], 2)
        state = AdamState.like(params)
        state.first_moment[untouched] = np.resize(tiny, (untouched.size, shape[1]))
        state.second_moment[untouched] = np.abs(state.first_moment[untouched])
        expected = params.copy()
        expected_state = AdamState(state.first_moment.copy(), state.second_moment.copy())
        touched = np.arange(0, shape[0], 2)
        for _ in range(30):
            grads = rng.standard_normal((touched.size, shape[1]))
            adam_step(params, grads, state, 1e-3, 1e-6, touched, WORKSPACE)
            oracles.reference_adam_step(expected,
                                        oracles.full_table_gradient(touched, grads, shape[0]),
                                        expected_state, 1e-3, 1e-6)
        assert_same_bits(params, state, expected, expected_state)
        assert np.all(state.first_moment[untouched] != 0.0)
        assert np.all(state.second_moment[untouched] != 0.0)

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0], [-1, 2], [0, 4]],
                             ids=["unsorted", "repeated", "negative", "past-the-end"])
    def test_rows_must_be_increasing_ids_of_the_table(self, rows):
        params = np.zeros((4, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            adam_step(params, np.ones((2, 2)), AdamState.like(params), 0.1, 0.0, np.array(rows),
                      WORKSPACE)
        assert not params.any()

    def test_row_gradients_must_match_the_rows_and_be_finite(self):
        params = np.zeros((4, 2))
        state = AdamState.like(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, np.ones((3, 2)), state, 0.1, 0.0, np.array([0, 2]), WORKSPACE)
        with pytest.raises(FloatingPointError, match="non-finite"):
            adam_step(params, np.array([[1.0, np.inf]]), state, 0.1, 0.0, np.array([3]), WORKSPACE)
        assert state.step_count == 0 and not state.first_moment.any()

    def test_non_finite_gradient_in_last_block_changes_nothing(self):
        rng = np.random.default_rng(3)
        shape = (3 * BLOCK_7 + 5, 7)
        params = rng.standard_normal(shape)
        state = AdamState.like(params)
        adam_step(params, sparse_gradient(rng, shape), state, 0.1, 0.5, np.arange(shape[0]),
                  WORKSPACE)
        before = (params.copy(), state.first_moment.copy(), state.second_moment.copy())
        grads = rng.standard_normal(shape)
        grads[-1, -1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            adam_step(params, grads, state, 0.1, 0.5, np.arange(shape[0]), WORKSPACE)
        for now, then in zip((params, state.first_moment, state.second_moment), before):
            assert np.array_equal(now, then)
        assert state.step_count == 1

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("touched", [0.023, 0.66])
    def test_threaded_update_is_bit_identical_at_any_width(self, monkeypatch, touched, width):
        # more CPUs than blocks, so RAU_NUM_THREADS sets the width on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setenv("RAU_NUM_THREADS", str(width))
        rng = np.random.default_rng([width, int(touched * 1000)])
        shape = (3 * BLOCK_7 + 5, 7)  # four blocks
        assert sphererec.thread_width(4) == width
        workspace = losses.Workspace(2, 7, 2 * width)
        params = rng.standard_normal(shape)
        expected = params.copy()
        state, expected_state = AdamState.like(params), AdamState.like(params)
        for _ in range(5):
            rows = np.flatnonzero(rng.random(shape[0]) < touched)
            grads = rng.standard_normal((rows.size, shape[1]))
            adam_step(params, grads, state, 1e-3, 1e-6, rows, workspace)
            oracles.reference_adam_step(expected,
                                        oracles.full_table_gradient(rows, grads, shape[0]),
                                        expected_state, 1e-3, 1e-6)
        assert_same_bits(params, state, expected, expected_state)

    def test_width_is_capped_by_cpus_blocks_slots_and_rau_num_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
        assert [sphererec.thread_width(blocks) for blocks in (0, 1, 2, 5)] == [1, 1, 2, 3]
        monkeypatch.setenv("RAU_NUM_THREADS", "2")
        assert sphererec.thread_width(5) == 2
        monkeypatch.setenv("RAU_NUM_THREADS", "0")
        with pytest.raises(ValueError, match="RAU_NUM_THREADS"):
            sphererec.thread_width(5)
        # a state's workspace, built for fewer threads, caps the width at half its slots
        monkeypatch.delenv("RAU_NUM_THREADS")
        started, start = [], threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        params = np.zeros((3 * BLOCK_7 + 5, 7))
        every_row = np.arange(len(params))
        for workspace, helpers in ((losses.Workspace(2, 7), 0), (losses.Workspace(2, 7, 4), 1),
                                   (losses.Workspace(2, 7, 9), 2)):
            started.clear()
            adam_step(params, np.ones_like(params), AdamState.like(params), 0.1, 0.0,
                      every_row, workspace)
            assert len(started) == helpers

    def test_an_error_in_a_helper_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
        caller, helper_ran = threading.get_ident(), threading.Event()
        sqrt = np.sqrt

        def failing_sqrt(*args, **kwargs):
            # the caller waits in its first block, so the helper is sure to claim one
            if threading.get_ident() != caller:
                helper_ran.set()
                raise RuntimeError("failed in a helper thread")
            assert helper_ran.wait(timeout=30)
            return sqrt(*args, **kwargs)

        monkeypatch.setattr(np, "sqrt", failing_sqrt)
        params = np.zeros((3 * BLOCK_7 + 5, 7))
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper thread"):
            adam_step(params, np.ones_like(params), AdamState.like(params), 0.1, 0.0,
                      np.arange(len(params)), losses.Workspace(2, 7, 4))
        assert threading.active_count() == threads_before

    def test_allocates_no_full_table_temporaries(self):
        # only the finiteness mask (an eighth of params.nbytes) may scale with the table;
        # the block buffers come from the fit's workspace
        rng = np.random.default_rng(0)
        params = rng.standard_normal((11200, 64))
        state = AdamState.like(params)
        workspace = losses.Workspace(256, 64)
        every_row = np.arange(len(params))
        adam_step(params, sparse_gradient(rng, params.shape), state, 1e-3, 1e-6, every_row,
                  workspace)
        grads = sparse_gradient(rng, params.shape)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, 1e-3, 1e-6, every_row, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes / 4


class TestTrainConfig:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective="pairwise")

    def test_rejects_bad_patience_and_batch(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1)

    def test_roundtrips_through_dict(self):
        cfg = TrainConfig(objective="rau", weights=LossWeights(alpha=0.3, beta=2.0),
                          dim=16, lr=5e-3, seed=9)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dict_key_order_is_pinned(self):
        # checkpoint.json and the run-directory hash depend on this order
        assert list(TrainConfig().to_dict()) == [
            "objective", "encoder", "alpha", "beta", "gamma_user", "gamma_item", "dim",
            "lr", "batch_size", "max_epochs", "patience", "weight_decay", "seed",
            "eval_k_for_stopping", "num_layers", "fixed_epochs", "bpr_full_history_rejection",
        ]

    def test_rejects_stopping_k_below_one(self):
        # caught before fit, not after a whole epoch of training
        with pytest.raises(ValueError, match="eval_k_for_stopping"):
            TrainConfig(eval_k_for_stopping=0)

    def test_rejects_out_of_range_num_layers(self):
        with pytest.raises(ValueError, match="num_layers"):
            TrainConfig(encoder="mf", num_layers=9)

    @pytest.mark.parametrize("field_name, value", [
        ("max_epochs", -3), ("weight_decay", -5.0), ("weight_decay", float("inf")),
        ("lr", -1e-3), ("lr", float("nan")), ("dim", 1), ("dim", 0), ("seed", -1),
    ])
    def test_rejects_values_that_train_silently_wrong(self, field_name, value):
        # caught before fit: a negative epoch count or decay trains silently
        # wrong, a NaN lr used to fail only after the first step, and dim < 2
        # or a negative seed only after train had loaded and split the data
        with pytest.raises(ValueError, match=field_name):
            TrainConfig(**{field_name: value})

    @pytest.mark.parametrize("lr, weight_decay", [(1e-3, 1e5), (0.5, 2.0), (1.0, 1.0)])
    def test_rejects_decay_that_zeroes_or_flips_the_tables(self, lr, weight_decay):
        # Adam's decoupled decay multiplies the tables by 1 - lr * weight_decay, which is
        # zero or negative here; 1e-3 * 1e5 used to train and exit 0
        with pytest.raises(ValueError, match=r"lr \* weight_decay must be below 1"):
            TrainConfig(lr=lr, weight_decay=weight_decay)
        TrainConfig(lr=lr, weight_decay=0.99 / lr)  # a factor above zero is fine
        TrainConfig(lr=0.0, weight_decay=weight_decay)  # lr 0 freezes the tables

    @pytest.mark.parametrize("field_name, value", [
        ("fixed_epochs", "false"), ("dim", "16"), ("lr", "0.01"), ("max_epochs", 1.5),
        ("batch_size", 64.0), ("seed", True), ("lr", True), ("objective", 1),
    ])
    def test_rejects_mistyped_values(self, field_name, value):
        # a JSON config can carry any type; "false" used to switch validation
        # off, "16" failed with a TypeError deep inside fit
        with pytest.raises(ValueError, match=f"{field_name} must be of type"):
            TrainConfig(**{field_name: value})

    @pytest.mark.parametrize("field_name, value", [("alpha", "0.5"), ("beta", True)])
    def test_from_dict_rejects_mistyped_weight(self, field_name, value):
        # float() used to turn "0.5" into 0.5 and True into 1.0
        with pytest.raises(ValueError, match=f"{field_name} must be of type float"):
            TrainConfig.from_dict({field_name: value})
        # an int weight is still stored as the float it always was
        assert TrainConfig.from_dict({"beta": 5}) == TrainConfig.from_dict({"beta": 5.0})

    def test_from_dict_rejects_unknown_key(self):
        # a misspelt "max_epoch" used to be dropped, training for the default 100 epochs
        with pytest.raises(ValueError, match="max_epoch"):
            TrainConfig.from_dict({"max_epoch": 3})
        assert TrainConfig.from_dict({"max_epochs": 3, "dataset": "data.tsv"}).max_epochs == 3

    def test_int_accepted_for_float_field(self):
        # a JSON `"lr": 1` stays accepted and stays an int in the hashed dict
        lr = TrainConfig.from_dict({"lr": 1}).to_dict()["lr"]
        assert type(lr) is int and lr == 1

    def test_directau_pins_weights(self):
        cfg = TrainConfig(objective="directau",
                          weights=LossWeights(alpha=0.9, beta=9.0))
        assert cfg.effective_weights() == LossWeights(0.0, 0.0, 0.5, 0.5)


def small_split():
    # 10 interactions per user -> an 8/1/1 split, so validation is non-empty
    ds = data.two_cluster_dataset(num_users=40, num_items=20, items_per_user=10, seed=1)
    return data.split_per_user(ds, seed=2)


def base_config(**overrides):
    defaults = dict(objective="directau", encoder="mf", dim=8, lr=1e-2,
                    batch_size=32, max_epochs=5, patience=10, weight_decay=0.0,
                    seed=4)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def probe(state):
    """Probe diagnostics of the tables as they stand, before any epoch."""
    encoded = state.encoder.encode_all(state.node_table)
    return trainer._probe_diagnostics(state, encoded, epoch=0, wall_time_s=0.0)


class TestTrainEpoch:
    def test_lr_zero_leaves_tables_and_diagnostics_unchanged(self):
        split = small_split()
        cfg = base_config(lr=0.0)
        state = TrainState(split, cfg)
        before = probe(state)
        table_before = state.node_table.copy()
        diag, _ = trainer.train_epoch(split, state, epoch_index=1)
        np.testing.assert_array_equal(state.node_table, table_before)
        assert diag.align == before.align
        assert diag.uniform_user == before.uniform_user
        assert diag.kernel_variance_item == before.kernel_variance_item

    def test_one_epoch_reduces_align(self, synthetic_split):
        cfg = TrainConfig(objective="directau", encoder="mf", dim=16, lr=1e-2,
                          batch_size=256, max_epochs=1, patience=10, seed=5)
        state = TrainState(synthetic_split, cfg)
        before = probe(state)
        after, _ = trainer.train_epoch(synthetic_split, state, epoch_index=1)
        assert after.align < before.align

    def test_rau_with_zero_regularizers_matches_directau(self):
        split = small_split()
        runs = {}
        for objective in ("rau", "directau"):
            cfg = base_config(objective=objective,
                              weights=LossWeights(0.0, 0.0, 0.5, 0.5))
            state = TrainState(split, cfg)
            diag, _ = trainer.train_epoch(split, state, epoch_index=1)
            runs[objective] = (diag, state.node_table.copy())
        rau_diag, directau_diag = runs["rau"][0], runs["directau"][0]
        assert rau_diag == dataclasses.replace(directau_diag, wall_time_s=rau_diag.wall_time_s)
        np.testing.assert_array_equal(runs["rau"][1], runs["directau"][1])

    def test_bpr_objective_trains(self):
        split = small_split()
        cfg = base_config(objective="bpr", lr=5e-2)
        state = TrainState(split, cfg)
        before = state.node_table.copy()
        trainer.train_epoch(split, state, epoch_index=1)
        assert not np.array_equal(state.node_table, before)

    def test_lightgcn_encoder_trains(self):
        split = small_split()
        cfg = base_config(encoder="lightgcn", num_layers=2)
        state = TrainState(split, cfg)
        before = state.node_table.copy()
        trainer.train_epoch(split, state, epoch_index=1)
        assert not np.array_equal(state.node_table, before)

    @pytest.mark.parametrize("encoder", trainer.ENCODERS)
    def test_one_adam_step_per_batch_updates_user_and_item_rows(self, monkeypatch, encoder):
        # users and items are one node table under one Adam state
        split = small_split()
        state = TrainState(split, base_config(encoder=encoder))
        steps = []

        def counting_step(params, grads, adam, *args):
            steps.append((params is state.node_table, adam is state.adam,
                          args[2][0] < split.num_users <= args[2][-1]))
            return adam_step(params, grads, adam, *args)

        monkeypatch.setattr(trainer, "adam_step", counting_step)
        trainer.train_epoch(split, state, epoch_index=1)
        batches = -(-split.train.num_interactions // state.cfg.batch_size)
        assert steps == [(True, True, True)] * batches
        assert state.adam.step_count == batches

    def test_bpr_full_history_rejection_completes(self):
        split = small_split()
        cfg = base_config(objective="bpr", bpr_full_history_rejection=True)
        state = TrainState(split, cfg)
        trainer.train_epoch(split, state, epoch_index=1)


def test_lightgcn_end_to_end_beats_chance(synthetic_split):
    # graph-encoder analogue of the synthetic end-to-end check: chance is ~0.11
    from sphererec import encoders
    from sphererec.evaluation import evaluate

    cfg = TrainConfig(objective="directau", encoder="lightgcn", num_layers=2,
                      dim=32, lr=1e-2, batch_size=256, max_epochs=30,
                      patience=100, weight_decay=1e-6, seed=3)
    report, user_table, item_table = trainer.fit(synthetic_split, cfg)
    adjacency = encoders.build_norm_adjacency(synthetic_split.train)
    all_users, all_items = encoders.lightgcn_propagate(
        user_table, item_table, adjacency, encoders.GraphEncoderConfig(num_layers=2))
    metrics = evaluate(synthetic_split, all_users, all_items, ks=(10,), part="test")
    assert metrics.recall[10] >= 0.6


def two_item_split():
    # every user has one of the 2 items, so half of all draws hit the positive
    ds = data.dataset_from_pairs(20, 2, [(u, u % 2) for u in range(20)])
    return data.split_per_user(ds, seed=0)


def dense_split():
    # 5 of 24 items per user: rejections are frequent, above all with the full history
    return data.split_per_user(data.two_cluster_dataset(200, 24, 5, seed=3), seed=1)


class TestSampleNegatives:
    @pytest.mark.parametrize("full_history", [False, True])
    @pytest.mark.parametrize("make_split", [small_split, dense_split, two_item_split])
    @pytest.mark.parametrize("batch_size", [7, 256])  # both leave a short last batch
    def test_matches_pair_by_pair_reference_and_its_generator_state(
            self, make_split, full_history, batch_size):
        self.assert_matches_reference(make_split(), full_history, batch_size)

    def test_matches_reference_where_most_pairs_redraw(self):
        # each user holds about a third of the 40 items in training, so with the full
        # history a third of all draws are rejected, many of them several times in a row
        split = data.split_per_user(data.two_cluster_dataset(2000, 40, 18, seed=1), seed=1)
        self.assert_matches_reference(split, full_history=True, batch_size=1024)

    @staticmethod
    def assert_matches_reference(split, full_history, batch_size):
        ours, reference = np.random.default_rng(11), np.random.default_rng(11)
        train_keys = trainer._train_keys(split) if full_history else None
        sampled = 0
        for users, items in data.epoch_batches(split.train, batch_size, 3):
            args = (items, split, users)
            expected = oracles.reference_negatives(*args, reference, full_history)
            negatives = trainer._sample_negatives(*args, ours, train_keys)
            assert negatives.dtype == expected.dtype
            np.testing.assert_array_equal(negatives, expected)
            sampled += negatives.size
        assert ours.bit_generator.state == reference.bit_generator.state
        assert ours.integers(2**40) == reference.integers(2**40)
        unrejected = np.random.default_rng(11)
        unrejected.integers(split.num_items, size=sampled)
        assert unrejected.bit_generator.state != ours.bit_generator.state  # some were redrawn


class TestFit:
    @pytest.mark.parametrize("scores, patience, epochs_run, best_epoch", [
        ([0.9, 0.5, 0.4, 0.3], 1, 2, 1),
        ([0.2, 0.5, 0.5, 0.6, 0.4, 0.4, 0.9], 2, 6, 4),  # a new best resets the count
        ([0.3, 0.3, 0.3, 0.9], 2, 3, 1),  # a tie is not an improvement
    ], ids=["decreasing", "new-best-resets", "tie-is-no-improvement"])
    def test_stops_after_patience_evaluations_without_a_new_best(
            self, monkeypatch, scores, patience, epochs_run, best_epoch):
        from sphererec.evaluation import MetricsReport

        split = small_split()
        fake_scores = iter(scores)

        def fake_evaluate(*args, **kwargs):
            score = next(fake_scores)
            return MetricsReport(ks=(20,), recall={20: score}, ndcg={20: score},
                                 num_users_evaluated=1)

        monkeypatch.setattr(trainer, "evaluate", fake_evaluate)
        report, user_table, item_table = trainer.fit(
            split, base_config(patience=patience, max_epochs=50))
        assert report.epochs_run == len(report.val_history) == epochs_run
        assert report.best_epoch == best_epoch
        assert report.best_val["ndcg@20"] == scores[best_epoch - 1]
        _, fixed_users, fixed_items = trainer.fit(
            split, base_config(max_epochs=best_epoch, fixed_epochs=True))
        np.testing.assert_array_equal(user_table.values, fixed_users.values)
        np.testing.assert_array_equal(item_table.values, fixed_items.values)

    def test_zero_epochs_returns_initial_checkpoint(self):
        split = small_split()
        cfg = base_config(max_epochs=0)
        report, user_table, item_table = trainer.fit(split, cfg)
        assert report.epochs_run == 0
        assert report.best_epoch == 0
        assert report.best_val is None
        init = TrainState(split, cfg)
        np.testing.assert_array_equal(np.vstack([user_table.values, item_table.values]),
                                      init.node_table)

    def test_empty_validation_requires_fixed_epochs(self):
        ds = data.dataset_from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)])
        split = data.split_per_user(ds, seed=0)  # all-train (n < 3 per user)
        assert split.validation.num_interactions == 0
        with pytest.raises(ValueError, match="fixed_epochs"):
            trainer.fit(split, base_config())
        report, *_ = trainer.fit(split, base_config(max_epochs=2, fixed_epochs=True))
        assert report.epochs_run == 2

    def test_bpr_on_one_item_catalog_rejected(self):
        ds = data.dataset_from_pairs(4, 1, [(u, 0) for u in range(4)])
        split = data.split_per_user(ds, seed=0)
        with pytest.raises(ValueError, match="at least 2 items"):
            trainer.fit(split, base_config(objective="bpr", fixed_epochs=True))

    @pytest.mark.parametrize("objective, num_users, num_items", [
        ("rau", 6, 1), ("directau", 6, 1), ("rau", 1, 8)])
    def test_fewer_than_two_users_or_items_rejected_before_training(
            self, monkeypatch, objective, num_users, num_items):
        # the probe compares 2 distinct rows per table: these trained a whole epoch, then
        # failed with "need at least 2 vectors, got 1"
        pairs = [(u, i) for u in range(num_users) for i in range(num_items)]
        split = data.split_per_user(data.dataset_from_pairs(num_users, num_items, pairs), seed=0)
        monkeypatch.setattr(trainer, "train_epoch", None)  # an epoch would raise TypeError
        with pytest.raises(ValueError, match="at least 2 users and at least 2 items"):
            trainer.fit(split, base_config(objective=objective, fixed_epochs=True))

    def test_lightgcn_fit_propagates_the_full_graph_once_per_epoch(self, monkeypatch):
        # the probe and validation ranking share one encode of the node table, the one
        # `lightgcn_encode` whose batch is every node (no batch of small_split is)
        from sphererec import encoders

        encode = encoders.lightgcn_encode
        whole_graph = []

        def counting_encode(node_matrix, cfg, frontiers):
            whole_graph.append(frontiers[0].size == len(node_matrix))
            return encode(node_matrix, cfg, frontiers)

        monkeypatch.setattr(encoders, "lightgcn_encode", counting_encode)
        split = small_split()
        report, *_ = trainer.fit(split, base_config(encoder="lightgcn", max_epochs=4))
        assert len(report.val_history) == report.epochs_run == 4
        steps = -(-split.train.num_interactions // base_config().batch_size)
        assert len(whole_graph) == 4 * (steps + 1)
        assert sum(whole_graph) == 4

    @pytest.mark.parametrize("objective", ["rau", "bpr"])
    def test_lightgcn_step_builds_its_frontiers_once(self, monkeypatch, objective):
        # the batch forward and backward share one build of the balls and hops; the
        # epoch's whole-graph encode (probe and validation) builds one more
        from sphererec import encoders

        frontiers = encoders._frontiers
        calls = []
        monkeypatch.setattr(encoders, "_frontiers",
                            lambda *args, **kwargs: calls.append(1) or frontiers(*args, **kwargs))
        split = small_split()
        cfg = base_config(objective=objective, encoder="lightgcn", max_epochs=2,
                          fixed_epochs=True)
        trainer.fit(split, cfg)
        steps = -(-split.train.num_interactions // cfg.batch_size)
        assert len(calls) == 2 * steps + 2

    def test_full_history_rejection_with_saturated_user_rejected(self):
        # user 0 has both items, so no item can be its negative
        ds = data.dataset_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
        split = data.split_per_user(ds, seed=0)
        with pytest.raises(ValueError, match="every item"):
            trainer.fit(split, base_config(objective="bpr", fixed_epochs=True,
                                           bpr_full_history_rejection=True))
        report, *_ = trainer.fit(split, base_config(objective="bpr", fixed_epochs=True,
                                                    max_epochs=1))
        assert report.epochs_run == 1

    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_mf_is_the_graph_encoder_with_zero_layers(self, objective):
        split = small_split()
        weights = LossWeights(alpha=0.5, beta=5.0, gamma_user=0.7, gamma_item=0.3)
        runs = [trainer.fit(split, base_config(objective=objective, weights=weights,
                                               max_epochs=3, **encoder))
                for encoder in ({"encoder": "mf"}, {"encoder": "lightgcn", "num_layers": 0})]
        (report_mf, *tables_mf), (report_graph, *tables_graph) = runs
        for mf_table, graph_table in zip(tables_mf, tables_graph):
            np.testing.assert_array_equal(mf_table.values, graph_table.values)
        assert [dataclasses.replace(d, wall_time_s=0.0) for d in report_mf.diagnostics] == \
            [dataclasses.replace(d, wall_time_s=0.0) for d in report_graph.diagnostics]
        assert report_mf.val_history == report_graph.val_history

    def test_best_metric_is_max_of_history(self):
        split = small_split()
        report, *_ = trainer.fit(split, base_config(max_epochs=6))
        history = [entry["ndcg@20"] for entry in report.val_history]
        assert report.best_val["ndcg@20"] == max(history)
        assert report.best_epoch == history.index(max(history)) + 1

    def test_deterministic_given_seed(self):
        split = small_split()
        cfg = base_config(max_epochs=4)
        report_a, user_a, item_a = trainer.fit(split, cfg)
        report_b, user_b, item_b = trainer.fit(split, cfg)
        np.testing.assert_array_equal(user_a.values, user_b.values)
        np.testing.assert_array_equal(item_a.values, item_b.values)
        for diag_a, diag_b in zip(report_a.diagnostics, report_b.diagnostics):
            assert diag_a.align == diag_b.align
            assert diag_a.uniform_user == diag_b.uniform_user
        assert report_a.val_history == report_b.val_history


class TestTrainState:
    @pytest.mark.parametrize("num_users, num_items, pairs, overrides, message", [
        (3, 3, [(0, 0), (1, 1), (2, 2)], {}, "fixed_epochs"),  # all-train: n < 3 per user
        # fit_epoch on this state used to redraw bpr negatives forever
        (4, 1, [(u, 0) for u in range(4)], {"objective": "bpr"}, "at least 2 items"),
        (1, 8, [(0, i) for i in range(8)], {}, "at least 2 users"),
        # user 0 has both items, so no item can be its negative
        (2, 2, [(0, 0), (0, 1), (1, 0)], {"objective": "bpr", "bpr_full_history_rejection": True},
         "every item"),
    ], ids=["empty-validation", "one-item-bpr", "one-user", "saturated-user"])
    def test_refuses_a_split_no_epoch_could_train(self, num_users, num_items, pairs,
                                                  overrides, message):
        # fit_epoch advances any state, so the state itself is what refuses
        split = data.split_per_user(data.dataset_from_pairs(num_users, num_items, pairs), seed=0)
        fixed = {"fixed_epochs": message != "fixed_epochs"}
        with pytest.raises(ValueError, match=message):
            TrainState(split, base_config(**fixed, **overrides))

    def test_both_xavier_draws_land_in_the_node_table(self):
        # the user and the item rows are drawn in place, with the bits of one uniform draw
        # per table from the first two seeds of the config's seed
        split, cfg = small_split(), base_config(dim=8)
        state = TrainState(split, cfg)
        seeds = np.random.SeedSequence(cfg.seed).generate_state(5)[:2]
        bound = np.sqrt(6.0 / (2 * cfg.dim))
        parts = encoders.split_nodes(state.node_table, split.num_users)
        for rows, seed in zip(parts, seeds):
            want = np.random.default_rng(int(seed)).uniform(-bound, bound, rows.shape)
            assert rows.tobytes() == want.tobytes()
        assert [len(rows) for rows in parts] == [split.num_users, split.num_items]


def without_wall_times(report):
    return dataclasses.replace(
        report, total_time_s=0.0,
        diagnostics=[dataclasses.replace(d, wall_time_s=0.0) for d in report.diagnostics])


class TestFitEpoch:
    @pytest.mark.parametrize("encoder", trainer.ENCODERS)
    @pytest.mark.parametrize("objective", trainer.OBJECTIVES)
    def test_a_pickled_state_finishes_as_one_uninterrupted_fit(self, encoder, objective):
        # a pickle copy cannot see anything outside the state, so this fails if any of
        # the fit's progress lives elsewhere
        split = data.split_per_user(data.two_cluster_dataset(60, 30, 8, seed=1), seed=1)
        cfg = base_config(objective=objective, encoder=encoder, lr=5e-2, max_epochs=12,
                          patience=2, weights=LossWeights(alpha=0.5, beta=5.0))
        report, user_table, item_table = trainer.fit(split, cfg)
        state = TrainState(split, cfg)
        for _ in range(2):
            assert trainer.fit_epoch(split, state)
        state = pickle.loads(pickle.dumps(state))
        while trainer.fit_epoch(split, state):
            pass
        assert report.epochs_run > 2
        assert without_wall_times(state.report) == without_wall_times(report)
        assert state.best_table.tobytes() == \
            np.vstack([user_table.values, item_table.values]).tobytes()

    def test_a_stopped_state_runs_no_epoch(self, monkeypatch):
        split = small_split()
        state = TrainState(split, base_config(max_epochs=1))
        assert trainer.fit_epoch(split, state)
        monkeypatch.setattr(trainer, "train_epoch", None)  # an epoch would raise TypeError
        assert not trainer.fit_epoch(split, state)
        assert state.report.epochs_run == 1


class TestAdamThreadsInAFit:
    @pytest.mark.parametrize("encoder, objective", [("mf", "rau"), ("lightgcn", "bpr")])
    def test_tables_do_not_depend_on_the_thread_count(self, monkeypatch, encoder, objective):
        # at dim 512 a block is 128 rows, so the 300 node rows make three blocks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        split = data.split_per_user(data.two_cluster_dataset(200, 100, 6, seed=3), seed=3)
        cfg = base_config(objective=objective, encoder=encoder, dim=512, batch_size=64,
                          max_epochs=1, fixed_epochs=True, weight_decay=1e-6,
                          weights=LossWeights(alpha=0.5, beta=5.0))
        assert -(-(split.num_users + split.num_items) * cfg.dim // ADAM_BLOCK_ENTRIES) == 3
        tables = []
        for cap in ("1", None):
            if cap is None:
                monkeypatch.delenv("RAU_NUM_THREADS")
            else:
                monkeypatch.setenv("RAU_NUM_THREADS", cap)
            threads_before = threading.active_count()
            report, user_table, item_table = trainer.fit(split, cfg)
            assert threading.active_count() == threads_before
            # the probe's two sides run on the workspace's lanes too
            tables.append((user_table.values.tobytes() + item_table.values.tobytes(),
                           [dataclasses.replace(diag, wall_time_s=0.0)
                            for diag in report.diagnostics]))
        assert tables[0] == tables[1]


class TestReferenceEpoch:
    @pytest.mark.parametrize("encoder", trainer.ENCODERS)
    @pytest.mark.parametrize("objective, full_history", [
        ("rau", False), ("directau", False), ("bpr", False), ("bpr", True)])
    def test_three_epochs_match_the_whole_table_reference(self, encoder, objective,
                                                          full_history):
        # the whole-step gate: batches, negatives, encoder, scatter and Adam together
        split = small_split()
        cfg = base_config(objective=objective, encoder=encoder, batch_size=24,
                          weight_decay=1e-6, bpr_full_history_rejection=full_history,
                          weights=LossWeights(alpha=0.5, beta=5.0, gamma_user=0.7,
                                              gamma_item=0.3))
        initial, state, expected = (TrainState(split, cfg) for _ in range(3))
        for epoch in range(1, 4):
            trainer.train_epoch(split, state, epoch)
            oracles.reference_train_epoch(split, expected, epoch)
        assert state.adam.step_count == expected.adam.step_count == 3 * 14
        # the one node-table step against the reference's separate user and item steps
        for got, want, before in zip(*(encoders.split_nodes(s.node_table, split.num_users)
                                       for s in (state, expected, initial))):
            assert not np.array_equal(want, before)
            if encoder == "mf":
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestDiagnosticsCsv:
    def test_identical_runs_give_identical_bytes(self, tmp_path):
        split = small_split()
        cfg = base_config(max_epochs=3)
        paths = []
        for name in ("a.csv", "b.csv"):
            report, *_ = trainer.fit(split, cfg)
            path = tmp_path / name
            trainer.write_diagnostics_csv(report, path, cfg.eval_k_for_stopping)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_one_row_per_epoch_with_header(self, tmp_path):
        split = small_split()
        cfg = base_config(max_epochs=3)
        report, *_ = trainer.fit(split, cfg)
        path = tmp_path / "diag.csv"
        trainer.write_diagnostics_csv(report, path, cfg.eval_k_for_stopping)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("epoch,align,uniform_user")
        assert len(lines) == 1 + report.epochs_run

    def test_fixed_epochs_rows_end_with_empty_validation_cells(self, tmp_path):
        split = small_split()
        cfg = base_config(max_epochs=2, fixed_epochs=True)
        report, *_ = trainer.fit(split, cfg)
        path = tmp_path / "diag.csv"
        trainer.write_diagnostics_csv(report, path, cfg.eval_k_for_stopping)
        header, *rows = path.read_text().strip().split("\n")
        assert header.endswith(",val_recall@20,val_ndcg@20")
        assert len(rows) == 2
        assert all(row.endswith(",,") and ",,," not in row for row in rows)
