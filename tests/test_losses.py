import math
import os
import sys
import threading
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import oracles
from conftest import random_unit_rows
from sphererec import losses
from sphererec.geometry import circle_points
from sphererec.hypersphere import l2_normalize
from sphererec.losses import LossWeights


class TestLossWeights:
    def test_gamma_sum_warns(self):
        with pytest.warns(UserWarning, match="gamma"):
            LossWeights(gamma_user=0.7, gamma_item=0.7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            LossWeights(alpha=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            LossWeights(beta=float("nan"), gamma_user=0.5, gamma_item=0.5)


class TestAlignLoss:
    def test_identical_pairs_zero(self):
        rows = circle_points([10.0, 250.0, 33.0])
        assert losses.align_loss(rows, rows.copy()) == 0.0

    def test_single_orthogonal_pair(self):
        assert losses.align_loss([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(2.0)

    def test_identical_plus_antipodal_average(self):
        users = np.array([[1.0, 0.0], [0.0, 1.0]])
        items = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert losses.align_loss(users, items) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            losses.align_loss(np.eye(3), np.eye(2))


class TestUniformPart:
    def test_coincident_points_zero(self):
        rows = np.tile([[0.6, 0.8]], (4, 1))
        assert losses.uniformity_and_variance(rows)[0] == pytest.approx(0.0, abs=1e-9)

    def test_antipodal_pair(self):
        uniform, _ = losses.uniformity_and_variance(circle_points([0.0, 180.0]))
        assert uniform == pytest.approx(-8.0, abs=1e-6)

    def test_equilateral_triangle(self):
        uniform, _ = losses.uniformity_and_variance(circle_points([0.0, 120.0, 240.0]))
        assert uniform == pytest.approx(-6.0, abs=1e-6)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            losses.uniformity_and_variance(np.array([[1.0, 0.0]]))

    def test_separating_coincident_pair_improves(self):
        collapsed, _ = losses.uniformity_and_variance(circle_points([0.0, 0.0, 180.0]))
        separated, _ = losses.uniformity_and_variance(circle_points([0.0, 20.0, 180.0]))
        assert separated < collapsed


class TestWeightedUniform:
    def test_equal_split_matches_plain_form(self):
        rng = np.random.default_rng(0)
        users = random_unit_rows(rng, 6, 3)
        items = random_unit_rows(rng, 6, 3)
        expected = (0.5 * losses.uniformity_and_variance(l2_normalize(users))[0]
                    + 0.5 * losses.uniformity_and_variance(l2_normalize(items))[0])
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        assert out.weighted_uniform == pytest.approx(expected, abs=1e-15)

    def test_zero_item_weight(self):
        rng = np.random.default_rng(1)
        users = random_unit_rows(rng, 5, 3)
        items = random_unit_rows(rng, 5, 3)
        weights = LossWeights(gamma_user=1.0, gamma_item=0.0)
        out, _, _ = losses.rau_loss_and_gradient(users, items, weights)
        assert out.weighted_uniform == losses.uniformity_and_variance(l2_normalize(users))[0]

    def test_linear_combination(self):
        users = circle_points([0.0, 180.0])   # uniformity -8
        items = circle_points([0.0, 90.0])    # uniformity -4
        weights = LossWeights(gamma_user=0.7, gamma_item=0.3)
        out, _, _ = losses.rau_loss_and_gradient(users, items, weights)
        assert out.weighted_uniform == pytest.approx(0.7 * -8.0 + 0.3 * -4.0, abs=1e-5)


class TestRaLoss:
    def test_coincident_centers(self):
        users = circle_points([0.0, 90.0])
        items = circle_points([90.0, 0.0])
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        assert out.ra == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        users = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, _, _ = losses.rau_loss_and_gradient(users, -users, LossWeights())
        assert out.ra == pytest.approx(2.0)

    def test_single_orthogonal_pair(self):
        # a batch needs two pairs; repeating one pair keeps its center
        users = np.array([[1.0, 0.0], [1.0, 0.0]])
        items = np.array([[0.0, 1.0], [0.0, 1.0]])
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        assert out.ra == pytest.approx(2.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_joint_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        users = random_unit_rows(rng, 7, 4)
        items = random_unit_rows(rng, 7, 4)
        perm = rng.permutation(7)
        base, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        permuted, _, _ = losses.rau_loss_and_gradient(users[perm], items[perm], LossWeights())
        assert permuted.ra == pytest.approx(base.ra, abs=1e-12)


class TestRuLoss:
    def test_equal_distances_zero(self):
        users = circle_points([0.0, 120.0, 240.0])
        items = circle_points([10.0, 130.0, 250.0])
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        assert out.ru == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_pair_variance(self):
        users = circle_points([0.0, 0.0, 180.0])
        expected = oracles.kernel_variance(users.tolist())
        assert expected == pytest.approx(0.2220733, abs=1e-6)
        assert losses.uniformity_and_variance(users)[1] == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        users = random_unit_rows(rng, 6, 3)
        items = random_unit_rows(rng, 6, 3)
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        assert out.ru >= 0.0


class TestRauLoss:
    def test_breakdown_identity(self):
        rng = np.random.default_rng(2)
        users = rng.normal(size=(8, 5))
        items = rng.normal(size=(8, 5))
        weights = LossWeights(alpha=0.4, beta=2.5, gamma_user=0.6, gamma_item=0.4)
        out, _, _ = losses.rau_loss_and_gradient(users, items, weights)
        reconstructed = (out.align + out.weighted_uniform
                         + weights.alpha * out.ra + weights.beta * out.ru)
        assert out.total == pytest.approx(reconstructed, abs=1e-10)

    def test_reduces_to_plain_alignment_uniformity(self):
        rng = np.random.default_rng(3)
        users = rng.normal(size=(6, 4))
        items = rng.normal(size=(6, 4))
        out, _, _ = losses.rau_loss_and_gradient(users, items, LossWeights())
        unit_u = users / np.linalg.norm(users, axis=1, keepdims=True)
        unit_i = items / np.linalg.norm(items, axis=1, keepdims=True)
        plain = (losses.align_loss(unit_u, unit_i)
                 + 0.5 * losses.uniformity_and_variance(unit_u)[0]
                 + 0.5 * losses.uniformity_and_variance(unit_i)[0])
        assert out.total == pytest.approx(plain, abs=1e-12)

    def test_matches_oracle_small_batch(self):
        rng = np.random.default_rng(4)
        users = rng.normal(size=(4, 3))
        items = rng.normal(size=(4, 3))
        weights = LossWeights(alpha=0.3, beta=1.5, gamma_user=0.7, gamma_item=0.3)
        expected = oracles.rau_total(users.tolist(), items.tolist(), 0.3, 1.5, 0.7, 0.3)
        out, _, _ = losses.rau_loss_and_gradient(users, items, weights)
        assert out.total == pytest.approx(expected, abs=1e-10)

    def test_needs_batch_of_two(self):
        with pytest.raises(ValueError):
            losses.rau_loss_and_gradient(np.ones((1, 3)), np.ones((1, 3)), LossWeights())


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_losses_match_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(2, 33))
        dim = int(rng.integers(2, 9))
        users_raw = rng.normal(size=(batch, dim))
        items_raw = rng.normal(size=(batch, dim))
        users = users_raw / np.linalg.norm(users_raw, axis=1, keepdims=True)
        items = items_raw / np.linalg.norm(items_raw, axis=1, keepdims=True)
        ul, il = users.tolist(), items.tolist()

        assert losses.align_loss(users, items) == pytest.approx(oracles.align(ul, il), abs=1e-10)
        for rows, rows_list in ((users, ul), (items, il)):
            uniform, variance = losses.uniformity_and_variance(rows)
            assert uniform == pytest.approx(oracles.uniform_part(rows_list), abs=1e-10)
            assert variance == pytest.approx(oracles.kernel_variance(rows_list), abs=1e-10)

        weights = LossWeights(alpha=0.9, beta=4.0, gamma_user=0.8, gamma_item=0.2)
        out, _, _ = losses.rau_loss_and_gradient(users_raw, items_raw, weights)
        assert out.align == pytest.approx(oracles.align(ul, il), abs=1e-10)
        assert out.weighted_uniform == pytest.approx(
            oracles.weighted_uniform(ul, il, 0.8, 0.2), abs=1e-10)
        assert out.ra == pytest.approx(oracles.ra(ul, il), abs=1e-10)
        assert out.ru == pytest.approx(oracles.ru(ul, il), abs=1e-10)
        assert out.total == pytest.approx(
            oracles.rau_total(users_raw.tolist(), items_raw.tolist(), 0.9, 4.0, 0.8, 0.2),
            abs=1e-10)

        pos = rng.normal(size=batch)
        neg = rng.normal(size=batch)
        value = losses.bpr_loss_and_gradient(np.ones((batch, 1)),
                                             np.concatenate([pos, neg])[:, None])[0]
        assert value == pytest.approx(oracles.bpr(pos.tolist(), neg.tolist()), abs=1e-10)


# batches on, around and across KERNEL_BLOCK_ROWS = 256: one block, then two, three, four
BLOCK_EDGE_BATCHES = (2, 3, 255, 256, 257, 600, 1024)
ALL_WEIGHTS = LossWeights(alpha=0.4, beta=2.5, gamma_user=0.6, gamma_item=0.4)
DIRECTAU_WEIGHTS = LossWeights(alpha=0.0, beta=0.0, gamma_user=0.5, gamma_item=0.5)


def rows_across_blocks(rng, batch, dim):
    """Raw rows in which, past one kernel block, rows of the first block repeat in later ones."""
    rows = rng.normal(size=(batch, dim))
    if batch > losses.KERNEL_BLOCK_ROWS:
        rows[-1] = rows[0]
        rows[losses.KERNEL_BLOCK_ROWS] = 3.0 * rows[1]  # the same unit row
    return rows


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


def tangent(grad, unit):
    """grad without its radial component along each unit row."""
    return grad - np.einsum("ij,ij->i", grad, unit)[:, None] * unit


def dense_rau_gradients(users_raw, items_raw, weights):
    """rau_loss_and_gradient's gradients with the kernel terms from the whole matrix."""
    batch = users_raw.shape[0]
    grads = []
    for raw, gamma, sign in ((users_raw, weights.gamma_user, 1.0),
                             (items_raw, weights.gamma_item, -1.0)):
        unit = l2_normalize(raw)
        diff = l2_normalize(users_raw) - l2_normalize(items_raw)
        grad = (sign * 2.0 / batch) * (diff + weights.alpha * diff.mean(axis=0))
        grad += oracles.dense_kernel_grad(unit, gamma, weights.beta)
        grads.append(tangent(grad, unit) / np.linalg.norm(raw, axis=1)[:, None])
    return grads


class TestBlockedKernel:
    """The blocked kernel against the whole-matrix reference in `oracles`."""

    @pytest.mark.parametrize("batch", BLOCK_EDGE_BATCHES)
    def test_statistics_and_gradient_match_dense_kernel(self, batch):
        unit = l2_normalize(rows_across_blocks(np.random.default_rng(batch), batch, 6))
        _, mean, _, variance = oracles.dense_kernel(unit)
        got_uniform, got_variance, grad = losses._kernel_terms(unit, 0.6, 2.5,
                                                              losses.Workspace(batch, 6))
        assert got_uniform == pytest.approx(math.log(mean + oracles.EPS), rel=1e-12)
        assert got_variance == pytest.approx(variance, rel=1e-12)
        # the helper's gradient is defined up to a radial component per row
        expected = tangent(oracles.dense_kernel_grad(unit, 0.6, 2.5), unit)
        assert relative_error(tangent(grad, unit), expected) <= 1e-12
        assert losses.uniformity_and_variance(unit) == (got_uniform, got_variance)

    @pytest.mark.parametrize("weights", [ALL_WEIGHTS, DIRECTAU_WEIGHTS], ids=["rau", "directau"])
    @pytest.mark.parametrize("batch", BLOCK_EDGE_BATCHES)
    def test_loss_and_gradients_match_dense_kernel(self, batch, weights):
        rng = np.random.default_rng([batch, 1])
        users_raw, items_raw = rows_across_blocks(rng, batch, 6), rows_across_blocks(rng, batch, 6)
        out, grad_users, grad_items = losses.rau_loss_and_gradient(users_raw, items_raw, weights)
        (_, mean_u, _, var_u), (_, mean_i, _, var_i) = (
            oracles.dense_kernel(l2_normalize(raw)) for raw in (users_raw, items_raw))
        expected_uniform = (weights.gamma_user * math.log(mean_u + oracles.EPS)
                            + weights.gamma_item * math.log(mean_i + oracles.EPS))
        assert out.weighted_uniform == pytest.approx(expected_uniform, rel=1e-12)
        assert out.ru == pytest.approx(var_u + var_i, rel=1e-12)
        expected_users, expected_items = dense_rau_gradients(users_raw, items_raw, weights)
        assert relative_error(grad_users, expected_users) <= 1e-12
        assert relative_error(grad_items, expected_items) <= 1e-12

    @pytest.mark.parametrize("batch", [b for b in BLOCK_EDGE_BATCHES
                                       if b <= losses.KERNEL_BLOCK_ROWS])
    def test_one_block_keeps_the_dense_bits(self, batch):
        unit = l2_normalize(np.random.default_rng(batch).normal(size=(batch, 6)))
        _, mean, _, variance = oracles.dense_kernel(unit)
        uniform, kernel_variance = losses.uniformity_and_variance(unit)
        assert np.float64(uniform).tobytes() == np.log(mean + oracles.EPS).tobytes()
        assert np.float64(kernel_variance).tobytes() == np.float64(variance).tobytes()

    def test_zero_weights_form_no_kernel_gradient(self):
        unit = l2_normalize(np.random.default_rng(5).normal(size=(300, 4)))
        workspace = losses.Workspace(300, 4)
        assert losses._kernel_terms(unit, 0.0, 0.0, workspace)[2] is None
        assert losses._kernel_terms(unit, 0.0, 1.0, workspace)[2] is not None
        assert losses._kernel_terms(unit, 1.0, 0.0, workspace)[2] is not None


class TestWorkspace:
    """The kernel's slots, and a warmed step's allocations."""

    @pytest.mark.parametrize("slots", [2, 4])
    @pytest.mark.parametrize("batch", [2, 256, 257, 1024, 2048])
    def test_fewer_slots_than_block_pairs_keep_the_bits(self, batch, slots):
        rng = np.random.default_rng([batch, 2])
        users_raw, items_raw = rows_across_blocks(rng, batch, 6), rows_across_blocks(rng, batch, 6)
        unit = l2_normalize(users_raw)
        full, few = losses.Workspace(batch, 6), losses.Workspace(batch, 6)
        few.blocks = few.blocks[:slots]  # the probe's case: more block pairs than slots
        results = []
        for workspace in (full, few):
            uniform, variance, grad = losses._kernel_terms(unit, 0.6, 2.5, workspace)
            grad = grad.tobytes()  # a view into the workspace, valid until its next use
            out, grad_users, grad_items = losses.rau_loss_and_gradient(users_raw, items_raw,
                                                                       ALL_WEIGHTS, workspace)
            results.append((np.array([uniform, variance, *astuple(out)]).tobytes(),
                            grad, grad_users.tobytes(), grad_items.tobytes(),
                            np.array(losses.uniformity_and_variance(unit, workspace)).tobytes()))
        assert results[0] == results[1]

    def test_warmed_rau_step_allocates_no_block_sized_array(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)
        rng = np.random.default_rng(4)
        users_raw, items_raw = rng.normal(size=(1024, 64)), rng.normal(size=(1024, 64))
        for lanes in (1, 2):
            workspace = losses.Workspace(1024, 64, lanes=lanes)
            losses.rau_loss_and_gradient(users_raw, items_raw, ALL_WEIGHTS, workspace)
            tracemalloc.start()
            try:
                losses.rau_loss_and_gradient(users_raw, items_raw, ALL_WEIGHTS, workspace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # everything allocated at once stays below one kernel block (512 KiB), so no
            # single array was that large, on either lane
            assert peak < losses.KERNEL_BLOCK_ROWS ** 2 * 8

    def test_too_small_a_workspace_is_rejected(self):
        rows = np.random.default_rng(0).normal(size=(5, 3))
        for workspace in (losses.Workspace(4, 3), losses.Workspace(5, 4)):
            with pytest.raises(ValueError, match="workspace holds"):
                losses.rau_loss_and_gradient(rows, rows + 1.0, ALL_WEIGHTS, workspace)


# the item side takes no kernel gradient
NO_ITEM_KERNEL = LossWeights(alpha=0.4, beta=0.0, gamma_user=1.0, gamma_item=0.0)


def loss_bytes(users_raw, items_raw, weights, workspace):
    out, grad_users, grad_items = losses.rau_loss_and_gradient(users_raw, items_raw, weights,
                                                               workspace)
    return np.array(astuple(out)).tobytes(), grad_users.tobytes(), grad_items.tobytes()


class TestLanes:
    """The user and the item side on two lanes, at once, with the bits of one lane."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("RAU_NUM_THREADS", raising=False)

    @pytest.mark.parametrize("weights", [ALL_WEIGHTS, NO_ITEM_KERNEL],
                             ids=["rau", "no-item-kernel"])
    @pytest.mark.parametrize("batch", [2, 256, 257, 1024])
    def test_two_lanes_keep_the_bits(self, batch, weights):
        rng = np.random.default_rng([batch, 3])
        users_raw, items_raw = rows_across_blocks(rng, batch, 6), rows_across_blocks(rng, batch, 6)
        one = loss_bytes(users_raw, items_raw, weights, losses.Workspace(batch, 6))
        workspace = losses.Workspace(batch, 6, lanes=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the interpreter as often as they can
        try:
            for _ in range(3):  # the lanes' buffers carry nothing from one call to the next
                assert loss_bytes(users_raw, items_raw, weights, workspace) == one
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("schedule", ["one-side-each", "helper-starts-late"])
    def test_either_schedule_keeps_the_bits(self, monkeypatch, schedule):
        rng = np.random.default_rng(8)
        users_raw, items_raw = rows_across_blocks(rng, 600, 6), rows_across_blocks(rng, 600, 6)
        one = loss_bytes(users_raw, items_raw, ALL_WEIGHTS, losses.Workspace(600, 6))
        calls, kernel_terms = [], losses._kernel_terms
        both_in, both_run = threading.Barrier(2), threading.Event()

        def scheduled(unit, gamma, beta, workspace, lane=0):
            if schedule == "one-side-each":
                both_in.wait(timeout=30)  # neither lane claims a second side
            result = kernel_terms(unit, gamma, beta, workspace, lane)
            calls.append((threading.get_ident(), lane))
            if len(calls) == 2:
                both_run.set()
            return result

        monkeypatch.setattr(losses, "_kernel_terms", scheduled)
        if schedule == "helper-starts-late":
            # the helper runs only once the caller has run both sides on its own lane, one
            # after the other through one kernel gradient buffer
            start = threading.Thread.start

            def late_start(thread):
                run = thread.run
                thread.run = lambda: (both_run.wait(timeout=30), run())
                start(thread)

            monkeypatch.setattr(threading.Thread, "start", late_start)
        workspace = losses.Workspace(600, 6, lanes=2)
        assert loss_bytes(users_raw, items_raw, ALL_WEIGHTS, workspace) == one
        caller = threading.get_ident()
        if schedule == "one-side-each":
            assert sorted(lane for _, lane in calls) == [0, 1]
            assert all((thread == caller) == (lane == 0) for thread, lane in calls)
        else:
            assert calls == [(caller, 0), (caller, 0)]

    def test_an_error_in_the_item_side_reaches_the_caller(self, monkeypatch):
        workspace = losses.Workspace(300, 6, lanes=2)
        kernel_terms = losses._kernel_terms

        def failing(unit, *args):
            if np.shares_memory(unit, workspace.items):
                raise RuntimeError("failed in the item side")
            return kernel_terms(unit, *args)

        monkeypatch.setattr(losses, "_kernel_terms", failing)
        rng = np.random.default_rng(9)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="item side"):
            losses.rau_loss_and_gradient(rng.normal(size=(300, 6)), rng.normal(size=(300, 6)),
                                         ALL_WEIGHTS, workspace)
        assert threading.active_count() == threads_before

    def test_lanes_take_even_shares_of_the_slots(self):
        # two slots a lane at B <= 256, so two lanes fit in the four slots two Adam threads
        # take; 11 a lane at B = 1,024 (the scratch and 10 block pairs)
        assert len(losses.Workspace(256, 64, 4, lanes=2).blocks) == 4
        assert len(losses.Workspace(1024, 64, 4, lanes=1).blocks) == 11
        assert len(losses.Workspace(1024, 64, 4, lanes=2).blocks) == 22
        assert losses.Workspace(1024, 64, 4, lanes=2).kernel_grad.shape == (2, 1024, 64)


class TestBprLoss:
    """Scores as one-column vectors against a unit user: each score is its own margin term."""

    def test_equal_scores(self):
        value, *_ = losses.bpr_loss_and_gradient(np.ones((2, 1)), [[1.0], [2.0], [1.0], [2.0]])
        assert value == pytest.approx(math.log(2.0))

    def test_unit_margin(self):
        value, *_ = losses.bpr_loss_and_gradient([[1.0]], [[1.0], [0.0]])
        assert value == pytest.approx(0.31326168751822286)

    def test_large_margin_vanishes(self):
        value, *_ = losses.bpr_loss_and_gradient([[1.0]], [[60.0], [0.0]])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            losses.bpr_loss_and_gradient(np.ones((2, 1)), [[1.0], [2.0], [1.0]])

    def test_item_rows_must_be_twice_the_user_rows(self):
        users = np.ones((3, 2))
        with pytest.raises(ValueError, match="expected 6 item rows"):
            losses.bpr_loss_and_gradient(users, np.ones((7, 2)))
        with pytest.raises(ValueError, match="expected 6 item rows"):
            losses.bpr_loss_and_gradient(users, np.ones((6, 3)))

    def test_gradients_match_the_per_part_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        users, pos, neg = (rng.normal(size=(5, 4)) for _ in range(3))
        pos[0] = 1e3 * users[0]  # a margin so large that its coefficient is -0.0
        loss, grad_users, grad_items = losses.bpr_loss_and_gradient(
            users, np.concatenate([pos, neg]))
        margin = np.einsum("ij,ij->i", users, pos - neg)
        coef = (-expit(-margin) / 5)[:, None]
        assert np.signbit(coef[0, 0]) and coef[0, 0] == 0.0
        assert loss == float(np.logaddexp(0.0, -margin).mean())
        assert grad_users.tobytes() == (coef * (pos - neg)).tobytes()
        assert grad_items.tobytes() == np.concatenate([coef * users, -coef * users]).tobytes()
