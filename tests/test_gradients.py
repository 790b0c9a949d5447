"""Finite-difference checks for every analytic gradient path."""

import numpy as np
import pytest

import oracles
from sphererec import losses
from sphererec.losses import LossWeights

FD_STEP = 1e-4
FULL_WEIGHTS = LossWeights(alpha=0.7, beta=3.0, gamma_user=0.7, gamma_item=0.3)


def central_differences(func, point, step=FD_STEP):
    """Gradient of a scalar function by central differences, one entry at a time."""
    grad = np.zeros_like(point)
    for index in np.ndindex(point.shape):
        bumped = point.copy()
        bumped[index] += step
        up = func(bumped)
        bumped[index] -= 2 * step
        down = func(bumped)
        grad[index] = (up - down) / (2 * step)
    return grad


def max_relative_error(analytic, numeric):
    scale = max(np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(analytic - numeric)) / scale


class TestRauGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.normal(size=(8, 4))
        items = rng.normal(size=(8, 4))
        _, grad_users, grad_items = losses.rau_loss_and_gradient(users, items, FULL_WEIGHTS)
        fd_users = central_differences(
            lambda u: losses.rau_loss_and_gradient(u, items, FULL_WEIGHTS)[0].total, users)
        fd_items = central_differences(
            lambda i: losses.rau_loss_and_gradient(users, i, FULL_WEIGHTS)[0].total, items)
        assert max_relative_error(grad_users, fd_users) <= 1e-4
        assert max_relative_error(grad_items, fd_items) <= 1e-4

    def test_matches_finite_differences_across_kernel_blocks(self):
        # 300 rows make two kernel blocks; every entry is checked, so the rows of the
        # off-diagonal block's transposed half are too
        rng = np.random.default_rng(300)
        users = rng.normal(size=(300, 2))
        items = rng.normal(size=(300, 2))
        _, grad_users, grad_items = losses.rau_loss_and_gradient(users, items, FULL_WEIGHTS)
        fd_users = central_differences(
            lambda u: losses.rau_loss_and_gradient(u, items, FULL_WEIGHTS)[0].total, users)
        fd_items = central_differences(
            lambda i: losses.rau_loss_and_gradient(users, i, FULL_WEIGHTS)[0].total, items)
        assert max_relative_error(grad_users, fd_users) <= 1e-4
        assert max_relative_error(grad_items, fd_items) <= 1e-4

    def test_no_radial_component(self):
        rng = np.random.default_rng(11)
        users = rng.normal(size=(6, 5))
        items = rng.normal(size=(6, 5))
        _, grad_users, grad_items = losses.rau_loss_and_gradient(users, items, FULL_WEIGHTS)
        assert np.max(np.abs(np.einsum("ij,ij->i", grad_users, users))) < 1e-12
        assert np.max(np.abs(np.einsum("ij,ij->i", grad_items, items))) < 1e-12

    def test_scaling_a_row_keeps_gradient_orthogonal(self):
        rng = np.random.default_rng(12)
        users = rng.normal(size=(5, 4))
        items = rng.normal(size=(5, 4))
        users[2] *= 2.0
        _, grad_users, _ = losses.rau_loss_and_gradient(users, items, FULL_WEIGHTS)
        assert abs(grad_users[2] @ users[2]) < 1e-12

    def test_coincident_points_have_zero_align_gradient(self):
        # With users == items the alignment term is at its minimum, so the
        # remaining gradient is the (equal) uniformity pull on both sides.
        rows = np.tile(np.array([[1.0, 2.0, -1.0]]), (4, 1)) + 0.0
        rows = rows + np.arange(4)[:, None] * 0.1
        _, grad_users, grad_items = losses.rau_loss_and_gradient(rows, rows.copy(), LossWeights())
        np.testing.assert_array_equal(grad_users, grad_items)


class TestBprGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.normal(size=(6, 4))
        pos = rng.normal(size=(6, 4))
        neg = rng.normal(size=(6, 4))
        _, grad_u, grad_p, grad_n = losses.bpr_loss_and_gradient(users, pos, neg)

        def loss_of(u=users, p=pos, n=neg):
            return losses.bpr_loss_and_gradient(u, p, n)[0]

        assert max_relative_error(grad_u, central_differences(lambda u: loss_of(u=u), users)) <= 1e-4
        assert max_relative_error(grad_p, central_differences(lambda p: loss_of(p=p), pos)) <= 1e-4
        assert max_relative_error(grad_n, central_differences(lambda n: loss_of(n=n), neg)) <= 1e-4

    def test_scores_match_bpr_loss(self):
        rng = np.random.default_rng(5)
        users = rng.normal(size=(4, 3))
        pos = rng.normal(size=(4, 3))
        neg = rng.normal(size=(4, 3))
        value, *_ = losses.bpr_loss_and_gradient(users, pos, neg)
        pos_scores = np.einsum("ij,ij->i", users, pos)
        neg_scores = np.einsum("ij,ij->i", users, neg)
        assert value == pytest.approx(oracles.bpr(pos_scores.tolist(), neg_scores.tolist()),
                                      abs=1e-12)
