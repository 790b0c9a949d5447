"""Training objectives on the unit hypersphere, with analytic gradients.

All geometric terms operate on L2-normalized embeddings and use the squared
Euclidean distance d(x, y) = ||x - y||^2, which for unit vectors equals
2 - 2<x, y> and lies in [0, 4]. Same-entity terms (uniformity, kernel
variance) run over the condensed set of unordered distinct index pairs
j < k; self-pairs are excluded so the constant unit kernel of a point with
itself cannot bias the statistics, while duplicated rows still contribute
honest zero distances.

The combined objective is

    total = align + weighted_uniformity + alpha * center_align + beta * kernel_variance

where center_align pulls the batch-mean user and item representations
together and kernel_variance penalizes spread in the pairwise Gaussian
kernel values exp(-2 d), steering the uniformity term away from
configurations that trade a few huge gaps for many collapsed pairs.

Gradients are with respect to the RAW (pre-normalization) batch rows and
include the normalization Jacobian (I - uu^T)/||e||, so they have no radial
component along each raw row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .hypersphere import normalize_with_norms

UNIFORM_EPS = 1e-12
GAMMA_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the combined objective.

    alpha scales the center-alignment regularizer, beta the kernel-variance
    regularizer, gamma_user/gamma_item weight the user/item uniformity terms.
    With alpha = beta = 0 and gamma = (0.5, 0.5) the objective reduces to
    plain alignment + uniformity (the directau objective).
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma_user: float = 0.5
    gamma_item: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_user", "gamma_item"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if abs(self.gamma_user + self.gamma_item - 1.0) > GAMMA_SUM_TOL:
            warnings.warn(
                f"gamma_user + gamma_item = {self.gamma_user + self.gamma_item}, "
                "expected 1; the uniformity scale changes accordingly",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Component values of one objective evaluation.

    total = align + weighted_uniform + alpha * ra + beta * ru.
    """

    align: float
    weighted_uniform: float
    ra: float
    ru: float
    total: float


def _check_paired(users: np.ndarray, items: np.ndarray) -> None:
    if users.shape[0] != items.shape[0]:
        raise ValueError(f"batch length mismatch: {users.shape[0]} users vs {items.shape[0]} items")


def align_loss(users: np.ndarray, items: np.ndarray) -> float:
    """Mean squared distance between positionally paired unit rows."""
    users = np.asarray(users, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    _check_paired(users, items)
    if users.shape[0] < 1:
        raise ValueError("align_loss needs at least one pair")
    diff = users - items
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def _kernel_matrix(vectors: np.ndarray) -> tuple[np.ndarray, float, int, float]:
    """Gaussian kernel exp(-2 d) over all row pairs.

    Returns (W, m, P, V): the B x B kernel matrix with zeroed diagonal, the
    mean kernel value over the P = B(B-1)/2 condensed pairs, P itself, and
    the population variance V of the condensed kernel values.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    b = vectors.shape[0]
    if b < 2:
        raise ValueError(f"need at least 2 vectors, got {b}")
    # squared distances turn into the kernel in place, so the variance below
    # needs one more B x B buffer, not two
    kernel = 2.0 - 2.0 * (vectors @ vectors.T)
    np.clip(kernel, 0.0, None, out=kernel)
    kernel *= -2.0
    np.exp(kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    pair_count = b * (b - 1) // 2
    mean = float(kernel.sum() / (2 * pair_count))
    dev = kernel - mean
    np.fill_diagonal(dev, 0.0)
    dev *= dev
    variance = float(dev.sum() / (2 * pair_count))
    return kernel, mean, pair_count, variance


def uniformity_and_variance(vectors: np.ndarray) -> tuple[float, float]:
    """(uniformity, kernel variance) of the same rows from one kernel build.

    Uniformity is log(E exp(-2 d) + eps) over the condensed pairs: zero when
    all points coincide (up to eps), lower the more evenly they spread. The
    kernel variance is the population variance of the same kernel values.
    """
    _, mean, _, variance = _kernel_matrix(vectors)
    return float(np.log(mean + UNIFORM_EPS)), variance


def _uniform_grad(kernel: np.ndarray, mean: float, pair_count: int, unit: np.ndarray) -> np.ndarray:
    # d/dx_j log(m + eps) = -4/(P (m + eps)) * sum_k w_jk (x_j - x_k)
    coef = -4.0 / (pair_count * (mean + UNIFORM_EPS))
    return coef * (kernel.sum(axis=1)[:, None] * unit - kernel @ unit)


def _variance_grad(kernel: np.ndarray, mean: float, pair_count: int, unit: np.ndarray) -> np.ndarray:
    # d/dx_j Var = -8/P * sum_k (w_jk - m) w_jk (x_j - x_k)
    weighted = kernel * (kernel - mean)
    np.fill_diagonal(weighted, 0.0)
    return (-8.0 / pair_count) * (weighted.sum(axis=1)[:, None] * unit - weighted @ unit)


def _normalization_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    radial = np.einsum("ij,ij->i", grad_unit, unit)
    return (grad_unit - radial[:, None] * unit) / norms[:, None]


def rau_loss_and_gradient(
    users_raw: np.ndarray,
    items_raw: np.ndarray,
    weights: LossWeights,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Combined objective and its gradient in one pass.

    Shares the pairwise kernel matrices between the loss value and the
    gradient. A gradient term whose coefficient is zero is skipped, so it is
    not computed only to be multiplied by zero (with beta = 0, the two B x B
    variance gradients are never formed).
    """
    users_raw = np.asarray(users_raw, dtype=np.float64)
    items_raw = np.asarray(items_raw, dtype=np.float64)
    _check_paired(users_raw, items_raw)
    if users_raw.shape[0] < 2:
        raise ValueError(f"need a batch of at least 2 pairs, got {users_raw.shape[0]}")
    batch = users_raw.shape[0]

    users, user_norms = normalize_with_norms(users_raw)
    items, item_norms = normalize_with_norms(items_raw)

    diff = users - items
    align = float(np.einsum("ij,ij->i", diff, diff).mean())
    center = diff.mean(axis=0)
    ra = float(center @ center)

    kernel_u, mean_u, pairs_u, variance_u = _kernel_matrix(users)
    kernel_i, mean_i, pairs_i, variance_i = _kernel_matrix(items)
    uniform_u = float(np.log(mean_u + UNIFORM_EPS))
    uniform_i = float(np.log(mean_i + UNIFORM_EPS))
    weighted_uniform = weights.gamma_user * uniform_u + weights.gamma_item * uniform_i
    ru = variance_u + variance_i

    total = align + weighted_uniform + weights.alpha * ra + weights.beta * ru
    breakdown = LossBreakdown(align=align, weighted_uniform=weighted_uniform,
                              ra=ra, ru=ru, total=total)

    grad_users = (2.0 / batch) * diff
    grad_items = (-2.0 / batch) * diff
    if weights.gamma_user != 0.0:
        grad_users += weights.gamma_user * _uniform_grad(kernel_u, mean_u, pairs_u, users)
    if weights.gamma_item != 0.0:
        grad_items += weights.gamma_item * _uniform_grad(kernel_i, mean_i, pairs_i, items)
    if weights.alpha != 0.0:
        center_grad = (2.0 * weights.alpha / batch) * center
        grad_users += center_grad
        grad_items -= center_grad
    if weights.beta != 0.0:
        grad_users += weights.beta * _variance_grad(kernel_u, mean_u, pairs_u, users)
        grad_items += weights.beta * _variance_grad(kernel_i, mean_i, pairs_i, items)

    grad_users = _normalization_backward(grad_users, users, user_norms)
    grad_items = _normalization_backward(grad_items, items, item_norms)
    return breakdown, grad_users, grad_items


def bpr_loss_and_gradient(
    user_vecs: np.ndarray,
    pos_vecs: np.ndarray,
    neg_vecs: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise ranking loss on raw dot products, with batch-row gradients.

    Scores are unnormalized dot products; gradients are w.r.t. the raw user,
    positive-item, and negative-item rows.
    """
    user_vecs = np.asarray(user_vecs, dtype=np.float64)
    pos_vecs = np.asarray(pos_vecs, dtype=np.float64)
    neg_vecs = np.asarray(neg_vecs, dtype=np.float64)
    if not (user_vecs.shape == pos_vecs.shape == neg_vecs.shape):
        raise ValueError("user/pos/neg batches must share one shape")
    batch = user_vecs.shape[0]
    margin = np.einsum("ij,ij->i", user_vecs, pos_vecs - neg_vecs)
    loss = float(np.logaddexp(0.0, -margin).mean())
    # d/dx mean(-log sigmoid(x)) = -sigmoid(-x) / B per pair
    coef = (-expit(-margin) / batch)[:, None]
    grad_users = coef * (pos_vecs - neg_vecs)
    grad_pos = coef * user_vecs
    grad_neg = -coef * user_vecs
    return loss, grad_users, grad_pos, grad_neg
