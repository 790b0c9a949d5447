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

The variance is that of the kernel values, not of the distances d, which
is what the paper's abstract names ("the variance of pairwise distances").
The full paper text is not in this repository, so which of the two the
paper penalizes is unconfirmed. The kernel values are kept on purpose: they
are the numbers the uniformity term averages, so both terms read the same
kernel blocks, and the kernel weighs near pairs most, which is where the
collapse the regularizer targets happens. No distance-variance variant is
provided.

Gradients are with respect to the RAW (pre-normalization) batch rows and
include the normalization Jacobian (I - uu^T)/||e||, so they have no radial
component along each raw row, and the unit-row gradients it is applied to
are formed only up to one.

The kernel is symmetric, so it is built over the upper pairs of row blocks
only, KERNEL_BLOCK_ROWS rows a side, and no B x B array is allocated. Its
two gradient terms share one coefficient block per block pair, and a side
whose uniformity and variance weights are both zero forms no kernel
gradient. The blocks, the unit rows, the gradients and their intermediates
are written into a `Workspace`, which a training run builds once, so a
warmed step allocates no array of a batch's or a block's size.

The user side's kernel terms and the item side's share nothing but the
weights, so `rau_loss_and_gradient` runs them at once, one side per lane of
the workspace (`on_lanes`): each lane holds its own scratch slot, one slot
per upper block pair, gradient products and kernel gradient. Each side adds
its kernel gradient to its own side's gradient before its lane takes
another side, and its arithmetic does not depend on the lane, so the bits
do not depend on the number of lanes or on which thread runs which side.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import claim_and_join, thread_width
from .hypersphere import normalize_with_norms

UNIFORM_EPS = 1e-12
GAMMA_SUM_TOL = 1e-9
# the kernel is built in square blocks of this many rows (512 KiB of float64), so a
# batch of B rows never allocates a B x B array and each block's passes stay in cache
KERNEL_BLOCK_ROWS = 256


class Workspace:
    """The buffers of one training step, allocated once and overwritten by every step.

    `blocks` holds flat slots of KERNEL_BLOCK_ROWS**2 entries (or one
    `dim`-row, if that is longer), at least `min_slots` in all, shared
    evenly by `lanes` lanes, one for each side the kernel terms may run on
    at once (`on_lanes`). A lane takes at least its coefficient scratch and
    one slot for each upper block pair of `batch_size` rows, at least one:
    two slots at B <= 256, 11 at B = 1,024. `_kernel_terms` rebuilds, for
    each later pass, the blocks of a longer set of rows (the probe's) that
    find no slot in its lane, so fewer slots cost time, not bits.
    `trainer.adam_step` takes two slots per thread for its block buffers.
    Each lane also holds its own `products` (one block's gradient products)
    and `kernel_grad` (up to `batch_size` rows). The row buffers hold
    `rau_loss_and_gradient`'s unit rows, gradients and intermediates for up
    to `batch_size` rows; a fit whose loss takes none (bpr) passes
    batch_size 0.
    """

    def __init__(self, batch_size: int, dim: int, min_slots: int = 2, lanes: int = 1):
        spans = -(-batch_size // KERNEL_BLOCK_ROWS)
        lane_slots = 1 + max(1, spans * (spans + 1) // 2)
        self.blocks = np.empty((max(min_slots, lanes * lane_slots),
                                max(KERNEL_BLOCK_ROWS ** 2, dim)))
        self.products = np.empty((lanes, min(batch_size, KERNEL_BLOCK_ROWS), dim))
        self.kernel_grad = np.empty((lanes, batch_size, dim))
        (self.users, self.items, self.diff, self.grad_users,
         self.grad_items) = (np.empty((batch_size, dim)) for _ in range(5))

    def check_rows(self, rows: np.ndarray) -> None:
        """Raise unless the row buffers can hold `rows`."""
        if rows.shape[0] > self.users.shape[0] or rows.shape[1:] != self.users.shape[1:]:
            raise ValueError(f"workspace holds up to {self.users.shape[0]} rows of dim "
                             f"{self.users.shape[1]}, got shape {rows.shape}")


def on_lanes(work, sides: list, workspace: Workspace) -> list:
    """[work(side, lane) for side in sides], each side run on a lane of `workspace`.

    The lanes claim the sides through `sphererec.claim_and_join`, one thread
    per lane, at most `sphererec.thread_width(len(sides))` lanes. A lane may
    run several sides, one after the other, so `work` must be done with its
    lane's buffers when it returns.
    """
    results = [None] * len(sides)

    def run_side(n: int, lane: int) -> None:
        results[n] = work(sides[n], lane)

    claim_and_join(run_side, range(len(sides)),
                   range(min(len(workspace.kernel_grad), thread_width(len(sides)))))
    return results


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


def _kernel_terms(unit: np.ndarray, gamma: float, beta: float, workspace: Workspace,
                  lane: int = 0) -> tuple[float, float, np.ndarray | None]:
    """Kernel statistics of unit rows and the gradient of their weighted loss terms.

    Returns (u, V, grad): the uniformity u = log(m + eps) of the mean m and
    the population variance V of the Gaussian kernel exp(-2 d) over the
    P = B(B-1)/2 condensed pairs, and the gradient of gamma * u + beta * V
    with respect to the rows up to a radial component per row (None when
    both weights are zero), which the normalization backward discards. The
    gradient is the first B rows of `lane`'s `kernel_grad`, valid until the
    lane's next use.

    The kernel is built one pair of row blocks I <= J at a time, in place,
    into the slots of the workspace's `lane`; an off-diagonal block stands
    for itself and its transpose, so it counts twice in every sum. The mean
    pass builds every block; when there are more blocks than slots, the
    blocks from the last slot on share it and each later pass (variance,
    gradient) rebuilds them, with the same bits. With B <= KERNEL_BLOCK_ROWS
    there is one block, which gives the bits of the whole-matrix formula.
    Both gradient terms are sums of C_jk (x_j - x_k), whose x_j part is
    radial, so each block is turned into one coefficient block
    C = W * (c_u + c_v (W - m)) and subtracts its products with the rows J
    from rows I and, off the diagonal, its transposed products with the
    rows I from rows J.
    """
    unit = np.asarray(unit, dtype=np.float64)
    b = unit.shape[0]
    if b < 2:
        raise ValueError(f"need at least 2 vectors, got {b}")
    spans = [slice(start, min(start + KERNEL_BLOCK_ROWS, b))
             for start in range(0, b, KERNEL_BLOCK_ROWS)]
    pairs = [(rows, cols) for n, rows in enumerate(spans) for cols in spans[n:]]
    share = len(workspace.blocks) // len(workspace.kernel_grad)
    scratch, *slots = workspace.blocks[lane * share:(lane + 1) * share]
    kept = len(pairs) if len(pairs) <= len(slots) else len(slots) - 1

    def blocks(build_all: bool):
        """(rows, cols, kernel) of every pair, building those not kept from an earlier pass."""
        for n, (rows, cols) in enumerate(pairs):
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            kernel = slots[min(n, kept)][:shape[0] * shape[1]].reshape(shape)
            if build_all or n >= kept:
                # squared distance 2 - 2<x, y>, clipped at 0, turned into exp(-2 d) in place
                np.matmul(unit[rows], unit[cols].T, out=kernel)
                kernel *= -2.0
                kernel += 2.0
                np.clip(kernel, 0.0, None, out=kernel)
                kernel *= -2.0
                np.exp(kernel, out=kernel)
                if rows == cols:
                    np.fill_diagonal(kernel, 0.0)
            yield rows, cols, kernel

    pair_count = b * (b - 1) // 2
    # two passes: the variance's deviations are taken from the finished mean
    mean = float(sum(kernel.sum() * (1 if rows == cols else 2)
                     for rows, cols, kernel in blocks(True)) / (2 * pair_count))
    uniform = float(np.log(mean + UNIFORM_EPS))
    squares = 0.0
    for rows, cols, kernel in blocks(False):
        dev = np.subtract(kernel, mean, out=scratch[:kernel.size].reshape(kernel.shape))
        if rows == cols:
            np.fill_diagonal(dev, 0.0)
        dev *= dev
        squares += dev.sum() * (1 if rows == cols else 2)
    variance = float(squares / (2 * pair_count))
    if gamma == 0.0 and beta == 0.0:
        return uniform, variance, None

    # d/dx_j log(m + eps) = -4/(P (m + eps)) * sum_k w_jk (x_j - x_k)
    # d/dx_j Var = -8/P * sum_k (w_jk - m) w_jk (x_j - x_k)
    c_u = -4.0 * gamma / (pair_count * (mean + UNIFORM_EPS))
    c_v = -8.0 * beta / pair_count
    workspace.check_rows(unit)
    grad, products = workspace.kernel_grad[lane, :b], workspace.products[lane]
    grad.fill(0.0)
    for rows, cols, kernel in blocks(False):
        coef = np.subtract(kernel, mean, out=scratch[:kernel.size].reshape(kernel.shape))
        coef *= c_v
        coef += c_u
        kernel *= coef
        grad[rows] -= np.matmul(kernel, unit[cols], out=products[:kernel.shape[0]])
        if rows != cols:
            grad[cols] -= np.matmul(kernel.T, unit[rows], out=products[:kernel.shape[1]])
    return uniform, variance, grad


def uniformity_and_variance(vectors: np.ndarray, workspace: Workspace | None = None,
                            lane: int = 0) -> tuple[float, float]:
    """(uniformity, kernel variance) of the same rows from one kernel build.

    Uniformity is log(E exp(-2 d) + eps) over the condensed pairs: zero when
    all points coincide (up to eps), lower the more evenly they spread. The
    kernel variance is the population variance of the same kernel values.
    The kernel blocks go into the slots of `workspace`'s `lane`; the values
    do not depend on their number. The default, a new workspace with a slot
    for each block, stays so the function is a pure call for `geometry` and
    the acceptance checks, which hold no workspace; a fit passes its own.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if workspace is None:
        workspace = Workspace(len(vectors), vectors.shape[-1])
    return _kernel_terms(vectors, 0.0, 0.0, workspace, lane)[:2]


def _normalization_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray,
                            scratch: np.ndarray) -> None:
    """(grad_unit - <grad_unit, unit> unit) / norms per row, in place; scratch is of its shape."""
    radial = np.einsum("ij,ij->i", grad_unit, unit)
    grad_unit -= np.multiply(radial[:, None], unit, out=scratch)
    grad_unit /= norms[:, None]


def rau_loss_and_gradient(
    users_raw: np.ndarray,
    items_raw: np.ndarray,
    weights: LossWeights,
    workspace: Workspace | None = None,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Combined objective and its gradient in one pass.

    Each side's kernel blocks serve both its loss values and its gradient,
    and a side whose gamma and beta are both zero forms no kernel gradient.
    The two sides run at once on the workspace's lanes (`on_lanes`), with
    the bits of one lane. The unit-row gradients are summed up to a radial
    component per row, which the normalization backward removes.

    Every array of the batch's size is written into `workspace`, so the
    returned gradients are views into it, valid until its next use. The
    default, a new workspace for this batch, stays because this is a package
    export, and the acceptance checks call it as a pure function, finite
    differences included; a fit passes its own.
    """
    users_raw = np.asarray(users_raw, dtype=np.float64)
    items_raw = np.asarray(items_raw, dtype=np.float64)
    _check_paired(users_raw, items_raw)
    if users_raw.shape[0] < 2:
        raise ValueError(f"need a batch of at least 2 pairs, got {users_raw.shape[0]}")
    batch = users_raw.shape[0]
    if workspace is None:
        workspace = Workspace(batch, users_raw.shape[-1])
    workspace.check_rows(users_raw)
    workspace.check_rows(items_raw)

    users, user_norms = normalize_with_norms(users_raw, out=workspace.users[:batch])
    items, item_norms = normalize_with_norms(items_raw, out=workspace.items[:batch])

    diff = np.subtract(users, items, out=workspace.diff[:batch])
    align = float(np.einsum("ij,ij->i", diff, diff).mean())
    center = diff.mean(axis=0)
    ra = float(center @ center)
    grad_users = np.multiply(2.0 / batch, diff, out=workspace.grad_users[:batch])
    grad_items = np.multiply(-2.0 / batch, diff, out=workspace.grad_items[:batch])

    def side_terms(side, lane: int) -> tuple[float, float]:
        unit, gamma, grad = side
        uniform, variance, kernel_grad = _kernel_terms(unit, gamma, weights.beta, workspace, lane)
        if kernel_grad is not None:
            # added before returning, since the lane may run the other side next
            grad += kernel_grad
        return uniform, variance

    (uniform_u, variance_u), (uniform_i, variance_i) = on_lanes(
        side_terms, [(users, weights.gamma_user, grad_users),
                     (items, weights.gamma_item, grad_items)], workspace)
    weighted_uniform = weights.gamma_user * uniform_u + weights.gamma_item * uniform_i
    ru = variance_u + variance_i

    total = align + weighted_uniform + weights.alpha * ra + weights.beta * ru
    breakdown = LossBreakdown(align=align, weighted_uniform=weighted_uniform,
                              ra=ra, ru=ru, total=total)

    center_grad = (2.0 * weights.alpha / batch) * center
    grad_users += center_grad
    grad_items -= center_grad

    # diff is spent, so its buffer is the backward's scratch
    _normalization_backward(grad_users, users, user_norms, diff)
    _normalization_backward(grad_items, items, item_norms, diff)
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
