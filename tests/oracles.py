"""Naive reference implementations for cross-checking the losses, the ranking, the data parts,
the optimizer, the negative sampler and the graph encoder.

Everything here but the `dense_kernel*` functions, `reference_adam_step`,
`reference_negatives` and the `reference_lightgcn_*` functions is pure
Python over lists: explicit pair loops, explicit normalization, no numpy, no
shared code with the package. Deliberately slow and obvious.
"""

import math

import numpy as np

EPS = 1e-12
NORM_FLOOR = 1e-12


def normalize(rows):
    out = []
    for row in rows:
        norm = math.sqrt(sum(v * v for v in row))
        out.append([v / norm for v in row])
    return out


def guarded_unit_rows(rows):
    """Rows scaled to unit length; a row shorter than NORM_FLOOR is divided by it."""
    return [[v / max(math.sqrt(sum(x * x for x in row)), NORM_FLOOR) for v in row]
            for row in rows]


def interaction_set(dataset):
    """An InteractionDataset's (user, item) pairs as a set of int tuples."""
    return {(int(u), int(i)) for u, i in dataset.interactions}


def sq_dist(x, y):
    return sum((a - b) ** 2 for a, b in zip(x, y))


def align(users, items):
    return sum(sq_dist(u, i) for u, i in zip(users, items)) / len(users)


def condensed_kernels(rows):
    values = []
    for j in range(len(rows)):
        for k in range(j + 1, len(rows)):
            values.append(math.exp(-2.0 * sq_dist(rows[j], rows[k])))
    return values


def uniform_part(rows):
    values = condensed_kernels(rows)
    return math.log(sum(values) / len(values) + EPS)


def kernel_variance(rows):
    values = condensed_kernels(rows)
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def weighted_uniform(users, items, gamma_user, gamma_item):
    return gamma_user * uniform_part(users) + gamma_item * uniform_part(items)


def ra(users, items):
    batch = len(users)
    dim = len(users[0])
    center = [
        sum(users[k][c] - items[k][c] for k in range(batch)) / batch
        for c in range(dim)
    ]
    return sum(v * v for v in center)


def ru(users, items):
    return kernel_variance(users) + kernel_variance(items)


def rau_total(users_raw, items_raw, alpha, beta, gamma_user, gamma_item):
    users = normalize(users_raw)
    items = normalize(items_raw)
    return (
        align(users, items)
        + weighted_uniform(users, items, gamma_user, gamma_item)
        + alpha * ra(users, items)
        + beta * ru(users, items)
    )


def dense_kernel(unit):
    """(W, m, P, V) from the whole B x B kernel matrix, the blocked kernel's numpy reference.

    W is exp(-2 d) with a zeroed diagonal, m the mean kernel value over the
    P = B(B-1)/2 condensed pairs and V their population variance. For
    B <= `losses.KERNEL_BLOCK_ROWS` the blocked kernel must give m and V to
    the bit.
    """
    b = unit.shape[0]
    kernel = 2.0 - 2.0 * (unit @ unit.T)
    np.clip(kernel, 0.0, None, out=kernel)
    kernel *= -2.0
    np.exp(kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    pair_count = b * (b - 1) // 2
    mean = float(kernel.sum() / (2 * pair_count))
    dev = kernel - mean
    np.fill_diagonal(dev, 0.0)
    dev *= dev
    return kernel, mean, pair_count, float(dev.sum() / (2 * pair_count))


def dense_kernel_grad(unit, gamma, beta):
    """Gradient of gamma * log(m + eps) + beta * V w.r.t. unit rows, from the whole matrix."""
    kernel, mean, pair_count, _ = dense_kernel(unit)
    # d/dx_j log(m + eps) = -4/(P (m + eps)) * sum_k w_jk (x_j - x_k)
    uniform = (-4.0 / (pair_count * (mean + EPS))) * (
        kernel.sum(axis=1)[:, None] * unit - kernel @ unit)
    # d/dx_j Var = -8/P * sum_k (w_jk - m) w_jk (x_j - x_k)
    weighted = kernel * (kernel - mean)
    np.fill_diagonal(weighted, 0.0)
    variance = (-8.0 / pair_count) * (weighted.sum(axis=1)[:, None] * unit - weighted @ unit)
    return gamma * uniform + beta * variance


def bpr(pos_scores, neg_scores):
    total = 0.0
    for pos, neg in zip(pos_scores, neg_scores):
        x = pos - neg
        # -log sigmoid(x), written to survive large |x|
        total += math.log1p(math.exp(-abs(x))) + max(-x, 0.0)
    return total / len(pos_scores)


def ranking_metrics(user_rows, item_rows, train, validation, target, ks, score_mode, part):
    """Mean Recall@K and NDCG@K by ranking every item for one user at a time.

    `train`, `validation` and `target` map each user to a set of items. The
    documented rules: scores are dot products, of unit rows (zero rows stay
    zero) in cosine mode; excluded items (train, plus validation when
    part="test") rank below every other item; ties rank by ascending item
    index; 1-based rank r is discounted by 1 / log2(r + 1). Only users with
    target items are scored. Sums run left to right, one term at a time.
    """
    if score_mode == "cosine":
        user_rows, item_rows = guarded_unit_rows(user_rows), guarded_unit_rows(item_rows)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    users = [user for user in range(len(user_rows)) if target.get(user)]
    for user in users:
        excluded = set(train.get(user, ()))
        if part == "test":
            excluded |= set(validation.get(user, ()))
        scores = [sum(u * i for u, i in zip(user_rows[user], item_row)) for item_row in item_rows]
        ranking = sorted(range(len(item_rows)),
                         key=lambda item: (item in excluded, -scores[item], item))
        relevant = target[user]
        for k in ks:
            top = ranking[:k]
            recall_sums[k] += sum(1 for item in top if item in relevant) / len(relevant)
            dcg = 0.0
            for rank, item in enumerate(top, start=1):
                if item in relevant:
                    dcg += 1.0 / math.log2(rank + 1)
            ideal = 0.0
            for rank in range(1, min(len(relevant), k) + 1):
                ideal += 1.0 / math.log2(rank + 1)
            ndcg_sums[k] += dcg / ideal
    n = len(users)
    return {k: recall_sums[k] / n for k in ks}, {k: ndcg_sums[k] / n for k in ks}, n


def reference_adam_step(params, grads, state, lr, weight_decay=0.0):
    """The whole-table Adam formula `trainer.adam_step` must match bit for bit.

    `state` is a `trainer.AdamState`; only its moments and `step_count` are
    used. Its hyperparameters are written out rather than imported.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if weight_decay:
        params *= 1.0 - lr * weight_decay
    state.step_count += 1
    state.first_moment *= beta1
    state.first_moment += (1.0 - beta1) * grads
    state.second_moment *= beta2
    state.second_moment += (1.0 - beta2) * np.square(grads)
    m_hat = state.first_moment / (1.0 - beta1 ** state.step_count)
    v_hat = state.second_moment / (1.0 - beta2 ** state.step_count)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_negatives(batch_items, split, user_ids, rng, full_history):
    """The pair-by-pair BPR sampler `trainer._sample_negatives` must match, draws included.

    Each pair makes one scalar `rng.integers` draw at a time until one is
    accepted, so the generator's final state is part of what is compared.
    """
    num_items = split.num_items
    negatives = np.empty_like(batch_items)
    for idx in range(batch_items.shape[0]):
        if full_history:
            history = split.train.items_for_user(int(user_ids[idx]))
            while True:
                neg = int(rng.integers(num_items))
                pos = int(np.searchsorted(history, neg))
                if pos >= history.size or history[pos] != neg:
                    break
        else:
            positive = int(batch_items[idx])
            while True:
                neg = int(rng.integers(num_items))
                if neg != positive:
                    break
        negatives[idx] = neg
    return negatives


def reference_layer_mean(adj, cfg, state):
    """Mean of layers 0..K of a whole node matrix, split into user and item rows.

    This and the two functions below are the full-graph encoder that
    `encoders.lightgcn_encode` and `encoders.lightgcn_backward` must match
    bit for bit: every round multiplies the whole node matrix. Input checks
    are left out.
    """
    acc = state
    for _ in range(cfg.num_layers):
        state = adj.matrix @ state
        acc += state
    acc /= cfg.num_layers + 1
    return acc[:adj.num_users], acc[adj.num_users:]


def reference_lightgcn_encode(user_table, item_table, adj, cfg, user_ids, item_ids):
    all_users, all_items = reference_layer_mean(
        adj, cfg, np.vstack([user_table.values, item_table.values]))
    user_ids = np.asarray(user_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    return all_users[user_ids], all_items[item_ids]


def reference_lightgcn_backward(adj, cfg, user_ids, item_ids, grad_users, grad_items):
    dim = grad_users.shape[1]
    scattered = np.zeros((adj.size, dim))
    np.add.at(scattered, np.asarray(user_ids, dtype=np.int64), grad_users)
    np.add.at(scattered, adj.num_users + np.asarray(item_ids, dtype=np.int64), grad_items)
    return reference_layer_mean(adj, cfg, scattered)
