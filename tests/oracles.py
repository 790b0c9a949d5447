"""Naive reference implementations for cross-checking the losses, the ranking, the data parts,
the optimizer, the negative sampler, the graph encoder and the data loader.

Everything here but the `dense_kernel*` functions, `reference_adam_step`,
`reference_negatives`, the `reference_lightgcn_*` functions,
`full_table_gradient`, `reference_train_epoch` and the `reference_*` data
functions is pure Python over lists: explicit pair loops, explicit
normalization, no numpy, no shared code with the package. Deliberately slow
and obvious.
"""

import math
from pathlib import Path
from types import SimpleNamespace

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


def full_table_gradient(rows, grads, num_rows):
    """The table gradient that a backward's (rows, grads) stands for: zero off `rows`."""
    full = np.zeros((num_rows, grads.shape[1]))
    full[rows] = grads
    return full


def dense_adjacency(train):
    """The normalized bipartite adjacency as a dense matrix, users first, built pair by pair."""
    num_users = train.num_users
    size = num_users + train.num_items
    matrix = np.zeros((size, size))
    for user, item in train.interactions:
        matrix[user, num_users + item] = matrix[num_users + item, user] = 1.0
    degree = matrix.sum(axis=1)
    scale = np.divide(1.0, np.sqrt(degree), out=np.zeros(size), where=degree > 0)
    return scale[:, None] * matrix * scale[None, :]


def reference_train_epoch(split, state, epoch_index):
    """One `trainer.train_epoch` pass written out on whole tables, mutating `state`.

    `state` is a `trainer.TrainState`; its node table (the user rows, then
    the item rows), Adam state, seeds and config are used. Batches and
    negatives are drawn from `fit`'s seeds (`reference_negatives` for bpr),
    the losses are the package's, and every step scatters into full-table
    gradients with `np.add.at`. The user and the item table then take one
    `reference_adam_step` each, on their row ranges of the node table and of
    its moments, as two tables with two Adam states would. With `lightgcn`
    the whole node matrix is propagated by a dense matrix product
    (`dense_adjacency`), which sums in another order than the package's
    sparse rows, so only `mf` can match it to the bit.
    """
    from sphererec import losses

    cfg = state.cfg
    weights = cfg.effective_weights()
    num_users = split.num_users
    layers = cfg.num_layers if cfg.encoder == "lightgcn" else 0
    adjacency = dense_adjacency(split.train) if layers else None

    def layer_mean(nodes):
        acc = nodes.copy()
        for _ in range(layers):
            nodes = adjacency @ nodes
            acc += nodes
        return acc / (layers + 1)

    negative_rng = np.random.default_rng([state.negative_root, epoch_index])
    pairs = split.train.interactions
    order = np.random.default_rng([state.shuffle_root, epoch_index]).permutation(len(pairs))
    for start in range(0, len(order), cfg.batch_size):
        batch = pairs[order[start:start + cfg.batch_size]]
        if len(batch) < 2:
            break
        user_ids, item_ids = batch[:, 0], batch[:, 1]
        if weights is None:
            item_ids = np.concatenate([item_ids, reference_negatives(
                item_ids, split, user_ids, negative_rng, cfg.bpr_full_history_rejection)])
        encoded = layer_mean(state.node_table)
        user_vecs, item_vecs = encoded[user_ids], encoded[num_users + item_ids]
        if weights is None:
            _, grad_users, grad_items = losses.bpr_loss_and_gradient(user_vecs, item_vecs)
        else:
            _, grad_users, grad_items = losses.rau_loss_and_gradient(user_vecs, item_vecs, weights)
        scattered = np.zeros_like(encoded)
        np.add.at(scattered, user_ids, grad_users)
        np.add.at(scattered, num_users + item_ids, grad_items)
        grads = layer_mean(scattered)  # the adjacency is symmetric
        step_count = state.adam.step_count
        for side in (slice(None, num_users), slice(num_users, None)):
            side_adam = SimpleNamespace(first_moment=state.adam.first_moment[side],
                                        second_moment=state.adam.second_moment[side],
                                        step_count=step_count)
            reference_adam_step(state.node_table[side], grads[side], side_adam,
                                cfg.lr, cfg.weight_decay)
            state.adam.step_count = side_adam.step_count


def reference_dataset(num_users, num_items, pairs):
    """`data.dataset_from_pairs` as a namespace of arrays, de-duplicated by `np.unique(axis=0)`."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    interactions = np.unique(pairs, axis=0) if pairs.shape[0] else np.empty((0, 2), np.int64)
    if interactions.shape[0]:
        if interactions[:, 0].min() < 0 or interactions[:, 0].max() >= num_users:
            raise ValueError("user index out of range [0, num_users)")
        if interactions[:, 1].min() < 0 or interactions[:, 1].max() >= num_items:
            raise ValueError("item index out of range [0, num_items)")
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(interactions[:, 0], minlength=num_users), out=indptr[1:])
    return SimpleNamespace(num_users=num_users, num_items=num_items, interactions=interactions,
                           user_indptr=indptr, user_items=interactions[:, 1].copy())


def reference_load_interactions(path, format):
    """`data.load_interactions` one line at a time: the documented input rules, written out."""
    path = Path(path)
    user_ids, item_ids, pairs = {}, {}, []
    with path.open("r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",") if format == "csv" else line.split()
            if len(fields) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least 2 fields, got {len(fields)}")
            raw_user, raw_item = fields[0].strip(), fields[1].strip()
            if not raw_user or not raw_item:
                raise ValueError(f"{path}:{lineno}: empty user or item id")
            user = user_ids.setdefault(raw_user, len(user_ids))
            item = item_ids.setdefault(raw_item, len(item_ids))
            pairs.append((user, item))
    if not pairs:
        raise ValueError(f"{path}: no interactions found")
    return reference_dataset(len(user_ids), len(item_ids), pairs)


def reference_split(ds, seed):
    """`data.split_per_user` one user at a time: (train, validation, test) reference datasets."""
    rng = np.random.default_rng(seed)
    part_of = np.zeros(ds.interactions.shape[0], dtype=np.int8)
    for user in range(ds.num_users):
        start = ds.user_indptr[user]
        n = int(ds.user_indptr[user + 1] - start)
        if n == 0:
            continue
        order = start + rng.permutation(n)
        if n < 3:
            n_train, n_val = n, 0
        else:
            n_train = min(max(round(n * 0.8), 1), n)
            n_val = min(round(n * 0.1), n - n_train)
        part_of[order[n_train:n_train + n_val]] = 1
        part_of[order[n_train + n_val:]] = 2
    return tuple(reference_dataset(ds.num_users, ds.num_items, ds.interactions[part_of == part])
                 for part in range(3))
