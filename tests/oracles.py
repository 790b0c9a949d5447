"""Naive reference implementations for cross-checking the losses, the ranking and the data parts.

Everything here is pure Python over lists: explicit pair loops, explicit
normalization, no numpy, no shared code with the package. Deliberately slow
and obvious.
"""

import math

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
