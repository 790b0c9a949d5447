"""Full-ranking top-K evaluation: Recall@K and NDCG@K over all unseen items.

Each evaluated user's score vector covers every item; the user's training
items (and validation items, when scoring the test part) are excluded before
ranking. Ties break by ascending item index so runs are reproducible across
platforms. Scores are either raw dot products (ranking-loss geometry) or
cosine similarities (hypersphere geometry).

Only the top max(K) columns are ranked. A partition finds each user's K-th
best score; every item scoring at least that much, ties included, is a
candidate, and a stable sort of the candidates alone gives the same top K as
a stable sort of the whole catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import InteractionDataset, SplitDataset
from .hypersphere import write_csv

DEFAULT_KS = (20, 50)
_CHUNK = 1024


@dataclass(frozen=True)
class MetricsReport:
    """Mean Recall@K / NDCG@K over evaluated users, per K."""

    ks: tuple[int, ...]
    recall: dict[int, float] = field(default_factory=dict)
    ndcg: dict[int, float] = field(default_factory=dict)
    num_users_evaluated: int = 0

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "num_users_evaluated": self.num_users_evaluated,
        }

    def to_csv(self, path) -> None:
        write_csv(path, ["k", "recall", "ndcg"],
                  [(k, self.recall[k], self.ndcg[k]) for k in self.ks])

    def format_table(self) -> str:
        """Percentage table with two decimals, one column per metric@K."""
        header = [f"R@{k}" for k in self.ks] + [f"N@{k}" for k in self.ks]
        values = [f"{100 * self.recall[k]:.2f}" for k in self.ks]
        values += [f"{100 * self.ndcg[k]:.2f}" for k in self.ks]
        width = max(len(cell) for cell in header + values) + 2
        lines = [
            "".join(cell.rjust(width) for cell in header),
            "".join(cell.rjust(width) for cell in values),
        ]
        return "\n".join(lines)


def check_ks(ks) -> None:
    """Raise ValueError unless every K is at least 1 and no K repeats."""
    if min(ks) < 1:
        raise ValueError(f"every K must be >= 1, got {tuple(ks)}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"every K must be distinct, got {tuple(ks)}")


def _csr_cells(part: InteractionDataset, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, item) cells of `users`' CSR rows in `part`; rows index `users`, items ascend."""
    starts = part.user_indptr[users]
    counts = part.user_indptr[users + 1] - starts
    rows = np.repeat(np.arange(users.size), counts)
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return rows, part.user_items[np.arange(rows.size) + offsets]


def _guarded_unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(-scores, axis=1, kind="stable")[:, :k], sorting only the candidates.

    `scores` is negated in place. A row's candidates are the cells not
    ranked below its k-th best, which keeps every tie of the k-th score (and
    NaN cells, which argsort ranks last), so each row has at least k.
    """
    neg = np.negative(scores, out=scores)
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    candidates = ~(neg > kth)
    rows, columns = np.nonzero(candidates)  # row-major: columns ascend within a row
    order = np.lexsort((neg[candidates], rows))  # stable: equal scores keep column order
    counts = np.bincount(rows, minlength=neg.shape[0])
    starts = np.cumsum(counts) - counts  # where each row's candidates begin in `order`
    return columns[order[starts[:, None] + np.arange(k)]]


def evaluate(
    split: SplitDataset,
    user_vectors: np.ndarray,
    item_vectors: np.ndarray,
    ks: tuple[int, ...] = DEFAULT_KS,
    part: str = "test",
    score_mode: str = "cosine",
) -> MetricsReport:
    """Rank all items for every user with interactions in `part`.

    Exclusion per user: training items always; validation items too when
    part="test" (prevents validation leakage into test ranks).
    `user_vectors`/`item_vectors` are the ENCODED full tables; pass
    score_mode="dot" for models trained on raw dot products. Both tables
    must be finite, and in dot mode so must the product of their largest row norms.
    """
    if part not in ("validation", "test"):
        raise ValueError(f"part must be 'validation' or 'test', got {part!r}")
    if score_mode not in ("cosine", "dot"):
        raise ValueError(f"score_mode must be 'cosine' or 'dot', got {score_mode!r}")
    check_ks(ks)
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    if user_vectors.shape[0] != split.num_users or item_vectors.shape[0] != split.num_items:
        raise ValueError(
            f"checkpoint covers {user_vectors.shape[0]} users / {item_vectors.shape[0]} items, "
            f"split has {split.num_users} / {split.num_items}"
        )
    for name, vectors in (("user_vectors", user_vectors), ("item_vectors", item_vectors)):
        if not np.isfinite(vectors).all():
            raise ValueError(f"{name} contains non-finite entries")
    if score_mode == "cosine":
        user_vectors = _guarded_unit_rows(user_vectors)
        item_vectors = _guarded_unit_rows(item_vectors)

    target = split.test if part == "test" else split.validation
    eval_users = np.flatnonzero(np.diff(target.user_indptr) > 0)
    if eval_users.size == 0:
        return MetricsReport(ks=tuple(ks), recall={k: 0.0 for k in ks},
                             ndcg={k: 0.0 for k in ks}, num_users_evaluated=0)

    # |u . i| <= |u| |i| (Cauchy-Schwarz) bounds every dot score and each partial sum of one
    if score_mode == "dot" and not np.isfinite(np.linalg.norm(user_vectors, axis=1).max()
                                               * np.linalg.norm(item_vectors, axis=1).max()):
        raise ValueError("dot-product scores can overflow: the largest user and item row "
                         "norms multiply to more than float64 holds")

    # 1-based rank r is discounted by 1 / log2(r + 1); a user with m target
    # items has ideal DCG@K = the sum of the first min(m, K) discounts
    ranked_columns = min(max(ks), split.num_items)
    discounts = np.array([1.0 / math.log2(rank + 2) for rank in range(ranked_columns)])
    ideal_dcg = np.cumsum(discounts)
    last_column = np.minimum(ks, ranked_columns) - 1
    excluded_parts = (split.train, split.validation) if part == "test" else (split.train,)
    per_user = []  # recall@K then ndcg@K for each K, one row per user in user order
    for start in range(0, eval_users.size, _CHUNK):
        chunk = eval_users[start:start + _CHUNK]
        scores = user_vectors[chunk] @ item_vectors.T
        for excluded in excluded_parts:
            scores[_csr_cells(excluded, chunk)] = -np.inf
        ranked = _top_k(scores, ranked_columns)
        # a ranked cell is a hit when its row * num_items + item key is a target key
        rows, items = _csr_cells(target, chunk)
        target_keys = rows * split.num_items + items
        ranked_keys = np.arange(chunk.size)[:, None] * split.num_items + ranked
        found = np.minimum(np.searchsorted(target_keys, ranked_keys), target_keys.size - 1)
        hits = target_keys[found] == ranked_keys
        num_relevant = np.bincount(rows, minlength=chunk.size)[:, None]
        recall = np.cumsum(hits, axis=1)[:, last_column] / num_relevant
        dcg = np.cumsum(hits * discounts, axis=1)[:, last_column]
        ndcg = dcg / ideal_dcg[np.minimum(num_relevant, ks) - 1]
        per_user.append(np.concatenate([recall, ndcg], axis=1))
        del scores, ranked, ranked_keys, found, hits  # freed before the next chunk allocates

    # cumsum adds one user at a time in user order, as a running total does;
    # np.sum's pairwise order could change the last digits of the means
    n = int(eval_users.size)
    means = (np.cumsum(np.concatenate(per_user), axis=0)[-1] / n).tolist()
    return MetricsReport(ks=tuple(ks), recall=dict(zip(ks, means)),
                         ndcg=dict(zip(ks, means[len(ks):])), num_users_evaluated=n)
