"""Full-ranking top-K evaluation: Recall@K and NDCG@K over all unseen items.

Each evaluated user's score vector covers every item; the user's training
items (and validation items, when scoring the test part) are excluded before
ranking. Ties break by ascending item index so runs are reproducible across
platforms. Scores are either raw dot products (ranking-loss geometry) or
cosine similarities (hypersphere geometry).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SplitDataset

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

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    def to_csv(self, path) -> None:
        columns = ["k", "recall", "ndcg"]
        lines = [",".join(columns)]
        lines += [f"{k},{self.recall[k]!r},{self.ndcg[k]!r}" for k in self.ks]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

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


def recall_at_k(ranked: np.ndarray, relevant: set[int]) -> float:
    """|ranked ∩ relevant| / |relevant|."""
    if not relevant:
        raise ValueError("recall undefined for an empty relevant set")
    hits = sum(1 for item in ranked if int(item) in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked: np.ndarray, relevant: set[int], k: int) -> float:
    """Binary-relevance NDCG with 1-based ranks and log2 discounting."""
    if not relevant:
        raise ValueError("ndcg undefined for an empty relevant set")
    dcg = 0.0
    for rank, item in enumerate(ranked[:k], start=1):
        if int(item) in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def _guarded_unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


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
    score_mode="dot" for models trained on raw dot products.
    """
    if part not in ("validation", "test"):
        raise ValueError(f"part must be 'validation' or 'test', got {part!r}")
    if score_mode not in ("cosine", "dot"):
        raise ValueError(f"score_mode must be 'cosine' or 'dot', got {score_mode!r}")
    if min(ks) < 1:
        raise ValueError(f"every K must be >= 1, got {tuple(ks)}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"every K must be distinct, got {tuple(ks)}")
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    if user_vectors.shape[0] != split.num_users or item_vectors.shape[0] != split.num_items:
        raise ValueError(
            f"checkpoint covers {user_vectors.shape[0]} users / {item_vectors.shape[0]} items, "
            f"split has {split.num_users} / {split.num_items}"
        )
    if score_mode == "cosine":
        user_vectors = _guarded_unit_rows(user_vectors)
        item_vectors = _guarded_unit_rows(item_vectors)

    target = split.test if part == "test" else split.validation
    eval_users = np.flatnonzero(np.diff(target.user_indptr) > 0)
    if eval_users.size == 0:
        return MetricsReport(ks=tuple(ks), recall={k: 0.0 for k in ks},
                             ndcg={k: 0.0 for k in ks}, num_users_evaluated=0)

    max_k = max(ks)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    for start in range(0, eval_users.size, _CHUNK):
        chunk = eval_users[start:start + _CHUNK]
        scores = user_vectors[chunk] @ item_vectors.T
        for row, user in enumerate(chunk):
            excluded = split.train.items_for_user(user)
            if part == "test":
                excluded = np.concatenate([excluded, split.validation.items_for_user(user)])
            scores[row, excluded] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max_k]
        for row, user in enumerate(chunk):
            relevant = set(int(i) for i in target.items_for_user(user))
            ranked = order[row]
            for k in ks:
                recall_sums[k] += recall_at_k(ranked[:k], relevant)
                ndcg_sums[k] += ndcg_at_k(ranked, relevant, k)

    n = int(eval_users.size)
    return MetricsReport(
        ks=tuple(ks),
        recall={k: recall_sums[k] / n for k in ks},
        ndcg={k: ndcg_sums[k] / n for k in ks},
        num_users_evaluated=n,
    )
