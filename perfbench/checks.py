"""Correctness checks the benchmark runs on the program's outputs.

The naive ranking here is the reference that `evaluation.evaluate` is held
to. It is written from the documented rules (exclude training and
validation items, rank by descending score, break ties by ascending item
index, binary-relevance Recall and log2-discounted NDCG) and calls nothing
in the package except `evaluate` itself, so it survives a rewrite of the
package's own per-user ranking helpers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from sphererec import data, evaluation

NAIVE_USERS = 64
NAIVE_TOLERANCE = 1e-12


class Checks:
    """Counts each check as one operation that can fail, and names the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def same_bits(tables, others) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(tables, others))


def users_with_items(part) -> np.ndarray:
    return np.flatnonzero(np.diff(part.user_indptr) > 0)


def check_report(checks: Checks, report, split, ks) -> None:
    """Every metric finite and in [0, 1]; every user with a test item scored."""
    values = [report.recall[k] for k in ks] + [report.ndcg[k] for k in ks]
    checks.expect(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
                  f"metric outside [0, 1] or not finite: {values}")
    expected = int(users_with_items(split.test).size)
    checks.expect(report.num_users_evaluated == expected,
                  f"evaluated {report.num_users_evaluated} users, {expected} have test items")


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)


def naive_metrics(split, user_vectors, item_vectors, users, ks, score_mode):
    """Mean Recall@K and NDCG@K over `users` by a full stable argsort per user."""
    if score_mode == "cosine":
        user_vectors, item_vectors = _unit_rows(user_vectors), _unit_rows(item_vectors)
    scores = user_vectors[users] @ item_vectors.T
    recall = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    for row, user in enumerate(users):
        row_scores = scores[row].copy()
        row_scores[split.train.items_for_user(user)] = -np.inf
        row_scores[split.validation.items_for_user(user)] = -np.inf
        ranked = np.argsort(-row_scores, kind="stable")
        relevant = set(split.test.items_for_user(user).tolist())
        for k in ks:
            top = ranked[:k].tolist()
            recall[k] += sum(item in relevant for item in top) / len(relevant)
            hit_ranks = [rank for rank, item in enumerate(top) if item in relevant]
            dcg = sum(1.0 / math.log2(rank + 2) for rank in hit_ranks)
            ideal = sum(1.0 / math.log2(rank + 2) for rank in range(min(len(relevant), k)))
            ndcg[k] += dcg / ideal
    n = len(users)
    return {k: recall[k] / n for k in ks}, {k: ndcg[k] / n for k in ks}


def check_naive_ranking(checks: Checks, split, user_vectors, item_vectors, ks, score_mode,
                        seed) -> None:
    """`evaluate` on a sub-split of 64 seeded users' test pairs matches the naive ranking."""
    candidates = users_with_items(split.test)
    rng = np.random.default_rng([seed, NAIVE_USERS])
    users = np.sort(rng.choice(candidates, size=min(NAIVE_USERS, candidates.size), replace=False))
    pairs = split.test.interactions
    sub_test = data.dataset_from_pairs(split.num_users, split.num_items,
                                       pairs[np.isin(pairs[:, 0], users)])
    sub_split = dataclasses.replace(split, test=sub_test)
    report = evaluation.evaluate(sub_split, user_vectors, item_vectors, ks=ks, part="test",
                                 score_mode=score_mode)
    recall, ndcg = naive_metrics(split, user_vectors, item_vectors, users, ks, score_mode)
    worst = max(max(abs(report.recall[k] - recall[k]), abs(report.ndcg[k] - ndcg[k])) for k in ks)
    checks.expect(report.num_users_evaluated == users.size and worst <= NAIVE_TOLERANCE,
                  f"evaluate differs from the naive ranking by {worst} "
                  f"on {report.num_users_evaluated}/{users.size} users")


def check_ranking(checks: Checks, split, tables, loaded, encoded, report, ks, score_mode,
                  seed) -> None:
    """All checks on one evaluation of a freshly saved checkpoint.

    `tables` are the fitted tables, `loaded` the ones read back from the
    checkpoint, `encoded` their encoding and `report` what `evaluate` made
    of it.
    """
    check_report(checks, report, split, ks)
    stored = [t.astype(np.float32).astype(np.float64) for t in tables]
    checks.expect(all(np.array_equal(a, b) for a, b in zip(stored, loaded)),
                  "reloaded checkpoint differs from the float32 tables that were saved")
    check_naive_ranking(checks, split, *encoded, ks, score_mode, seed)
