"""Full-ranking top-K evaluation: Recall@K and NDCG@K over all unseen items.

Each evaluated user's score vector covers every item; the user's training
items (and validation items, when scoring the test part) are excluded before
ranking. Ties break by ascending item index so runs are reproducible across
platforms. Scores are either raw dot products (ranking-loss geometry) or
cosine similarities (hypersphere geometry).

Users are ranked in chunks whose rows fit a byte budget: each chunk scores
into one buffer and writes the negated scores into a second, so a chunk's
passes stay in cache and memory does not grow with the catalog times the
user count. The rows that fit one `_CHUNK_BYTES` buffer are cut into
`_CHUNKS_PER_BUFFER` chunks, or kept as one where the users fit one
buffer. The calling thread and the threads it starts, min(CPUs in the
process's affinity, `_CHUNKS_PER_BUFFER`, chunks, RAU_NUM_THREADS where
set) in all, claim the chunks one at a time (`sphererec.claim_and_join`).
Each thread has its own pair of chunk buffers, allocated once by the
caller, so the buffers hold at most two `_CHUNK_BYTES` at any width. A
chunk writes its users' rows into its own slot and the means are reduced
in user order. BLAS may round a score differently at another row of a
product, so the cut depends on the inputs only, not on the CPUs or
RAU_NUM_THREADS: the report is the same at any thread count and CPU
count. Only the top max(K) columns are ranked. A partition of the negated
copy finds each user's K-th best score; the cells scoring at least that
much, taken by flat (row-major) index, are the candidates, and of the cells
tied with the K-th score only the first by item index are kept, so each
user keeps exactly K. A stable sort of those K gives the same top K as a
stable sort of the whole catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import claim_and_join, thread_width
from .data import InteractionDataset, SplitDataset
from .hypersphere import write_csv

DEFAULT_KS = (20, 50)
# the chunk buffers of all threads together hold at most twice this many bytes (and
# each at least one row)
_CHUNK_BYTES = 4 << 20
# the chunks one buffer's rows are cut into, and so the most threads that rank at once; a
# constant, since BLAS may round a score differently at another row of a product
_CHUNKS_PER_BUFFER = 2


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


def _top_k(scores: np.ndarray, k: int, work: np.ndarray) -> np.ndarray:
    """np.argsort(-scores, axis=1, kind="stable")[:, :k], sorting only k candidates per row.

    `-scores` is written into `work`, a contiguous buffer of its shape, in one
    pass and partitioned there, and then the candidate mask is written over
    it; `scores` is left as it was. Negation is exact, so the
    partition gives each row's k-th best score bit for bit, or NaN where
    fewer than k scores are not NaN (argsort ranks NaN last). A row's
    candidates are its cells at or above that score, or every cell when it
    is NaN; their flat indices ascend, so columns ascend within a row. Cells
    tied with the k-th score (the NaN cells, when it is NaN) rank by column,
    so a row keeps the cells above it and then its first ties, k in all,
    and a stable sort of those k by score is the full ranking's first k.
    """
    num_rows, num_columns = scores.shape
    np.negative(scores, out=work)
    work.partition(k - 1, axis=1)
    kth = -work[:, k - 1]  # negation is exact: each row's k-th best score, or NaN
    # the partitioned copy is spent, so the candidate mask takes its first bytes
    mask = work.reshape(-1).view(np.bool_)[:scores.size].reshape(scores.shape)
    candidates = np.greater_equal(scores, kth[:, None], out=mask)
    candidates[np.isnan(kth)] = True  # fewer than k scores are not NaN: NaN cells rank last
    flat = np.flatnonzero(candidates)  # row-major, so columns ascend within a row
    rows, columns = np.divmod(flat, num_columns)
    values = scores.ravel()[flat]
    tied = (values == kth[rows]) | np.isnan(values)
    # a row keeps its cells above the k-th score and its first ties by column, k in all
    counts = np.bincount(rows, minlength=num_rows)
    starts = np.cumsum(counts) - counts
    ties_before = np.cumsum(tied) - tied
    ties_before -= ties_before[starts][rows]
    num_above = counts - np.bincount(rows[tied], minlength=num_rows)
    keep = ~tied | (num_above[rows] + ties_before < k)
    order = np.argsort(-values[keep].reshape(num_rows, k), axis=1, kind="stable")
    return np.take_along_axis(columns[keep].reshape(num_rows, k), order, axis=1)


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
    score_mode="dot" for models trained on raw dot products. A table with a
    non-finite entry, or with a row whose norm is beyond float64, is rejected
    with ValueError; so, in dot mode, are tables whose largest row norms
    multiply to more than float64 holds.
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
    # each row's norm, taken once, decides finiteness, scales cosine rows and bounds dot
    # scores; a NaN or inf entry, or squares beyond float64 (entries from about 1.3e154 up),
    # make it non-finite
    with np.errstate(over="ignore"):
        user_norms, item_norms = (np.linalg.norm(v, axis=1) for v in (user_vectors, item_vectors))
    for name, norms in (("user_vectors", user_norms), ("item_vectors", item_norms)):
        if not np.isfinite(norms).all():
            raise ValueError(f"{name} contains non-finite entries or a row whose norm "
                             "overflows float64")
    # a chunk divides its user rows by their norms (cosine) or by 1.0, which is exact (dot),
    # so the user table is never copied whole
    user_divisors = np.ones_like(user_norms)
    if score_mode == "cosine":
        np.maximum(user_norms, 1e-12, out=user_divisors)
        item_vectors = item_vectors / np.maximum(item_norms, 1e-12)[:, None]

    target = split.test if part == "test" else split.validation
    eval_users = np.flatnonzero(np.diff(target.user_indptr) > 0)
    if eval_users.size == 0:
        return MetricsReport(ks=tuple(ks), recall={k: 0.0 for k in ks},
                             ndcg={k: 0.0 for k in ks}, num_users_evaluated=0)

    # |u . i| <= |u| |i| (Cauchy-Schwarz) bounds every dot score and each partial sum of one
    if score_mode == "dot":
        with np.errstate(over="ignore"):  # an overflow here is what the check looks for
            bound = user_norms.max() * item_norms.max()
        if not np.isfinite(bound):
            raise ValueError("dot-product scores can overflow: the largest user and item row "
                             "norms multiply to more than float64 holds")

    # 1-based rank r is discounted by 1 / log2(r + 1); a user with m target
    # items has ideal DCG@K = the sum of the first min(m, K) discounts
    ranked_columns = min(max(ks), split.num_items)
    discounts = np.array([1.0 / math.log2(rank + 2) for rank in range(ranked_columns)])
    ideal_dcg = np.cumsum(discounts)
    last_column = np.minimum(ks, ranked_columns) - 1
    excluded_parts = (split.train, split.validation) if part == "test" else (split.train,)
    # one buffer's rows, cut into chunks; each thread's two chunk buffers are allocated
    # here once, so no chunk maps and faults in fresh chunk x catalog arrays
    buffer_rows = max(1, _CHUNK_BYTES // (8 * split.num_items))
    lanes = min(_CHUNKS_PER_BUFFER, -(-eval_users.size // buffer_rows), buffer_rows)
    chunk_rows = buffer_rows // lanes
    starts = range(0, eval_users.size, chunk_rows)
    per_user = [None] * len(starts)  # recall@K then ndcg@K for each K, one row per user

    def rank_chunk(claimed: tuple[int, int], buffer: np.ndarray) -> None:
        index, start = claimed
        chunk = eval_users[start:start + chunk_rows]
        score_buffer, work_buffer = buffer
        chunk_vectors = user_vectors[chunk]
        chunk_vectors /= user_divisors[chunk, None]
        scores = np.matmul(chunk_vectors, item_vectors.T, out=score_buffer[:chunk.size])
        for excluded in excluded_parts:
            scores[_csr_cells(excluded, chunk)] = -np.inf
        ranked = _top_k(scores, ranked_columns, work_buffer[:chunk.size])
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
        per_user[index] = np.concatenate([recall, ndcg], axis=1)

    # the buffers are freed when the threads are joined, before the means are reduced
    claim_and_join(rank_chunk, enumerate(starts),
                   np.empty((thread_width(lanes), 2, min(chunk_rows, eval_users.size),
                             split.num_items)))

    # cumsum adds one user at a time in user order, as a running total does;
    # np.sum's pairwise order could change the last digits of the means
    n = int(eval_users.size)
    means = (np.cumsum(np.concatenate(per_user), axis=0)[-1] / n).tolist()
    return MetricsReport(ks=tuple(ks), recall=dict(zip(ks, means)),
                         ndcg=dict(zip(ks, means[len(ks):])), num_users_evaluated=n)
