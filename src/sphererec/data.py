"""Interaction data: loading, id remapping, per-user splits, positive-pair batches.

Input files are plain-text TSV/CSV with one interaction per line
(`raw_user_id<sep>raw_item_id[<sep>ignored...]`). Ratings and timestamps are
ignored: the interaction signal is binary. Duplicate (user, item) lines
collapse to a single interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hypersphere import write_json

DEFAULT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(eq=False, frozen=True)
class InteractionDataset:
    """Deduplicated implicit-feedback interactions over contiguous index spaces.

    `interactions` is an (n, 2) int64 array of (user_index, item_index) rows,
    lexicographically sorted and unique. `user_indptr`/`user_items` hold the
    same pairs in CSR layout: items of user u are
    `user_items[user_indptr[u]:user_indptr[u + 1]]`, sorted ascending.
    All arrays are read-only; instances are safe to share across threads.
    """

    num_users: int
    num_items: int
    interactions: np.ndarray
    user_indptr: np.ndarray
    user_items: np.ndarray

    @property
    def num_interactions(self) -> int:
        return int(self.interactions.shape[0])

    # perfbench/ calls this in its hand-ranked metric check; the package itself does not
    def items_for_user(self, user: int) -> np.ndarray:
        """Sorted item indices this user interacted with."""
        return self.user_items[self.user_indptr[user]:self.user_indptr[user + 1]]


@dataclass(eq=False, frozen=True)
class SplitDataset:
    """Train/validation/test views over one shared id space."""

    train: InteractionDataset
    validation: InteractionDataset
    test: InteractionDataset
    split_seed: int

    @property
    def num_users(self) -> int:
        return self.train.num_users

    @property
    def num_items(self) -> int:
        return self.train.num_items


@dataclass(frozen=True)
class PositivePairBatch:
    """A minibatch of positive (user, item) training pairs, paired by position."""

    user_indices: np.ndarray
    item_indices: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def dataset_from_pairs(num_users: int, num_items: int, pairs) -> InteractionDataset:
    """Build a dataset from (user_index, item_index) pairs, deduplicating them.

    Raises ValueError on out-of-range indices or an empty pair list.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        interactions = np.empty((0, 2), dtype=np.int64)
    else:
        interactions = np.unique(pairs, axis=0)
        if interactions[:, 0].min() < 0 or interactions[:, 0].max() >= num_users:
            raise ValueError("user index out of range [0, num_users)")
        if interactions[:, 1].min() < 0 or interactions[:, 1].max() >= num_items:
            raise ValueError("item index out of range [0, num_items)")
    counts = np.bincount(interactions[:, 0], minlength=num_users)
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # np.unique sorts rows lexicographically, so items are already grouped by
    # user and ascending within each user.
    user_items = interactions[:, 1].copy()
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        interactions=_freeze(interactions),
        user_indptr=_freeze(indptr),
        user_items=_freeze(user_items),
    )


def load_interactions(path, format: str | None = None) -> InteractionDataset:
    """Load an interaction file and remap raw ids to contiguous indices.

    `format` is "tsv" (whitespace-separated) or "csv"; when None it is inferred
    from the file suffix (.csv -> csv, anything else -> tsv). Lines starting
    with '#' and empty lines are skipped. Extra fields beyond the first two
    are ignored. Index assignment follows first appearance order, so loading
    is deterministic for a given file.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "tsv"
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}: expected 'tsv' or 'csv'")

    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as handle:
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
    return dataset_from_pairs(len(user_ids), len(item_ids), pairs)


def _split_counts(n: int) -> tuple[int, int, int]:
    # Users with fewer than 3 interactions keep everything in train.
    if n < 3:
        return n, 0, 0
    n_train = round(n * DEFAULT_RATIOS[0])
    n_train = min(max(n_train, 1), n)
    n_val = min(round(n * DEFAULT_RATIOS[1]), n - n_train)
    n_test = n - n_train - n_val
    return n_train, n_val, n_test


def split_per_user(ds: InteractionDataset, seed: int = 0) -> SplitDataset:
    """Shuffle each user's interactions with a seeded generator and split them.

    Per user, counts are round(0.8 n) train / round(0.1 n) validation /
    remainder test (DEFAULT_RATIOS), clamped so train keeps at least one
    interaction; users with fewer than 3 interactions go entirely to train.
    The three parts are disjoint and their union is the source set.
    """
    rng = np.random.default_rng(seed)
    part_of = np.zeros(ds.num_interactions, dtype=np.int8)  # 0 train, 1 validation, 2 test
    for user in range(ds.num_users):
        start = ds.user_indptr[user]
        n = int(ds.user_indptr[user + 1] - start)
        if n == 0:
            continue
        order = start + rng.permutation(n)
        n_train, n_val, _ = _split_counts(n)
        part_of[order[n_train:n_train + n_val]] = 1
        part_of[order[n_train + n_val:]] = 2
    train, validation, test = (
        dataset_from_pairs(ds.num_users, ds.num_items, ds.interactions[part_of == part])
        for part in range(3)
    )
    return SplitDataset(train=train, validation=validation, test=test, split_seed=seed)


def epoch_batches(train: InteractionDataset, batch_size: int, epoch_seed: int):
    """Yield every training pair exactly once, in seeded-shuffled minibatches.

    The trailing batch is dropped when it has fewer than 2 pairs (the
    uniformity terms need at least two entities).
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    n = train.num_interactions
    order = np.random.default_rng(epoch_seed).permutation(n)
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if chunk.shape[0] < 2:
            break
        rows = train.interactions[chunk]
        yield PositivePairBatch(user_indices=rows[:, 0].copy(), item_indices=rows[:, 1].copy())


def two_cluster_dataset(
    num_users: int = 200,
    num_items: int = 100,
    items_per_user: int = 10,
    seed: int = 0,
) -> InteractionDataset:
    """Synthetic 2-cluster dataset for end-to-end checks and demos.

    Users are split evenly between two clusters and each cluster owns half of
    the items. Every user interacts with `items_per_user` consecutive items
    (a ring block within its own cluster, start position seeded-random), so
    interactions never cross clusters and item co-occurrence decays with ring
    distance. The block structure gives within-cluster collaborative signal:
    a held-out item is predictable from the rest of the user's block, while
    random embeddings rank it no better than chance.
    """
    if num_users % 2 or num_items % 2:
        raise ValueError("num_users and num_items must be even")
    half_items = num_items // 2
    if items_per_user > half_items:
        raise ValueError("items_per_user cannot exceed the per-cluster item count")
    users = np.arange(num_users)
    cluster = (users >= num_users // 2).astype(np.int64)
    starts = np.random.default_rng(seed).integers(half_items, size=num_users)
    offsets = np.arange(items_per_user)
    items = cluster[:, None] * half_items + (starts[:, None] + offsets) % half_items
    pairs = np.stack([np.repeat(users, items_per_user), items.ravel()], axis=1)
    return dataset_from_pairs(num_users, num_items, pairs)


def write_split_manifest(split: SplitDataset, path) -> None:
    """Write a JSON manifest recording seed, ratios, and per-part counts."""
    write_json(path, {
        "split_seed": split.split_seed,
        "ratios": list(DEFAULT_RATIOS),
        "num_users": split.num_users,
        "num_items": split.num_items,
        "interactions": {
            "train": split.train.num_interactions,
            "validation": split.validation.num_interactions,
            "test": split.test.num_interactions,
        },
    })
