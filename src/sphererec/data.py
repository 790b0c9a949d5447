"""Interaction data: loading, id remapping, per-user splits, positive-pair batches.

Input files are UTF-8 text, TSV or CSV, with one interaction per line
(`raw_user_id<sep>raw_item_id[<sep>ignored...]`). TSV fields are separated
by any run of whitespace; CSV fields by commas, with the line and both id
fields stripped of surrounding whitespace. Fields after the second (ratings,
timestamps) are ignored: the interaction signal is binary. Blank and
whitespace-only lines, and lines whose first non-blank character is `#`, are
skipped. Lines may end in LF, CRLF or CR, the last one needs no line break,
and a leading UTF-8 byte-order mark is dropped. Raw ids get contiguous
indices in order of first appearance, users and items separately, and
duplicate (user, item) lines collapse to a single interaction. A line with
fewer than two fields, or an empty CSV id, raises ValueError naming its line
number.

The file is read in chunks of `_CHUNK_LINES` lines, each turned into an
int64 index array before the next is read, so the load holds one chunk of
text at a time, and its memory grows with the interactions by a few int64
arrays and with the distinct ids by one dict entry each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import filterfalse, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .hypersphere import write_json

DEFAULT_RATIOS = (0.8, 0.1, 0.1)
# load_interactions turns this many lines into an index array before reading more
_CHUNK_LINES = 4096
_INT64_MAX = np.iinfo(np.int64).max


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

    Pairs are de-duplicated and ordered by one sort of their int64 keys
    `user * num_items + item`, which is skipped when the keys already strictly
    increase (as in any part of a split). Raises ValueError on out-of-range
    indices, or, before reading the pairs, when `num_users * num_items` does
    not fit in int64.
    """
    key_space = int(num_users) * int(num_items)
    if key_space > _INT64_MAX:
        raise ValueError(f"num_users * num_items = {key_space} does not fit in int64")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    users, items = pairs[:, 0], pairs[:, 1]
    if pairs.shape[0] and (users.min() < 0 or users.max() >= num_users):
        raise ValueError("user index out of range [0, num_users)")
    if pairs.shape[0] and (items.min() < 0 or items.max() >= num_items):
        raise ValueError("item index out of range [0, num_items)")
    keys = users * num_items
    keys += items
    if not (keys[1:] > keys[:-1]).all():
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    # sorted keys group the items by user, ascending within each user
    interactions = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, num_items, out=(interactions[:, 0], interactions[:, 1]))
    del keys
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(interactions[:, 0], minlength=num_users), out=indptr[1:])
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        interactions=_freeze(interactions),
        user_indptr=_freeze(indptr),
        user_items=_freeze(interactions[:, 1].copy()),
    )


def _indices(raw_ids: list[str], index_of: dict[str, int]) -> list[int]:
    """Indices of `raw_ids`; ids not yet in `index_of` get the next ones, by first appearance."""
    fresh = list(filterfalse(index_of.__contains__, dict.fromkeys(raw_ids)))
    index_of.update(zip(fresh, range(len(index_of), len(index_of) + len(fresh))))
    return list(map(index_of.__getitem__, raw_ids))


def _line_error(lines: list[str], format: str) -> tuple[int, str]:
    """Offset and message of the first malformed line of a chunk that holds one."""
    for offset, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",") if format == "csv" else line.split()
        if len(fields) < 2:
            return offset, f"expected at least 2 fields, got {len(fields)}"
        if not fields[0].strip() or not fields[1].strip():
            return offset, "empty user or item id"
    raise AssertionError("the chunk holds no malformed line")


def _chunk_pairs(lines: list[str], format: str, user_ids: dict[str, int],
                 item_ids: dict[str, int]) -> np.ndarray | None:
    """The chunk's (user, item) index pairs as an (n, 2) int64 array; None if a line is malformed."""
    if format == "csv":
        rows = [line.split(",") for line in map(str.strip, lines) if line and line[0] != "#"]
    else:
        # whitespace splitting drops the same spaces as stripping first would
        rows = [fields for fields in map(str.split, lines) if fields and fields[0][0] != "#"]
    if rows and min(map(len, rows)) < 2:
        return None
    raw_users, raw_items = list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))
    if format == "csv":
        raw_users, raw_items = list(map(str.strip, raw_users)), list(map(str.strip, raw_items))
        if not (all(raw_users) and all(raw_items)):
            return None
    return np.array([_indices(raw_users, user_ids), _indices(raw_items, item_ids)],
                    dtype=np.int64).T


def load_interactions(path, format: str | None = None) -> InteractionDataset:
    """Load an interaction file and remap raw ids to contiguous indices.

    `format` is "tsv" (whitespace-separated) or "csv"; when None it is inferred
    from the file suffix (.csv -> csv, anything else -> tsv). The input rules
    are those of the module docstring. The file is read `_CHUNK_LINES` lines
    at a time, each chunk becoming an int64 index array before the next is
    read; a malformed line raises ValueError naming its line number.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "tsv"
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}: expected 'tsv' or 'csv'")

    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    chunks = []
    first_lineno = 1
    with path.open("r", encoding="utf-8-sig") as handle:
        try:
            while lines := list(islice(handle, _CHUNK_LINES)):
                pairs = _chunk_pairs(lines, format, user_ids, item_ids)
                if pairs is None:
                    offset, message = _line_error(lines, format)
                    raise ValueError(f"{path}:{first_lineno + offset}: {message}")
                chunks.append(pairs)
                first_lineno += len(lines)
        except UnicodeDecodeError as exc:
            # re-read on this path only; each byte that is not UTF-8 becomes one of U+DC80-DCFF
            text = path.read_bytes().decode("utf-8", "surrogateescape")
            head = text[:re.search("[\udc80-\udcff]", text).start()]
            line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")  # LF, CRLF, CR
            raise ValueError(f"{path}:{line}: not valid UTF-8") from exc

    if not user_ids:
        raise ValueError(f"{path}: no interactions found")
    pairs = np.concatenate(chunks)
    del chunks  # before de-duplicating, which holds the memory peak
    return dataset_from_pairs(len(user_ids), len(item_ids), pairs)


def _split_parts(ds: InteractionDataset, seed: int) -> np.ndarray:
    """Part of each pair of `ds` (0 train, 1 validation, 2 test); see split_per_user.

    A function of its own so that its temporaries are freed before the parts are built.
    """
    rng = np.random.default_rng(seed)
    counts = np.diff(ds.user_indptr)
    starts = ds.user_indptr[:-1]
    # where each user's j-th shuffled pair sits; shuffled[:0] keeps a pairless dataset valid
    shuffled = np.repeat(starts, counts)
    shuffled += np.concatenate([shuffled[:0],
                                *(rng.permutation(n) for n in counts[counts > 0].tolist())])
    # round() and np.rint both round half to even
    n_train = np.clip(np.rint(counts * DEFAULT_RATIOS[0]).astype(np.int64), 1, counts)
    n_val = np.minimum(np.rint(counts * DEFAULT_RATIOS[1]).astype(np.int64), counts - n_train)
    short = counts < 3
    n_train[short], n_val[short] = counts[short], 0
    rank = np.arange(ds.num_interactions)  # rank j of user u sits at starts[u] + j
    part_of = np.empty(ds.num_interactions, dtype=np.int8)
    part_of[shuffled] = ((rank >= np.repeat(starts + n_train, counts)).view(np.int8)
                         + (rank >= np.repeat(starts + n_train + n_val, counts)))
    return part_of


def split_per_user(ds: InteractionDataset, seed: int = 0) -> SplitDataset:
    """Shuffle each user's interactions with a seeded generator and split them.

    Per user, counts are round(0.8 n) train / round(0.1 n) validation /
    remainder test (DEFAULT_RATIOS), clamped so train keeps at least one
    interaction; users with fewer than 3 interactions go entirely to train.
    The three parts are disjoint and their union is the source set.

    Each non-empty user, in user order, takes one `rng.permutation(n)` of its
    pairs: the pair at the j-th shuffled position goes to train when
    j < n_train, to validation when j < n_train + n_val, else to test.
    """
    part_of = _split_parts(ds, seed)
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
