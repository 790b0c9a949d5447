"""End-to-end training: Adam on embedding tables with early stopping.

One epoch is a full shuffled pass over the training pairs. After each epoch
the model is scored on the validation part (NDCG@K for stopping) and
hypersphere diagnostics (alignment, per-entity uniformity, kernel variance)
are computed on a fixed seeded probe sample so curves stay comparable across
epochs without the O(N^2) cost of all-pairs statistics.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import encoders, losses
from .data import SplitDataset, epoch_batches
from .evaluation import evaluate
from .hypersphere import EmbeddingTable, init_xavier, l2_normalize, write_csv
from .losses import LossWeights

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step updates blocks of rows holding this many entries (at least one row), so
# the two halves of a float64 scratch take 256 KiB and a block's work stays in cache
ADAM_BLOCK_ENTRIES = 16384

OBJECTIVES = ("rau", "directau", "bpr")
ENCODERS = ("mf", "lightgcn")

PROBE_LIMIT = 2048
DIRECTAU_WEIGHTS = LossWeights(alpha=0.0, beta=0.0, gamma_user=0.5, gamma_item=0.5)
# the types each annotation accepts: a float field takes an int too, so a JSON "lr": 1
# keeps its run hash; a bool, though an int subclass, fits only a bool field
_ACCEPTED_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _check_type(name: str, value, type_name: str) -> None:
    if (isinstance(value, bool) != (type_name == "bool")
            or not isinstance(value, _ACCEPTED_TYPES[type_name])):
        raise ValueError(f"{name} must be of type {type_name}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "rau"
    encoder: str = "mf"
    weights: LossWeights = field(default_factory=LossWeights)
    dim: int = 64
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    weight_decay: float = 1e-6
    seed: int = 0
    eval_k_for_stopping: int = 20
    num_layers: int = 2
    fixed_epochs: bool = False
    bpr_full_history_rejection: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type in _ACCEPTED_TYPES:
                _check_type(f.name, getattr(self, f.name), f.type)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        # lr == 0 is allowed: it freezes the tables, useful for no-op smoke runs
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.lr * self.weight_decay >= 1:  # Adam's decay factor 1 - lr * weight_decay
            raise ValueError(f"lr * weight_decay must be below 1, got {self.lr} * "
                             f"{self.weight_decay}: the decoupled decay would zero or flip "
                             "the tables")
        for name, least in (("dim", 2), ("seed", 0), ("max_epochs", 0), ("patience", 1),
                            ("batch_size", 2), ("eval_k_for_stopping", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        encoders.GraphEncoderConfig(num_layers=self.num_layers)  # raises when out of range

    @property
    def score_mode(self) -> str:
        """How `evaluate` scores this model: raw dot products for bpr, cosine otherwise."""
        return "dot" if self.objective == "bpr" else "cosine"

    def effective_weights(self) -> LossWeights | None:
        """Loss weights after objective resolution.

        The directau objective pins alpha = beta = 0 and gamma = (0.5, 0.5);
        bpr uses no hypersphere weights at all.
        """
        if self.objective == "rau":
            return self.weights
        if self.objective == "directau":
            return DIRECTAU_WEIGHTS
        return None

    def to_dict(self) -> dict:
        """Flat field dict in declaration order, the weights spliced in where they sit."""
        flat = {}
        for name, value in asdict(self).items():
            flat.update(value if name == "weights" else {name: value})
        return flat

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        """Inverse of to_dict; absent keys take their defaults.

        A `dataset` key (the run's data file) is skipped; any other key that
        is not a config field raises ValueError, as does a weight that is not
        an int or a float. Weights are stored as floats, so `"beta": 5` and
        `"beta": 5.0` give the same config.
        """
        unknown = sorted(payload.keys() - cls().to_dict().keys() - {"dataset"})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        weight_fields = [f for f in fields(LossWeights) if f.name in payload]
        for f in weight_fields:
            _check_type(f.name, payload[f.name], f.type)
        weights = LossWeights(**{f.name: float(payload[f.name]) for f in weight_fields})
        known = {f.name: payload[f.name] for f in fields(cls)
                 if f.name != "weights" and f.name in payload}
        return cls(weights=weights, **known)


@dataclass(eq=False)
class AdamState:
    """Per-parameter Adam moments plus the shared step counter.

    `scratch` is a work buffer for `adam_step`'s intermediates, not optimizer
    state: its contents mean nothing between steps, so saving or restoring a
    state carries only the two moments and `step_count`.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.first_moment.shape[1]
        rows = max(1, ADAM_BLOCK_ENTRIES // dim)
        self.scratch = np.empty((2, rows, dim), dtype=self.first_moment.dtype)

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


# perfbench/ wraps this by name and counts rows from its `grads`, argument 1
def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float,
    rows: np.ndarray,
) -> None:
    """One bias-corrected Adam update, mutating params and state in place.

    `grads` holds the gradient rows of `rows`, strictly increasing row ids
    (`encoders.Encoder.backward` gives both); every other row's gradient is
    zero. A dense gradient passes `np.arange(len(params))`.

    Weight decay is decoupled: params shrink by (1 - lr * weight_decay)
    before the moment update. Raises on non-finite gradients, before
    anything changes.

    The update runs over blocks of rows, each block's intermediates written
    into `state.scratch`, so no array the size of the table is allocated.
    Decay, the moment decays and the step are dense; the gradient terms are
    added on the given rows only. Every entry goes through the same IEEE
    operations in the same order as the whole-table formula fed the
    scattered gradient, so the result is the same to the bit. A row without
    a gradient skips only `m + 0.0` and `v + 0.0`, which return m and v
    unless they are -0.0. A moment that starts at +0.0 never becomes -0.0:
    a sum is -0.0 only if both terms are, and `m * beta` with beta > 0.5 (0.9
    and 0.999 here) never rounds a non-zero m to zero, since even the
    smallest subnormal times beta rounds back to itself.
    """
    num_rows = params.shape[0]
    if rows.size and (rows[0] < 0 or rows[-1] >= num_rows or np.any(rows[1:] <= rows[:-1])):
        raise ValueError(f"rows must be strictly increasing ids in [0, {num_rows})")
    expected = (rows.size, params.shape[1])
    if grads.shape != expected:
        raise ValueError(f"shape mismatch: grads {grads.shape}, expected {expected}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite gradient; aborting the update")
    state.step_count += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step_count
    correction2 = 1.0 - ADAM_BETA2 ** state.step_count
    decay = 1.0 - lr * weight_decay
    block = state.scratch.shape[1]
    edges = np.searchsorted(rows, range(0, num_rows + block, block)).tolist()
    offsets = rows % block
    for start, first, last in zip(range(0, num_rows, block), edges, edges[1:]):
        stop = start + block
        touched, g = offsets[first:last], grads[first:last]
        p, m = params[start:stop], state.first_moment[start:stop]
        v = state.second_moment[start:stop]
        step, denom = state.scratch[:, :p.shape[0]]
        p *= decay
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        term = step[:g.shape[0]]
        m[touched] += np.multiply(1.0 - ADAM_BETA1, g, out=term)
        v[touched] += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=term), out=term)
        np.multiply(lr, np.divide(m, correction1, out=step), out=step)
        np.add(np.sqrt(np.divide(v, correction2, out=denom), out=denom), ADAM_EPS, out=denom)
        p -= np.divide(step, denom, out=step)


@dataclass(frozen=True)
class EpochDiagnostics:
    epoch: int
    align: float
    uniform_user: float
    uniform_item: float
    kernel_variance_user: float
    kernel_variance_item: float
    wall_time_s: float


@dataclass
class TrainReport:
    best_epoch: int
    epochs_run: int
    diagnostics: list[EpochDiagnostics]
    val_history: list[dict]
    best_val: dict | None
    total_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


class TrainState:
    """Mutable model state threaded through the epoch loop."""

    def __init__(self, split: SplitDataset, cfg: TrainConfig):
        self.cfg = cfg
        root = np.random.SeedSequence(cfg.seed)
        user_seed, item_seed, probe_seed, shuffle_root, negative_root = (
            int(s) for s in root.generate_state(5)
        )
        self.user_table = init_xavier(split.num_users, cfg.dim, user_seed)
        self.item_table = init_xavier(split.num_items, cfg.dim, item_seed)
        self.user_adam = AdamState.like(self.user_table.values)
        self.item_adam = AdamState.like(self.item_table.values)
        self.shuffle_root = shuffle_root
        self.negative_root = negative_root
        self.encoder = encoders.Encoder(cfg.encoder, cfg.num_layers, split.train)
        # the full-history negative sampler looks its draws up here; built once per fit
        full_history = cfg.objective == "bpr" and cfg.bpr_full_history_rejection
        self.train_keys = _train_keys(split) if full_history else None

        probe_rng = np.random.default_rng(probe_seed)
        n_pairs = split.train.num_interactions
        pair_pick = probe_rng.permutation(n_pairs)[:min(PROBE_LIMIT, n_pairs)]
        probe_pairs = split.train.interactions[np.sort(pair_pick)]
        self.probe_pair_users = probe_pairs[:, 0].copy()
        self.probe_pair_items = probe_pairs[:, 1].copy()
        self.probe_users = np.sort(
            probe_rng.permutation(split.num_users)[:min(PROBE_LIMIT, split.num_users)]
        )
        self.probe_items = np.sort(
            probe_rng.permutation(split.num_items)[:min(PROBE_LIMIT, split.num_items)]
        )


def _check_negatives_exist(split: SplitDataset) -> None:
    """Raise where full-history _sample_negatives could never accept a draw."""
    saturated = np.flatnonzero(np.diff(split.train.user_indptr) >= split.num_items)
    if saturated.size:
        raise ValueError(f"user {int(saturated[0])} has every item in its training history, "
                         "so bpr_full_history_rejection can draw no negative for it")


def _train_keys(split: SplitDataset) -> frozenset[int]:
    """`user * num_items + item` of every training pair, as a set of Python ints."""
    pairs = split.train.interactions
    return frozenset((pairs[:, 0] * split.num_items + pairs[:, 1]).tolist())


def _sample_negatives(batch_items: np.ndarray, split: SplitDataset, user_ids: np.ndarray,
                      rng: np.random.Generator, train_keys: frozenset[int] | None) -> np.ndarray:
    """One uniform negative per pair, redrawn while it is the positive or (given `train_keys`,
    from `_train_keys`) any training item of the user; values and final rng state equal
    drawing pair by pair.

    Every pair's first draw comes from one call and is checked in one pass. The pairs
    before the first rejected draw keep theirs; from that pair on, the pairs take the
    remaining draws in order, one Python step per draw, and when the draws run out every
    pair still open needs at least one more, so that many are drawn in one call. A
    rejection thus costs one set lookup, not a pass over the rest of the batch.
    """
    num_items, size = split.num_items, batch_items.shape[0]
    negatives = rng.integers(num_items, size=size)
    rejected = negatives == batch_items
    if train_keys is not None:
        keys = (user_ids * num_items + negatives).tolist()
        rejected |= np.fromiter(map(train_keys.__contains__, keys), dtype=bool, count=size)
    if not rejected.any():
        return negatives
    first = int(np.argmax(rejected))
    draws, next_draw = negatives[first:].tolist(), 0  # the unused draws, one per open pair
    accepted = []
    for pair, positive, user in zip(range(first, size), batch_items[first:].tolist(),
                                    user_ids[first:].tolist()):
        while True:
            if next_draw == len(draws):
                draws, next_draw = rng.integers(num_items, size=size - pair).tolist(), 0
            negative = draws[next_draw]
            next_draw += 1
            if negative != positive and (train_keys is None
                                         or user * num_items + negative not in train_keys):
                break
        accepted.append(negative)
    negatives[first:] = accepted
    return negatives


def _probe_diagnostics(state: TrainState, encoded: tuple[np.ndarray, np.ndarray], epoch: int,
                       wall_time_s: float) -> EpochDiagnostics:
    """Diagnostics of the probe sample, read from `encoded`, the tables' `encode_all`."""
    all_users, all_items = encoded
    pair_users = l2_normalize(all_users[state.probe_pair_users])
    pair_items = l2_normalize(all_items[state.probe_pair_items])
    uniform_user, variance_user = losses.uniformity_and_variance(
        l2_normalize(all_users[state.probe_users]))
    uniform_item, variance_item = losses.uniformity_and_variance(
        l2_normalize(all_items[state.probe_items]))
    return EpochDiagnostics(
        epoch=epoch,
        align=losses.align_loss(pair_users, pair_items),
        uniform_user=uniform_user,
        uniform_item=uniform_item,
        kernel_variance_user=variance_user,
        kernel_variance_item=variance_item,
        wall_time_s=wall_time_s,
    )


def train_epoch(split: SplitDataset, state: TrainState,
                epoch_index: int) -> tuple[EpochDiagnostics, tuple[np.ndarray, np.ndarray]]:
    """Run one full pass over the training pairs under `state.cfg`.

    Returns the probe diagnostics and the encoded full tables after the pass,
    which `fit` ranks for validation; `wall_time_s` times the pass alone.

    epoch_index is 1-based and seeds both the batch shuffle and (for the
    ranking objective) the per-epoch negative draws. Every batch is one
    encode, one loss, one backward and one Adam update.
    """
    started = time.perf_counter()
    cfg = state.cfg
    weights = cfg.effective_weights()
    negative_rng = np.random.default_rng([state.negative_root, epoch_index])
    tables = (state.user_table, state.user_adam), (state.item_table, state.item_adam)
    for batch in epoch_batches(split.train, cfg.batch_size, [state.shuffle_root, epoch_index]):
        user_ids, item_ids = batch.user_indices, batch.item_indices
        if weights is None:
            # bpr's drawn negatives join the positives as one item batch
            item_ids = np.concatenate([item_ids, _sample_negatives(
                item_ids, split, user_ids, negative_rng, state.train_keys)])
        frontiers = state.encoder.frontiers(user_ids, item_ids)
        user_vecs, item_vecs = state.encoder.encode(state.user_table, state.item_table,
                                                    user_ids, item_ids, frontiers)
        if weights is None:
            _, grad_users, *grad_pos_neg = losses.bpr_loss_and_gradient(
                user_vecs, *np.split(item_vecs, 2))
            grad_items = np.concatenate(grad_pos_neg)
        else:
            _, grad_users, grad_items = losses.rau_loss_and_gradient(user_vecs, item_vecs, weights)
        table_grads = state.encoder.backward(user_ids, item_ids, grad_users, grad_items, frontiers)
        for (table, adam), (rows, grad) in zip(tables, table_grads):
            adam_step(table.values, grad, adam, cfg.lr, cfg.weight_decay, rows)
    wall_time_s = time.perf_counter() - started
    encoded = state.encoder.encode_all(state.user_table, state.item_table)
    return _probe_diagnostics(state, encoded, epoch_index, wall_time_s), encoded


def fit(split: SplitDataset, cfg: TrainConfig) -> tuple[TrainReport, EmbeddingTable, EmbeddingTable]:
    """Train until max_epochs or until validation NDCG@K stops improving.

    "Stops improving" means no new best value (a tie is none) for `patience`
    consecutive validation evaluations (run once per epoch). Returns the
    report plus the best-epoch tables; with fixed_epochs the validation part
    is ignored and the final tables are returned.
    """
    if not cfg.fixed_epochs and split.validation.num_interactions == 0:
        raise ValueError(
            "validation split is empty so early stopping is impossible; "
            "set fixed_epochs=True (CLI: --fixed-epochs) to train for max_epochs"
        )
    if split.num_users < 2 or split.num_items < 2:
        raise ValueError("training needs at least 2 users and at least 2 items (the probe "
                         "compares distinct rows of each table, bpr draws a negative item), "
                         f"the split has {split.num_users} users and {split.num_items} items")
    if cfg.objective == "bpr" and cfg.bpr_full_history_rejection:
        _check_negatives_exist(split)
    started = time.perf_counter()
    state = TrainState(split, cfg)
    stopping_k = cfg.eval_k_for_stopping
    ndcg_key = f"ndcg@{stopping_k}"

    diagnostics: list[EpochDiagnostics] = []
    val_history: list[dict] = []
    best_epoch, best_val, best_tables = 0, None, None
    for epoch in range(1, cfg.max_epochs + 1):
        diag, encoded = train_epoch(split, state, epoch)
        diagnostics.append(diag)
        if cfg.fixed_epochs:
            best_epoch = epoch
            continue
        report = evaluate(split, *encoded, ks=(stopping_k,),
                          part="validation", score_mode=cfg.score_mode)
        entry = {
            "epoch": epoch,
            f"recall@{stopping_k}": report.recall[stopping_k],
            ndcg_key: report.ndcg[stopping_k],
        }
        val_history.append(entry)
        if entry[ndcg_key] > (best_val[ndcg_key] if best_val else -np.inf):
            best_epoch, best_val = epoch, entry
            best_tables = state.user_table.copy(), state.item_table.copy()
        elif epoch - best_epoch >= cfg.patience:
            break

    # with fixed_epochs or max_epochs = 0 no epoch was kept: copy() re-checks finiteness
    user_table, item_table = best_tables or (state.user_table.copy(), state.item_table.copy())
    return TrainReport(
        best_epoch=best_epoch,
        epochs_run=len(diagnostics),
        diagnostics=diagnostics,
        val_history=val_history,
        best_val=best_val,
        total_time_s=time.perf_counter() - started,
    ), user_table, item_table


def write_diagnostics_csv(report: TrainReport, path, stopping_k: int) -> None:
    """One CSV row per epoch: probe diagnostics plus validation metrics.

    Wall-clock timings stay in the JSON report only, so identical seeded runs
    produce byte-identical CSVs.
    """
    diag_columns = [f.name for f in fields(EpochDiagnostics) if f.name != "wall_time_s"]
    val_columns = [f"recall@{stopping_k}", f"ndcg@{stopping_k}"]
    val_by_epoch = {entry["epoch"]: entry for entry in report.val_history}
    # an epoch without a validation entry (fixed_epochs) gets empty cells
    write_csv(path, diag_columns + [f"val_{c}" for c in val_columns],
              [[getattr(diag, c) for c in diag_columns]
               + [val_by_epoch.get(diag.epoch, {}).get(c) for c in val_columns]
               for diag in report.diagnostics])
