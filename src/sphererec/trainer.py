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

from . import ENCODERS, OBJECTIVES, claim_and_join, encoders, losses, thread_width
from .data import SplitDataset, epoch_batches
from .evaluation import evaluate
from .hypersphere import EmbeddingTable, init_xavier, l2_normalize, write_csv
from .losses import LossWeights

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step updates blocks of rows holding this many entries (at least one row): one
# kernel block (65536 entries, 512 KiB), so its two buffers are two workspace slots
ADAM_BLOCK_ENTRIES = losses.KERNEL_BLOCK_ROWS ** 2

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
    """Per-parameter Adam moments plus the step counter: all the optimizer's state.

    `adam_step`'s intermediates live in a `losses.Workspace`, so saving or
    restoring a state carries these three fields and nothing else.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


def _adam_block_rows(dim: int) -> int:
    return max(1, ADAM_BLOCK_ENTRIES // dim)


# perfbench/ wraps this by name and counts rows from its `grads`, argument 1
def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float,
    rows: np.ndarray,
    workspace: losses.Workspace,
) -> None:
    """One bias-corrected Adam update, mutating params and state in place.

    `grads` holds the gradient rows of `rows`, strictly increasing row ids
    (`encoders.Encoder.backward` gives both); every other row's gradient is
    zero. A dense gradient passes `np.arange(len(params))`.

    Weight decay is decoupled: params shrink by (1 - lr * weight_decay)
    before the moment update. Raises on non-finite gradients, before
    anything changes.

    The update runs over blocks of ADAM_BLOCK_ENTRIES entries, claimed one
    at a time by `sphererec.thread_width` threads (`claim_and_join`; at most
    half of `workspace`'s slots), the caller's among them. Each runs the
    whole update on its block's rows, with two workspace slots of its own
    for the block's intermediates, so no array the size of the table or of
    a block is allocated. The threads are joined before the call returns,
    and an exception raised in any of them is raised here.
    Decay, the moment decays and the step are dense; the gradient terms are
    added on the given rows only. Every entry goes through the same IEEE
    operations in the same order as the whole-table formula fed the
    scattered gradient, so the result is the same to the bit, whatever the
    number of threads. A row without a gradient skips only `m + 0.0` and
    `v + 0.0`, which return m and v unless they are -0.0. A moment that
    starts at +0.0 never becomes -0.0: a sum is -0.0 only if both terms
    are, and `m * beta` with beta > 0.5 (0.9 and 0.999 here) never rounds a
    non-zero m to zero, since even the smallest subnormal times beta rounds
    back to itself.
    """
    num_rows = params.shape[0]
    if rows.size and (rows[0] < 0 or rows[-1] >= num_rows or np.any(rows[1:] <= rows[:-1])):
        raise ValueError(f"rows must be strictly increasing ids in [0, {num_rows})")
    expected = (rows.size, params.shape[1])
    if grads.shape != expected:
        raise ValueError(f"shape mismatch: grads {grads.shape}, expected {expected}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite gradient; aborting the update")
    block = _adam_block_rows(params.shape[1])
    starts = range(0, num_rows, block)
    width = thread_width(min(len(starts), len(workspace.blocks) // 2))
    state.step_count += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step_count
    correction2 = 1.0 - ADAM_BETA2 ** state.step_count
    decay = 1.0 - lr * weight_decay
    edges = np.searchsorted(rows, range(0, num_rows + block, block)).tolist()
    offsets = rows % block

    def run_block(claimed: tuple[int, int, int], slots: np.ndarray) -> None:
        start, first, last = claimed
        stop = start + block
        touched, g = offsets[first:last], grads[first:last]
        p, m = params[start:stop], state.first_moment[start:stop]
        v = state.second_moment[start:stop]
        step, denom = (slot[:p.size].reshape(p.shape) for slot in slots)
        term = step[:g.shape[0]]
        p *= decay
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        m[touched] += np.multiply(1.0 - ADAM_BETA1, g, out=term)
        v[touched] += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=term), out=term)
        np.multiply(lr, np.divide(m, correction1, out=step), out=step)
        np.add(np.sqrt(np.divide(v, correction2, out=denom), out=denom), ADAM_EPS, out=denom)
        p -= np.divide(step, denom, out=step)

    claim_and_join(run_block, zip(starts, edges, edges[1:]),
                   [workspace.blocks[2 * n:2 * n + 2] for n in range(width)])


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
    """A fit's progress, filled in place by `fit_epoch`: the fit keeps no other record.

    `total_time_s` sums the state's set-up and every epoch's `fit_epoch`.
    """

    best_epoch: int = 0
    epochs_run: int = 0
    diagnostics: list[EpochDiagnostics] = field(default_factory=list)
    val_history: list[dict] = field(default_factory=list)
    best_val: dict | None = None
    total_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class TrainState:
    """The whole state of a fit, which `fit_epoch` advances by one epoch.

    It holds the node table (the user rows, then the item rows, each part
    drawn in place by `init_xavier`; a plain array that Adam updates in
    place) and its Adam state, the seeds, the encoder, the probe sample, the
    step workspace, the `report` of the epochs run and `best_table`, a copy
    of the node table at the report's best epoch (None until an epoch is
    kept, and always with fixed_epochs, whose result is the live table).
    The shuffle and negative generators are re-seeded from `[root, epoch]`
    every epoch, so no generator state is kept.

    Building a state checks that the split is trainable under `cfg`, so
    `fit_epoch` can advance every state there is.
    """

    def __init__(self, split: SplitDataset, cfg: TrainConfig):
        started = time.perf_counter()
        check_trainable(split, cfg)
        self.cfg = cfg
        root = np.random.SeedSequence(cfg.seed)
        user_seed, item_seed, probe_seed, shuffle_root, negative_root = (
            int(s) for s in root.generate_state(5)
        )
        self.node_table = np.empty((split.num_users + split.num_items, cfg.dim))
        for rows, seed in zip(encoders.split_nodes(self.node_table, split.num_users),
                              (user_seed, item_seed)):
            init_xavier(rows, seed)
        self.adam = AdamState.like(self.node_table)
        # one step's buffers (the loss's, Adam's and the probe's kernel blocks) for the whole
        # fit, with a lane for each kernel side run at once; bpr's loss takes none
        adam_blocks = -(-len(self.node_table) // _adam_block_rows(cfg.dim))
        self.workspace = losses.Workspace(0 if cfg.objective == "bpr" else cfg.batch_size,
                                          cfg.dim, 2 * thread_width(adam_blocks), thread_width(2))
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
        self.best_table: np.ndarray | None = None
        self.report = TrainReport(total_time_s=time.perf_counter() - started)


def check_trainable(split: SplitDataset, cfg: TrainConfig) -> None:
    """Raise ValueError where a fit of `split` under `cfg` could not run its epochs."""
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
        # full-history _sample_negatives could never accept a draw for a saturated user
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
    """Diagnostics of the probe sample, read from `encoded`, the node table's `encode_all`.

    The user and the item statistics run at once, on the workspace's lanes.
    """
    all_users, all_items = encoded
    pair_users = l2_normalize(all_users[state.probe_pair_users])
    pair_items = l2_normalize(all_items[state.probe_pair_items])
    (uniform_user, variance_user), (uniform_item, variance_item) = losses.on_lanes(
        lambda rows, lane: losses.uniformity_and_variance(rows, state.workspace, lane),
        [l2_normalize(all_users[state.probe_users]), l2_normalize(all_items[state.probe_items])],
        state.workspace)
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
    which `fit_epoch` ranks for validation; `wall_time_s` times the pass alone.

    epoch_index is 1-based and seeds both the batch shuffle and (for the
    ranking objective) the per-epoch negative draws. Every batch is one
    encode, one loss, one backward and one Adam update of the node table.
    """
    started = time.perf_counter()
    cfg = state.cfg
    weights = cfg.effective_weights()
    negative_rng = np.random.default_rng([state.negative_root, epoch_index])
    for batch in epoch_batches(split.train, cfg.batch_size, [state.shuffle_root, epoch_index]):
        user_ids, item_ids = batch.user_indices, batch.item_indices
        if weights is None:
            # bpr's drawn negatives join the positives as one item batch
            item_ids = np.concatenate([item_ids, _sample_negatives(
                item_ids, split, user_ids, negative_rng, state.train_keys)])
        frontiers = state.encoder.frontiers(user_ids, item_ids)
        user_vecs, item_vecs = state.encoder.encode(state.node_table, frontiers)
        if weights is None:
            _, grad_users, *grad_pos_neg = losses.bpr_loss_and_gradient(
                user_vecs, *np.split(item_vecs, 2))
            grad_items = np.concatenate(grad_pos_neg)
        else:
            _, grad_users, grad_items = losses.rau_loss_and_gradient(user_vecs, item_vecs, weights,
                                                                     state.workspace)
        rows, grads = state.encoder.backward(grad_users, grad_items, frontiers)
        adam_step(state.node_table, grads, state.adam, cfg.lr, cfg.weight_decay, rows,
                  state.workspace)
    wall_time_s = time.perf_counter() - started
    encoded = state.encoder.encode_all(state.node_table)
    return _probe_diagnostics(state, encoded, epoch_index, wall_time_s), encoded


def fit_epoch(split: SplitDataset, state: TrainState) -> bool:
    """Run the next epoch of `state`'s fit unless it has stopped; return whether one ran.

    The fit stops once max_epochs epochs have run, or once `patience`
    epochs have passed since the best one. The rule reads only the state,
    so a copy of the state goes on as the original would. An epoch is the
    `train_epoch` pass, then, unless fixed_epochs, validation NDCG@K and a
    copy of the node table when it beats the best so far (a tie does not).
    """
    started = time.perf_counter()
    cfg, report = state.cfg, state.report
    if report.epochs_run >= cfg.max_epochs or report.epochs_run - report.best_epoch >= cfg.patience:
        return False
    epoch = report.epochs_run + 1
    diag, encoded = train_epoch(split, state, epoch)
    report.diagnostics.append(diag)
    report.epochs_run = epoch
    if cfg.fixed_epochs:
        report.best_epoch = epoch
    else:
        k = cfg.eval_k_for_stopping
        metrics = evaluate(split, *encoded, ks=(k,), part="validation", score_mode=cfg.score_mode)
        entry = {"epoch": epoch, f"recall@{k}": metrics.recall[k], f"ndcg@{k}": metrics.ndcg[k]}
        report.val_history.append(entry)
        if entry[f"ndcg@{k}"] > (report.best_val[f"ndcg@{k}"] if report.best_val else -np.inf):
            report.best_epoch, report.best_val = epoch, entry
            state.best_table = state.node_table.copy()
    report.total_time_s += time.perf_counter() - started
    return True


def fit(split: SplitDataset, cfg: TrainConfig) -> tuple[TrainReport, EmbeddingTable, EmbeddingTable]:
    """Train until max_epochs or until validation NDCG@K stops improving.

    "Stops improving" means no new best value (a tie is none) for `patience`
    consecutive validation evaluations (run once per epoch). Returns the
    report plus the best-epoch tables; with fixed_epochs the validation part
    is ignored and the final tables are returned. The node table is split
    into the user and the item `EmbeddingTable` only here.
    """
    state = TrainState(split, cfg)
    while fit_epoch(split, state):
        pass
    # with fixed_epochs or max_epochs = 0 no epoch was kept, so the live table is copied;
    # each returned EmbeddingTable re-checks finiteness
    best = state.node_table.copy() if state.best_table is None else state.best_table
    return state.report, *map(EmbeddingTable, encoders.split_nodes(best, split.num_users))


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
