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
    """Per-parameter Adam moments plus the shared step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


# perfbench/ wraps this by name and counts rows from its `grads`, argument 1
def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected Adam update, mutating params and state in place.

    Weight decay is decoupled: params shrink by (1 - lr * weight_decay)
    before the moment update. Raises on non-finite gradients.
    """
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite gradient; aborting the update")
    if weight_decay:
        params *= 1.0 - lr * weight_decay
    state.step_count += 1
    state.first_moment *= ADAM_BETA1
    state.first_moment += (1.0 - ADAM_BETA1) * grads
    state.second_moment *= ADAM_BETA2
    state.second_moment += (1.0 - ADAM_BETA2) * np.square(grads)
    correction1 = 1.0 - ADAM_BETA1 ** state.step_count
    correction2 = 1.0 - ADAM_BETA2 ** state.step_count
    m_hat = state.first_moment / correction1
    v_hat = state.second_moment / correction2
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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

    def apply_gradients(self, user_grad: np.ndarray, item_grad: np.ndarray) -> None:
        adam_step(self.user_table.values, user_grad, self.user_adam,
                  self.cfg.lr, self.cfg.weight_decay)
        adam_step(self.item_table.values, item_grad, self.item_adam,
                  self.cfg.lr, self.cfg.weight_decay)

    def snapshot(self) -> tuple[EmbeddingTable, EmbeddingTable]:
        return self.user_table.copy(), self.item_table.copy()


def _check_negatives_exist(split: SplitDataset, full_history: bool) -> None:
    """Raise where _sample_negatives could never accept a draw."""
    if split.num_items < 2:
        raise ValueError("the bpr objective needs at least 2 items to draw a negative, "
                         f"the catalog has {split.num_items}")
    saturated = np.flatnonzero(np.diff(split.train.user_indptr) >= split.num_items)
    if full_history and saturated.size:
        raise ValueError(f"user {int(saturated[0])} has every item in its training history, "
                         "so bpr_full_history_rejection can draw no negative for it")


def _sample_negatives(batch_items: np.ndarray, split: SplitDataset, user_ids: np.ndarray,
                      rng: np.random.Generator, full_history: bool) -> np.ndarray:
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


def _probe_diagnostics(state: TrainState, epoch: int, wall_time_s: float) -> EpochDiagnostics:
    all_users, all_items = state.encoder.encode_all(state.user_table, state.item_table)
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


def train_epoch(split: SplitDataset, state: TrainState, epoch_index: int) -> EpochDiagnostics:
    """Run one full pass over the training pairs under `state.cfg`; return probe diagnostics.

    epoch_index is 1-based and seeds both the batch shuffle and (for the
    ranking objective) the per-epoch negative draws. Every batch is one
    encode, one loss, one backward and one Adam update.
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
                item_ids, split, user_ids, negative_rng, cfg.bpr_full_history_rejection)])
        user_vecs, item_vecs = state.encoder.encode(state.user_table, state.item_table,
                                                    user_ids, item_ids)
        if weights is None:
            _, grad_users, *grad_pos_neg = losses.bpr_loss_and_gradient(
                user_vecs, *np.split(item_vecs, 2))
            grad_items = np.concatenate(grad_pos_neg)
        else:
            _, grad_users, grad_items = losses.rau_loss_and_gradient(user_vecs, item_vecs, weights)
        state.apply_gradients(*state.encoder.backward(user_ids, item_ids, grad_users, grad_items))
    return _probe_diagnostics(state, epoch_index, time.perf_counter() - started)


def fit(split: SplitDataset, cfg: TrainConfig) -> tuple[TrainReport, EmbeddingTable, EmbeddingTable]:
    """Train until max_epochs or until validation NDCG@K stops improving.

    "Stops improving" means no new best value for `patience` consecutive
    validation evaluations (run once per epoch). Returns the report plus the
    best-epoch tables; with fixed_epochs the validation part is ignored and
    the final tables are returned.
    """
    if not cfg.fixed_epochs and split.validation.num_interactions == 0:
        raise ValueError(
            "validation split is empty so early stopping is impossible; "
            "set fixed_epochs=True (CLI: --fixed-epochs) to train for max_epochs"
        )
    if cfg.objective == "bpr":
        _check_negatives_exist(split, cfg.bpr_full_history_rejection)
    started = time.perf_counter()
    state = TrainState(split, cfg)
    stopping_k = cfg.eval_k_for_stopping

    diagnostics: list[EpochDiagnostics] = []
    val_history: list[dict] = []
    best_val: dict | None = None
    best_metric = -np.inf
    best_epoch = 0
    best_tables = state.snapshot()
    epochs_without_improvement = 0
    epochs_run = 0

    for epoch in range(1, cfg.max_epochs + 1):
        diagnostics.append(train_epoch(split, state, epoch))
        epochs_run = epoch
        if cfg.fixed_epochs:
            continue
        all_users, all_items = state.encoder.encode_all(state.user_table, state.item_table)
        report = evaluate(split, all_users, all_items, ks=(stopping_k,),
                          part="validation", score_mode=cfg.score_mode)
        entry = {
            "epoch": epoch,
            f"recall@{stopping_k}": report.recall[stopping_k],
            f"ndcg@{stopping_k}": report.ndcg[stopping_k],
        }
        val_history.append(entry)
        metric = report.ndcg[stopping_k]
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_val = entry
            best_tables = state.snapshot()
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= cfg.patience:
                break

    if cfg.fixed_epochs:
        best_epoch = epochs_run
        best_tables = state.snapshot()

    report = TrainReport(
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        diagnostics=diagnostics,
        val_history=val_history,
        best_val=best_val,
        total_time_s=time.perf_counter() - started,
    )
    return report, best_tables[0], best_tables[1]


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
