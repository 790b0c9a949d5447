"""The benchmark's workloads and its own seeded input generator.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from sphererec.losses import LossWeights
from sphererec.trainer import TrainConfig

# Every run, whatever its workload, goes through these wrapped functions.
COMMON_SPANS = (
    "data.load_interactions", "data.split_per_user", "data.epoch_batches",
    "trainer.init_xavier", "trainer.train_epoch", "trainer.fit", "trainer.adam_step",
    "trainer._probe_diagnostics", "evaluation.evaluate",
    "hypersphere.save_checkpoint", "hypersphere.load_checkpoint",
)
MF_RAU_SPANS = ("encoders.mf_encode", "encoders.scatter_rows", "losses.rau_loss_and_gradient")
LIGHTGCN_BPR_SPANS = (
    "encoders.build_norm_adjacency", "encoders.lightgcn_propagate",
    "encoders.lightgcn_backward", "losses.bpr_loss_and_gradient", "trainer._sample_negatives",
)


@dataclass(frozen=True)
class Workload:
    name: str
    num_users: int
    num_items: int
    items_per_user: int
    encoder: str
    objective: str
    batch_size: int
    # Wrapped functions the traced run must see called; see tracing.WRAPPED.
    spans: tuple[str, ...]

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            objective=self.objective,
            encoder=self.encoder,
            weights=LossWeights(alpha=0.5, beta=5.0, gamma_user=0.7, gamma_item=0.3),
            dim=64,
            lr=1e-2,
            batch_size=self.batch_size,
            max_epochs=1,
            weight_decay=1e-6,
            seed=seed,
            num_layers=2,
            fixed_epochs=True,
        )

    @property
    def score_mode(self) -> str:
        return "dot" if self.objective == "bpr" else "cosine"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mf-rau-catalog", 11_200, 6_050, 9, "mf", "rau", 256,
                 COMMON_SPANS + MF_RAU_SPANS),
        Workload("lightgcn-bpr-catalog", 11_200, 6_050, 9, "lightgcn", "bpr", 256,
                 COMMON_SPANS + LIGHTGCN_BPR_SPANS),
        Workload("mf-rau-bigbatch", 4_000, 2_000, 50, "mf", "rau", 1024,
                 COMMON_SPANS + MF_RAU_SPANS),
    )
}


def write_ring_block_tsv(workload: Workload, seed: int, path: Path) -> str:
    """Write the workload's two-cluster ring-block interactions; return their SHA-256.

    Users split evenly into two clusters and each cluster owns half of the
    catalog. A user interacts with `items_per_user` consecutive items of
    their own cluster's half, starting at a seeded position and wrapping
    round the ring. Ids are written as `u<n>` and `i<n>`, so the program sees
    only a text file and assigns its own indices when it loads it.
    """
    half_users, half_items = workload.num_users // 2, workload.num_items // 2
    users = np.arange(workload.num_users)
    cluster = (users >= half_users).astype(np.int64)
    starts = np.random.default_rng(seed).integers(half_items, size=workload.num_users)
    offsets = np.arange(workload.items_per_user)
    items = cluster[:, None] * half_items + (starts[:, None] + offsets) % half_items
    rows = zip(np.repeat(users, offsets.size).tolist(), items.ravel().tolist())
    lines = [f"u{u}\ti{i}" for u, i in rows]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return hashlib.sha256(payload).hexdigest()
