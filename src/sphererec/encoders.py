"""The id-batch encoder: linear graph propagation, with plain lookup as K = 0.

The graph encoder stacks both embedding tables into one node matrix, applies
K rounds of symmetric-normalized neighborhood averaging over the training
bipartite graph, and outputs the mean of layers 0..K. Propagation is linear,
so the backward pass is the same propagation applied to the scattered output
gradients (the adjacency is symmetric). With K = 0 the output is the raw
tables, so the lookup ("mf") encoder is that case, served by a plain gather
and scatter without building the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import InteractionDataset
from .hypersphere import EmbeddingTable

MAX_LAYERS = 8


# perfbench/ builds this to encode a loaded checkpoint and reads its num_layers
@dataclass(frozen=True)
class GraphEncoderConfig:
    """Number of propagation rounds K (0 disables propagation)."""

    num_layers: int = 2

    def __post_init__(self):
        if not 0 <= self.num_layers <= MAX_LAYERS:
            raise ValueError(f"num_layers must be in [0, {MAX_LAYERS}], got {self.num_layers}")


@dataclass(eq=False, frozen=True)
class NormalizedAdjacency:
    """Symmetric D^{-1/2} A D^{-1/2} over the user-item bipartite graph.

    Node order: users first, then items. Edge (u, i) carries weight
    1/sqrt(deg(u) * deg(i)); isolated nodes have empty rows.
    """

    num_users: int
    num_items: int
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:  # the node count perfbench/ reads; a scipy matrix's .size is its nnz
        return self.num_users + self.num_items


def build_norm_adjacency(train: InteractionDataset) -> NormalizedAdjacency:
    """Build the normalized adjacency from training interactions only."""
    users = train.interactions[:, 0]
    items = train.interactions[:, 1]
    user_deg = np.bincount(users, minlength=train.num_users)
    item_deg = np.bincount(items, minlength=train.num_items)
    weights = 1.0 / np.sqrt(user_deg[users] * item_deg[items])
    item_nodes = train.num_users + items
    rows = np.concatenate([users, item_nodes])
    cols = np.concatenate([item_nodes, users])
    data = np.concatenate([weights, weights])
    size = train.num_users + train.num_items
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()
    return NormalizedAdjacency(num_users=train.num_users, num_items=train.num_items, matrix=matrix)


def mf_encode(table: EmbeddingTable, ids: np.ndarray) -> np.ndarray:
    """Gather table rows by id; ids may repeat."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= len(table.values)):
        raise ValueError(f"id out of range [0, {len(table.values)})")
    return table.values[ids]


def scatter_rows(grad_rows: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Scatter batch-row gradients back into a full table gradient.

    Repeated ids accumulate additively into the same row.
    """
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    out = np.zeros((num_rows, grad_rows.shape[1]))
    np.add.at(out, np.asarray(ids, dtype=np.int64), grad_rows)
    return out


def _check_adjacency(user_table: EmbeddingTable, item_table: EmbeddingTable,
                     adj: NormalizedAdjacency) -> None:
    if len(user_table.values) != adj.num_users or len(item_table.values) != adj.num_items:
        raise ValueError(
            f"adjacency built for {adj.num_users} users / {adj.num_items} items, "
            f"tables have {len(user_table.values)} / {len(item_table.values)}"
        )
    if user_table.values.shape[1] != item_table.values.shape[1]:
        raise ValueError("user and item tables must share one dimensionality")


def _layer_mean(adj: NormalizedAdjacency, cfg: GraphEncoderConfig,
                state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of layers 0..K of a node matrix, split into user and item rows."""
    acc = state.copy()
    for _ in range(cfg.num_layers):
        state = adj.matrix @ state
        acc += state
    acc /= cfg.num_layers + 1
    return acc[:adj.num_users], acc[adj.num_users:]


def lightgcn_propagate(
    user_table: EmbeddingTable,
    item_table: EmbeddingTable,
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the stacked tables and return per-node layer-mean outputs."""
    _check_adjacency(user_table, item_table, adj)
    return _layer_mean(adj, cfg, np.vstack([user_table.values, item_table.values]))


def lightgcn_encode(
    user_table: EmbeddingTable,
    item_table: EmbeddingTable,
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
    user_ids: np.ndarray,
    item_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagated representations for the requested user and item ids."""
    all_users, all_items = lightgcn_propagate(user_table, item_table, adj, cfg)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if user_ids.size and (user_ids.min() < 0 or user_ids.max() >= adj.num_users):
        raise ValueError(f"user id out of range [0, {adj.num_users})")
    if item_ids.size and (item_ids.min() < 0 or item_ids.max() >= adj.num_items):
        raise ValueError(f"item id out of range [0, {adj.num_items})")
    return all_users[user_ids], all_items[item_ids]


def lightgcn_backward(
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
    user_ids: np.ndarray,
    item_ids: np.ndarray,
    grad_users: np.ndarray,
    grad_items: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of lightgcn_encode outputs back to the raw tables.

    Scatters the batch gradients onto the node matrix (repeated ids add),
    then applies the transpose propagation; the adjacency is symmetric so
    this reuses the forward loop.
    """
    dim = grad_users.shape[1]
    scattered = np.zeros((adj.size, dim))
    np.add.at(scattered, np.asarray(user_ids, dtype=np.int64), grad_users)
    np.add.at(scattered, adj.num_users + np.asarray(item_ids, dtype=np.int64), grad_items)
    return _layer_mean(adj, cfg, scattered)


class Encoder:
    """The encoder a run trains with, built once from its config and training part.

    "mf" is the graph encoder with K = 0; "lightgcn" uses `num_layers` rounds.
    With K = 0 every method takes the lookup path (mf_encode, scatter_rows)
    and no adjacency is built. The layer functions are looked up by module
    name at each call, so replacing them on the module reaches this class too.
    """

    def __init__(self, name: str, num_layers: int, train: InteractionDataset):
        self.cfg = GraphEncoderConfig(num_layers=num_layers if name == "lightgcn" else 0)
        self.num_users = train.num_users
        self.num_items = train.num_items
        self.adjacency = build_norm_adjacency(train) if self.cfg.num_layers else None

    def encode_all(self, user_table: EmbeddingTable,
                   item_table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
        """Representations of every user and every item."""
        if self.adjacency is None:
            return user_table.values, item_table.values
        return lightgcn_propagate(user_table, item_table, self.adjacency, self.cfg)

    def encode(self, user_table: EmbeddingTable, item_table: EmbeddingTable,
               user_ids: np.ndarray, item_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representations of the requested user and item ids (ids may repeat)."""
        if self.adjacency is None:
            return mf_encode(user_table, user_ids), mf_encode(item_table, item_ids)
        return lightgcn_encode(user_table, item_table, self.adjacency, self.cfg,
                               user_ids, item_ids)

    def backward(self, user_ids: np.ndarray, item_ids: np.ndarray, grad_users: np.ndarray,
                 grad_items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full-table gradients from the gradients of an `encode` output."""
        if self.adjacency is None:
            return (scatter_rows(grad_users, user_ids, self.num_users),
                    scatter_rows(grad_items, item_ids, self.num_items))
        return lightgcn_backward(self.adjacency, self.cfg, user_ids, item_ids,
                                 grad_users, grad_items)
