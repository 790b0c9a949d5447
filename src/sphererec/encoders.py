"""The id-batch encoder: linear graph propagation, with plain lookup as K = 0.

The graph encoder stacks both embedding tables into one node matrix, applies
K rounds of symmetric-normalized neighborhood averaging over the training
bipartite graph, and outputs the mean of layers 0..K. `encode_all` (probe and
ranking) propagates the whole graph. A training batch needs layer k only on
the (K - k)-hop ball around its nodes, so `lightgcn_encode` multiplies only
those adjacency rows; propagation is linear and the adjacency symmetric, so
`lightgcn_backward` runs the same hops transposed, outward from the batch.
Both give the full-graph rows bit for bit (see `_frontiers`), and a training
step builds the balls and hops they walk once (`batch_frontiers`). With K = 0
the output is the raw tables, so the lookup ("mf") encoder is that case,
served by a plain gather without building the adjacency. Either backward
gives, per table, the rows the batch reaches and their gradient rows only.
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


def _checked_ids(ids, bound: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise ValueError(f"{what} out of range [0, {bound})")
    return ids


def mf_encode(table: EmbeddingTable, ids: np.ndarray) -> np.ndarray:
    """Gather table rows by id; ids may repeat."""
    return table.values[_checked_ids(ids, len(table.values), "id")]


# perfbench/ reads `grad_rows` and `num_rows` at positions 0 and 2
def scatter_rows(grad_rows: np.ndarray, ids: np.ndarray,
                 num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The table gradient of gathered rows, on the rows the ids touch only.

    Returns (rows, summed): the sorted unique ids, checked against
    `num_rows`, and one gradient row per id in `rows`. Repeated ids add into
    the same row from +0.0 in occurrence order, so each summed row has the
    bits of that row of a full-table scatter, whose other rows are zero.
    """
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    rows, where = np.unique(_checked_ids(ids, num_rows, "id"), return_inverse=True)
    summed = np.zeros((rows.size, grad_rows.shape[1]))
    np.add.at(summed, where, grad_rows)
    return rows, summed


def _check_adjacency(user_table: EmbeddingTable, item_table: EmbeddingTable,
                     adj: NormalizedAdjacency) -> None:
    if len(user_table.values) != adj.num_users or len(item_table.values) != adj.num_items:
        raise ValueError(
            f"adjacency built for {adj.num_users} users / {adj.num_items} items, "
            f"tables have {len(user_table.values)} / {len(item_table.values)}"
        )
    if user_table.values.shape[1] != item_table.values.shape[1]:
        raise ValueError("user and item tables must share one dimensionality")


def lightgcn_propagate(
    user_table: EmbeddingTable,
    item_table: EmbeddingTable,
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the stacked tables over the whole graph; return per-node layer means."""
    _check_adjacency(user_table, item_table, adj)
    acc = state = np.vstack([user_table.values, item_table.values])
    for _ in range(cfg.num_layers):
        state = adj.matrix @ state
        acc += state
    acc /= cfg.num_layers + 1
    return acc[:adj.num_users], acc[adj.num_users:]


def _batch_nodes(adj: NormalizedAdjacency, user_ids, item_ids):
    """Checked ids, the batch's sorted unique nodes and each id's position among them."""
    user_ids = _checked_ids(user_ids, adj.num_users, "user id")
    item_ids = _checked_ids(item_ids, adj.num_items, "item id")
    nodes, where = np.unique(np.concatenate([user_ids, adj.num_users + item_ids]),
                             return_inverse=True)
    return nodes, where[:user_ids.size], where[user_ids.size:]


def _frontiers(adj: NormalizedAdjacency, nodes: np.ndarray,
               depth: int) -> tuple[list[np.ndarray], list[sp.csr_matrix]]:
    """Growing node sets around `nodes` and the adjacency rows that link them.

    balls[0] is `nodes` and balls[j] adds the neighbours of balls[j - 1].
    hops[j] is the adjacency's rows balls[j] with each column renumbered to
    its position in balls[j + 1], which holds every non-zero of those rows.
    A row subset keeps each row's non-zeros in their stored (ascending
    column) order, so a product through hops[j], or through its transpose
    over ascending rows, adds the full product's terms in the same order and
    skips only +0.0 terms. Those leave a sum that starts at +0.0 unchanged, so
    every row it computes has the full product's bits.
    """
    balls, hops = [nodes], []
    reached = np.zeros(adj.size, dtype=bool)
    reached[nodes] = True
    for _ in range(depth):
        rows = adj.matrix[balls[-1]]
        reached[rows.indices] = True
        position = np.cumsum(reached) - 1
        balls.append(np.flatnonzero(reached))
        hops.append(sp.csr_matrix((rows.data, position[rows.indices], rows.indptr),
                                  shape=(rows.shape[0], balls[-1].size)))
    return balls, hops


def batch_frontiers(adj: NormalizedAdjacency, cfg: GraphEncoderConfig, user_ids, item_ids):
    """What `lightgcn_encode` and `lightgcn_backward` both build for one batch.

    Returns (nodes, user_pos, item_pos, balls, hops): the checked batch's
    sorted unique nodes, each id's position among them, and `_frontiers`
    around them to depth K. A training step builds them once and passes
    them to both; neither function writes to them.
    """
    nodes, user_pos, item_pos = _batch_nodes(adj, user_ids, item_ids)
    return (nodes, user_pos, item_pos, *_frontiers(adj, nodes, cfg.num_layers))


def lightgcn_encode(
    user_table: EmbeddingTable,
    item_table: EmbeddingTable,
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
    user_ids: np.ndarray,
    item_ids: np.ndarray,
    frontiers: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagated representations for the requested user and item ids.

    Layer K is computed only at the batch's nodes and layer k < K only on
    the (K - k)-hop ball around them, so each output row has the bits of
    `lightgcn_propagate`'s row for that node. `frontiers`, the
    `batch_frontiers` of the same ids, is built here when not given.
    """
    _check_adjacency(user_table, item_table, adj)
    if frontiers is None:
        frontiers = batch_frontiers(adj, cfg, user_ids, item_ids)
    nodes, user_pos, item_pos, balls, hops = frontiers
    outer = balls[-1]
    first_item = np.searchsorted(outer, adj.num_users)
    layer = np.concatenate([user_table.values[outer[:first_item]],
                            item_table.values[outer[first_item:] - adj.num_users]])
    acc = layer[np.searchsorted(outer, nodes)]
    for ball, hop in zip(balls[-2::-1], hops[::-1]):
        layer = hop @ layer
        acc += layer[np.searchsorted(ball, nodes)]
    acc /= cfg.num_layers + 1
    return acc[user_pos], acc[item_pos]


# perfbench/ reads `adj`, `cfg` and `grad_users` at positions 0, 1 and 4
def lightgcn_backward(
    adj: NormalizedAdjacency,
    cfg: GraphEncoderConfig,
    user_ids: np.ndarray,
    item_ids: np.ndarray,
    grad_users: np.ndarray,
    grad_items: np.ndarray,
    frontiers: tuple | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Gradient of lightgcn_encode outputs back to the raw tables, as (rows, grads) per table.

    The rows are the K-hop ball around the batch, outside which the gradient
    is zero. Sums the batch gradients onto the batch's nodes (repeated ids
    add, users before items), then applies the transpose propagation. The
    adjacency is symmetric, so round j is the transposed product through the
    forward's hop j - 1: it reads only the (j - 1)-hop ball, outside which
    the gradient is zero, and writes the j-hop ball. Each round is then added
    into the next, inner balls into outer ones; addition commutes, so every
    node sums its rounds in the full-graph order and gets the same bits.
    `frontiers` is as in `lightgcn_encode`.
    """
    if frontiers is None:
        frontiers = batch_frontiers(adj, cfg, user_ids, item_ids)
    nodes, user_pos, item_pos, balls, hops = frontiers
    grad = np.zeros((nodes.size, grad_users.shape[1]))
    np.add.at(grad, user_pos, grad_users)
    np.add.at(grad, item_pos, grad_items)
    rounds = [grad]
    for hop in hops:
        rounds.append(hop.T @ rounds[-1])
    for j in range(1, len(rounds)):
        rounds[j][np.searchsorted(balls[j], balls[j - 1])] += rounds[j - 1]
    acc = rounds[-1]
    acc /= cfg.num_layers + 1
    first_item = np.searchsorted(balls[-1], adj.num_users)
    return ((balls[-1][:first_item], acc[:first_item]),
            (balls[-1][first_item:] - adj.num_users, acc[first_item:]))


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

    def frontiers(self, user_ids: np.ndarray, item_ids: np.ndarray) -> tuple | None:
        """The batch's `batch_frontiers`, for one `encode` and `backward` pair; None for K = 0."""
        if self.adjacency is None:
            return None
        return batch_frontiers(self.adjacency, self.cfg, user_ids, item_ids)

    def encode(self, user_table: EmbeddingTable, item_table: EmbeddingTable,
               user_ids: np.ndarray, item_ids: np.ndarray,
               frontiers: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Representations of the requested user and item ids (ids may repeat)."""
        if self.adjacency is None:
            return mf_encode(user_table, user_ids), mf_encode(item_table, item_ids)
        return lightgcn_encode(user_table, item_table, self.adjacency, self.cfg,
                               user_ids, item_ids, frontiers)

    def backward(self, user_ids: np.ndarray, item_ids: np.ndarray, grad_users: np.ndarray,
                 grad_items: np.ndarray, frontiers: tuple | None = None) -> tuple[tuple, tuple]:
        """Table gradients from the gradients of an `encode` output, as (rows, grads) per side.

        `rows` are the rows the batch reaches, strictly increasing; other rows' gradients are 0.
        """
        if self.adjacency is None:
            return (scatter_rows(grad_users, user_ids, self.num_users),
                    scatter_rows(grad_items, item_ids, self.num_items))
        return lightgcn_backward(self.adjacency, self.cfg, user_ids, item_ids,
                                 grad_users, grad_items, frontiers)
