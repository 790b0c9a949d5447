"""The id-batch encoder: linear graph propagation, with plain lookup as K = 0.

The encoder reads one node matrix: the user rows, then the item rows
(`stack_nodes`, `split_nodes`; no other module knows this layout). The graph
encoder applies K rounds of symmetric-normalized neighborhood averaging over
the training bipartite graph to it and outputs the mean of layers 0..K. A
batch needs layer k only on the (K - k)-hop ball around its nodes, so
`lightgcn_encode` multiplies only those adjacency rows; propagation is
linear and the adjacency symmetric, so `lightgcn_backward` runs the same hops
transposed, outward from the batch. Both give, bit for bit, the rows of the
full-graph formula, whose every round multiplies the whole node matrix (see
`_frontiers`). A training step builds the balls and hops they walk once
(`batch_frontiers`); `encode_all` (probe and ranking) is the same forward
over every node. With K = 0 the output is the raw node matrix, so the lookup
("mf") encoder is that case, served by a plain gather without building the
adjacency. Either backward gives the node rows the batch reaches and their
gradient rows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import InteractionDataset
from .hypersphere import EmbeddingTable

MAX_LAYERS = 8
# rows of the last propagation round that `lightgcn_encode` multiplies at once
PROPAGATE_BLOCK_ROWS = 1024


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


def _add_rows(out: np.ndarray, where: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(out, where, values)`, with its bits: each row adds its values in order.

    A stable argsort of `where` lists every target row's occurrences in
    order; pass k adds the k-th occurrence of every target row in one
    fancy-index add, in which no row repeats. So each row adds its values to
    what `out` holds (+0.0 for a zeroed `out`, which turns a -0.0 value into
    +0.0 as `np.add.at` does) in the order they come.
    """
    order = np.argsort(where, kind="stable")
    grouped = where[order]
    position = np.arange(grouped.size)
    starts = np.ones(grouped.size, dtype=bool)
    starts[1:] = grouped[1:] != grouped[:-1]
    occurrence = position - np.maximum.accumulate(np.where(starts, position, 0))
    by_pass = order[np.argsort(occurrence, kind="stable")]
    ends = np.cumsum(np.bincount(occurrence)).tolist()
    for start, stop in zip([0] + ends, ends):
        take = by_pass[start:stop]
        out[where[take]] += values[take]


# perfbench/ reads `grad_rows` and `num_rows` at positions 0 and 2
def scatter_rows(grad_rows: np.ndarray, ids: np.ndarray,
                 num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The table gradient of gathered rows, on the rows the ids touch only.

    Returns (rows, summed): the sorted unique ids, checked against
    `num_rows`, and one gradient row per id in `rows`. Repeated ids add into
    the same row from +0.0 in occurrence order (`_add_rows`), so each summed
    row has the bits of that row of a full-table scatter, whose other rows
    are zero.
    """
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    rows, where = np.unique(_checked_ids(ids, num_rows, "id"), return_inverse=True)
    summed = np.zeros((rows.size, grad_rows.shape[1]))
    _add_rows(summed, where, grad_rows)
    return rows, summed


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


def _node_ids(user_ids, item_ids, num_users: int, num_items: int):
    """The batch's ids, each checked against its side's count, as node ids (items follow users)."""
    return (_checked_ids(user_ids, num_users, "user id"),
            num_users + _checked_ids(item_ids, num_items, "item id"))


def stack_nodes(user_table: EmbeddingTable, item_table: EmbeddingTable,
                num_users: int, num_items: int) -> EmbeddingTable:
    """The node table of a user and an item table: the user rows, then the item rows.

    Raises ValueError unless the tables have `num_users` and `num_items`
    rows (the training part's, which the graph is built from) of one
    dimensionality.
    """
    if len(user_table.values) != num_users or len(item_table.values) != num_items:
        raise ValueError(f"tables have {len(user_table.values)} users / {len(item_table.values)} "
                         f"items, the training part has {num_users} / {num_items}")
    if user_table.values.shape[1] != item_table.values.shape[1]:
        raise ValueError("user and item tables must share one dimensionality")
    return EmbeddingTable(np.concatenate([user_table.values, item_table.values]))


def split_nodes(node_rows: np.ndarray, num_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows over every node, as views of the user rows and of the item rows."""
    return node_rows[:num_users], node_rows[num_users:]


def batch_frontiers(adj: NormalizedAdjacency, cfg: GraphEncoderConfig, user_ids, item_ids):
    """What `lightgcn_encode` and `lightgcn_backward` both build for one batch.

    Returns (nodes, user_pos, item_pos, balls, hops): the checked batch's
    sorted unique nodes, each id's position among them, and `_frontiers`
    around them to depth K. A training step builds them once and passes
    them to both; neither function writes to them.
    """
    user_nodes, item_nodes = _node_ids(user_ids, item_ids, adj.num_users, adj.num_items)
    nodes, where = np.unique(np.concatenate([user_nodes, item_nodes]), return_inverse=True)
    return (nodes, where[:user_nodes.size], where[user_nodes.size:],
            *_frontiers(adj, nodes, cfg.num_layers))


def _every_node(adj: NormalizedAdjacency, cfg: GraphEncoderConfig) -> tuple:
    """`batch_frontiers` of the batch of every user, then every item, once each.

    The ids' positions are slices, so `lightgcn_encode` returns views of its
    mean instead of copies.
    """
    nodes = np.arange(adj.size)
    return (nodes, slice(0, adj.num_users), slice(adj.num_users, None),
            *_frontiers(adj, nodes, cfg.num_layers))


def lightgcn_encode(node_matrix: np.ndarray, cfg: GraphEncoderConfig,
                    frontiers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Propagated representations of a batch's user and item ids, from the node matrix.

    `frontiers` is the batch's `batch_frontiers`. Layer K is computed only
    at the batch's nodes and layer k < K only on the (K - k)-hop ball around
    them, so each output row has the bits of that node's row of the
    full-graph formula. A ball of every node reads `node_matrix` as it is, a
    ball that is the batch adds into the mean without a gather, and layer K
    is added a block of PROPAGATE_BLOCK_ROWS rows at a time; so the encode
    of every node holds the mean and one whole layer, not two.
    """
    batch, user_pos, item_pos, balls, hops = frontiers
    outer = balls[-1]
    layer = node_matrix if outer.size == len(node_matrix) else node_matrix[outer]
    acc = layer[np.searchsorted(outer, batch)]
    for ball, hop in zip(balls[-2:0:-1], hops[:0:-1]):
        layer = hop @ layer
        acc += layer if ball.size == batch.size else layer[np.searchsorted(ball, batch)]
    for start in range(0, batch.size if hops else 0, PROPAGATE_BLOCK_ROWS):
        block = slice(start, start + PROPAGATE_BLOCK_ROWS)
        acc[block] += hops[0][block] @ layer  # layer K's rows are the batch's, in order
    acc /= cfg.num_layers + 1
    return acc[user_pos], acc[item_pos]


# perfbench/ calls and wraps this by name and reads `cfg` at position 3
def lightgcn_propagate(user_table: EmbeddingTable, item_table: EmbeddingTable,
                       adj: NormalizedAdjacency,
                       cfg: GraphEncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every user's and every item's representation of two tables from outside a fit.

    `lightgcn_encode` over every node of their `stack_nodes`, which checks
    the tables against the adjacency.
    """
    node_table = stack_nodes(user_table, item_table, adj.num_users, adj.num_items)
    return lightgcn_encode(node_table.values, cfg, _every_node(adj, cfg))


# perfbench/ wraps this with this signature and reads `adj`, `cfg` and `grad_users` at
# positions 0, 1 and 4; the batch comes from `frontiers`, so the ids are not read
def lightgcn_backward(adj: NormalizedAdjacency, cfg: GraphEncoderConfig, user_ids, item_ids,
                      grad_users: np.ndarray, grad_items: np.ndarray,
                      frontiers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of lightgcn_encode outputs back to the node matrix, as (rows, grads).

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
    batch, user_pos, item_pos, balls, hops = frontiers
    grad = np.zeros((batch.size, grad_users.shape[1]))
    _add_rows(grad, user_pos, grad_users)
    _add_rows(grad, item_pos, grad_items)
    rounds = [grad]
    for hop in hops:
        rounds.append(hop.T @ rounds[-1])
    for j in range(1, len(rounds)):
        rounds[j][np.searchsorted(balls[j], balls[j - 1])] += rounds[j - 1]
    acc = rounds[-1]
    acc /= cfg.num_layers + 1
    return balls[-1], acc


class Encoder:
    """The encoder a run trains with, built once from its config and training part.

    "mf" is the graph encoder with K = 0; "lightgcn" uses `num_layers` rounds.
    With K = 0 every method takes the lookup path (mf_encode, scatter_rows)
    and no adjacency is built. Every method reads or returns rows of the
    node table (`stack_nodes`). The layer functions are looked up by module
    name at each call, so replacing them on the module reaches this class too.
    """

    def __init__(self, name: str, num_layers: int, train: InteractionDataset):
        self.cfg = GraphEncoderConfig(num_layers=num_layers if name == "lightgcn" else 0)
        self.num_users = train.num_users
        self.num_items = train.num_items
        self.adjacency = build_norm_adjacency(train) if self.cfg.num_layers else None

    def encode_all(self, node_table: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
        """Representations of every user and every item."""
        if self.adjacency is None:
            return split_nodes(node_table.values, self.num_users)
        return lightgcn_encode(node_table.values, self.cfg, _every_node(self.adjacency, self.cfg))

    def frontiers(self, user_ids: np.ndarray, item_ids: np.ndarray) -> tuple:
        """What the batch's `encode` and `backward` share.

        For K = 0, its checked (user, item) node ids; otherwise its `batch_frontiers`.
        """
        if self.adjacency is None:
            return _node_ids(user_ids, item_ids, self.num_users, self.num_items)
        return batch_frontiers(self.adjacency, self.cfg, user_ids, item_ids)

    def encode(self, node_table: EmbeddingTable, frontiers: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Representations of a batch's user and item ids (ids may repeat), given `frontiers`."""
        if self.adjacency is None:
            user_nodes, item_nodes = frontiers
            return mf_encode(node_table, user_nodes), mf_encode(node_table, item_nodes)
        return lightgcn_encode(node_table.values, self.cfg, frontiers)

    def backward(self, grad_users: np.ndarray, grad_items: np.ndarray,
                 frontiers: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The node table's gradient from the gradients of an `encode` output, as (rows, grads).

        `rows` are the node rows the batch reaches, strictly increasing; other rows' gradients
        are 0.
        """
        if self.adjacency is None:
            return scatter_rows(np.concatenate([grad_users, grad_items]), np.concatenate(frontiers),
                                self.num_users + self.num_items)
        return lightgcn_backward(self.adjacency, self.cfg, None, None, grad_users, grad_items,
                                 frontiers)
