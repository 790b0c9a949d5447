import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphererec import data, encoders, losses
from sphererec.hypersphere import EmbeddingTable, init_xavier
from sphererec.losses import LossWeights
from test_gradients import central_differences, max_relative_error


def toy_graph():
    """2 users, 3 items, 4 training edges."""
    ds = data.dataset_from_pairs(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    return ds, encoders.build_norm_adjacency(ds)


def graph_encode(user_table, item_table, adj, cfg, user_ids, item_ids):
    """`lightgcn_encode` of one batch, from the node matrix of the two tables."""
    node_table = encoders.stack_nodes(user_table, item_table, adj.num_users, adj.num_items)
    return encoders.lightgcn_encode(node_table, cfg,
                                    encoders.batch_frontiers(adj, cfg, user_ids, item_ids))


class TestMfEncode:
    def test_repeated_ids_gather_same_row(self):
        table = init_xavier(4, 3, seed=0)
        out = encoders.mf_encode(table.values, [0, 0])
        np.testing.assert_array_equal(out[0], table.values[0])
        np.testing.assert_array_equal(out[1], table.values[0])

    def test_empty_ids(self):
        table = init_xavier(4, 3, seed=0)
        assert encoders.mf_encode(table.values, np.array([], dtype=np.int64)).shape == (0, 3)

    def test_out_of_range(self):
        table = init_xavier(4, 3, seed=0)
        with pytest.raises(ValueError, match="range"):
            encoders.mf_encode(table.values, [4])

    def test_scatter_counts_occurrences(self):
        # gradient of sum(outputs) w.r.t. the table is the id-occurrence count matrix,
        # returned on its non-zero rows only
        ids = np.array([2, 0, 2, 2])
        rows, grad = encoders.scatter_rows(np.ones((4, 3)), ids, num_rows=4)
        np.testing.assert_array_equal(rows, [0, 2])
        np.testing.assert_array_equal(grad, [[1.0] * 3, [3.0] * 3])

    @pytest.mark.parametrize("num_ids", [0, 1, 7, 300])
    def test_scatter_rows_have_the_bits_of_a_full_table_scatter(self, num_ids):
        rng = np.random.default_rng(num_ids)
        ids = rng.integers(0, 40, size=num_ids)
        grad_rows = rng.standard_normal((num_ids, 5))
        full = np.zeros((40, 5))
        np.add.at(full, ids, grad_rows)
        rows, grad = encoders.scatter_rows(grad_rows, ids, num_rows=40)
        assert rows.dtype == np.int64
        assert rows.tobytes() == np.unique(ids).tobytes()
        assert grad.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("ids", [[-1], [4]])
    def test_scatter_rejects_out_of_range_ids(self, ids):
        with pytest.raises(ValueError, match=r"^id out of range \[0, 4\)$"):
            encoders.scatter_rows(np.ones((1, 3)), ids, num_rows=4)


class TestBuildNormAdjacency:
    def test_single_interaction_unit_weights(self):
        ds = data.dataset_from_pairs(1, 1, [(0, 0)])
        adj = encoders.build_norm_adjacency(ds)
        dense = adj.matrix.toarray()
        np.testing.assert_allclose(dense, [[0.0, 1.0], [1.0, 0.0]])

    def test_degree_two_user(self):
        ds = data.dataset_from_pairs(1, 2, [(0, 0), (0, 1)])
        adj = encoders.build_norm_adjacency(ds)
        dense = adj.matrix.toarray()
        w = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dense[0, 1:], [w, w])
        np.testing.assert_allclose(dense[1:, 0], [w, w])

    def test_isolated_item_has_zero_row(self):
        ds = data.dataset_from_pairs(1, 2, [(0, 0)])
        adj = encoders.build_norm_adjacency(ds)
        dense = adj.matrix.toarray()
        np.testing.assert_array_equal(dense[2], 0.0)

    def test_symmetric(self):
        ds, adj = toy_graph()
        dense = adj.matrix.toarray()
        np.testing.assert_allclose(dense, dense.T)

    def test_only_training_edges_present(self, synthetic_dataset):
        # adjacency built from the training part carries no validation/test edges
        split = data.split_per_user(synthetic_dataset, seed=13)
        adj = encoders.build_norm_adjacency(split.train)
        assert adj.matrix.nnz == 2 * split.train.num_interactions
        held_out = split.validation.interactions[0]
        user, item = int(held_out[0]), int(held_out[1])
        if (user, item) not in oracles.interaction_set(split.train):
            assert adj.matrix[user, adj.num_users + item] == 0.0


class TestGraphEncoderConfig:
    def test_layer_guard(self):
        with pytest.raises(ValueError):
            encoders.GraphEncoderConfig(num_layers=9)
        with pytest.raises(ValueError):
            encoders.GraphEncoderConfig(num_layers=-1)


class TestLightgcnEncode:
    def test_zero_layers_equals_lookup(self):
        ds, adj = toy_graph()
        user_table = init_xavier(2, 4, seed=1)
        item_table = init_xavier(3, 4, seed=2)
        cfg = encoders.GraphEncoderConfig(num_layers=0)
        got_u, got_i = graph_encode(user_table, item_table, adj, cfg, [0, 1], [2, 0])
        np.testing.assert_array_equal(got_u, encoders.mf_encode(user_table.values, [0, 1]))
        np.testing.assert_array_equal(got_i, encoders.mf_encode(item_table.values, [2, 0]))

    def test_single_edge_one_layer(self):
        ds = data.dataset_from_pairs(1, 1, [(0, 0)])
        adj = encoders.build_norm_adjacency(ds)
        user_table = EmbeddingTable(np.array([[1.0, 0.0]]))
        item_table = EmbeddingTable(np.array([[0.0, 1.0]]))
        cfg = encoders.GraphEncoderConfig(num_layers=1)
        got_u, got_i = graph_encode(user_table, item_table, adj, cfg, [0], [0])
        np.testing.assert_allclose(got_u, [[0.5, 0.5]])
        np.testing.assert_allclose(got_i, [[0.5, 0.5]])

    def test_zero_embeddings_stay_zero(self):
        ds, adj = toy_graph()
        user_table = EmbeddingTable(np.zeros((2, 3)))
        item_table = EmbeddingTable(np.zeros((3, 3)))
        for k in (0, 1, 3):
            cfg = encoders.GraphEncoderConfig(num_layers=k)
            got_u, got_i = graph_encode(user_table, item_table, adj, cfg, [0], [1])
            np.testing.assert_array_equal(got_u, 0.0)
            np.testing.assert_array_equal(got_i, 0.0)

    def test_linear_in_tables(self):
        ds, adj = toy_graph()
        cfg = encoders.GraphEncoderConfig(num_layers=2)
        rng = np.random.default_rng(3)
        ux, uy = rng.normal(size=(2, 2, 4))
        ix, iy = rng.normal(size=(2, 3, 4))
        a, b = 0.6, -1.7

        def encode(u_values, i_values):
            return graph_encode(EmbeddingTable(u_values), EmbeddingTable(i_values),
                                adj, cfg, [0, 1], [0, 2])

        direct_u, direct_i = encode(a * ux + b * uy, a * ix + b * iy)
        from_x = encode(ux, ix)
        from_y = encode(uy, iy)
        np.testing.assert_allclose(direct_u, a * from_x[0] + b * from_y[0], atol=1e-8)
        np.testing.assert_allclose(direct_i, a * from_x[1] + b * from_y[1], atol=1e-8)

    def test_dimension_mismatch(self):
        # tables from outside a fit are checked against the adjacency as they are stacked
        ds, adj = toy_graph()
        cfg = encoders.GraphEncoderConfig()
        with pytest.raises(ValueError, match=r"^tables have 5 users / 3 items, the training "
                                             r"part has 2 / 3$"):
            encoders.lightgcn_propagate(init_xavier(5, 4, 0), init_xavier(3, 4, 1), adj, cfg)
        with pytest.raises(ValueError, match="one dimensionality"):
            encoders.lightgcn_propagate(init_xavier(2, 4, 0), init_xavier(3, 5, 1), adj, cfg)


def full_tables(adj, backward):
    """A backward's (node rows, their gradients) as the full user and item table gradients."""
    rows, grads = backward
    return encoders.split_nodes(oracles.full_table_gradient(rows, grads, adj.size), adj.num_users)


class TestLightgcnGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_through_loss(self, seed):
        ds, adj = toy_graph()
        cfg = encoders.GraphEncoderConfig(num_layers=2)
        weights = LossWeights(alpha=0.5, beta=2.0, gamma_user=0.6, gamma_item=0.4)
        rng = np.random.default_rng(seed)
        user_values = rng.normal(size=(2, 3))
        item_values = rng.normal(size=(3, 3))
        user_ids = np.array([0, 1, 0, 1])
        item_ids = np.array([0, 1, 1, 2])
        frontiers = encoders.batch_frontiers(adj, cfg, user_ids, item_ids)

        def loss_from_tables(u_values, i_values):
            batch_u, batch_i = encoders.lightgcn_encode(np.vstack([u_values, i_values]), cfg,
                                                        frontiers)
            return losses.rau_loss_and_gradient(batch_u, batch_i, weights)[0].total

        batch_u, batch_i = encoders.lightgcn_encode(np.vstack([user_values, item_values]), cfg,
                                                    frontiers)
        _, grad_batch_u, grad_batch_i = losses.rau_loss_and_gradient(batch_u, batch_i, weights)
        grad_user_table, grad_item_table = full_tables(adj, encoders.lightgcn_backward(
            adj, cfg, user_ids, item_ids, grad_batch_u, grad_batch_i, frontiers
        ))
        fd_user = central_differences(lambda u: loss_from_tables(u, item_values), user_values)
        fd_item = central_differences(lambda i: loss_from_tables(user_values, i), item_values)
        assert max_relative_error(grad_user_table, fd_user) <= 1e-4
        assert max_relative_error(grad_item_table, fd_item) <= 1e-4


OUT_OF_RANGE_BATCHES = pytest.mark.parametrize("user_ids, item_ids, message", [
    ([2], [0], r"^user id out of range \[0, 2\)$"),  # would land on item 0's node
    ([-1], [0], r"^user id out of range \[0, 2\)$"),
    ([0], [-1], r"^item id out of range \[0, 3\)$"),  # would land on the last user's node
    ([0], [3], r"^item id out of range \[0, 3\)$"),
], ids=["user-past-end", "negative-user", "negative-item", "item-past-end"])


class TestLightgcnBackward:
    @OUT_OF_RANGE_BATCHES
    def test_rejects_out_of_range_ids(self, user_ids, item_ids, message):
        _, adj = toy_graph()
        cfg = encoders.GraphEncoderConfig(num_layers=2)
        grad = np.ones((1, 4))
        with pytest.raises(ValueError, match=message):
            encoders.lightgcn_backward(adj, cfg, user_ids, item_ids, grad, grad,
                                       encoders.batch_frontiers(adj, cfg, user_ids, item_ids))


def random_graph(num_users, num_items, num_pairs, seed):
    """A seeded bipartite graph whose last 3 users and last 2 items have no edges."""
    rng = np.random.default_rng(seed)
    pairs = np.column_stack([rng.integers(num_users - 3, size=num_pairs),
                             rng.integers(num_items - 2, size=num_pairs)])
    train = data.dataset_from_pairs(num_users, num_items, pairs)
    return train, encoders.build_norm_adjacency(train)


class TestBatchRestrictedPropagation:
    """The batch-restricted encoder, on a batch and on every node, against the full graph's bits."""

    @pytest.mark.parametrize("num_layers", range(4))
    @pytest.mark.parametrize("shape", [(40, 30, 150, 12), (400, 300, 900, 16)],
                             ids=["dense-batch", "sparse-batch"])
    @pytest.mark.parametrize("seed", range(2))
    def test_same_bits_as_full_graph(self, seed, shape, num_layers):
        num_users, num_items, num_pairs, batch = shape
        train, adj = random_graph(num_users, num_items, num_pairs, seed)
        cfg = encoders.GraphEncoderConfig(num_layers=num_layers)
        rng = np.random.default_rng([seed, num_layers])
        user_table = EmbeddingTable(rng.normal(size=(num_users, 8)))
        item_table = EmbeddingTable(rng.normal(size=(num_items, 8)))
        # bpr's shape: B users, then B positives and B negatives; every id
        # list repeats an id and holds an isolated node
        user_ids = rng.integers(num_users, size=batch)
        user_ids[:2] = num_users - 1
        item_ids = rng.integers(num_items, size=2 * batch)
        item_ids[[0, batch]] = num_items - 1
        item_ids[-1] = item_ids[1]
        grads = rng.normal(size=(batch, 8)), rng.normal(size=(2 * batch, 8))
        expected_encode = oracles.reference_lightgcn_encode(user_table, item_table, adj, cfg,
                                                            user_ids, item_ids)
        expected_backward = oracles.reference_lightgcn_backward(adj, cfg, user_ids, item_ids,
                                                                *grads)
        # a training step's one set of frontiers serves the forward, then the backward
        frontiers = encoders.batch_frontiers(adj, cfg, user_ids, item_ids)
        node_matrix = np.vstack([user_table.values, item_table.values])
        pairs = [
            (encoders.lightgcn_encode(node_matrix, cfg, frontiers), expected_encode),
            (full_tables(adj, encoders.lightgcn_backward(adj, cfg, user_ids, item_ids, *grads,
                                                         frontiers)), expected_backward),
            (encoders.lightgcn_propagate(user_table, item_table, adj, cfg),
             oracles.reference_layer_mean(adj, cfg, np.vstack([user_table.values,
                                                               item_table.values]))),
        ]
        for got, expected in pairs:
            for got_part, expected_part in zip(got, expected):
                assert got_part.shape == expected_part.shape
                assert got_part.tobytes() == expected_part.tobytes()


    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_last_round_in_blocks_keeps_the_bits(self, monkeypatch, num_layers):
        # blocks of 7 rows split every node's last round in 100 places, one of them
        # inside the block that holds the last user and the first item (400 = 57 * 7 + 1)
        monkeypatch.setattr(encoders, "PROPAGATE_BLOCK_ROWS", 7)
        _, adj = random_graph(400, 300, 900, seed=3)
        cfg = encoders.GraphEncoderConfig(num_layers=num_layers)
        rng = np.random.default_rng(num_layers)
        user_table = EmbeddingTable(rng.normal(size=(400, 8)))
        item_table = EmbeddingTable(rng.normal(size=(300, 8)))
        user_ids, item_ids = rng.integers(400, size=64), rng.integers(300, size=64)
        pairs = [
            (encoders.lightgcn_propagate(user_table, item_table, adj, cfg),
             oracles.reference_layer_mean(adj, cfg, np.vstack([user_table.values,
                                                               item_table.values]))),
            (graph_encode(user_table, item_table, adj, cfg, user_ids, item_ids),
             oracles.reference_lightgcn_encode(user_table, item_table, adj, cfg, user_ids,
                                               item_ids)),
        ]
        for got, expected in pairs:
            for got_part, expected_part in zip(got, expected):
                assert got_part.tobytes() == expected_part.tobytes()


class TestEncoder:
    def test_lookup_path_equals_graph_path_at_zero_layers(self):
        ds, adj = toy_graph()
        user_table = init_xavier(2, 4, seed=1)
        item_table = init_xavier(3, 4, seed=2)
        graph_cfg = encoders.GraphEncoderConfig(num_layers=0)
        user_ids, item_ids = np.array([0, 1, 1, 0]), np.array([2, 0, 2, 2])
        grads = np.random.default_rng(4).normal(size=(2, 4, 4))
        graph_frontiers = encoders.batch_frontiers(adj, graph_cfg, user_ids, item_ids)
        node_table = encoders.stack_nodes(user_table, item_table, 2, 3)
        for name in ("mf", "lightgcn"):
            encoder = encoders.Encoder(name, 0, ds)
            assert encoder.adjacency is None
            frontiers = encoder.frontiers(user_ids, item_ids)
            # both backwards give the node rows the batch touches and their gradient rows
            pairs = [
                (encoder.encode_all(node_table),
                 encoders.lightgcn_propagate(user_table, item_table, adj, graph_cfg)),
                (encoder.encode(node_table, frontiers),
                 encoders.lightgcn_encode(node_table, graph_cfg, graph_frontiers)),
                (encoder.backward(*grads, frontiers),
                 encoders.lightgcn_backward(adj, graph_cfg, user_ids, item_ids, *grads,
                                            graph_frontiers)),
            ]
            for lookup, graph in pairs:
                for lookup_part, graph_part in zip(lookup, graph):
                    assert lookup_part.dtype == graph_part.dtype
                    assert lookup_part.shape == graph_part.shape
                    assert lookup_part.tobytes() == graph_part.tobytes()

    @OUT_OF_RANGE_BATCHES
    @pytest.mark.parametrize("name", ["mf", "lightgcn"])
    def test_frontiers_reject_out_of_range_ids(self, name, user_ids, item_ids, message):
        # on the node table an item id of -1 would read the last user's row
        ds, _ = toy_graph()
        with pytest.raises(ValueError, match=message):
            encoders.Encoder(name, 2, ds).frontiers(user_ids, item_ids)

    @pytest.mark.parametrize("num_layers", range(4))
    @pytest.mark.parametrize("seed", range(2))
    def test_encode_all_of_the_stacked_table_is_the_propagation_of_the_two(self, seed,
                                                                            num_layers):
        # a fit ranks `encode_all` of its node table; eval of a checkpoint (and the
        # benchmark's) propagates the two tables it reads
        train, adj = random_graph(50, 40, 200, seed)
        rng = np.random.default_rng([seed, num_layers])
        user_table = EmbeddingTable(rng.normal(size=(50, 8)))
        item_table = EmbeddingTable(rng.normal(size=(40, 8)))
        encoder = encoders.Encoder("lightgcn" if num_layers else "mf", num_layers, train)
        got = encoder.encode_all(encoders.stack_nodes(user_table, item_table, 50, 40))
        expected = encoders.lightgcn_propagate(user_table, item_table, adj,
                                               encoders.GraphEncoderConfig(num_layers=num_layers))
        for got_part, expected_part in zip(got, expected):
            assert got_part.shape == expected_part.shape
            assert got_part.tobytes() == expected_part.tobytes()

    def test_mf_ignores_num_layers(self):
        ds, _ = toy_graph()
        assert encoders.Encoder("mf", 2, ds).cfg.num_layers == 0
        assert encoders.Encoder("lightgcn", 2, ds).cfg.num_layers == 2

    @pytest.mark.parametrize("name, num_layers", [("mf", 0), ("lightgcn", 1), ("lightgcn", 2),
                                                  ("lightgcn", 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_backward_gives_increasing_rows_of_the_full_gradient(self, seed, name, num_layers):
        num_users, num_items, batch = 60, 45, 16
        train, adj = random_graph(num_users, num_items, 120, seed)
        encoder = encoders.Encoder(name, num_layers, train)
        rng = np.random.default_rng([seed, num_layers])
        # repeated ids, and an isolated user and item in every batch
        user_ids = rng.integers(num_users, size=batch)
        user_ids[:2] = num_users - 1
        item_ids = rng.integers(num_items, size=batch)
        item_ids[0] = num_items - 1
        item_ids[-1] = item_ids[1]
        grads = rng.normal(size=(batch, 8)), rng.normal(size=(batch, 8))
        rows, node_grads = encoder.backward(*grads, encoder.frontiers(user_ids, item_ids))
        expected = oracles.reference_lightgcn_backward(
            adj, encoders.GraphEncoderConfig(num_layers=num_layers), user_ids, item_ids, *grads)
        assert rows.dtype == np.int64 and rows.ndim == 1
        assert np.all(rows[1:] > rows[:-1]) and rows[0] >= 0 and rows[-1] < adj.size
        assert node_grads.shape == (rows.size, 8)
        assert oracles.full_table_gradient(rows, node_grads, adj.size).tobytes() == \
            np.vstack(expected).tobytes()

    def test_graph_backward_allocates_no_table_sized_gradient(self):
        train, adj = random_graph(3000, 2000, 3000, seed=0)
        cfg = encoders.GraphEncoderConfig(num_layers=2)
        user_ids, item_ids = np.array([0, 1, 0]), np.array([5, 5, 6])
        grads = np.ones((3, 64)), np.ones((3, 64))

        def backward_with_frontiers():
            frontiers = encoders.batch_frontiers(adj, cfg, user_ids, item_ids)
            return encoders.lightgcn_backward(adj, cfg, user_ids, item_ids, *grads, frontiers)

        backward_with_frontiers()  # warm caches
        tracemalloc.start()
        try:
            backward = backward_with_frontiers()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < adj.size * 64 * 8
        rows, _ = backward
        assert rows.size < adj.size / 20  # the ball is small


def gradient_rows(seed, count, dim=5):
    """Seeded gradient rows in which some whole rows, and some single entries, are -0.0."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim))
    rows[rng.random(count) < 0.3] = -0.0
    rows[rng.random((count, dim)) < 0.1] = -0.0
    return rows


# ids below 12 reach the graph's edgeless last 3 users and last 2 items too
BATCH_SUM_GRAPH = random_graph(12, 12, 40, seed=5)
# a few target rows, so an id can repeat as often as the batch is long
repeated_ids = st.integers(1, 12).flatmap(
    lambda bound: st.lists(st.integers(0, bound - 1), max_size=48))


class TestScatterWithoutAddAt:
    """`scatter_rows` and the graph backward's batch sums against `np.add.at`, byte for byte."""

    @given(repeated_ids, st.integers(0, 2**32 - 1))
    @example([], 0)
    @example([3], 1)
    @example([0] * 48, 2)
    @settings(max_examples=60, deadline=None)
    def test_scatter_rows(self, ids, seed):
        ids = np.array(ids, dtype=np.int64)
        grad_rows = gradient_rows(seed, ids.size)
        full = np.zeros((12, 5))
        np.add.at(full, ids, grad_rows)
        rows, summed = encoders.scatter_rows(grad_rows, ids, num_rows=12)
        assert rows.tobytes() == np.unique(ids).tobytes()
        assert summed.shape == (rows.size, 5)
        assert summed.tobytes() == full[rows].tobytes()

    @given(repeated_ids, repeated_ids, st.integers(0, 2), st.integers(0, 2**32 - 1))
    @example([], [], 1, 0)
    @example([4], [2], 2, 1)
    @example([0] * 48, [1] * 48, 1, 2)
    @settings(max_examples=60, deadline=None)
    def test_lightgcn_backward(self, user_ids, item_ids, num_layers, seed):
        _, adj = BATCH_SUM_GRAPH
        cfg = encoders.GraphEncoderConfig(num_layers=num_layers)
        user_ids, item_ids = np.array(user_ids, dtype=np.int64), np.array(item_ids, dtype=np.int64)
        grads = gradient_rows(seed, user_ids.size), gradient_rows(seed + 1, item_ids.size)
        frontiers = encoders.batch_frontiers(adj, cfg, user_ids, item_ids)
        got = full_tables(adj, encoders.lightgcn_backward(adj, cfg, user_ids, item_ids, *grads,
                                                          frontiers))
        expected = oracles.reference_lightgcn_backward(adj, cfg, user_ids, item_ids, *grads)
        for got_part, expected_part in zip(got, expected):
            assert got_part.tobytes() == expected_part.tobytes()

