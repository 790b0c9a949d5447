import numpy as np
import oracles
import pytest

from sphererec import data, encoders, losses
from sphererec.hypersphere import EmbeddingTable, init_xavier
from sphererec.losses import LossWeights
from test_gradients import central_differences, max_relative_error


def toy_graph():
    """2 users, 3 items, 4 training edges."""
    ds = data.dataset_from_pairs(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    return ds, encoders.build_norm_adjacency(ds)


class TestMfEncode:
    def test_repeated_ids_gather_same_row(self):
        table = init_xavier(4, 3, seed=0)
        out = encoders.mf_encode(table, [0, 0])
        np.testing.assert_array_equal(out[0], table.values[0])
        np.testing.assert_array_equal(out[1], table.values[0])

    def test_empty_ids(self):
        table = init_xavier(4, 3, seed=0)
        assert encoders.mf_encode(table, np.array([], dtype=np.int64)).shape == (0, 3)

    def test_out_of_range(self):
        table = init_xavier(4, 3, seed=0)
        with pytest.raises(ValueError, match="range"):
            encoders.mf_encode(table, [4])

    def test_scatter_counts_occurrences(self):
        # gradient of sum(outputs) w.r.t. the table is the id-occurrence count matrix
        ids = np.array([0, 2, 2, 2])
        grad = encoders.scatter_rows(np.ones((4, 3)), ids, num_rows=4)
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 3.0
        np.testing.assert_array_equal(grad, expected)


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
        got_u, got_i = encoders.lightgcn_encode(user_table, item_table, adj, cfg, [0, 1], [2, 0])
        np.testing.assert_array_equal(got_u, encoders.mf_encode(user_table, [0, 1]))
        np.testing.assert_array_equal(got_i, encoders.mf_encode(item_table, [2, 0]))

    def test_single_edge_one_layer(self):
        ds = data.dataset_from_pairs(1, 1, [(0, 0)])
        adj = encoders.build_norm_adjacency(ds)
        user_table = EmbeddingTable(np.array([[1.0, 0.0]]))
        item_table = EmbeddingTable(np.array([[0.0, 1.0]]))
        cfg = encoders.GraphEncoderConfig(num_layers=1)
        got_u, got_i = encoders.lightgcn_encode(user_table, item_table, adj, cfg, [0], [0])
        np.testing.assert_allclose(got_u, [[0.5, 0.5]])
        np.testing.assert_allclose(got_i, [[0.5, 0.5]])

    def test_zero_embeddings_stay_zero(self):
        ds, adj = toy_graph()
        user_table = EmbeddingTable(np.zeros((2, 3)))
        item_table = EmbeddingTable(np.zeros((3, 3)))
        for k in (0, 1, 3):
            cfg = encoders.GraphEncoderConfig(num_layers=k)
            got_u, got_i = encoders.lightgcn_encode(user_table, item_table, adj, cfg, [0], [1])
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
            return encoders.lightgcn_encode(
                EmbeddingTable(u_values), EmbeddingTable(i_values),
                adj, cfg, [0, 1], [0, 2],
            )

        direct_u, direct_i = encode(a * ux + b * uy, a * ix + b * iy)
        from_x = encode(ux, ix)
        from_y = encode(uy, iy)
        np.testing.assert_allclose(direct_u, a * from_x[0] + b * from_y[0], atol=1e-8)
        np.testing.assert_allclose(direct_i, a * from_x[1] + b * from_y[1], atol=1e-8)

    def test_dimension_mismatch(self):
        ds, adj = toy_graph()
        with pytest.raises(ValueError, match="adjacency"):
            encoders.lightgcn_encode(init_xavier(5, 4, 0), init_xavier(3, 4, 1), adj,
                                     encoders.GraphEncoderConfig(), [0], [0])


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

        def loss_from_tables(u_values, i_values):
            batch_u, batch_i = encoders.lightgcn_encode(
                EmbeddingTable(u_values), EmbeddingTable(i_values),
                adj, cfg, user_ids, item_ids,
            )
            return losses.rau_loss_and_gradient(batch_u, batch_i, weights)[0].total

        batch_u, batch_i = encoders.lightgcn_encode(
            EmbeddingTable(user_values), EmbeddingTable(item_values),
            adj, cfg, user_ids, item_ids,
        )
        _, grad_batch_u, grad_batch_i = losses.rau_loss_and_gradient(batch_u, batch_i, weights)
        grad_user_table, grad_item_table = encoders.lightgcn_backward(
            adj, cfg, user_ids, item_ids, grad_batch_u, grad_batch_i
        )
        fd_user = central_differences(lambda u: loss_from_tables(u, item_values), user_values)
        fd_item = central_differences(lambda i: loss_from_tables(user_values, i), item_values)
        assert max_relative_error(grad_user_table, fd_user) <= 1e-4
        assert max_relative_error(grad_item_table, fd_item) <= 1e-4


class TestEncoder:
    def test_lookup_path_equals_graph_path_at_zero_layers(self):
        ds, adj = toy_graph()
        user_table = init_xavier(2, 4, seed=1)
        item_table = init_xavier(3, 4, seed=2)
        graph_cfg = encoders.GraphEncoderConfig(num_layers=0)
        user_ids, item_ids = np.array([0, 1, 1, 0]), np.array([2, 0, 2, 2])
        grads = np.random.default_rng(4).normal(size=(2, 4, 4))
        for name in ("mf", "lightgcn"):
            encoder = encoders.Encoder(name, 0, ds)
            assert encoder.adjacency is None
            pairs = [
                (encoder.encode_all(user_table, item_table),
                 encoders.lightgcn_propagate(user_table, item_table, adj, graph_cfg)),
                (encoder.encode(user_table, item_table, user_ids, item_ids),
                 encoders.lightgcn_encode(user_table, item_table, adj, graph_cfg,
                                          user_ids, item_ids)),
                (encoder.backward(user_ids, item_ids, *grads),
                 encoders.lightgcn_backward(adj, graph_cfg, user_ids, item_ids, *grads)),
            ]
            for lookup, graph in pairs:
                for lookup_part, graph_part in zip(lookup, graph):
                    np.testing.assert_array_equal(lookup_part, graph_part)

    def test_mf_ignores_num_layers(self):
        ds, _ = toy_graph()
        assert encoders.Encoder("mf", 2, ds).cfg.num_layers == 0
        assert encoders.Encoder("lightgcn", 2, ds).cfg.num_layers == 2
