import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import xavier_table
from sphererec import hypersphere as hs

finite_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(2, 5)),
    elements=st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
)


class TestInitXavier:
    def test_bound_for_dim_64(self):
        values = hs.init_xavier(np.empty((100, 64)), seed=0)
        bound = np.sqrt(6.0 / 128.0)
        assert bound == pytest.approx(0.2165, abs=1e-4)
        assert np.all(np.abs(values) <= bound)

    def test_deterministic(self):
        a = hs.init_xavier(np.empty((50, 16)), seed=9)
        b = hs.init_xavier(np.empty((50, 16)), seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(1, 2), (7, 3), (50, 16), (1100, 64)])
    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_fills_out_with_the_bits_of_uniform(self, shape, seed):
        out = np.full(shape, np.nan)
        assert hs.init_xavier(out, seed) is out
        bound = np.sqrt(6.0 / (2 * shape[1]))
        assert out.tobytes() == np.random.default_rng(seed).uniform(-bound, bound,
                                                                    shape).tobytes()

    def test_sample_mean_near_zero(self):
        rows, dim = 500, 64
        values = hs.init_xavier(np.empty((rows, dim)), seed=1)
        bound = np.sqrt(6.0 / (2 * dim))
        # uniform on [-a, a]: var = a^2 / 3, so the mean estimator has
        # sigma = a / sqrt(3 N)
        sigma = bound / np.sqrt(3 * rows * dim)
        assert abs(values.mean()) <= 3 * sigma

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            hs.init_xavier(np.empty((0, 8)), seed=0)
        with pytest.raises(ValueError):
            hs.init_xavier(np.empty((4, 1)), seed=0)


class TestEmbeddingTable:
    @pytest.mark.parametrize("values, message", [
        (np.zeros(4), "rows x dim"), (np.zeros((2, 2, 2)), "rows x dim"),
        (np.zeros((3, 1)), "dim >= 2"), (np.array([[1.0, np.nan]]), "non-finite"),
    ])
    def test_rejects_bad_values(self, values, message):
        # the shape is read from the values, so they carry every check
        with pytest.raises(ValueError, match=message):
            hs.EmbeddingTable(values)


class TestL2Normalize:
    def test_three_four_five(self):
        out = hs.l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(hs.l2_normalize(row), row)

    def test_zero_row_error_names_row(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            hs.l2_normalize(vectors)

    @pytest.mark.parametrize("bad_row", [[1e200, 1e200], [1.5e308, 1.5e308], [np.nan, 1.0],
                                         [np.inf, 0.0]])
    def test_non_finite_norm_error_names_row(self, bad_row):
        # a row whose squares overflow used to become a zero "unit" row with norm inf
        with pytest.raises(ValueError, match="row 0: its norm is non-finite"):
            hs.normalize_with_norms(np.array([bad_row, [1.0, 0.0]]))

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_unit(self, rows):
        once = hs.l2_normalize(rows)
        twice = hs.l2_normalize(once)
        np.testing.assert_allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(twice, once, atol=1e-12)


class TestCheckpointIO:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        table = xavier_table(7, 4, seed=2)
        (tmp_path / "t.emb").write_bytes(hs._table_file(table, "user"))
        loaded, role = hs.load_embedding_table(tmp_path / "t.emb")
        assert role == "user"
        assert loaded.values.shape == (7, 4)
        np.testing.assert_array_equal(loaded.values, table.values.astype(np.float32).astype(np.float64))

    def test_checkpoint_pair_with_sidecar(self, tmp_path):
        user = xavier_table(3, 4, seed=0)
        item = xavier_table(5, 4, seed=1)
        config = {"objective": "rau", "lr": 1e-3}
        hs.save_checkpoint(tmp_path, user, item, seed=42, config=config)
        u, i, sidecar = hs.load_checkpoint(tmp_path)
        assert (len(u.values), len(i.values)) == (3, 5)
        assert sidecar["seed"] == 42
        assert sidecar["config_hash"] == hs.config_hash(config)
        assert sidecar["config"] == config

    @pytest.mark.parametrize("key", ["seed", "config_hash", "config"])
    def test_sidecar_missing_key_rejected(self, tmp_path, key):
        hs.save_checkpoint(tmp_path, xavier_table(3, 4, seed=0), xavier_table(5, 4, seed=1),
                           seed=42, config={"encoder": "mf"})
        sidecar = json.loads((tmp_path / "checkpoint.json").read_text())
        del sidecar[key]
        hs.write_json(tmp_path / "checkpoint.json", sidecar)
        with pytest.raises(ValueError, match=f"lacks {key}"):
            hs.load_checkpoint(tmp_path)

    def test_edited_sidecar_config_rejected(self, tmp_path):
        hs.save_checkpoint(tmp_path, xavier_table(3, 4, seed=0), xavier_table(5, 4, seed=1),
                           seed=42, config={"encoder": "mf"})
        sidecar = json.loads((tmp_path / "checkpoint.json").read_text())
        sidecar["config"]["encoder"] = "lightgcn"
        hs.write_json(tmp_path / "checkpoint.json", sidecar)
        with pytest.raises(ValueError, match="config_hash"):
            hs.load_checkpoint(tmp_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError, match="magic"):
            hs.load_embedding_table(path)

    def test_truncated_rejected(self, tmp_path):
        table = xavier_table(4, 4, seed=0)
        path = tmp_path / "t.emb"
        path.write_bytes(hs._table_file(table, "item")[:-5])
        with pytest.raises(ValueError, match="bytes"):
            hs.load_embedding_table(path)

    def test_table_beyond_float32_is_refused_before_any_file(self, tmp_path):
        # it used to be written as inf, with a RuntimeWarning, and then failed to load
        item = hs.EmbeddingTable(np.array([[1.0, 0.0], [0.0, -1e39]]))
        with pytest.raises(ValueError, match="item table has an entry beyond float32's range"):
            hs.save_checkpoint(tmp_path / "ckpt", xavier_table(3, 2, seed=0), item,
                               seed=0, config={})
        assert not (tmp_path / "ckpt").exists()

    def test_non_finite_table_file_is_named(self, tmp_path):
        hs.save_checkpoint(tmp_path, xavier_table(3, 2, seed=0), xavier_table(2, 2, seed=1),
                           seed=0, config={})
        path = tmp_path / "item.emb"
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*non-finite"):
            hs.load_checkpoint(tmp_path)

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            hs._table_file(xavier_table(2, 2, 0), "query")


def test_artifact_writers_exact_bytes(tmp_path):
    hs.write_json(tmp_path / "a.json", {"ks": [20, 0.5], "best": {"epoch": None}})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "ks": [\n    20,\n    0.5\n  ],\n  "best": {\n    "epoch": null\n  }\n}\n')
    text = hs.write_csv(tmp_path / "a.csv", ["k", "recall", "best"],
                        [(20, np.float64(0.1), None), (50, 1 / 3, "*")])
    assert text == "k,recall,best\n20,0.1,\n50,0.3333333333333333,*\n"
    assert (tmp_path / "a.csv").read_bytes() == text.encode("utf-8")
