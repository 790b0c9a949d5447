import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sphererec import hypersphere as hs

finite_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(2, 5)),
    elements=st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
)


class TestInitXavier:
    def test_bound_for_dim_64(self):
        table = hs.init_xavier(100, 64, seed=0)
        bound = np.sqrt(6.0 / 128.0)
        assert bound == pytest.approx(0.2165, abs=1e-4)
        assert np.all(np.abs(table.values) <= bound)

    def test_deterministic(self):
        a = hs.init_xavier(50, 16, seed=9)
        b = hs.init_xavier(50, 16, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_sample_mean_near_zero(self):
        rows, dim = 500, 64
        table = hs.init_xavier(rows, dim, seed=1)
        bound = np.sqrt(6.0 / (2 * dim))
        # uniform on [-a, a]: var = a^2 / 3, so the mean estimator has
        # sigma = a / sqrt(3 N)
        sigma = bound / np.sqrt(3 * rows * dim)
        assert abs(table.values.mean()) <= 3 * sigma

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            hs.init_xavier(0, 8, seed=0)
        with pytest.raises(ValueError):
            hs.init_xavier(4, 1, seed=0)



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

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_unit(self, rows):
        once = hs.l2_normalize(rows)
        twice = hs.l2_normalize(once)
        np.testing.assert_allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(twice, once, atol=1e-12)


class TestCheckpointIO:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        table = hs.init_xavier(7, 4, seed=2)
        hs.save_embedding_table(tmp_path / "t.emb", table, "user")
        loaded, role = hs.load_embedding_table(tmp_path / "t.emb")
        assert role == "user"
        assert loaded.values.shape == (7, 4)
        np.testing.assert_array_equal(loaded.values, table.values.astype(np.float32).astype(np.float64))

    def test_checkpoint_pair_with_sidecar(self, tmp_path):
        user = hs.init_xavier(3, 4, seed=0)
        item = hs.init_xavier(5, 4, seed=1)
        config = {"objective": "rau", "lr": 1e-3}
        hs.save_checkpoint(tmp_path, user, item, seed=42, config=config)
        u, i, sidecar = hs.load_checkpoint(tmp_path)
        assert (len(u.values), len(i.values)) == (3, 5)
        assert sidecar["seed"] == 42
        assert sidecar["config_hash"] == hs.config_hash(config)
        assert sidecar["config"] == config

    @pytest.mark.parametrize("key", ["seed", "config_hash", "config"])
    def test_sidecar_missing_key_rejected(self, tmp_path, key):
        hs.save_checkpoint(tmp_path, hs.init_xavier(3, 4, seed=0), hs.init_xavier(5, 4, seed=1),
                           seed=42, config={"encoder": "mf"})
        sidecar = json.loads((tmp_path / "checkpoint.json").read_text())
        del sidecar[key]
        hs.write_json(tmp_path / "checkpoint.json", sidecar)
        with pytest.raises(ValueError, match=f"lacks {key}"):
            hs.load_checkpoint(tmp_path)

    def test_edited_sidecar_config_rejected(self, tmp_path):
        hs.save_checkpoint(tmp_path, hs.init_xavier(3, 4, seed=0), hs.init_xavier(5, 4, seed=1),
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
        table = hs.init_xavier(4, 4, seed=0)
        path = tmp_path / "t.emb"
        hs.save_embedding_table(path, table, "item")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="bytes"):
            hs.load_embedding_table(path)

    def test_bad_role_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="role"):
            hs.save_embedding_table(tmp_path / "t.emb", hs.init_xavier(2, 2, 0), "query")


def test_artifact_writers_exact_bytes(tmp_path):
    hs.write_json(tmp_path / "a.json", {"ks": [20, 0.5], "best": {"epoch": None}})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "ks": [\n    20,\n    0.5\n  ],\n  "best": {\n    "epoch": null\n  }\n}\n')
    text = hs.write_csv(tmp_path / "a.csv", ["k", "recall", "best"],
                        [(20, np.float64(0.1), None), (50, 1 / 3, "*")])
    assert text == "k,recall,best\n20,0.1,\n50,0.3333333333333333,*\n"
    assert (tmp_path / "a.csv").read_bytes() == text.encode("utf-8")
