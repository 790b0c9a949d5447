import numpy as np
import pytest

from sphererec import data
from sphererec.hypersphere import EmbeddingTable, init_xavier


@pytest.fixture(scope="session")
def synthetic_dataset():
    return data.two_cluster_dataset(seed=7)


@pytest.fixture(scope="session")
def synthetic_split(synthetic_dataset):
    return data.split_per_user(synthetic_dataset, seed=11)


def dataset_to_tsv(ds: data.InteractionDataset, path) -> None:
    lines = [f"u{u}\ti{i}" for u, i in ds.interactions]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def synthetic_tsv(synthetic_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "clusters.tsv"
    dataset_to_tsv(synthetic_dataset, path)
    return path


def random_unit_rows(rng: np.random.Generator, batch: int, dim: int) -> np.ndarray:
    rows = rng.normal(size=(batch, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def xavier_table(rows: int, dim: int, seed: int) -> EmbeddingTable:
    """An EmbeddingTable of `init_xavier`'s entries for a rows x dim table."""
    return EmbeddingTable(init_xavier(np.empty((rows, dim)), seed))
