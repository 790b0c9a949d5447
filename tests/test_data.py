import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphererec import data


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_basic_tsv(self, tmp_path):
        path = write(tmp_path / "x.tsv", "a\tb\na\tc\nd\tb\n")
        ds = data.load_interactions(path)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (2, 2, 3)

    def test_duplicate_lines_collapse(self, tmp_path):
        path = write(tmp_path / "x.tsv", "a\tb\na\tc\nd\tb\na\tb\n")
        ds = data.load_interactions(path)
        assert ds.num_interactions == 3

    def test_csv_and_extra_fields(self, tmp_path):
        path = write(tmp_path / "x.csv", "a,b,5,12345\na,c,3\n")
        ds = data.load_interactions(path)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (1, 2, 2)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "x.tsv", "# header\n\na\tb\n")
        ds = data.load_interactions(path)
        assert ds.num_interactions == 1

    def test_first_appearance_index_order(self, tmp_path):
        path = write(tmp_path / "x.tsv", "z\tq\na\tb\nz\tb\n")
        ds = data.load_interactions(path)
        # z -> 0, a -> 1; q -> 0, b -> 1
        assert ds.interaction_set() == {(0, 0), (1, 1), (0, 1)}

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path / "x.tsv", "a\tb\nonlyone\n")
        with pytest.raises(ValueError, match=":2:"):
            data.load_interactions(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = write(tmp_path / "x.tsv", "# nothing here\n")
        with pytest.raises(ValueError, match="no interactions"):
            data.load_interactions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            data.load_interactions(tmp_path / "absent.tsv")

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path / "x.tsv", "a\tb\n")
        with pytest.raises(ValueError, match="format"):
            data.load_interactions(path, format="parquet")


def single_user_dataset(n):
    return data.dataset_from_pairs(1, n, [(0, i) for i in range(n)])


class TestSplitPerUser:
    def test_ten_interactions_split_8_1_1(self):
        split = data.split_per_user(single_user_dataset(10), seed=0)
        counts = (split.train.num_interactions, split.validation.num_interactions,
                  split.test.num_interactions)
        assert counts == (8, 1, 1)

    def test_single_interaction_goes_to_train(self):
        split = data.split_per_user(single_user_dataset(1), seed=0)
        assert split.train.num_interactions == 1
        assert split.validation.num_interactions == 0
        assert split.test.num_interactions == 0

    def test_five_interactions_rounding(self):
        # round-half-even: round(0.5) == 0, so validation gets nothing
        split = data.split_per_user(single_user_dataset(5), seed=0)
        counts = (split.train.num_interactions, split.validation.num_interactions,
                  split.test.num_interactions)
        assert sum(counts) == 5
        assert counts[0] >= 3
        assert counts == (4, 0, 1)

    def test_split_is_deterministic(self, synthetic_dataset):
        a = data.split_per_user(synthetic_dataset, seed=5)
        b = data.split_per_user(synthetic_dataset, seed=5)
        for part in ("train", "validation", "test"):
            np.testing.assert_array_equal(
                getattr(a, part).interactions, getattr(b, part).interactions
            )

    def test_parts_disjoint_and_union_is_source(self, synthetic_dataset):
        split = data.split_per_user(synthetic_dataset, seed=5)
        train = split.train.interaction_set()
        val = split.validation.interaction_set()
        test = split.test.interaction_set()
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == synthetic_dataset.interaction_set()

    def test_val_test_users_have_train_interactions(self, synthetic_dataset):
        split = data.split_per_user(synthetic_dataset, seed=5)
        for part in (split.validation, split.test):
            for user in np.unique(part.interactions[:, 0]):
                assert split.train.items_for_user(int(user)).size >= 1

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 19)),
                    min_size=1, max_size=200),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_union_property_on_random_datasets(self, pairs, seed):
        ds = data.dataset_from_pairs(15, 20, pairs)
        split = data.split_per_user(ds, seed=seed)
        union = (split.train.interaction_set() | split.validation.interaction_set()
                 | split.test.interaction_set())
        assert union == ds.interaction_set()
        total = (split.train.num_interactions + split.validation.num_interactions
                 + split.test.num_interactions)
        assert total == ds.num_interactions


class TestEpochBatches:
    def test_batch_sizes_partition(self):
        ds = single_user_dataset(10)
        sizes = [len(b) for b in data.epoch_batches(ds, 4, epoch_seed=0)]
        assert sizes == [4, 4, 2]

    def test_short_tail_dropped(self):
        ds = single_user_dataset(9)
        batches = list(data.epoch_batches(ds, 4, epoch_seed=0))
        assert [len(b) for b in batches] == [4, 4]
        assert sum(len(b) for b in batches) == 8

    def test_each_pair_seen_once(self, synthetic_split):
        train = synthetic_split.train
        seen = []
        for batch in data.epoch_batches(train, 64, epoch_seed=1):
            seen.extend(zip(batch.user_indices.tolist(), batch.item_indices.tolist()))
        assert len(seen) == len(set(seen))
        assert set(seen) <= train.interaction_set()

    def test_different_seeds_same_multiset_different_order(self):
        ds = single_user_dataset(12)
        flat = lambda s: [
            (int(u), int(i))
            for b in data.epoch_batches(ds, 4, epoch_seed=s)
            for u, i in zip(b.user_indices, b.item_indices)
        ]
        a, b = flat(1), flat(2)
        assert sorted(a) == sorted(b)
        assert a != b

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(data.epoch_batches(single_user_dataset(5), 1, epoch_seed=0))

    def test_pairs_are_training_interactions(self, synthetic_split):
        train = synthetic_split.train
        batch = next(data.epoch_batches(train, 32, epoch_seed=3))
        pairs = set(zip(batch.user_indices.tolist(), batch.item_indices.tolist()))
        assert pairs <= train.interaction_set()


class TestTwoClusterDataset:
    def test_shape_and_counts(self, synthetic_dataset):
        ds = synthetic_dataset
        assert (ds.num_users, ds.num_items) == (200, 100)
        assert ds.num_interactions == 2000
        for user in range(ds.num_users):
            assert ds.items_for_user(user).size == 10

    def test_interactions_stay_in_cluster(self, synthetic_dataset):
        ds = synthetic_dataset
        for user, item in ds.interactions:
            assert (user < 100) == (item < 50)

    def test_seeded(self):
        a = data.two_cluster_dataset(seed=3)
        b = data.two_cluster_dataset(seed=3)
        np.testing.assert_array_equal(a.interactions, b.interactions)


def test_split_manifest(tmp_path, synthetic_dataset):
    import json

    split = data.split_per_user(synthetic_dataset, seed=5)
    path = tmp_path / "manifest.json"
    data.write_split_manifest(split, path)
    manifest = json.loads(path.read_text())
    assert manifest["split_seed"] == 5
    assert manifest["ratios"] == [0.8, 0.1, 0.1]
    assert manifest["interactions"]["train"] == split.train.num_interactions
