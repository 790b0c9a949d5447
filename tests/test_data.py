import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
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
        assert oracles.interaction_set(ds) == {(0, 0), (1, 1), (0, 1)}

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path / "x.tsv", "a\tb\nonlyone\n")
        with pytest.raises(ValueError, match=":2:"):
            data.load_interactions(path)

    @pytest.mark.parametrize("raw, line", [
        *((b"".join(b"u%d\ti%d" % (n, n % 50) + newline for n in range(3000))
           + b"u\xff\tx" + newline, 3001) for newline in (b"\n", b"\r\n", b"\r")),
        ("a\tb\nc\td\ne\t\u20ac".encode("utf-8")[:-1], 3),
    ], ids=["lf", "crlf", "cr", "truncated-at-end"])
    def test_invalid_utf8_reports_path_and_line(self, tmp_path, raw, line):
        # the 0xff sits past the text reader's first decode block; the decoder's own
        # message gave a position inside its current block and neither path nor line
        path = tmp_path / "bad.tsv"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as raised:
            data.load_interactions(path)
        assert str(raised.value) == f"{path}:{line}: not valid UTF-8"

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

    def test_byte_order_mark_is_not_part_of_the_first_user_id(self, tmp_path):
        path = write(tmp_path / "x.csv", "\ufeffa,x\nb,y\na,y\n")
        ds = data.load_interactions(path)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (2, 2, 3)

    def test_byte_order_mark_before_a_comment_header(self, tmp_path):
        path = write(tmp_path / "x.tsv", "\ufeff# user\titem\na\tb\n")
        ds = data.load_interactions(path)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (1, 1, 1)

    def test_peak_memory_grows_by_a_few_bytes_per_line(self, tmp_path):
        # 2,000 users x 1,000 items, so the id dicts stay the same size while the lines grow;
        # oracles.reference_load_interactions peaks at about 104 bytes a line, 21.7 MiB at 200K
        rng = np.random.default_rng(3)
        peaks = []
        for num_lines in (50_000, 200_000):
            users, items = rng.integers(2000, size=num_lines), rng.integers(1000, size=num_lines)
            path = write(tmp_path / f"{num_lines}.tsv", "".join(
                f"u{u}\ti{i}\n" for u, i in zip(users.tolist(), items.tolist())))
            tracemalloc.start()
            try:
                data.load_interactions(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 150_000 < 48
        assert peaks[1] < 12 << 20


def outcome(load, path, format):
    """What `load(path, format)` returns, or the type and message of what it raises."""
    try:
        return load(path, format)
    except (ValueError, UnicodeError) as exc:
        return type(exc), str(exc)


def assert_same_arrays(ds, reference):
    assert (ds.num_users, ds.num_items) == (reference.num_users, reference.num_items)
    for name in ("interactions", "user_indptr", "user_items"):
        got, want = getattr(ds, name), getattr(reference, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def assert_same_split(split, reference_parts):
    for part, reference in zip((split.train, split.validation, split.test), reference_parts):
        assert_same_arrays(part, reference)


# short ids from all of unicode bar surrogates, line breaks and spaces, commas and '#' included,
# so that some lines split into extra fields or turn into comments
IDS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp", "Zs")),
              min_size=1, max_size=3)
SKIPPED_LINES = ("", " \t ", "\u3000", "# comment", "  #a\tb", "#,")
MALFORMED_LINES = ("only", " ,x", "x, ", "a,\t")


@st.composite
def interaction_files(draw):
    """(text, format) of an interaction file: shuffled lines of users with 0 to 10 items each,
    padded and extra fields, skipped and malformed lines, mixed line endings and an optional
    byte-order mark."""
    format = draw(st.sampled_from(["tsv", "csv"]))
    users = draw(st.lists(st.sampled_from(["a", "é", "用户", "a b"]) | IDS, min_size=1, max_size=6))
    items = draw(st.lists(st.sampled_from(["x", "ñ1", "項目"]) | IDS, min_size=1, max_size=6))
    pairs = [(user, item) for user in users
             for item in draw(st.lists(st.sampled_from(items), max_size=10))]
    lines = []
    for user, item in draw(st.permutations(pairs)):
        pad, extra = draw(st.sampled_from(["", " ", "\t "])), draw(st.sampled_from(["", "5", "3 17"]))
        sep = "," if format == "csv" else draw(st.sampled_from(["\t", " ", " \t", "\u3000"]))
        lines.append(pad + sep.join([f"{user}{pad}", f"{pad}{item}", extra][:3 if extra else 2])
                     + pad)
    junk = [draw(st.sampled_from(SKIPPED_LINES)) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)) == 0:
        junk.append(draw(st.sampled_from(MALFORMED_LINES)))
    for line in junk:
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line break
    return ("\ufeff" if draw(st.booleans()) else "") + text, format


@given(interaction_files(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_load_and_split_match_the_line_by_line_oracle(file, chunk_lines, seed):
    # a chunk of a few lines puts ids, junk lines and malformed lines across chunk edges
    text, format = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"interactions.{format}"
        path.write_bytes(text.encode("utf-8"))
        reference = outcome(oracles.reference_load_interactions, path, format)
        with mock.patch.object(data, "_CHUNK_LINES", chunk_lines):
            ds = outcome(data.load_interactions, path, format)
    if isinstance(reference, tuple):
        assert ds == reference
        return
    assert_same_arrays(ds, reference)
    assert_same_split(data.split_per_user(ds, seed=seed), oracles.reference_split(reference, seed))


@given(st.integers(1, 12), st.integers(1, 12), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dataset_and_split_match_the_oracle_with_empty_users(num_users, num_items, draw, seed):
    # unsorted pairs with duplicates, and users with no pairs at all
    pairs = draw.draw(st.lists(st.tuples(st.integers(0, num_users - 1),
                                         st.integers(0, num_items - 1)), max_size=60))
    ds = data.dataset_from_pairs(num_users, num_items, pairs)
    reference = oracles.reference_dataset(num_users, num_items, pairs)
    assert_same_arrays(ds, reference)
    assert_same_split(data.split_per_user(ds, seed=seed), oracles.reference_split(reference, seed))


def test_every_builder_gives_read_only_int64_arrays(tmp_path):
    loaded = data.load_interactions(write(tmp_path / "x.tsv", "a\tx\nb\ty\na\ty\na\tz\n"))
    split = data.split_per_user(data.two_cluster_dataset(seed=2), seed=4)
    for ds in (loaded, data.dataset_from_pairs(3, 4, [(2, 1), (0, 3), (2, 1)]),
               data.dataset_from_pairs(3, 4, []), data.two_cluster_dataset(seed=2),
               split.train, split.validation, split.test):
        for arr in (ds.interactions, ds.user_indptr, ds.user_items):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable


class TestDatasetFromPairs:
    def test_key_overflow_rejected_before_the_pairs_are_read(self):
        class Untouchable:
            def __array__(self, *args, **kwargs):
                raise AssertionError("the pairs were read")

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not fit in int64"):
                data.dataset_from_pairs(2**32, 2**31, Untouchable())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_largest_key_space_that_fits(self):
        ds = data.dataset_from_pairs(1, 2**63 - 1, [(0, 2**63 - 2), (0, 5), (0, 2**63 - 2)])
        assert ds.interactions.tolist() == [[0, 5], [0, 2**63 - 2]]
        with pytest.raises(ValueError, match="int64"):
            data.dataset_from_pairs(2, 2**62, [(1, 0)])

    def test_caller_array_is_not_frozen(self):
        pairs = np.array([[0, 1], [1, 0]])
        ds = data.dataset_from_pairs(2, 2, pairs)
        assert pairs.flags.writeable
        assert not np.shares_memory(ds.interactions, pairs)


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
        train = oracles.interaction_set(split.train)
        val = oracles.interaction_set(split.validation)
        test = oracles.interaction_set(split.test)
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == oracles.interaction_set(synthetic_dataset)

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
        union = (oracles.interaction_set(split.train) | oracles.interaction_set(split.validation)
                 | oracles.interaction_set(split.test))
        assert union == oracles.interaction_set(ds)
        total = (split.train.num_interactions + split.validation.num_interactions
                 + split.test.num_interactions)
        assert total == ds.num_interactions


class TestEpochBatches:
    def test_batch_sizes_partition(self):
        ds = single_user_dataset(10)
        sizes = [users.size for users, _ in data.epoch_batches(ds, 4, epoch_seed=0)]
        assert sizes == [4, 4, 2]

    def test_short_tail_dropped(self):
        ds = single_user_dataset(9)
        batches = list(data.epoch_batches(ds, 4, epoch_seed=0))
        assert [users.size for users, _ in batches] == [4, 4]
        assert sum(users.size for users, _ in batches) == 8

    def test_each_pair_seen_once(self, synthetic_split):
        train = synthetic_split.train
        seen = []
        for users, items in data.epoch_batches(train, 64, epoch_seed=1):
            seen.extend(zip(users.tolist(), items.tolist()))
        assert len(seen) == len(set(seen))
        assert set(seen) <= oracles.interaction_set(train)

    def test_different_seeds_same_multiset_different_order(self):
        ds = single_user_dataset(12)
        flat = lambda s: [
            (int(u), int(i))
            for users, items in data.epoch_batches(ds, 4, epoch_seed=s)
            for u, i in zip(users, items)
        ]
        a, b = flat(1), flat(2)
        assert sorted(a) == sorted(b)
        assert a != b

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(data.epoch_batches(single_user_dataset(5), 1, epoch_seed=0))

    def test_pairs_are_training_interactions(self, synthetic_split):
        train = synthetic_split.train
        users, items = next(data.epoch_batches(train, 32, epoch_seed=3))
        pairs = set(zip(users.tolist(), items.tolist()))
        assert pairs <= oracles.interaction_set(train)


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
