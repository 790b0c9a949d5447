import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sphererec import data
from sphererec.evaluation import MetricsReport, _top_k, evaluate

# heavy ties, excluded (-inf) cells, and the NaN and +inf that overflowing dot products give
tied_scores = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan]),
)


def oracle_cluster_embeddings(split):
    """Indicator embeddings: every user/item points at its cluster axis."""
    users = np.zeros((split.num_users, 2))
    users[:split.num_users // 2, 0] = 1.0
    users[split.num_users // 2:, 1] = 1.0
    items = np.zeros((split.num_items, 2))
    items[:split.num_items // 2, 0] = 1.0
    items[split.num_items // 2:, 1] = 1.0
    return users, items


def tie_heavy_fixture():
    """A 40-user, 30-item split whose embeddings tie a lot and score exactly.

    Rows are signed axis vectors or (+-0.5, +-0.5, +-0.5, +-0.5) scaled by 0,
    0.5, 1, 2 or 3, so zero rows occur and every norm, unit row and score is
    exact whatever the summation order; items 10-19 repeat rows 0-9.
    """
    rng = np.random.default_rng(3)
    halves = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [-1, 1, 1, -1]])
    palette = np.vstack([np.eye(4), -np.eye(4), halves, -halves])

    def rows(n):
        scales = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=(n, 1))
        return palette[rng.integers(len(palette), size=n)] * scales

    users, items = rows(40), rows(30)
    items[10:20] = items[:10]
    pairs = [(user, int(item)) for user in range(40)
             for item in rng.choice(30, size=rng.integers(2, 16), replace=False)]
    split = data.split_per_user(data.dataset_from_pairs(40, 30, pairs), seed=4)
    return split, users, items


def one_user_split(num_items, train_items, validation_items, test_items):
    def part(items):
        return data.dataset_from_pairs(1, num_items, [(0, item) for item in items])
    return data.SplitDataset(train=part(train_items), validation=part(validation_items),
                             test=part(test_items), split_seed=0)


def ranked_in_index_order(split, ks):
    """Evaluate a one-user split whose item scores fall as the item index grows."""
    items = np.arange(split.num_items, 0, -1, dtype=float)[:, None]
    return evaluate(split, np.ones((1, 1)), items, ks=ks, score_mode="dot")


class TestRecall:
    def test_single_relevant_hit(self):
        report = ranked_in_index_order(one_user_split(3, [], [], [0]), (1, 3))
        assert report.recall == {1: 1.0, 3: 1.0}

    def test_no_hits(self):
        report = ranked_in_index_order(one_user_split(3, [], [], [2]), (2,))
        assert report.recall[2] == 0.0

    def test_partial(self):
        # items 0 and 1 of the relevant {0, 1, 7, 8} make the top 3
        report = ranked_in_index_order(one_user_split(10, [], [], [0, 1, 7, 8]), (3,))
        assert report.recall[3] == 0.5


class TestNdcg:
    def test_hit_at_rank_one(self):
        report = ranked_in_index_order(one_user_split(3, [], [], [0]), (1, 3))
        assert report.ndcg == {1: 1.0, 3: 1.0}

    def test_hit_at_rank_two(self):
        report = ranked_in_index_order(one_user_split(3, [], [], [1]), (1, 2))
        assert report.recall == {1: 0.0, 2: 1.0}
        assert report.ndcg == {1: 0.0, 2: 1.0 / math.log2(3)}

    def test_no_hits(self):
        report = ranked_in_index_order(one_user_split(3, [], [], [2]), (2,))
        assert report.ndcg[2] == 0.0

    def test_one_iff_all_relevant_on_top(self):
        # both relevant items in the top-2 slots -> exactly 1
        on_top = ranked_in_index_order(one_user_split(3, [], [], [0, 1]), (3,))
        assert on_top.ndcg[3] == 1.0
        # one relevant item pushed below a miss -> strictly below 1
        below = ranked_in_index_order(one_user_split(3, [], [], [0, 2]), (3,))
        assert below.ndcg[3] < 1.0


class TestEvaluate:
    def test_oracle_embeddings_reach_full_recall(self, synthetic_split):
        users, items = oracle_cluster_embeddings(synthetic_split)
        report = evaluate(synthetic_split, users, items, ks=(50,), part="test")
        assert report.recall[50] == pytest.approx(1.0)
        assert report.num_users_evaluated == 200

    def test_random_embeddings_match_chance(self):
        # 1 dummy train item + 1 test item per user, 1000 items, K=20:
        # chance recall is 20/999 with hypergeometric std over users
        rng = np.random.default_rng(0)
        num_users, num_items, k = 300, 1000, 20
        train, test = [], []
        for user in range(num_users):
            dummy, target = rng.choice(num_items, size=2, replace=False)
            train.append((user, int(dummy)))
            test.append((user, int(target)))
        split = data.SplitDataset(
            train=data.dataset_from_pairs(num_users, num_items, train),
            validation=data.dataset_from_pairs(num_users, num_items, [train[0]]),
            test=data.dataset_from_pairs(num_users, num_items, test),
            split_seed=0,
        )
        users = rng.normal(size=(num_users, 16))
        items = rng.normal(size=(num_items, 16))
        # the validation pair is a training pair, so excluding it changes nothing
        report = evaluate(split, users, items, ks=(k,), part="test")
        expected = k / (num_items - 1)
        sigma = np.sqrt(expected * (1 - expected) / num_users)
        assert abs(report.recall[k] - expected) <= 3 * sigma

    def test_excluding_train_never_hurts_recall(self, synthetic_split):
        rng = np.random.default_rng(1)
        users = rng.normal(size=(synthetic_split.num_users, 8))
        items = rng.normal(size=(synthetic_split.num_items, 8))
        with_exclusion = evaluate(synthetic_split, users, items, ks=(10,), part="test")
        no_exclusion_split = data.SplitDataset(
            train=data.dataset_from_pairs(synthetic_split.num_users,
                                          synthetic_split.num_items, [(0, 0)]),
            validation=data.dataset_from_pairs(synthetic_split.num_users,
                                               synthetic_split.num_items, []),
            test=synthetic_split.test,
            split_seed=0,
        )
        without_exclusion = evaluate(no_exclusion_split, users, items, ks=(10,), part="test")
        assert with_exclusion.recall[10] >= without_exclusion.recall[10]

    def test_k_larger_than_catalog(self):
        # 4 items with item 0 excluded rank as 1, 2, 3, then 0: K = 10 covers them all
        report = ranked_in_index_order(one_user_split(4, [0], [], [3]), (2, 10))
        assert report.recall == {2: 0.0, 10: 1.0}
        assert report.ndcg == {2: 0.0, 10: 0.5}

    @pytest.mark.parametrize("part", ["test", "validation"])
    @pytest.mark.parametrize("score_mode", ["cosine", "dot"])
    def test_matches_naive_ranking_oracle(self, part, score_mode):
        split, users, items = tie_heavy_fixture()
        ks = (1, 3, 10, 40)  # 40 is more than the 30 items

        def item_sets(part_data):
            return {user: set(part_data.items_for_user(user).tolist())
                    for user in range(part_data.num_users)}

        target = split.test if part == "test" else split.validation
        recall, ndcg, num_users = oracles.ranking_metrics(
            users.tolist(), items.tolist(), item_sets(split.train), item_sets(split.validation),
            item_sets(target), ks, score_mode, part)
        report = evaluate(split, users, items, ks=ks, part=part, score_mode=score_mode)
        assert report == MetricsReport(ks, recall, ndcg, num_users)

    @pytest.mark.parametrize("ks", [(1, 3, 10), (2, 7), (25,), (29,)])
    @pytest.mark.parametrize("part", ["test", "validation"])
    @pytest.mark.parametrize("score_mode", ["cosine", "dot"])
    def test_matches_naive_ranking_oracle_below_catalog_size(self, ks, part, score_mode):
        # every K is below the 30 items, so each one cuts the ranking
        split, users, items = tie_heavy_fixture()

        def item_sets(part_data):
            return {user: set(part_data.items_for_user(user).tolist())
                    for user in range(part_data.num_users)}

        target = split.test if part == "test" else split.validation
        recall, ndcg, num_users = oracles.ranking_metrics(
            users.tolist(), items.tolist(), item_sets(split.train), item_sets(split.validation),
            item_sets(target), ks, score_mode, part)
        report = evaluate(split, users, items, ks=ks, part=part, score_mode=score_mode)
        assert report == MetricsReport(ks, recall, ndcg, num_users)

    def test_excluded_items_fill_the_tail_when_fewer_than_k_remain(self):
        # 6 items, 4 excluded from the test ranking: K = 5 ranks 1, 4, then 0, 2, 3
        report = ranked_in_index_order(one_user_split(6, [0, 2, 3], [5], [4]), (1, 5))
        assert report.recall == {1: 0.0, 5: 1.0}
        assert report.ndcg == {1: 0.0, 5: 1.0 / math.log2(3)}

    @given(tied_scores)
    @settings(max_examples=300, deadline=None)
    def test_top_k_equals_full_stable_argsort(self, scores):
        ranking = np.argsort(-scores, axis=1, kind="stable")
        for k in range(1, scores.shape[1] + 1):
            np.testing.assert_array_equal(_top_k(scores.copy(), k), ranking[:, :k])

    @pytest.mark.parametrize("table", ["user_vectors", "item_vectors"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vectors(self, synthetic_split, table, bad):
        # a NaN user row used to be ranked with its training items on top
        users, items = oracle_cluster_embeddings(synthetic_split)
        (users if table == "user_vectors" else items)[0, 0] = bad
        with pytest.raises(ValueError, match=f"{table} contains non-finite"):
            evaluate(synthetic_split, users, items)

    def test_rejects_dot_scores_that_overflow(self):
        # finite rows used to be ranked on overflowed scores: item 0 scored
        # 1e400 - 1e400 = NaN and ranked last, so recall@1 read 0
        split = one_user_split(2, [], [], [0])
        users = np.array([[1e200, 1e200]])
        items = np.array([[1e200, -1e200], [1.0, 1.0]])
        with pytest.raises(ValueError, match="overflow"):
            evaluate(split, users, items, ks=(1,), score_mode="dot")

    def test_ties_across_kth_position_rank_by_ascending_index(self):
        # every item scores the same, so the top 2 are items 0 and 1
        items = np.ones((4, 1))
        for test_item, hit in ((1, 1.0), (2, 0.0)):
            split = one_user_split(4, [], [], [test_item])
            report = evaluate(split, np.ones((1, 1)), items, ks=(2,), score_mode="dot")
            assert report.recall[2] == hit

    def test_train_and_validation_items_excluded_from_test_ranking(self):
        # scores fall with the item index: 0 (train) > 1 (validation) > 2 (test) > 3
        split = one_user_split(4, [0], [1], [2])
        users, items = np.ones((1, 1)), np.array([[4.0], [3.0], [2.0], [1.0]])
        test = evaluate(split, users, items, ks=(1,), part="test", score_mode="dot")
        assert test.recall[1] == 1.0 and test.ndcg[1] == 1.0
        # with an empty validation part, item 1 is ranked and takes the top slot
        leaky = evaluate(one_user_split(4, [0], [], [2]), users, items, ks=(1,),
                         part="test", score_mode="dot")
        assert leaky.recall[1] == 0.0
        validation = evaluate(split, users, items, ks=(1,), part="validation", score_mode="dot")
        assert validation.recall[1] == 1.0

    def test_repeated_calls_identical(self, synthetic_split):
        users, items = oracle_cluster_embeddings(synthetic_split)
        a = evaluate(synthetic_split, users, items, ks=(10, 50), part="validation")
        b = evaluate(synthetic_split, users, items, ks=(10, 50), part="validation")
        assert a.recall == b.recall and a.ndcg == b.ndcg

    def test_id_space_mismatch(self, synthetic_split):
        users = np.zeros((7, 2))
        items = np.zeros((synthetic_split.num_items, 2))
        with pytest.raises(ValueError, match="split has"):
            evaluate(synthetic_split, users, items)

    def test_bad_part_and_mode(self, synthetic_split):
        users, items = oracle_cluster_embeddings(synthetic_split)
        with pytest.raises(ValueError, match="part"):
            evaluate(synthetic_split, users, items, part="train")
        with pytest.raises(ValueError, match="score_mode"):
            evaluate(synthetic_split, users, items, score_mode="euclidean")

    def test_k_must_be_positive(self, synthetic_split):
        users, items = oracle_cluster_embeddings(synthetic_split)
        with pytest.raises(ValueError, match="K must be >= 1"):
            evaluate(synthetic_split, users, items, ks=(0, 20))
        # a repeated K would add every user into its entry twice
        with pytest.raises(ValueError, match="K must be distinct"):
            evaluate(synthetic_split, users, items, ks=(20, 20))

    def test_report_table_format(self, synthetic_split):
        users, items = oracle_cluster_embeddings(synthetic_split)
        report = evaluate(synthetic_split, users, items, ks=(20, 50), part="test")
        table = report.format_table()
        assert "R@20" in table and "N@50" in table
        assert len(table.splitlines()) == 2
