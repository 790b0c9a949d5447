import numpy as np
import pytest

from sphererec import data
from sphererec.evaluation import evaluate, ndcg_at_k, recall_at_k


class TestRecall:
    def test_single_relevant_hit(self):
        assert recall_at_k(np.array([3, 1]), {1}) == 1.0

    def test_no_hits(self):
        assert recall_at_k(np.array([3, 1]), {7}) == 0.0

    def test_partial(self):
        assert recall_at_k(np.array([1, 2, 3]), {1, 2, 8, 9}) == 0.5

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), set())


class TestNdcg:
    def test_hit_at_rank_one(self):
        assert ndcg_at_k(np.array([5, 1, 2]), {5}, 3) == pytest.approx(1.0)

    def test_hit_at_rank_two(self):
        assert ndcg_at_k(np.array([9, 5]), {5}, 2) == pytest.approx(1.0 / np.log2(3.0))

    def test_no_hits(self):
        assert ndcg_at_k(np.array([9, 8]), {5}, 2) == 0.0

    def test_one_iff_all_relevant_on_top(self):
        # both relevant items in the top-2 slots -> exactly 1
        assert ndcg_at_k(np.array([4, 2, 7]), {2, 4}, 3) == pytest.approx(1.0)
        # one relevant item pushed below a miss -> strictly below 1
        assert ndcg_at_k(np.array([4, 7, 2]), {2, 4}, 3) < 1.0


def oracle_cluster_embeddings(split):
    """Indicator embeddings: every user/item points at its cluster axis."""
    users = np.zeros((split.num_users, 2))
    users[:split.num_users // 2, 0] = 1.0
    users[split.num_users // 2:, 1] = 1.0
    items = np.zeros((split.num_items, 2))
    items[:split.num_items // 2, 0] = 1.0
    items[split.num_items // 2:, 1] = 1.0
    return users, items


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

    @staticmethod
    def one_user_split(num_items, train_items, validation_items, test_items):
        def part(items):
            return data.dataset_from_pairs(1, num_items, [(0, item) for item in items])
        return data.SplitDataset(train=part(train_items), validation=part(validation_items),
                                 test=part(test_items), split_seed=0)

    def test_ties_across_kth_position_rank_by_ascending_index(self):
        # every item scores the same, so the top 2 are items 0 and 1
        items = np.ones((4, 1))
        for test_item, hit in ((1, 1.0), (2, 0.0)):
            split = self.one_user_split(4, [], [], [test_item])
            report = evaluate(split, np.ones((1, 1)), items, ks=(2,), score_mode="dot")
            assert report.recall[2] == hit

    def test_train_and_validation_items_excluded_from_test_ranking(self):
        # scores fall with the item index: 0 (train) > 1 (validation) > 2 (test) > 3
        split = self.one_user_split(4, [0], [1], [2])
        users, items = np.ones((1, 1)), np.array([[4.0], [3.0], [2.0], [1.0]])
        test = evaluate(split, users, items, ks=(1,), part="test", score_mode="dot")
        assert test.recall[1] == 1.0 and test.ndcg[1] == 1.0
        # with an empty validation part, item 1 is ranked and takes the top slot
        leaky = evaluate(self.one_user_split(4, [0], [], [2]), users, items, ks=(1,),
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
