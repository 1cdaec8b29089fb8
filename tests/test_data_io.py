import numpy as np
import pytest

from selfrank.data_io import (
    RatingsTable,
    build_pair_tasks,
    parse_movielens,
    parse_ratings_csv,
    parse_user_features_csv,
    simulate_movielens_table,
    split_per_user,
    subsample_users,
    top_items,
    user_feature_map,
    write_movielens,
)
from selfrank.errors import DuplicateRatingError, InvalidInputError, RatingsParseError


class TestParseMovielens:
    def test_single_record(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t881250949\n")
        table = parse_movielens(path)
        assert table.rating(1, 5) == 3.0
        assert table.users == [1] and table.items == [5]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("")
        table = parse_movielens(path)
        assert len(table) == 0

    def test_malformed_rating_reports_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\tthree\t0\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_no == 1

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t0\n2\t6\t4\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    def test_non_finite_rating_reports_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t0\n2\t6\tnan\t0\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t0\n1\t5\t4\t0\n")
        with pytest.raises(DuplicateRatingError):
            parse_movielens(path)

    def test_round_trip(self, tmp_path):
        src = tmp_path / "a.data"
        src.write_text("2\t7\t4\t123\n1\t5\t3\t456\n1\t7\t2.5\t789\n")
        table = parse_movielens(src)
        dst = tmp_path / "b.data"
        write_movielens(table, dst)
        again = parse_movielens(dst)
        assert again.users == table.users
        assert again.items == table.items
        assert again.ratings == table.ratings


class TestParseCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,4.5\nu2,i7,2\n")
        table = parse_ratings_csv(path)
        assert table.rating("1", "10") == 4.5
        assert table.rating("u2", "i7") == 2.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(RatingsParseError):
            parse_ratings_csv(path)

    def test_non_finite_rating_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,4.5\nu2,i7,inf\n")
        with pytest.raises(RatingsParseError) as err:
            parse_ratings_csv(path)
        assert err.value.line_no == 3

    def test_features_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("user,f1,f2\n1,0.5,-1\n2,2,3\n")
        feats = parse_user_features_csv(path)
        np.testing.assert_array_equal(feats["1"], [0.5, -1.0])
        np.testing.assert_array_equal(feats["2"], [2.0, 3.0])

    def test_features_csv_non_finite_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("user,f1,f2\n1,0.5,-1\n2,-inf,3\n")
        with pytest.raises(RatingsParseError) as err:
            parse_user_features_csv(path)
        assert err.value.line_no == 3

    def test_features_csv_resolves_integer_table_ids(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0})
        table.user_features = {"1": np.array([7.0, 8.0])}
        feats = user_feature_map(table, ["a", "b"])
        np.testing.assert_array_equal(feats[1], [7.0, 8.0])


class TestRatingsTable:
    def test_undeclared_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            RatingsTable(users=[1], items=[2], ratings={(1, 3): 4.0})


def _table(ratings):
    users = sorted({u for u, _ in ratings})
    items = sorted({i for _, i in ratings})
    return RatingsTable(users=users, items=items, ratings=dict(ratings))


class TestSplitPerUser:
    def test_ten_ratings_split_5_2_3(self):
        ratings = {(1, i): float(i) for i in range(10)}
        split = split_per_user(_table(ratings), seed=0)
        assert len(split.train) == 5
        assert len(split.val) == 2
        assert len(split.test) == 3

    def test_deterministic_given_seed(self):
        ratings = {(u, i): 1.0 for u in range(3) for i in range(8)}
        s1 = split_per_user(_table(ratings), seed=11)
        s2 = split_per_user(_table(ratings), seed=11)
        assert s1.train.ratings == s2.train.ratings
        assert s1.val.ratings == s2.val.ratings
        assert s1.test.ratings == s2.test.ratings

    def test_small_user_falls_back_to_train_with_warning(self):
        ratings = {(1, 0): 1.0, (1, 1): 2.0, (2, 0): 3.0, (2, 1): 1.0, (2, 2): 2.0}
        with pytest.warns(UserWarning, match="placing all in train"):
            split = split_per_user(_table(ratings))
        assert split.train.rating(1, 0) == 1.0
        assert split.train.rating(1, 1) == 2.0

    def test_partition_per_user(self):
        rng = np.random.default_rng(0)
        ratings = {
            (u, i): float(rng.integers(1, 6))
            for u in range(5)
            for i in rng.choice(30, size=rng.integers(3, 20), replace=False)
        }
        table = _table(ratings)
        split = split_per_user(table, seed=3)
        merged = {**split.train.ratings, **split.val.ratings, **split.test.ratings}
        assert merged == table.ratings
        # disjoint
        assert not (split.train.ratings.keys() & split.val.ratings.keys())
        assert not (split.train.ratings.keys() & split.test.ratings.keys())
        assert not (split.val.ratings.keys() & split.test.ratings.keys())

    def test_invalid_fractions(self):
        with pytest.raises(InvalidInputError):
            split_per_user(_table({(1, 1): 1.0}), fractions=(0.5, 0.5, 0.5))


class TestBuildPairTasks:
    def test_single_co_rating(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0})
        tasks = build_pair_tasks(table, ["a", "b"])
        assert len(tasks.tasks) == 1
        t = tasks.tasks[0]
        assert t.pair == ("a", "b")
        np.testing.assert_array_equal(t.z, [2.0])
        assert t.query_ids == (1,)

    def test_uncovered_pairs_skipped(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0, (2, "c"): 5.0})
        tasks = build_pair_tasks(table, ["a", "b", "c"])
        assert [t.pair for t in tasks.tasks] == [("a", "b")]

    def test_tied_ratings_keep_zero_difference(self):
        table = _table({(1, "a"): 3.0, (1, "b"): 3.0})
        tasks = build_pair_tasks(table, ["a", "b"])
        np.testing.assert_array_equal(tasks.tasks[0].z, [0.0])

    def test_subset_too_small(self):
        table = _table({(1, "a"): 1.0})
        with pytest.raises(InvalidInputError):
            build_pair_tasks(table, ["a"])

    def test_unknown_subset_item(self):
        table = _table({(1, "a"): 1.0, (1, "b"): 2.0})
        with pytest.raises(InvalidInputError):
            build_pair_tasks(table, ["a", "zzz"])

    def test_independent_of_insertion_order(self):
        r1 = {(1, "a"): 4.0, (2, "a"): 1.0, (1, "b"): 2.0, (2, "b"): 5.0}
        r2 = dict(reversed(list(r1.items())))
        t1 = build_pair_tasks(_table(r1), ["a", "b"])
        t2 = build_pair_tasks(_table(r2), ["a", "b"])
        assert [t.pair for t in t1.tasks] == [t.pair for t in t2.tasks]
        for a, b in zip(t1.tasks, t2.tasks):
            assert a.query_ids == b.query_ids
            np.testing.assert_array_equal(a.z, b.z)


class TestHelpers:
    def test_top_items_by_count_then_id(self):
        ratings = {(1, "a"): 1.0, (2, "a"): 1.0, (1, "b"): 1.0, (1, "c"): 1.0, (2, "c"): 1.0}
        assert top_items(_table(ratings), 2) == ["a", "c"]

    def test_subsample_users_deterministic(self):
        ratings = {(u, 1): 1.0 for u in range(50)}
        t = _table(ratings)
        s1 = subsample_users(t, 10, seed=4)
        s2 = subsample_users(t, 10, seed=4)
        assert s1.users == s2.users
        assert len(s1.users) == 10

    def test_feature_map_mean_imputation(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0, (1, "zz"): 5.0})
        feats = user_feature_map(table, ["a", "b", "c"])
        # imputed at the subset mean (3.0), centered there, unit-normalized:
        # (4, 2, 3) -> (1, -1, 0) / sqrt(2)
        np.testing.assert_allclose(feats[1], [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0])

    def test_feature_map_constant_ratings_give_zero_vector(self):
        table = _table({(1, "a"): 3.0, (1, "b"): 3.0})
        feats = user_feature_map(table, ["a", "b"])
        np.testing.assert_array_equal(feats[1], [0.0, 0.0])

    def test_feature_map_prefers_provided_features(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0})
        table.user_features = {1: np.array([9.0, 9.0])}
        feats = user_feature_map(table, ["a", "b"])
        np.testing.assert_array_equal(feats[1], [9.0, 9.0])

    def test_simulated_table_shape(self):
        table = simulate_movielens_table(n_users=50, n_items=100, seed=1)
        assert len(table.users) == 50
        assert all(1.0 <= r <= 5.0 for r in table.ratings.values())
        # every user carries at least the minimum rating count
        counts = {}
        for (u, _i) in table.ratings:
            counts[u] = counts.get(u, 0) + 1
        assert min(counts.values()) >= 20
