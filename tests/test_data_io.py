import math
import re
import tracemalloc
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfrank.data_io import (
    RatingsTable,
    _encode,
    _rating_block,
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
from selfrank.kernels import KernelSpec
from selfrank.ranking import build_pair_task_data


class TestParseMovielens:
    def test_single_record(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t881250949\n")
        table = parse_movielens(path)
        assert table.ratings[(1, 5)] == 3.0
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
        path.write_text("1\t5\t3\t0\n2\t5\t4\t0\n\n1\t5\t4\t0\n2\t5\t1\t0\n")
        with pytest.raises(DuplicateRatingError, match="^line 4: duplicate rating for user 1, item 5$") as err:
            parse_movielens(path)
        assert err.value.line_no == 4

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("\n1\t5\t3\t0\n\n\n2\t6\t4\t0\n")
        table = parse_movielens(path)
        assert dict(table.ratings) == {(1, 5): 3.0, (2, 6): 4.0}
        path.write_text("1\t5\t3\t0\n\n2\t6\tfour\t0\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_no == 3

    def test_crlf_line_endings_accepted(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_bytes(b"1\t5\t3\t881250949\r\n2\t6\t4.5\t0\r\n")
        table = parse_movielens(path)
        assert dict(table.ratings) == {(1, 5): 3.0, (2, 6): 4.5}

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t0\n2\t6\t4\t0")
        assert dict(parse_movielens(path).ratings) == {(1, 5): 3.0, (2, 6): 4.0}
        path.write_text("1\t5\t3\t0\n2\t6\t4")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line", ["1.5\t5\t3\t0", "1\t5e0\t3\t0", "\t5\t3\t0"])
    def test_non_integer_id_reports_line(self, tmp_path, line):
        path = tmp_path / "u.data"
        path.write_text(f"1\t5\t3\t0\n{line}\n")
        with pytest.raises(RatingsParseError, match="non-numeric field") as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    def test_id_outside_64_bits_reports_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(f"1\t5\t3\t0\n{2**63}\t5\t3\t0\n")
        with pytest.raises(RatingsParseError, match="64-bit") as err:
            parse_movielens(path)
        assert err.value.line_no == 2
        path.write_text(f"{-2**63}\t+5\t3\t0\n")
        assert dict(parse_movielens(path).ratings) == {(-2**63, 5): 3.0}

    @pytest.mark.parametrize("line, fields", [("2\t6\t4", 3), ("2\t6\t4\t0\t9", 5), ("2 6 4 0", 1)])
    def test_field_count_reported(self, tmp_path, line, fields):
        path = tmp_path / "u.data"
        path.write_text(f"1\t5\t3\t0\n{line}\n3\t7\tx\t0\n")
        with pytest.raises(RatingsParseError, match=f"got {fields}$") as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("text, fields", [
        ("1\t2\t\n4\t\t5\t6\t0\n", 3),  # read across the line break, every field would convert
        ("1\t2\t\n\n4\t\t5\t6\t0\n", 3),
        ("4\t\t5\t6\t0\n1\t2\t\n", 5),
        ("4\t\t5\t6\t0\n\n1\t2\t\n", 5),
    ])
    def test_offsetting_tab_counts_rejected(self, tmp_path, text, fields):
        """Two bad lines can hold three tabs a line between them; the first is named."""
        path = tmp_path / "u.data"
        path.write_text(text)
        with pytest.raises(RatingsParseError, match=f"expected 4 tab-separated fields, got {fields}$") as err:
            parse_movielens(path)
        assert err.value.line_no == 1

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\t0\n1\t6\tinf\t0\n1\t5\t4\t0\n2\t6\n")
        with pytest.raises(RatingsParseError, match="non-finite") as err:
            parse_movielens(path)
        assert err.value.line_no == 2

    def test_timestamp_is_not_read(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t3\tyesterday\n2\t6\t4\t\n")
        assert dict(parse_movielens(path).ratings) == {(1, 5): 3.0, (2, 6): 4.0}

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad", ["2\t6\t4", "2\t6\tfour\t0", "2\t6\tnan\t0", "1\t5\t4\t0"])
    @pytest.mark.parametrize("where", ["middle", "last", "last without newline"])
    def test_rejections_match_a_line_reader(self, tmp_path, newline, bad, where):
        """The column checks name the line and error a line-by-line reader stops at."""
        lines = ["1\t5\t3\t0", "", "3\t7\t2\t0", bad]
        if where == "middle":
            lines.append("4\t8\t1\t0")
        text = newline.join(lines) + ("" if where == "last without newline" else newline)
        path = tmp_path / "u.data"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(RatingsParseError) as want:
            parse_movielens_reference(path)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$") as err:
            parse_movielens(path)
        assert err.value.line_no == want.value.line_no == 4

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_not_utf8_names_file_and_line(self, tmp_path, newline):
        path = tmp_path / "u.data"
        path.write_bytes(newline.join(["1\t5\t3\t0", "", "2\t6\t4\t0\xff", ""]).encode("latin-1"))
        with pytest.raises(RatingsParseError, match=f"^line 3: {re.escape(str(path))} is not UTF-8 text") as err:
            parse_movielens(path)
        assert err.value.line_no == 3

    def test_transient_memory_of_a_full_size_parse(self, tmp_path):
        """Only the bytes of the text outlive its read, and the boundaries only the cut.

        On the 943-user, seed-0 table (0.94 MiB of text, 2.03 MiB kept) the
        parse allocates at most 7.8 MiB above its start, against 11.2 MiB
        while the decoded text and every boundary array lived to the end.
        """
        path = tmp_path / "u.data"
        write_movielens(simulate_movielens_table(n_users=943, n_items=1682, seed=0), path)
        parse_movielens(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            parse_movielens(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 9.0 * 2**20

    def test_ids_wider_than_the_ratings_match_the_mapping_table(self, tmp_path):
        """Users 1 and 10**12 span more ids than the file has ratings (np.unique's
        path), items 5 and 6 fewer (the presence table's)."""
        path = tmp_path / "u.data"
        path.write_text("1000000000000\t6\t4\t0\n1\t5\t3\t0\n1\t6\t2.5\t0\n")
        ratings = {(1, 5): 3.0, (1, 6): 2.5, (10**12, 6): 4.0}
        _assert_same_table(parse_movielens(path), RatingsTable({1, 10**12}, {5, 6}, ratings))


@st.composite
def id_columns(draw):
    """int64 id columns of n rows whose span is n, n + 1, at most n, or wider, placed
    anywhere in the int64 range: at 0, negative, near +-2**62 and at both ends."""
    n = draw(st.integers(0, 30))
    span = draw(st.sampled_from([n, n + 1]) | st.integers(1, max(n, 1)) | st.integers(n + 2, 2**64))
    if n == 0:
        return np.array([], dtype=np.int64)
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    offsets[0], offsets[-1] = 0, span - 1
    anchor = draw(st.sampled_from([0, -40, -2**62, 2**62, -2**63, 2**63 - 1]))
    lo = min(anchor, 2**63 - span)
    return np.array(draw(st.permutations([lo + k for k in offsets])), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(id_columns())
@example(np.array([], dtype=np.int64))
@example(np.array([-7, -7, -7], dtype=np.int64))  # one distinct id
@example(np.array([-2**62 + 2, -2**62, -2**62 + 2], dtype=np.int64))  # span n
@example(np.array([2**62 + 3, 2**62, 2**62 + 3], dtype=np.int64))  # span n + 1
@example(np.array([2**63 - 1, -2**63], dtype=np.int64))  # the whole int64 range
def test_id_coding_matches_np_unique(ids):
    """Both coding paths give np.unique's sorted ids, as Python ints, and its codes;
    np.unique is called only for an empty column or one spanning more ids than rows."""
    want, want_codes = np.unique(ids, return_inverse=True)
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        got, codes = _encode(ids)
    wide = ids.size == 0 or int(ids.max()) - int(ids.min()) + 1 > ids.size
    assert unique.called == wide
    assert got == want.tolist() and all(type(v) is int for v in got)
    _assert_same_array(codes, want_codes)


class TestParseCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,4.5\nu2,i7,2\n")
        table = parse_ratings_csv(path)
        assert table.ratings[("1", "10")] == 4.5
        assert table.ratings[("u2", "i7")] == 2.0

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

    def test_duplicate_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,4\nu2,10,3\n\n1,10,5\n")
        with pytest.raises(DuplicateRatingError, match="^line 5: duplicate rating for user 1, item 10$") as err:
            parse_ratings_csv(path)
        assert err.value.line_no == 5

    def test_features_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("user,f1,f2\n1,0.5,-1\n2,2,3\n")
        feats = parse_user_features_csv(path)
        np.testing.assert_array_equal(feats["1"], [0.5, -1.0])
        np.testing.assert_array_equal(feats["2"], [2.0, 3.0])

    def test_features_csv_repeated_user_rejected(self, tmp_path):
        """A second row for a user is an error, not a silent replacement of the first."""
        path = tmp_path / "f.csv"
        path.write_text("user,f1,f2\n1,0.5,-1\n2,2,3\n1,9,9\n")
        with pytest.raises(RatingsParseError, match="^line 4: duplicate features for user '1'$") as err:
            parse_user_features_csv(path)
        assert err.value.line_no == 4

    def test_features_csv_non_finite_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("user,f1,f2\n1,0.5,-1\n2,-inf,3\n")
        with pytest.raises(RatingsParseError) as err:
            parse_user_features_csv(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("parse, text, message", [
        (parse_ratings_csv, "user,item,rating\n1,10,4\n2,10\n", "expected 3 fields, got 2"),
        (parse_ratings_csv, "user,item,rating\n1,10,4\n2,10,four\n", "non-numeric rating 'four'"),
        (parse_user_features_csv, "user,f1,f2\n1,0.5,-1\n2,3\n", "expected 3 fields, got 2"),
        (parse_user_features_csv, "user,f1,f2\n1,0.5,-1\n2,x,3\n", "non-numeric feature value"),
    ], ids=["ratings-fields", "ratings-value", "features-fields", "features-value"])
    def test_bad_row_reports_line(self, tmp_path, parse, text, message):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(RatingsParseError, match=f"^line 3: {message}$") as err:
            parse(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("parse, text", [
        (parse_ratings_csv, b"user,item,rating\r\n1,10,4\r\n\xff,10,3\r\n"),
        (parse_user_features_csv, b"user,f1\n1,0.5\n2,\xe9\n"),
    ])
    def test_not_utf8_names_file_and_line(self, tmp_path, parse, text):
        path = tmp_path / "r.csv"
        path.write_bytes(text)
        with pytest.raises(RatingsParseError, match=f"^line 3: {re.escape(str(path))} is not UTF-8 text"):
            parse(path)

    def test_features_csv_blank_header_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\nuser,f1\n1,0.5\n")
        with pytest.raises(RatingsParseError, match="^line 1: expected header starting with `user`, got \\[\\]$"):
            parse_user_features_csv(path)

    def test_features_csv_without_feature_columns_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("user\n1\n2\n")
        with pytest.raises(RatingsParseError, match="^line 1: expected at least one feature column after `user`$"):
            parse_user_features_csv(path)

    def test_features_csv_resolves_integer_table_ids(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0})
        feats = user_feature_map(table, ["a", "b"], {"1": np.array([7.0, 8.0])})
        np.testing.assert_array_equal(feats[1], [7.0, 8.0])

    def test_features_csv_missing_user_named(self):
        table = _table({(1, "a"): 4.0, (2, "b"): 2.0})
        with pytest.raises(InvalidInputError, match="^no provided features for user 2$"):
            user_feature_map(table, ["a", "b"], {"1": np.array([7.0, 8.0])})


class TestRatingsTable:
    def test_undeclared_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            RatingsTable(users=[1], items=[2], ratings={(1, 3): 4.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating_rejected(self, bad):
        """As the parsers do, the constructor refuses a rating no solver could use."""
        ratings = {(u, i): float(u + i) for u in range(6) for i in range(4) if (u + i) % 5}
        ratings[(2, 1)] = bad
        with pytest.raises(InvalidInputError, match=r"^non-finite rating for pair \(2, 1\)$"):
            RatingsTable(users=list(range(6)), items=list(range(4)), ratings=ratings)
        with pytest.raises(InvalidInputError, match=r"^non-finite rating for pair \(1, 'a'\)$"):
            _table({(1, "a"): bad, (1, "b"): 2.0, (2, "a"): 3.0, (2, "b"): 1.0})


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
        assert split.train.ratings[(1, 0)] == 1.0
        assert split.train.ratings[(1, 1)] == 2.0

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


class PairTask(NamedTuple):
    """One document pair (by index into the item subset) with its co-ratings."""

    a: int
    b: int
    pair: tuple
    query_ids: tuple
    z: np.ndarray  # rating(item a) - rating(item b) per query


def pair_task_view(tasks) -> list[PairTask]:
    """A PairTaskSet's columns as one PairTask per task, in task order."""
    items, users = tasks.items, tasks.users
    query_ids = [users[k] for k in tasks.user.tolist()]
    view, lo = [], 0
    for a, b, size in zip(tasks.a.tolist(), tasks.b.tolist(), tasks.sizes.tolist()):
        view.append(PairTask(a, b, (items[a], items[b]), tuple(query_ids[lo : lo + size]), tasks.z[lo : lo + size]))
        lo += size
    return view


class TestBuildPairTasks:
    def test_single_co_rating(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0})
        tasks = pair_task_view(build_pair_tasks(table, ["a", "b"]))
        assert len(tasks) == 1
        t = tasks[0]
        assert t.pair == ("a", "b")
        np.testing.assert_array_equal(t.z, [2.0])
        assert t.query_ids == (1,)

    def test_uncovered_pairs_skipped(self):
        table = _table({(1, "a"): 4.0, (1, "b"): 2.0, (2, "c"): 5.0})
        tasks = build_pair_tasks(table, ["a", "b", "c"])
        assert [t.pair for t in pair_task_view(tasks)] == [("a", "b")]

    def test_tied_ratings_keep_zero_difference(self):
        table = _table({(1, "a"): 3.0, (1, "b"): 3.0})
        tasks = build_pair_tasks(table, ["a", "b"])
        np.testing.assert_array_equal(pair_task_view(tasks)[0].z, [0.0])

    def test_subset_too_small(self):
        table = _table({(1, "a"): 1.0})
        with pytest.raises(InvalidInputError):
            build_pair_tasks(table, ["a"])

    def test_unknown_subset_item(self):
        table = _table({(1, "a"): 1.0, (1, "b"): 2.0})
        with pytest.raises(InvalidInputError):
            build_pair_tasks(table, ["a", "zzz"])

    def test_repeated_subset_item(self):
        table = _table({(1, "a"): 1.0, (1, "b"): 2.0})
        with pytest.raises(InvalidInputError, match="^item subset contains duplicates$"):
            build_pair_tasks(table, ["a", "b", "a"])

    def test_independent_of_insertion_order(self):
        r1 = {(1, "a"): 4.0, (2, "a"): 1.0, (1, "b"): 2.0, (2, "b"): 5.0}
        r2 = dict(reversed(list(r1.items())))
        t1 = pair_task_view(build_pair_tasks(_table(r1), ["a", "b"]))
        t2 = pair_task_view(build_pair_tasks(_table(r2), ["a", "b"]))
        assert [t.pair for t in t1] == [t.pair for t in t2]
        for a, b in zip(t1, t2):
            assert a.query_ids == b.query_ids
            np.testing.assert_array_equal(a.z, b.z)


def build_pair_tasks_reference(table, item_subset):
    """The per-pair, per-user dict-lookup loop that build_pair_tasks replaced; its PairTasks."""
    items = list(item_subset)
    ratings = table.ratings
    tasks = []
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            ia, ib = items[a], items[b]
            queries = []
            zs = []
            for user in table.users:
                ra = ratings.get((user, ia))
                rb = ratings.get((user, ib))
                if ra is not None and rb is not None:
                    queries.append(user)
                    zs.append(ra - rb)
            if queries:
                tasks.append(
                    PairTask(a=a, b=b, pair=(ia, ib), query_ids=tuple(queries), z=np.array(zs))
                )
    return tasks


def _assert_same_tasks(got, items, want):
    assert got.items == items
    got_tasks = pair_task_view(got)
    assert len(got_tasks) == len(want)
    for g, w in zip(got_tasks, want):
        assert (g.a, g.b, g.pair) == (w.a, w.b, w.pair)
        assert [type(v) for v in (g.a, g.b, *g.pair)] == [type(v) for v in (w.a, w.b, *w.pair)]
        assert g.query_ids == w.query_ids
        assert [type(q) for q in g.query_ids] == [type(q) for q in w.query_ids]
        assert g.z.dtype == w.z.dtype
        assert g.z.tobytes() == w.z.tobytes()


def _reference_cases(tmp_path):
    """(table, subset) pairs covering id types, subset order and sparse corners."""
    cases = []
    for seed in (0, 1, 2):
        table = simulate_movielens_table(n_users=150, n_items=200, seed=seed)
        for m in (2, 6, 30, 60):
            cases.append((table, top_items(table, m)))
    full = simulate_movielens_table(seed=0)  # the paper's 943 users
    cases.append((full, top_items(full, 60)))
    # string ids, as the CSV parser produces them (sorted as strings)
    path = tmp_path / "ratings.csv"
    small = simulate_movielens_table(n_users=60, n_items=40, seed=5)
    path.write_text(
        "user,item,rating\n"
        + "".join(f"{u},{i},{r}\n" for (u, i), r in small.ratings.items())
    )
    csv_table = parse_ratings_csv(path)
    cases.append((csv_table, top_items(csv_table, 12)))
    # a subset in non-sorted order
    subset = top_items(small, 15)
    np.random.default_rng(3).shuffle(subset)
    cases.append((small, subset))
    # subset items nobody rated, users with no subset ratings
    ratings = {(1, "a"): 4.0, (1, "b"): 2.0, (3, "b"): 5.0, (3, "d"): 1.0, (4, "x"): 2.0}
    sparse = RatingsTable(users=[1, 2, 3, 4, 5], items=["a", "b", "c", "d", "x"], ratings=ratings)
    cases.append((sparse, ["d", "c", "b", "a"]))
    cases.append((sparse, ["c", "a"]))
    # reversed insertion order
    reversed_table = _table(dict(reversed(list(small.ratings.items()))))
    cases.append((reversed_table, top_items(reversed_table, 20)))
    return cases


def test_build_pair_tasks_matches_loop_reference(tmp_path):
    for table, subset in _reference_cases(tmp_path):
        _assert_same_tasks(build_pair_tasks(table, subset), list(subset), build_pair_tasks_reference(table, subset))


def split_per_user_loop_reference(table, seed, fractions=(0.5, 0.2, 0.3)):
    """The per-user permutation loop that split_per_user replaced: its three tables and warnings."""
    rng = np.random.default_rng(seed)
    counts = np.bincount(table.user, minlength=len(table.users)).tolist()
    bucket = np.full(len(table), 2, dtype=np.int8)
    warned = []
    lo = 0
    for user, m in zip(table.users, counts):
        if 0 < m < 3:
            warned.append(f"user {user!r} has {m} rating(s); placing all in train")
            bucket[lo:lo + m] = 0
        elif m >= 3:
            rows = lo + rng.permutation(m)
            n_train = int(np.floor(fractions[0] * m))
            n_val = int(np.floor(fractions[1] * m))
            bucket[rows[:n_train]] = 0
            bucket[rows[n_train:n_train + n_val]] = 1
        lo += m
    return [table._rows(bucket == b) for b in range(3)], warned


def build_pair_task_data_reference(tasks, features):
    """The set, dict and per-row generator loop that stacked PairTasks over their
    distinct users: the users and, by name, U and the stacked-row columns."""
    users = sorted({q for t in tasks for q in t.query_ids})
    index = {u: k for k, u in enumerate(users)}
    U = np.vstack([np.asarray(features[u], dtype=float) for u in users])
    row_user, sizes, z_parts = [], [], []
    for t in tasks:
        row_user.extend(index[q] for q in t.query_ids)
        sizes.append(len(t.query_ids))
        z_parts.append(t.z)
    sizes = np.asarray(sizes, dtype=int)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return users, {
        "U": U, "user": np.asarray(row_user, dtype=int), "starts": starts, "sizes": sizes,
        "z": np.concatenate(z_parts).astype(float),
    }


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_same_table(got, want):
    assert got.users == want.users and got.items == want.items
    assert [type(v) for v in got.users + got.items] == [type(v) for v in want.users + want.items]
    for column in ("user", "item", "value"):
        _assert_same_array(getattr(got, column), getattr(want, column))


def _assert_same_pair_task_data(got, want):
    users, columns = want
    assert got.users == users and got.tasks.users is got.users
    assert [type(u) for u in got.users] == [type(u) for u in users]
    got_columns = {"U": got.U, "user": got.tasks.user, "starts": got.starts, "sizes": got.tasks.sizes, "z": got.tasks.z}
    for name, column in columns.items():
        _assert_same_array(got_columns[name], column)


def _split_cases(tmp_path):
    """Reference (table, subset) cases plus users with 1-2 ratings and declared users without any."""
    ratings = {(1, "a"): 4.0, (2, "a"): 2.0, (2, "b"): 5.0, (3, "c"): 1.0, (3, "a"): 3.0, (3, "b"): 2.5,
               (3, "d"): 4.0, (5, "d"): 1.0, (5, "c"): 2.0, (5, "b"): 3.0, (6, "a"): 1.0, (6, "b"): 2.0}
    few = RatingsTable(users=[6, 5, 4, 3, 2, 1, 0], items=["d", "c", "b", "a", "e"], ratings=ratings)
    return _reference_cases(tmp_path) + [(few, ["a", "b", "c", "d"]), (few, ["b", "e", "c"])]


def test_split_and_pair_task_data_match_loop_references(tmp_path):
    kernel = KernelSpec("linear")
    for table, subset in _split_cases(tmp_path):
        for seed in (0, 1, 4099):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                split = split_per_user(table, seed=seed)
            want_parts, want_warned = split_per_user_loop_reference(table, seed)
            assert [str(w.message) for w in caught] == want_warned
            for part, want in zip((split.train, split.val, split.test), want_parts):
                _assert_same_table(part, want)
            tasks = build_pair_tasks(split.train, subset)
            want_tasks = build_pair_tasks_reference(split.train, subset)
            if not want_tasks:
                assert tasks.n_tasks == 0
                continue
            features = user_feature_map(split.train, subset)
            _assert_same_pair_task_data(
                build_pair_task_data(tasks, features, kernel),
                build_pair_task_data_reference(want_tasks, features),
            )


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

    @pytest.mark.parametrize("max_users", [50, 51])
    def test_subsample_users_at_or_past_the_user_count_keeps_the_table(self, max_users):
        t = _table({(u, 1): 1.0 for u in range(50)})
        assert subsample_users(t, max_users, seed=4) is t

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
        feats = user_feature_map(table, ["a", "b"], {1: np.array([9.0, 9.0])})
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


# The per-rating loops the columnar table replaced, kept as references. Each
# works on plain (user, item) -> rating dicts.


def parse_movielens_reference(path):
    ratings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise RatingsParseError(line_no, f"expected 4 tab-separated fields, got {len(parts)}")
            try:
                user = int(parts[0])
                item = int(parts[1])
                value = float(parts[2])
            except ValueError:
                raise RatingsParseError(line_no, f"non-numeric field in {parts[:3]!r}") from None
            if not math.isfinite(value):
                raise RatingsParseError(line_no, f"non-finite rating {parts[2]!r}")
            if (user, item) in ratings:
                raise DuplicateRatingError(line_no, f"duplicate rating for user {user}, item {item}")
            ratings[(user, item)] = value
    users = sorted({u for u, _ in ratings})
    items = sorted({i for _, i in ratings})
    return users, items, ratings


def by_user_reference(users, ratings):
    out = {u: [] for u in users}
    for (u, i), r in ratings.items():
        out[u].append((i, r))
    for u in out:
        out[u].sort()
    return out


def split_per_user_reference(users, ratings, seed, fractions=(0.5, 0.2, 0.3)):
    """Three rating dicts and the warnings, as the dict-building split made them."""
    rng = np.random.default_rng(seed)
    by_user = by_user_reference(users, ratings)
    parts, warned = [{}, {}, {}], []
    for user in users:
        user_items = [i for i, _ in by_user.get(user, [])]
        m = len(user_items)
        if m == 0:
            continue
        if m < 3:
            warned.append(f"user {user!r} has {m} rating(s); placing all in train")
            for item in user_items:
                parts[0][(user, item)] = ratings[(user, item)]
            continue
        order = rng.permutation(m)
        n_train = int(np.floor(fractions[0] * m))
        n_val = int(np.floor(fractions[1] * m))
        for pos, idx in enumerate(order):
            item = user_items[idx]
            bucket = 0 if pos < n_train else (1 if pos < n_train + n_val else 2)
            parts[bucket][(user, item)] = ratings[(user, item)]
    return parts, warned


def top_items_reference(items, ratings, m):
    counts = {}
    for (_, i) in ratings:
        counts[i] = counts.get(i, 0) + 1
    return sorted(items, key=lambda i: (-counts.get(i, 0), i))[:m]


def user_feature_map_reference(users, ratings, item_subset):
    by_user = by_user_reference(users, ratings)
    feats = {}
    items = list(item_subset)
    for user in users:
        rated = dict(by_user.get(user, []))
        subset_vals = [rated[i] for i in items if i in rated]
        if subset_vals:
            fill = float(np.mean(subset_vals))
        elif rated:
            fill = float(np.mean(list(rated.values())))
        else:
            fill = 0.0
        vec = np.array([rated.get(i, fill) - fill for i in items], dtype=float)
        norm = np.linalg.norm(vec)
        feats[user] = vec / norm if norm > 0 else vec
    return feats


def test_feature_norms_match_per_user_norm_loop():
    """The stacked per-row dot gives the norms of a per-user np.linalg.norm loop, bit for bit."""
    for m in (1, 2, 3, 7, 16, 31, 32, 33, 60, 64, 65, 129):
        table = simulate_movielens_table(n_users=80, n_items=300, seed=m)
        subset = top_items(table, m)
        got = user_feature_map(table, subset)
        want = user_feature_map_reference(table.users, dict(table.ratings), subset)
        assert list(got) == list(want)
        for u in want:
            assert got[u].tobytes() == want[u].tobytes()


def user_feature_map_split_reference(table, item_subset):
    """user_feature_map with each user's fill from two np.split loops and a
    1-D numpy mean per user, as it was computed before the grouped means."""
    R, rated = _rating_block(table, list(item_subset))
    in_subset = np.split(R[rated], np.cumsum(rated.sum(axis=1))[:-1])
    per_user = np.bincount(table.user, minlength=len(table.users))
    overall = np.split(table.value, np.cumsum(per_user)[:-1])
    fill = np.array([
        sub.mean() if sub.size else (every.mean() if every.size else 0.0)
        for sub, every in zip(in_subset, overall)
    ])[:, None]
    V = np.where(rated, R, fill) - fill
    norms = np.sqrt(np.matmul(V[:, None, :], V[:, :, None]))[:, 0]
    np.divide(V, norms, out=V, where=norms > 0)
    return dict(zip(table.users, V))


@pytest.mark.parametrize("n_items", [7, 128, 129, 300])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    spread=st.sampled_from([1e-9, 1.0, 3.7e5]),
    subset_share=st.floats(0.0, 1.0),
)
def test_grouped_fill_matches_split_loop(n_items, seed, density, spread, subset_share):
    """Real-valued ratings, rows up to 300 subset items (numpy's pairwise sum
    works in blocks of 128), users with no subset rating and with none at all."""
    rng = np.random.default_rng(seed)
    n_users = 9
    present = rng.random((n_users, n_items)) < density * rng.random((n_users, 1))
    present[0] = True  # a user who rated every item
    present[1] = False  # a declared user without ratings
    subset = rng.permutation(n_items)[: max(1, round(subset_share * n_items))]
    present[2, subset] = False  # ratings outside the subset only
    present[2, rng.integers(n_items)] = True
    values = rng.standard_normal((n_users, n_items)) * spread + rng.uniform(-5, 5)
    ratings = {(u, i): float(values[u, i]) for u, i in zip(*np.nonzero(present))}
    table = RatingsTable(users=list(range(n_users)), items=list(range(n_items)), ratings=ratings)
    got = user_feature_map(table, subset.tolist())
    want = user_feature_map_split_reference(table, subset.tolist())
    assert list(got) == list(want)
    for u in want:
        assert got[u].tobytes() == want[u].tobytes()


def _assert_same_ratings(got, want):
    """Equal dicts, with values compared by their bytes."""
    assert list(got) == sorted(want)
    assert [type(k) for key in got for k in key] == [type(k) for key in sorted(want) for k in key]
    assert np.array(list(got.values())).tobytes() == np.array([want[k] for k in got]).tobytes()


def _assert_same_ingestion(table, users, items, ratings, m, seed):
    assert table.users == users and table.items == items
    assert [type(v) for v in table.users + table.items] == [type(v) for v in users + items]
    _assert_same_ratings(dict(table.ratings), ratings)
    top = top_items(table, m)
    assert top == top_items_reference(items, ratings, m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        split = split_per_user(table, seed=seed)
    want_parts, want_warned = split_per_user_reference(users, ratings, seed)
    assert [str(w.message) for w in caught] == want_warned
    for part, want in zip((split.train, split.val, split.test), want_parts):
        assert part.users == users and part.items == items
        _assert_same_ratings(dict(part.ratings), want)
    got = user_feature_map(split.train, top)
    want = user_feature_map_reference(users, want_parts[0], top)
    assert list(got) == list(want)
    for u in want:
        assert got[u].dtype == want[u].dtype and got[u].tobytes() == want[u].tobytes()


def test_columnar_ingestion_matches_loop_reference(tmp_path):
    path = tmp_path / "u.data"
    for seed, n_users, n_items, m in [(0, 150, 200, 30), (1, 150, 200, 30), (2, 150, 200, 6), (0, 943, 1682, 60)]:
        write_movielens(simulate_movielens_table(n_users=n_users, n_items=n_items, seed=seed), path)
        users, items, ratings = parse_movielens_reference(path)
        _assert_same_ingestion(parse_movielens(path), users, items, ratings, m, seed)
    # string ids, as the CSV parser produces them, and non-integer ratings
    small = simulate_movielens_table(n_users=60, n_items=40, seed=5)
    ratings = {(f"u{u}", str(i)): r - 0.3 * (i % 3) for (u, i), r in small.ratings.items()}
    path = tmp_path / "ratings.csv"
    path.write_text("user,item,rating\n" + "".join(f"{u},{i},{r!r}\n" for (u, i), r in ratings.items()))
    users, items = sorted({u for u, _ in ratings}), sorted({i for _, i in ratings})
    _assert_same_ingestion(parse_ratings_csv(path), users, items, ratings, 12, 3)
    # users with fewer than 3 ratings, and a declared user without any
    ratings = {(1, "a"): 4.0, (2, "a"): 2.0, (2, "b"): 5.0, (3, "c"): 1.0, (3, "a"): 3.0, (3, "b"): 2.5,
               (3, "d"): 4.0, (5, "d"): 1.0, (5, "c"): 2.0, (5, "b"): 3.0}
    table = RatingsTable(users=[5, 4, 3, 2, 1], items=["d", "c", "b", "a", "e"], ratings=ratings)
    _assert_same_ingestion(table, [1, 2, 3, 4, 5], ["a", "b", "c", "d", "e"], ratings, 3, 0)


def test_write_movielens_matches_mapping_writer(tmp_path):
    table = simulate_movielens_table(n_users=943, n_items=1682, seed=0)
    path = tmp_path / "u.data"
    write_movielens(table, path)
    lines = []
    for (user, item), value in table.ratings.items():
        text = str(int(value)) if value.is_integer() else repr(value)
        lines.append(f"{user}\t{item}\t{text}\t0\n")
    assert path.read_bytes() == "".join(lines).encode("utf-8")
    # string ids and non-integer ratings
    ratings = {(f"u{u}", str(i)): r - 0.3 * (i % 3) for (u, i), r in table.ratings.items() if u < 30}
    small = RatingsTable({u for u, _ in ratings}, {i for _, i in ratings}, ratings)
    write_movielens(small, path)
    want = "".join(
        f"{u}\t{i}\t{str(int(r)) if r.is_integer() else repr(r)}\t0\n" for (u, i), r in small.ratings.items()
    )
    assert path.read_text(encoding="utf-8") == want
