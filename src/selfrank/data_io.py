"""Ratings ingestion, per-user splits, and pair-task construction.

A RatingsTable holds its ratings as three columns over sorted id lists: a
user code and an item code per rating (positions in `users` and `items`)
and a float64 value, with rows sorted by (user, item). Parsing, splitting,
top items, subsampling, the dense rating block and the derived user
features all work on those arrays; `table.ratings` is a read-only mapping
built from them on demand. parse_movielens reads and checks a file as whole
columns and rescans it line by line only to name the first bad line of a
file it rejects.

A PairTaskSet holds the co-rated item pairs of an item subset as columns
too: per task the document pair (a, b) and its row count, and per stacked
row a co-rater code (a position among the table's users with two or more
rated subset items) and the rating difference z, with rows sorted by task,
then by user. build_pair_tasks reads them off one pairs x co-raters mask.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DuplicateRatingError, InvalidInputError, RatingsParseError


class RatingsTable:
    """Ratings as columns: rating k is (users[user[k]], items[item[k]]) -> value[k].

    users and items are sorted, and the rows are distinct (user, item) pairs
    sorted by user, then item, so every derived structure is independent of
    source order. The columns are read-only. The constructor validates and
    converts a (user, item) -> rating mapping of finite ratings over declared ids.
    """

    def __init__(self, users, items, ratings):
        users, items = sorted(set(users)), sorted(set(items))
        user_pos = {u: k for k, u in enumerate(users)}
        item_pos = {i: k for k, i in enumerate(items)}
        codes = []
        for u, i in ratings:
            if u not in user_pos or i not in item_pos:
                raise InvalidInputError(f"rating references undeclared pair ({u!r}, {i!r})")
            codes.append((user_pos[u], item_pos[i]))
        code = np.array(codes, dtype=np.intp).reshape(len(codes), 2)
        value = np.fromiter(ratings.values(), dtype=float, count=len(codes))
        finite = np.isfinite(value)
        if not finite.all():
            raise InvalidInputError(f"non-finite rating for pair {list(ratings)[int(np.argmin(finite))]!r}")
        columns = _by_pair(code[:, 0], code[:, 1], value, len(items))
        self._assign(users, items, *columns)

    def _assign(self, users, items, user, item, value) -> None:
        self.users, self.items = users, items
        self.user, self.item, self.value = user, item, value
        for column in (user, item, value):
            column.flags.writeable = False

    @classmethod
    def _from_columns(cls, users, items, user, item, value) -> RatingsTable:
        """A table over columns whose rows are already distinct and sorted by (user, item)."""
        table = cls.__new__(cls)
        table._assign(users, items, user, item, value)
        return table

    def _rows(self, keep: np.ndarray) -> RatingsTable:
        """The rows keep selects, by mask or increasing row number, over the same users and items."""
        return RatingsTable._from_columns(
            list(self.users), list(self.items), self.user[keep], self.item[keep], self.value[keep]
        )

    @property
    def ratings(self) -> MappingProxyType:
        """A read-only (user, item) -> rating mapping in row order, built on each access."""
        users = map(self.users.__getitem__, self.user.tolist())
        items = map(self.items.__getitem__, self.item.tolist())
        return MappingProxyType(dict(zip(zip(users, items), self.value.tolist())))

    def __len__(self) -> int:
        return len(self.value)


def _by_pair(user: np.ndarray, item: np.ndarray, value: np.ndarray, n_items: int) -> tuple:
    """The three columns with their rows sorted by (user, item)."""
    order = np.argsort(user * n_items + item)
    return user[order], item[order], value[order]


def _encode(ids) -> tuple[list, np.ndarray]:
    """The sorted distinct ids, as Python objects, and each id's position among them.

    An integer array whose span (max - min + 1) is at most its length is
    encoded through a presence table over the span, without a sort; a wider
    or empty one through np.unique. Both give np.unique's ids and positions.
    Any other sequence holds Python ids.
    """
    if isinstance(ids, np.ndarray):
        lo, hi = (int(ids.min()), int(ids.max())) if ids.size else (0, -1)
        span = hi - lo + 1  # Python ints: no wrap near the int64 ends
        if 0 < span <= ids.size:
            offset = ids - lo
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            position = np.cumsum(present, dtype=np.intp)
            position -= 1
            return (np.flatnonzero(present) + lo).tolist(), position[offset]
        distinct, position = np.unique(ids, return_inverse=True)
        return distinct.tolist(), position
    distinct = sorted(set(ids))
    position = {v: k for k, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, ids), dtype=np.intp, count=len(ids))


def _from_ids(user_ids, item_ids, value: np.ndarray) -> RatingsTable:
    """A table over the ids the ratings name, one rating per (user_ids[k], item_ids[k])."""
    users, user = _encode(user_ids)
    items, item = _encode(item_ids)
    return RatingsTable._from_columns(users, items, *_by_pair(user, item, value, len(items)))


def parse_movielens(path) -> RatingsTable:
    """Parse the tab-separated `user item rating timestamp` format; timestamps dropped.

    The file is read and checked whole, on its bytes: every non-blank line
    must hold three tabs, the fields convert a column at a time, and
    finiteness and duplicates are checked on the columns. Blank lines are
    skipped but counted. A rejected file is rescanned line by line for the
    error of its first bad line. Only the file's bytes are kept past the
    read, and each boundary array only while the column cut reads it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().encode("utf-8")  # newlines translated as in line-by-line reading
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    columns = _rating_columns(np.frombuffer(raw, dtype=np.uint8))
    if columns is None:
        raise _first_bad_line(raw)
    table = _from_ids(*columns)
    repeated = (np.diff(table.user) == 0) & (np.diff(table.item) == 0)
    if not np.isfinite(table.value).all() or repeated.any():
        raise _first_bad_line(raw)
    return table


def _rating_columns(data: np.ndarray) -> tuple | None:
    """The user, item and rating columns of a file's bytes; None when a line is malformed.

    A line is malformed unless it is blank or holds three tabs and its first
    three fields convert.
    """
    ends = np.flatnonzero(data == ord("\n"))
    if data.size and data[-1] != ord("\n"):
        ends = np.append(ends, data.size)  # a last line without a newline
    starts = np.append(0, ends[:-1] + 1)
    filled = ends > starts
    starts, ends = starts[filled], ends[filled]
    tabs = np.flatnonzero(data == ord("\t"))
    if tabs.size != 3 * starts.size:
        return None
    # With three tabs per rating line in all, every line holds three exactly
    # when the k-th three tabs lie in the k-th line for every k (pigeonhole).
    t = tabs.reshape(-1, 3)
    if np.any(t[:, 0] < starts) or np.any(t[:, 2] >= ends):
        return None
    del ends  # each boundary array is freed as soon as the cut no longer reads it
    try:
        user = _column(data, starts, t[:, 0], int)
        del starts
        return user, _column(data, t[:, 0] + 1, t[:, 1], int), _column(data, t[:, 1] + 1, t[:, 2], float)
    except (ValueError, OverflowError):
        return None


def _column(data: np.ndarray, lo: np.ndarray, hi: np.ndarray, convert) -> np.ndarray:
    """The fields data[lo:hi], one per rating, as int64 (convert=int) or float64 (float).

    Fields of 1 to 15 ASCII digits are read on the arrays, which gives the
    value int and float give them; any other field is converted from its
    text by `convert`, so the syntax accepted is exactly theirs.
    """
    width = hi - lo
    plain = (width >= 1) & (width <= 15)
    number = np.zeros(len(lo), dtype=np.int64)
    at = np.empty_like(number)  # each field's j-th byte, or the tab after a field of j bytes or fewer
    for j in range(min(int(width.max(initial=0)), 15)):
        inside = plain & (j < width)
        np.minimum(np.add(lo, j, out=at), hi, out=at)
        digit = data[at] - ord("0")  # non-digits wrap above 9
        plain &= ~inside | (digit <= 9)
        np.multiply(number, 10, out=number, where=inside)
        np.add(number, digit, out=number, where=inside)
    out = number.astype(np.int64 if convert is int else float, copy=False)
    for k in np.flatnonzero(~plain).tolist():
        out[k] = convert(data[lo[k]:hi[k]].tobytes().decode("utf-8"))
    return out


def _first_bad_line(raw: bytes) -> RatingsParseError:
    """The error of the first line a line-by-line reading of a rejected file stops at.

    raw is the file's UTF-8 text with its newlines translated, as read.
    """
    seen = set()
    for line_no, line in enumerate(raw.decode("utf-8").split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            return RatingsParseError(line_no, f"expected 4 tab-separated fields, got {len(parts)}")
        try:
            user, item, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            return RatingsParseError(line_no, f"non-numeric field in {parts[:3]!r}")
        if not (-2**63 <= user < 2**63 and -2**63 <= item < 2**63):
            return RatingsParseError(line_no, f"id outside the 64-bit integer range in {parts[:2]!r}")
        if not math.isfinite(value):
            return RatingsParseError(line_no, f"non-finite rating {parts[2]!r}")
        if (user, item) in seen:
            return DuplicateRatingError(line_no, f"duplicate rating for user {user}, item {item}")
        seen.add((user, item))
    raise AssertionError("the column checks rejected a file with no bad line")


def parse_ratings_csv(path) -> RatingsTable:
    """Parse a generic ratings CSV with header `user,item,rating`."""
    user_ids, item_ids, values = [], [], []
    seen = set()
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None or [h.strip().lower() for h in header[:3]] != ["user", "item", "rating"]:
        raise RatingsParseError(1, f"expected header user,item,rating, got {header!r}")
    for line_no, row in rows:
        if len(row) != 3:
            raise RatingsParseError(line_no, f"expected 3 fields, got {len(row)}")
        user = row[0].strip()
        item = row[1].strip()
        try:
            value = float(row[2])
        except ValueError:
            raise RatingsParseError(line_no, f"non-numeric rating {row[2]!r}") from None
        if not math.isfinite(value):
            raise RatingsParseError(line_no, f"non-finite rating {row[2]!r}")
        if (user, item) in seen:
            raise DuplicateRatingError(line_no, f"duplicate rating for user {user}, item {item}")
        seen.add((user, item))
        user_ids.append(user)
        item_ids.append(item)
        values.append(value)
    return _from_ids(user_ids, item_ids, np.array(values, dtype=float))


def parse_user_features_csv(path) -> dict:
    """Parse `user,f1,...,fd` rows into a user -> feature-vector map, one row per user."""
    feats: dict = {}
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if not header or header[0].strip().lower() != "user":
        raise RatingsParseError(1, f"expected header starting with `user`, got {header!r}")
    dim = len(header) - 1
    if not dim:
        raise RatingsParseError(1, "expected at least one feature column after `user`")
    for line_no, row in rows:
        if len(row) != dim + 1:
            raise RatingsParseError(line_no, f"expected {dim + 1} fields, got {len(row)}")
        user = row[0].strip()
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise RatingsParseError(line_no, "non-numeric feature value") from None
        if not all(math.isfinite(v) for v in values):
            raise RatingsParseError(line_no, "non-finite feature value")
        if user in feats:
            raise RatingsParseError(line_no, f"duplicate features for user {user!r}")
        feats[user] = np.array(values)
    return feats


def _csv_rows(path):
    """(line number, fields) of a UTF-8 CSV file's header row, then of each non-empty row."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if row or line_no == 1:
                    yield line_no, row
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> RatingsParseError:
    """The error for a file that is not UTF-8 text, naming it and its first line that does not decode."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # no UTF-8 sequence holds a CR or LF byte
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            byte = line[exc.start]
            return RatingsParseError(line_no, f"{path} is not UTF-8 text: {exc.reason} (byte {byte:#04x})")
    raise AssertionError("a file that decodes line by line failed to decode whole")


def write_movielens(table: RatingsTable, path) -> None:
    """Serialize in the tab-separated format, canonical order, zero timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        users, items = table.users, table.items
        for u, i, value in zip(table.user.tolist(), table.item.tolist(), table.value.tolist()):
            user, item = users[u], items[i]
            text = str(int(value)) if value.is_integer() else repr(value)
            fh.write(f"{user}\t{item}\t{text}\t0\n")


# Each user's train / validation / test shares of their ratings.
SPLIT_FRACTIONS = (0.5, 0.2, 0.3)


@dataclass
class SplitTable:
    train: RatingsTable
    val: RatingsTable
    test: RatingsTable


def split_per_user(table: RatingsTable, seed: int = 0) -> SplitTable:
    """Partition each user's ratings into train/val/test by SPLIT_FRACTIONS.

    Counts use floor rounding with the remainder going to test. Users with
    fewer than 3 ratings fall back entirely to train (with a warning).
    Deterministic for a fixed seed.
    """
    train_share, val_share, _ = SPLIT_FRACTIONS
    rng = np.random.default_rng(seed)
    counts = np.bincount(table.user, minlength=len(table.users))
    firsts = np.cumsum(counts) - counts  # a user's rows are contiguous and in item order
    # Each user's slice of one row index, shuffled in place: the draws of lo + rng.permutation(m).
    order = np.arange(len(table))
    for user, lo, m in zip(table.users, firsts.tolist(), counts.tolist()):
        if 0 < m < 3:
            warnings.warn(
                f"user {user!r} has {m} rating(s); placing all in train", stacklevel=2
            )
        elif m >= 3:
            rng.shuffle(order[lo:lo + m])
    # The first n_train of a user's shuffled rows go to train, the next n_val to
    # val, the rest to test; users with fewer than 3 ratings keep all in train.
    n_train = np.where(counts < 3, counts, np.floor(train_share * counts).astype(np.intp))
    n_val = np.where(counts < 3, 0, np.floor(val_share * counts).astype(np.intp))
    rank = np.arange(len(table)) - firsts[table.user]
    cut = n_train[table.user]
    bucket = np.empty(len(table), dtype=np.int8)  # 0 train, 1 val, 2 test
    bucket[order] = (rank >= cut).astype(np.int8) + (rank >= cut + n_val[table.user])
    # Row numbers, not the scattered masks: a gather by them is several times faster.
    train, val, test = (table._rows(np.flatnonzero(bucket == b)) for b in range(3))
    return SplitTable(train=train, val=val, test=test)


@dataclass(frozen=True, eq=False)
class PairTaskSet:
    """All co-rated document pairs of an item subset, as columns.

    Task t is the document pair (a[t], b[t]), positions in `items` with
    a[t] < b[t], and owns sizes[t] consecutive stacked rows. Stacked row i is
    the co-rating of user `users[user[i]]` (`users` lists the co-raters in
    the table's order) with z[i] = rating(item a) - rating(item b). Tasks are
    in (a, b) order and each task's rows in user order, so the result does not
    depend on source order. The columns are read-only.
    """

    items: list
    users: list
    a: np.ndarray
    b: np.ndarray
    sizes: np.ndarray
    user: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for column in (self.a, self.b, self.sizes, self.user, self.z):
            column.flags.writeable = False

    @property
    def n_tasks(self) -> int:
        return len(self.sizes)


def _rating_block(table: RatingsTable, items: list) -> tuple[np.ndarray, np.ndarray]:
    """Dense (users x items) ratings and presence mask, rows in table.users order.

    One scatter of the table's columns; absent entries hold 0.0. Items the
    table does not declare stay absent.
    """
    item_pos = {i: k for k, i in enumerate(table.items)}
    col = np.full(len(table.items), -1, dtype=np.intp)  # table item code -> block column
    for k, item in enumerate(items):
        if item in item_pos:
            col[item_pos[item]] = k
    cols = col[table.item]
    keep = cols >= 0
    rows, cols = table.user[keep], cols[keep]
    R = np.zeros((len(table.users), len(items)))
    rated = np.zeros(R.shape, dtype=bool)
    R[rows, cols] = table.value[keep]
    rated[rows, cols] = True
    return R, rated


def build_pair_tasks(table: RatingsTable, item_subset) -> PairTaskSet:
    """One task per unordered item pair with at least one co-rating.

    Document indices follow the order of item_subset; z is oriented as
    rating(first item) - rating(second item). Users who rated fewer than two subset
    items are dropped before the co-rating mask; the rest keep the table's sorted
    order, so the result does not depend on source iteration order.
    """
    items = list(item_subset)
    if len(items) < 2:
        raise InvalidInputError(f"item subset needs >= 2 items, got {len(items)}")
    declared = set(table.items)
    unknown = [i for i in items if i not in declared]
    if unknown:
        raise InvalidInputError(f"item subset contains undeclared items {unknown[:5]!r}")
    if len(set(items)) != len(items):
        raise InvalidInputError("item subset contains duplicates")
    R, rated = _rating_block(table, items)
    co = np.flatnonzero(np.count_nonzero(rated, axis=1) >= 2)  # the co-raters, in table order
    R, rated = R[co], rated[co]
    a, b = np.triu_indices(len(items), k=1)
    # pairs x co-raters mask; its nonzeros come sorted by pair, then user
    rated_T = np.ascontiguousarray(rated.T)
    mask = rated_T[a]
    mask &= rated_T[b]
    task, user = np.divmod(np.flatnonzero(mask), mask.shape[1])
    z = R[user, a[task]] - R[user, b[task]]
    sizes = np.bincount(task, minlength=a.size)
    kept = sizes > 0
    return PairTaskSet(
        items=items, users=[table.users[k] for k in co.tolist()], a=a[kept], b=b[kept], sizes=sizes[kept],
        user=user, z=z,
    )


def top_items(table: RatingsTable, m: int) -> list:
    """The m most-rated items (ties broken by item id)."""
    counts = np.bincount(table.item, minlength=len(table.items))
    ranked = np.argsort(-counts, kind="stable")  # items are sorted, so ties keep id order
    return [table.items[k] for k in ranked[:m].tolist()]


def subsample_users(table: RatingsTable, max_users: int, seed: int = 0) -> RatingsTable:
    """Restrict to a random user subset of the given size (deterministic per seed)."""
    if max_users >= len(table.users):
        return table
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(table.users), dtype=bool)
    keep[rng.choice(np.arange(len(table.users)), size=max_users, replace=False)] = True
    users = [u for u, kept in zip(table.users, keep.tolist()) if kept]
    rows = keep[table.user]
    new_code = np.cumsum(keep) - 1
    return RatingsTable._from_columns(
        users, list(table.items), new_code[table.user[rows]], table.item[rows], table.value[rows]
    )


def user_feature_map(table: RatingsTable, item_subset, provided: dict | None = None) -> dict:
    """Query features per user: the provided ones (a parsed features file), else
    normalized subset ratings.

    The derived vector is the user's mean-imputed rating vector over the
    subset (imputation value: their mean over rated subset items, falling back
    to their overall mean), centered at that mean so imputed entries sit at 0,
    and scaled to unit norm. Raw rating-scale kernels condition the factorized
    descent badly; centering also makes the features carry preferences rather
    than rating levels. Provided features pass through untouched.
    """
    if provided is not None:
        feats = {}
        for u in table.users:
            key = u if u in provided else str(u)  # features CSV stores string ids
            if key not in provided:
                raise InvalidInputError(f"no provided features for user {u!r}")
            feats[u] = np.asarray(provided[key], dtype=float)
        return feats
    R, rated = _rating_block(table, list(item_subset))
    # A user's fill is numpy's mean of their subset ratings in subset order,
    # else of all their ratings in item order. The users rating k subset
    # items take one mean over a contiguous users x k block: numpy reduces
    # each row in the pairwise order of the mean of that row alone.
    counts = rated.sum(axis=1)
    fill = np.zeros(len(table.users))
    for k in np.unique(counts[counts > 0]).tolist():
        members = np.flatnonzero(counts == k)
        fill[members] = R[members][rated[members]].reshape(-1, k).mean(axis=1)
    for user in np.flatnonzero(counts == 0).tolist():
        lo, hi = np.searchsorted(table.user, [user, user + 1])  # rows sorted by user
        fill[user] = table.value[lo:hi].mean() if hi > lo else 0.0
    fill = fill[:, None]
    V = np.where(rated, R, fill) - fill
    # Per row, the dot np.linalg.norm takes, from one stacked product.
    norms = np.sqrt(np.matmul(V[:, None, :], V[:, :, None]))[:, 0]
    np.divide(V, norms, out=V, where=norms > 0)
    return dict(zip(table.users, V))


def simulate_movielens_table(
    n_users: int = 943,
    n_items: int = 1682,
    seed: int = 7,
) -> RatingsTable:
    """A deterministic stand-in with Movielens-100k-like shape.

    Popularity-skewed item exposure, 1-5 integer ratings driven by a planted
    rank-3 user/item latent structure plus Gaussian noise of scale 0.35. Used
    by experiments when no real ratings file is available.
    """
    latent_rank, noise = 3, 0.35
    rng = np.random.default_rng(seed)
    pop = 1.0 / (np.arange(n_items) + 25.0)
    pop /= pop.sum()
    u_lat = rng.standard_normal((n_users, latent_rank))
    v_lat = rng.standard_normal((n_items, latent_rank))
    item_bias = 0.4 * rng.standard_normal(n_items)
    user_ids, item_ids, values = [], [], []
    for user in range(1, n_users + 1):
        k = int(np.clip(np.round(rng.lognormal(mean=np.log(70.0), sigma=0.75)), 20, 400))
        chosen = rng.choice(n_items, size=min(k, n_items), replace=False, p=pop)
        raw = (
            3.5
            + 0.9 * (u_lat[user - 1] @ v_lat[chosen].T) / np.sqrt(latent_rank)
            + item_bias[chosen]
            + noise * rng.standard_normal(chosen.shape[0])
        )
        user_ids.append(np.full(chosen.shape[0], user))
        item_ids.append(chosen + 1)
        values.append(np.clip(np.round(raw), 1, 5))
    return _from_ids(np.concatenate(user_ids), np.concatenate(item_ids), np.concatenate(values))
