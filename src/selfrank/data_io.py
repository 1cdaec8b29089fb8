"""Ratings ingestion, per-user splits, and pair-task construction."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateRatingError, InvalidInputError, RatingsParseError


@dataclass
class RatingsTable:
    """Sparse (user, item) -> rating map with declared id lists.

    users and items are kept sorted so every derived structure is independent
    of source iteration order.
    """

    users: list
    items: list
    ratings: dict
    user_features: dict | None = None

    def __post_init__(self):
        self.users = sorted(set(self.users))
        self.items = sorted(set(self.items))
        user_set, item_set = set(self.users), set(self.items)
        for u, i in self.ratings:
            if u not in user_set or i not in item_set:
                raise InvalidInputError(f"rating references undeclared pair ({u!r}, {i!r})")

    def __len__(self) -> int:
        return len(self.ratings)

    def rating(self, user, item, default=None):
        return self.ratings.get((user, item), default)

    def by_user(self) -> dict:
        out: dict = {u: [] for u in self.users}
        for (u, i), r in self.ratings.items():
            out[u].append((i, r))
        for u in out:
            out[u].sort()
        return out


def parse_movielens(path) -> RatingsTable:
    """Parse the tab-separated `user item rating timestamp` format; timestamps dropped."""
    ratings: dict = {}
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
                raise DuplicateRatingError(f"duplicate rating for user {user}, item {item}")
            ratings[(user, item)] = value
    users = sorted({u for u, _ in ratings})
    items = sorted({i for _, i in ratings})
    return RatingsTable(users=users, items=items, ratings=ratings)


def parse_ratings_csv(path) -> RatingsTable:
    """Parse a generic ratings CSV with header `user,item,rating`."""
    ratings: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["user", "item", "rating"]:
            raise RatingsParseError(1, f"expected header user,item,rating, got {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
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
            if (user, item) in ratings:
                raise DuplicateRatingError(f"duplicate rating for user {user}, item {item}")
            ratings[(user, item)] = value
    users = sorted({u for u, _ in ratings})
    items = sorted({i for _, i in ratings})
    return RatingsTable(users=users, items=items, ratings=ratings)


def parse_user_features_csv(path) -> dict:
    """Parse `user,f1,...,fd` rows into a user -> feature-vector map."""
    feats: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip().lower() != "user":
            raise RatingsParseError(1, f"expected header starting with `user`, got {header!r}")
        dim = len(header) - 1
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise RatingsParseError(line_no, f"expected {dim + 1} fields, got {len(row)}")
            user = row[0].strip()
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise RatingsParseError(line_no, "non-numeric feature value") from None
            if not all(math.isfinite(v) for v in values):
                raise RatingsParseError(line_no, "non-finite feature value")
            feats[user] = np.array(values)
    return feats


def write_movielens(table: RatingsTable, path) -> None:
    """Serialize in the tab-separated format, canonical order, zero timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        for (user, item) in sorted(table.ratings):
            value = table.ratings[(user, item)]
            text = str(int(value)) if float(value).is_integer() else repr(float(value))
            fh.write(f"{user}\t{item}\t{text}\t0\n")


@dataclass
class SplitTable:
    train: RatingsTable
    val: RatingsTable
    test: RatingsTable


def split_per_user(
    table: RatingsTable,
    fractions: tuple[float, float, float] = (0.5, 0.2, 0.3),
    seed: int = 0,
) -> SplitTable:
    """Partition each user's ratings into train/val/test by the given fractions.

    Counts use floor rounding with the remainder going to test. Users with
    fewer than 3 ratings fall back entirely to train (with a warning).
    Deterministic for a fixed seed.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-12:
        raise InvalidInputError(f"fractions must be three positives summing to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    by_user = table.by_user()
    parts: list[dict] = [{}, {}, {}]
    for user in table.users:
        user_items = [i for i, _ in by_user.get(user, [])]
        m = len(user_items)
        if m == 0:
            continue
        if m < 3:
            warnings.warn(
                f"user {user!r} has {m} rating(s); placing all in train", stacklevel=2
            )
            for item in user_items:
                parts[0][(user, item)] = table.ratings[(user, item)]
            continue
        order = rng.permutation(m)
        n_train = int(np.floor(fractions[0] * m))
        n_val = int(np.floor(fractions[1] * m))
        for pos, idx in enumerate(order):
            item = user_items[idx]
            bucket = 0 if pos < n_train else (1 if pos < n_train + n_val else 2)
            parts[bucket][(user, item)] = table.ratings[(user, item)]
    tables = [
        RatingsTable(
            users=list(table.users),
            items=list(table.items),
            ratings=part,
            user_features=table.user_features,
        )
        for part in parts
    ]
    return SplitTable(train=tables[0], val=tables[1], test=tables[2])


@dataclass(frozen=True)
class PairTask:
    """One document pair (by index into the item subset) with its co-ratings."""

    a: int
    b: int
    pair: tuple
    query_ids: tuple
    z: np.ndarray  # rating(item a) - rating(item b) per query


@dataclass
class PairTaskSet:
    """All co-rated document pairs of an item subset, in canonical order."""

    items: list
    tasks: list[PairTask] = field(default_factory=list)

    @property
    def n_docs(self) -> int:
        return len(self.items)

    @property
    def total_samples(self) -> int:
        return sum(len(t.z) for t in self.tasks)


def build_pair_tasks(table: RatingsTable, item_subset) -> PairTaskSet:
    """One task per unordered item pair with at least one co-rating.

    Document indices follow the order of item_subset; z is oriented as
    rating(first item) - rating(second item). Queries are listed in sorted
    order, so the result does not depend on source iteration order.
    """
    items = list(item_subset)
    if len(items) < 2:
        raise InvalidInputError(f"item subset needs >= 2 items, got {len(items)}")
    unknown = [i for i in items if i not in set(table.items)]
    if unknown:
        raise InvalidInputError(f"item subset contains undeclared items {unknown[:5]!r}")
    if len(set(items)) != len(items):
        raise InvalidInputError("item subset contains duplicates")
    tasks = []
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            ia, ib = items[a], items[b]
            queries = []
            zs = []
            for user in table.users:
                ra = table.ratings.get((user, ia))
                rb = table.ratings.get((user, ib))
                if ra is not None and rb is not None:
                    queries.append(user)
                    zs.append(ra - rb)
            if queries:
                tasks.append(
                    PairTask(a=a, b=b, pair=(ia, ib), query_ids=tuple(queries), z=np.array(zs))
                )
    return PairTaskSet(items=items, tasks=tasks)


def top_items(table: RatingsTable, m: int) -> list:
    """The m most-rated items (ties broken by item id)."""
    counts: dict = {}
    for (_, i) in table.ratings:
        counts[i] = counts.get(i, 0) + 1
    ranked = sorted(table.items, key=lambda i: (-counts.get(i, 0), i))
    return ranked[:m]


def subsample_users(table: RatingsTable, max_users: int, seed: int = 0) -> RatingsTable:
    """Restrict to a random user subset of the given size (deterministic per seed)."""
    if max_users >= len(table.users):
        return table
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(np.arange(len(table.users)), size=max_users, replace=False).tolist())
    users = [u for idx, u in enumerate(table.users) if idx in keep]
    user_set = set(users)
    ratings = {(u, i): r for (u, i), r in table.ratings.items() if u in user_set}
    return RatingsTable(
        users=users, items=list(table.items), ratings=ratings, user_features=table.user_features
    )


def user_feature_map(table: RatingsTable, item_subset) -> dict:
    """Query features per user: provided features, else normalized subset ratings.

    The derived vector is the user's mean-imputed rating vector over the
    subset (imputation value: their mean over rated subset items, falling back
    to their overall mean), centered at that mean so imputed entries sit at 0,
    and scaled to unit norm. Raw rating-scale kernels condition the factorized
    descent badly; centering also makes the features carry preferences rather
    than rating levels. Provided features pass through untouched.
    """
    if table.user_features is not None:
        provided = table.user_features
        feats = {}
        for u in table.users:
            key = u if u in provided else str(u)  # features CSV stores string ids
            if key not in provided:
                raise InvalidInputError(f"no provided features for user {u!r}")
            feats[u] = np.asarray(provided[key], dtype=float)
        return feats
    by_user = table.by_user()
    feats = {}
    items = list(item_subset)
    for user in table.users:
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


def simulate_movielens_table(
    n_users: int = 943,
    n_items: int = 1682,
    seed: int = 7,
    latent_rank: int = 3,
    noise: float = 0.35,
) -> RatingsTable:
    """A deterministic stand-in with Movielens-100k-like shape.

    Popularity-skewed item exposure, 1-5 integer ratings driven by a planted
    low-rank user/item latent structure plus noise. Used by experiments when
    no real ratings file is available.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / (np.arange(n_items) + 25.0)
    pop /= pop.sum()
    u_lat = rng.standard_normal((n_users, latent_rank))
    v_lat = rng.standard_normal((n_items, latent_rank))
    item_bias = 0.4 * rng.standard_normal(n_items)
    ratings: dict = {}
    for user in range(1, n_users + 1):
        k = int(np.clip(np.round(rng.lognormal(mean=np.log(70.0), sigma=0.75)), 20, 400))
        chosen = rng.choice(n_items, size=min(k, n_items), replace=False, p=pop)
        raw = (
            3.5
            + 0.9 * (u_lat[user - 1] @ v_lat[chosen].T) / np.sqrt(latent_rank)
            + item_bias[chosen]
            + noise * rng.standard_normal(chosen.shape[0])
        )
        vals = np.clip(np.round(raw), 1, 5)
        for item, val in zip(chosen, vals):
            ratings[(user, int(item) + 1)] = float(val)
    users = sorted({u for u, _ in ratings})
    items = sorted({i for _, i in ratings})
    return RatingsTable(users=users, items=items, ratings=ratings)
