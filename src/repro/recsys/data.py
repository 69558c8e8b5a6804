"""Core data model: items, users, ratings and datasets.

Every recommender substrate in :mod:`repro.recsys` operates on the
:class:`Dataset` container defined here.  The model is deliberately small
and explicit:

* :class:`Item` — an immutable catalogue entry with free-form attributes,
  a keyword bag (for content-based methods) and topic labels (for
  diversification and treemap overviews).
* :class:`User` — a user record with free-form demographic/preference
  attributes (used by preference-based explanation styles).
* :class:`Rating` — one (user, item, value) observation on a
  :class:`RatingScale`, optionally implicit.
* :class:`Dataset` — the in-memory store with the index structures the
  recommenders need (ratings by user, ratings by item) and train/test
  splitting utilities.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataError, UnknownItemError, UnknownUserError

__all__ = [
    "RatingScale",
    "Item",
    "User",
    "Rating",
    "RatingMatrix",
    "Dataset",
    "train_test_split",
]


@dataclass(frozen=True)
class RatingScale:
    """A closed numeric rating scale, e.g. 1..5 stars.

    The *positive threshold* (``like_threshold``) is the smallest value
    counted as a positive/"liked" rating; it defaults to the upper
    quarter of the scale, matching the common 4-of-5-stars convention.
    """

    minimum: float = 1.0
    maximum: float = 5.0
    like_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.maximum <= self.minimum:
            raise DataError(
                f"rating scale maximum ({self.maximum}) must exceed "
                f"minimum ({self.minimum})"
            )
        if self.like_threshold is None:
            threshold = self.minimum + 0.75 * self.span
            object.__setattr__(self, "like_threshold", threshold)

    @property
    def span(self) -> float:
        """Width of the scale (``maximum - minimum``)."""
        return self.maximum - self.minimum

    @property
    def midpoint(self) -> float:
        """Neutral point of the scale."""
        return (self.maximum + self.minimum) / 2.0

    def clip(self, value: float) -> float:
        """Clamp ``value`` into the scale."""
        return float(min(self.maximum, max(self.minimum, value)))

    def clip_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`clip` — identical per-element results."""
        return np.clip(values, self.minimum, self.maximum)

    def normalize_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`normalize` — identical per-element results."""
        return (self.clip_array(values) - self.minimum) / self.span

    def denormalize_array(self, units: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`denormalize` — identical per-element results."""
        return self.clip_array(self.minimum + units * self.span)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies on the scale."""
        return self.minimum <= value <= self.maximum

    def is_positive(self, value: float) -> bool:
        """Whether ``value`` counts as a "liked" rating."""
        assert self.like_threshold is not None
        return value >= self.like_threshold

    def normalize(self, value: float) -> float:
        """Map ``value`` to [0, 1]."""
        return (self.clip(value) - self.minimum) / self.span

    def denormalize(self, unit: float) -> float:
        """Map a [0, 1] value back onto the scale."""
        return self.clip(self.minimum + unit * self.span)


@dataclass(frozen=True, eq=False)
class Item:
    """An immutable catalogue item.

    ``attributes`` carries structured fields (price, resolution, cuisine,
    ...) used by knowledge-based recommenders and trade-off explanations.
    ``keywords`` is the bag-of-words content representation used by
    content-based and naive-Bayes recommenders.  ``topics`` are coarse
    labels (genres, news sections) used by diversification and overview
    presenters.  ``recency`` is a timestamp-like float where larger means
    newer.  Identity (equality and hashing) is by ``item_id`` only.
    """

    item_id: str
    title: str
    attributes: Mapping[str, object] = field(default_factory=dict)
    keywords: frozenset[str] = frozenset()
    topics: tuple[str, ...] = ()
    recency: float = 0.0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Item) and other.item_id == self.item_id

    def __hash__(self) -> int:
        return hash(self.item_id)

    def attribute(self, name: str, default: object = None) -> object:
        """Return a structured attribute value, or ``default``."""
        return self.attributes.get(name, default)


@dataclass(frozen=True, eq=False)
class User:
    """A user record.

    ``attributes`` carries demographic or stated-preference fields
    ("age_group", "likes_football", ...) that preference-based explainers
    and scrutable profiles build on.  Identity is by ``user_id`` only.
    """

    user_id: str
    name: str = ""
    attributes: Mapping[str, object] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, User) and other.user_id == self.user_id

    def __hash__(self) -> int:
        return hash(self.user_id)


@dataclass(frozen=True)
class Rating:
    """One rating observation.

    ``source`` distinguishes explicit star ratings from implicit feedback
    (views, clicks); scrutable profiles surface this provenance to the
    user, as the paper's Section 2.2 requires.
    """

    user_id: str
    item_id: str
    value: float
    timestamp: float = 0.0
    source: str = "explicit"


class RatingMatrix:
    """Immutable contiguous snapshot of a dataset's rating relation.

    This is the shared substrate layer every vectorized recommender
    scores against.  Both orientations of the relation are stored as
    flat CSR-style arrays whose *within-entity order is the dataset's
    insertion order* — the same order the per-entity dict views
    (:meth:`Dataset.ratings_by` / :meth:`Dataset.ratings_for`) iterate
    in — so batched kernels consume exactly the value sequences the
    per-pair code paths used to gather, and reproduce their floats
    bit for bit.

    Contents:

    * ``u_indptr`` / ``u_cols`` / ``u_vals`` — user-major: user row
      ``i`` rated columns ``u_cols[u_indptr[i]:u_indptr[i+1]]``.
    * ``i_indptr`` / ``i_rows`` / ``i_vals`` — item-major mirror.
    * ``user_means`` / ``item_means`` / ``global_mean`` — computed with
      ``np.mean`` over the insertion-order slices, bitwise identical to
      :meth:`Dataset.user_mean` / :meth:`Dataset.item_mean` /
      :meth:`Dataset.global_mean` (midpoint where empty).
    * ``user_rank`` / ``item_rank`` — lexicographic rank of each id,
      the vectorized form of the ``(-score, id)`` tie-break every
      ranking in the repo uses.
    * ``item_recency`` — per-item recency column for the popularity
      substrate.

    Snapshots are cheap to share: :meth:`Dataset.rating_matrix` caches
    one per dataset version, so every substrate fitted on the same
    dataset scores against the same arrays.
    """

    def __init__(self, dataset: "Dataset") -> None:
        self.version = dataset.version
        self.scale = dataset.scale
        user_ids = list(dataset.users)
        item_ids = list(dataset.items)
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.n_users = len(user_ids)
        self.n_items = len(item_ids)
        self.row_of = {uid: i for i, uid in enumerate(user_ids)}
        self.col_of = {iid: j for j, iid in enumerate(item_ids)}

        self.u_indptr, self.u_cols, self.u_vals, self.user_means = (
            self._orient(dataset.ratings_by, self.row_of, self.col_of, True)
        )
        self.i_indptr, self.i_rows, self.i_vals, self.item_means = (
            self._orient(dataset.ratings_for, self.col_of, self.row_of, False)
        )
        midpoint = self.scale.midpoint
        self.global_mean = (
            float(np.mean(self.u_vals)) if self.u_vals.size else midpoint
        )
        self.user_rank = self._rank(user_ids)
        self.item_rank = self._rank(item_ids)
        recency = np.empty(self.n_items, dtype=np.float64)
        recency[:] = [
            entry.recency for entry in dataset.items.values()
        ]
        self.item_recency = recency

    def _orient(self, view, primary, secondary, by_user):
        """Build one CSR orientation plus its per-entity means."""
        counts: list[int] = []
        idx_acc: list[int] = []
        val_acc: list[float] = []
        for eid in primary:
            per = view(eid)
            counts.append(len(per))
            for r in per.values():
                key = r.item_id if by_user else r.user_id
                idx_acc.append(secondary[key])
                val_acc.append(r.value)
        n = len(primary)
        indptr = np.empty(n + 1, dtype=np.intp)
        indptr[0] = 0
        indptr[1:] = np.cumsum(counts) if counts else 0
        idx = np.empty(len(idx_acc), dtype=np.intp)
        idx[:] = idx_acc
        vals = np.empty(len(val_acc), dtype=np.float64)
        vals[:] = val_acc
        midpoint = self.scale.midpoint
        means_acc: list[float] = []
        bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
        for a, b in bounds:
            seg = vals[a:b]
            means_acc.append(float(np.mean(seg)) if b > a else midpoint)
        means = np.empty(n, dtype=np.float64)
        means[:] = means_acc
        return indptr, idx, vals, means

    @staticmethod
    def _rank(ids: list[str]) -> np.ndarray:
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rank = np.empty(len(ids), dtype=np.intp)
        rank[order] = np.arange(len(ids))
        return rank

    # -- slice views ------------------------------------------------------

    def user_cols(self, row: int) -> np.ndarray:
        """Columns user ``row`` rated, in rating insertion order."""
        return self.u_cols[self.u_indptr[row]:self.u_indptr[row + 1]]

    def user_vals(self, row: int) -> np.ndarray:
        """Values user ``row`` gave, aligned with :meth:`user_cols`."""
        return self.u_vals[self.u_indptr[row]:self.u_indptr[row + 1]]

    def item_rows(self, col: int) -> np.ndarray:
        """User rows who rated item ``col``, in insertion order."""
        return self.i_rows[self.i_indptr[col]:self.i_indptr[col + 1]]

    def item_vals(self, col: int) -> np.ndarray:
        """Values item ``col`` received, aligned with :meth:`item_rows`."""
        return self.i_vals[self.i_indptr[col]:self.i_indptr[col + 1]]

    def rated_flags(self, row: int) -> np.ndarray:
        """Boolean membership vector over items for one user row."""
        flags = np.full(self.n_items, False)
        flags[self.user_cols(row)] = True
        return flags

    # -- batched gathers --------------------------------------------------

    @staticmethod
    def gather_ranges(
        indptr: np.ndarray, sel: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of ``sel``'s CSR ranges plus each position's owner.

        ``positions`` indexes the flat arrays so that the ranges of the
        selected entities appear back to back, each in insertion order;
        ``owner`` maps every position to its index *within* ``sel``.
        One vectorized pass — no per-entity Python iteration.
        """
        starts = indptr[sel]
        lengths = indptr[sel + 1] - starts
        total = int(lengths.sum())
        owner = np.repeat(np.arange(sel.size), lengths)
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        positions = np.arange(total) + offsets
        return positions, owner

    def columns_dense(
        self, cols: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(n_rows, len(cols))`` value/mask pair for some columns.

        ``rows=None`` spans every user row; otherwise only the given
        rows (in the given order) are materialised.  Built by
        scattering each requested column's rater slice, so the dense
        entries are exactly the dataset's stored values.
        """
        if rows is None:
            height = self.n_users
            posmap = None
        else:
            height = rows.size
            posmap = np.full(self.n_users, -1, dtype=np.intp)
            posmap[rows] = np.arange(rows.size)
        values = np.full((height, cols.size), 0.0)
        mask = np.full((height, cols.size), False)
        positions, owner = self.gather_ranges(self.i_indptr, cols)
        raters = self.i_rows[positions]
        if posmap is not None:
            local = posmap[raters]
            keep = local >= 0
            values[local[keep], owner[keep]] = self.i_vals[positions[keep]]
            mask[local[keep], owner[keep]] = True
        else:
            values[raters, owner] = self.i_vals[positions]
            mask[raters, owner] = True
        return values, mask

    def raters_dense(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(n_items, len(rows))`` value/mask pair for some users.

        The transpose orientation of :meth:`columns_dense`: entry
        ``(j, t)`` is user ``rows[t]``'s rating of item ``j``.  This is
        the candidate matrix item-item similarity scores against.
        """
        values = np.full((self.n_items, rows.size), 0.0)
        mask = np.full((self.n_items, rows.size), False)
        positions, owner = self.gather_ranges(self.u_indptr, rows)
        cols = self.u_cols[positions]
        values[cols, owner] = self.u_vals[positions]
        mask[cols, owner] = True
        return values, mask


class Dataset:
    """In-memory collection of users, items and ratings.

    The container maintains both orientations of the rating relation
    (by user and by item) so neighbourhood computations are cheap, and
    exposes a dense numpy matrix view for vectorised similarity code.
    Mutations bump :attr:`version` after they mutate, so a snapshot
    built while a write is under way carries the old version and is
    rebuilt on the next read; :meth:`rating_matrix` caches one
    contiguous :class:`RatingMatrix` snapshot per version, shared by
    every substrate fitted on this dataset.
    """

    def __init__(
        self,
        items: Iterable[Item] = (),
        users: Iterable[User] = (),
        ratings: Iterable[Rating] = (),
        scale: RatingScale | None = None,
    ) -> None:
        self.scale = scale if scale is not None else RatingScale()
        self._items: dict[str, Item] = {}
        self._users: dict[str, User] = {}
        self._by_user: dict[str, dict[str, Rating]] = {}
        self._by_item: dict[str, dict[str, Rating]] = {}
        self._version = 0
        self._matrix: RatingMatrix | None = None
        for item in items:
            self.add_item(item)
        for user in users:
            self.add_user(user)
        for rating in ratings:
            self.add_rating(rating)

    # -- construction -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutating operation."""
        return self._version

    def add_item(self, item: Item) -> None:
        """Register an item (idempotent for identical ids)."""
        changed = self._items.get(item.item_id) is not item
        self._items[item.item_id] = item
        if changed:
            self._version += 1

    def add_user(self, user: User) -> None:
        """Register a user (idempotent for identical ids)."""
        changed = self._users.get(user.user_id) is not user
        self._users[user.user_id] = user
        self._by_user.setdefault(user.user_id, {})
        if changed:
            self._version += 1

    def add_rating(self, rating: Rating) -> None:
        """Record a rating; re-rating the same item overwrites.

        The referenced user and item must already exist and the value must
        lie on the dataset's scale.
        """
        if rating.user_id not in self._users:
            raise UnknownUserError(rating.user_id)
        if rating.item_id not in self._items:
            raise UnknownItemError(rating.item_id)
        if not self.scale.contains(rating.value):
            raise DataError(
                f"rating {rating.value} outside scale "
                f"[{self.scale.minimum}, {self.scale.maximum}]"
            )
        self._by_user.setdefault(rating.user_id, {})[rating.item_id] = rating
        self._by_item.setdefault(rating.item_id, {})[rating.user_id] = rating
        self._version += 1

    def remove_rating(self, user_id: str, item_id: str) -> None:
        """Delete a rating if present (used by scrutable profile editing)."""
        self._by_user.get(user_id, {}).pop(item_id, None)
        self._by_item.get(item_id, {}).pop(user_id, None)
        self._version += 1

    def rating_matrix(self) -> RatingMatrix:
        """The cached contiguous snapshot for the current version.

        Rebuilt lazily after any mutation; every vectorized substrate
        reads through this accessor, so an absorbed rating event is
        visible on the next prediction without a refit.
        """
        cached = self._matrix
        if cached is not None and cached.version == self._version:
            return cached
        snapshot = RatingMatrix(self)
        self._matrix = snapshot
        return snapshot

    # -- lookups ----------------------------------------------------------

    @property
    def items(self) -> Mapping[str, Item]:
        """Mapping of item id to :class:`Item`."""
        return self._items

    @property
    def users(self) -> Mapping[str, User]:
        """Mapping of user id to :class:`User`."""
        return self._users

    def item(self, item_id: str) -> Item:
        """Return the item for ``item_id`` or raise :class:`UnknownItemError`."""
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def user(self, user_id: str) -> User:
        """Return the user for ``user_id`` or raise :class:`UnknownUserError`."""
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownUserError(user_id) from None

    def rating(self, user_id: str, item_id: str) -> Rating | None:
        """The rating ``user_id`` gave ``item_id``, or ``None``."""
        return self._by_user.get(user_id, {}).get(item_id)

    def ratings_by(self, user_id: str) -> Mapping[str, Rating]:
        """All ratings by one user, keyed by item id."""
        return self._by_user.get(user_id, {})

    def ratings_for(self, item_id: str) -> Mapping[str, Rating]:
        """All ratings of one item, keyed by user id."""
        return self._by_item.get(item_id, {})

    def iter_ratings(self) -> Iterator[Rating]:
        """Iterate over every rating in the dataset."""
        for per_item in self._by_user.values():
            yield from per_item.values()

    @property
    def n_ratings(self) -> int:
        """Total number of ratings."""
        return sum(len(per_item) for per_item in self._by_user.values())

    def user_mean(self, user_id: str) -> float:
        """Mean rating of a user; scale midpoint if the user rated nothing."""
        ratings = self._by_user.get(user_id, {})
        if not ratings:
            return self.scale.midpoint
        return float(np.mean([r.value for r in ratings.values()]))

    def item_mean(self, item_id: str) -> float:
        """Mean rating of an item; scale midpoint if unrated."""
        ratings = self._by_item.get(item_id, {})
        if not ratings:
            return self.scale.midpoint
        return float(np.mean([r.value for r in ratings.values()]))

    def global_mean(self) -> float:
        """Mean over all ratings; scale midpoint for an empty dataset."""
        values = [r.value for r in self.iter_ratings()]
        if not values:
            return self.scale.midpoint
        return float(np.mean(values))

    def unrated_items(self, user_id: str) -> list[str]:
        """Item ids the user has not rated, in insertion order."""
        rated = self._by_user.get(user_id, {})
        return [item_id for item_id in self._items if item_id not in rated]

    def topics(self) -> list[str]:
        """Sorted list of all topic labels appearing on items."""
        seen: set[str] = set()
        for item in self._items.values():
            seen.update(item.topics)
        return sorted(seen)

    # -- matrix view ------------------------------------------------------

    def matrix(self) -> tuple[np.ndarray, dict[str, int], dict[str, int]]:
        """Dense (users x items) rating matrix with ``nan`` for missing.

        Returns the matrix together with user-id -> row and
        item-id -> column index maps.
        """
        user_index = {uid: i for i, uid in enumerate(self._users)}
        item_index = {iid: j for j, iid in enumerate(self._items)}
        matrix = np.full((len(user_index), len(item_index)), np.nan)
        for rating in self.iter_ratings():
            row = user_index[rating.user_id]
            col = item_index[rating.item_id]
            matrix[row, col] = rating.value
        return matrix, user_index, item_index

    # -- copying ----------------------------------------------------------

    def copy(self) -> "Dataset":
        """A shallow structural copy (items/users shared, ratings copied)."""
        clone = Dataset(scale=self.scale)
        for item in self._items.values():
            clone.add_item(item)
        for user in self._users.values():
            clone.add_user(user)
        for rating in self.iter_ratings():
            clone.add_rating(rating)
        return clone

    def __repr__(self) -> str:
        return (
            f"Dataset(users={len(self._users)}, items={len(self._items)}, "
            f"ratings={self.n_ratings})"
        )


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    rng: np.random.Generator | None = None,
) -> tuple[Dataset, list[Rating]]:
    """Split ratings into a training dataset and a held-out test list.

    Users and items are shared between both sides; only ratings are split.
    Every user keeps at least one training rating so personalised
    recommenders stay usable for all users.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = rng if rng is not None else np.random.default_rng(0)

    train = Dataset(scale=dataset.scale)
    for item in dataset.items.values():
        train.add_item(item)
    for user in dataset.users.values():
        train.add_user(user)

    test: list[Rating] = []
    for user_id in dataset.users:
        ratings = list(dataset.ratings_by(user_id).values())
        if not ratings:
            continue
        order = rng.permutation(len(ratings))
        n_test = min(int(len(ratings) * test_fraction), len(ratings) - 1)
        test_positions = set(order[:n_test].tolist())
        for position, rating in enumerate(ratings):
            if position in test_positions:
                test.append(rating)
            else:
                train.add_rating(rating)
    return train, test


def dataset_from_tuples(
    items: Sequence[Item],
    users: Sequence[User],
    triples: Iterable[tuple[str, str, float]],
    scale: RatingScale | None = None,
) -> Dataset:
    """Convenience constructor from bare ``(user, item, value)`` triples."""
    dataset = Dataset(items=items, users=users, scale=scale)
    for user_id, item_id, value in triples:
        dataset.add_rating(Rating(user_id=user_id, item_id=item_id, value=value))
    return dataset
