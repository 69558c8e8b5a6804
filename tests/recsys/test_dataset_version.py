"""Snapshot versions: a matrix built during a write is never current."""

from __future__ import annotations

from repro.recsys import Dataset, Item, Rating, RatingScale, User


def _probe(dataset: Dataset, contents: dict, method: str):
    """A copy of ``contents`` whose ``method`` builds a snapshot once.

    Installed as one of the dataset's dicts, it builds the rating-matrix
    snapshot in the middle of a write — after the write has started,
    before it has finished.  Returns ``(probe, built)``; ``built`` is
    non-empty once the snapshot was built.
    """
    built: list[bool] = []

    def hooked(self, *args):
        if not built:
            built.append(True)
            dataset.rating_matrix()
        return getattr(dict, method)(self, *args)

    return type("Probe", (dict,), {method: hooked})(contents), built


def _dataset() -> Dataset:
    dataset = Dataset(
        users=[User("alice"), User("bob")],
        items=[Item(f"i{k}", title=f"Item {k}") for k in range(3)],
        ratings=[Rating("alice", "i0", 5.0), Rating("bob", "i1", 2.0)],
        scale=RatingScale(1.0, 5.0),
    )
    dataset.rating_matrix()
    return dataset


def _matrix_rating(dataset: Dataset, user_id: str, item_id: str):
    matrix = dataset.rating_matrix()
    row = matrix.row_of[user_id]
    cols = matrix.user_cols(row).tolist()
    col = matrix.col_of[item_id]
    if col not in cols:
        return None
    return float(matrix.user_vals(row)[cols.index(col)])


class TestVersionBumpsAfterMutation:
    def test_snapshot_built_mid_rating_is_rebuilt(self):
        dataset = _dataset()
        dataset._by_user, built = _probe(
            dataset, dataset._by_user, "setdefault"
        )
        dataset.add_rating(Rating("alice", "i2", 4.0))
        assert built
        assert _matrix_rating(dataset, "alice", "i2") == 4.0

    def test_snapshot_built_mid_removal_is_rebuilt(self):
        dataset = _dataset()
        dataset._by_user, built = _probe(dataset, dataset._by_user, "get")
        dataset.remove_rating("alice", "i0")
        assert built
        assert _matrix_rating(dataset, "alice", "i0") is None

    def test_snapshot_built_mid_add_item_is_rebuilt(self):
        dataset = _dataset()
        dataset._items, built = _probe(
            dataset, dataset._items, "__setitem__"
        )
        dataset.add_item(Item("i9", title="Item 9"))
        assert built
        assert "i9" in dataset.rating_matrix().col_of
