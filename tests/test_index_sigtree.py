"""Tests for the flat signature store: structure, aggregation, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.schema import SocialItem
from repro.index.signature import BlockUniverse, QuerySignature
from repro.index.sigtree import BlockStore, SignatureTree, group_ranges

N_CATEGORIES = 3


def make_universe(n_producers=3, n_entities=6):
    return BlockUniverse(range(n_producers), range(n_entities), slack=0.2)


def random_row(store, rng):
    """Random impact values in every column (probability-like, < 1)."""
    return rng.random(store.width) * 0.2


def make_store(universe, n_users, seed=0, fanout=4):
    rng = np.random.default_rng(seed)
    store = BlockStore(0, universe, N_CATEGORIES, fanout=fanout)
    for uid in range(n_users):
        row = store.append(uid)
        store.rows[row] = random_row(store, rng)
    store.reaggregate()
    return store


def make_query(universe, seed=0, category=0):
    rng = np.random.default_rng(seed)
    item = SocialItem(0, category, int(rng.integers(3)), (), "", 0.0)
    entity_ids = universe.entity_ids()
    weighted = [(int(rng.choice(entity_ids)), 1.0) for _ in range(3)]
    weighted.append((99999, 0.5))  # out-of-universe entity
    return QuerySignature.encode(item, weighted, universe, block_id=0)


def row_scores(store, query, lambda_s=0.4):
    return store.relevance(store.rows, np.arange(store.n), query, lambda_s)


def assert_bounds_dominate(store, query, lambda_s=0.4):
    """Lemmas 1-2 at every level: each node bounds its children (rows for
    leaf groups) within float noise."""
    below_scores = row_scores(store, query, lambda_s)
    n_below = store.n
    for level in store.levels:
        bounds = store.relevance(level, np.arange(len(level)), query, lambda_s)
        for node, bound in enumerate(bounds):
            children = group_ranges(np.array([node]), store.fanout, n_below)
            assert np.all(bound >= below_scores[children] - 1e-9)
        below_scores, n_below = bounds, len(level)


class TestBulkBuild:
    def test_all_entries_present(self):
        universe = make_universe()
        store = make_store(universe, 23)
        tree = SignatureTree(store, 0)
        assert len(tree) == 23
        assert store.members().tolist() == list(range(23))

    def test_height_logarithmic(self):
        universe = make_universe()
        tree = SignatureTree(make_store(universe, 64), 0)
        # 64 rows -> 16 leaf groups -> 4 internal -> 1 root: 3 node levels.
        assert tree.height() == 3
        assert [len(level) for level in tree.store.levels] == [16, 4, 1]

    def test_empty_build(self):
        universe = make_universe()
        store = make_store(universe, 0)
        assert len(store) == 0
        assert store.members().tolist() == []
        assert store.levels == []

    def test_invariants_hold_after_build(self):
        universe = make_universe()
        make_store(universe, 30, fanout=3).check_invariants()

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            BlockStore(0, make_universe(), N_CATEGORIES, fanout=1)

    def test_aggregate_is_componentwise_max(self):
        store = make_store(make_universe(), 10, fanout=4)
        assert np.array_equal(store.levels[0][1], store.rows[4:8].max(axis=0))
        assert np.array_equal(store.levels[-1][0], store.rows[:10].max(axis=0))


class TestUpperBound:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10))
    def test_root_bound_dominates_every_leaf(self, n_users, seed):
        """Lemma 1/2: the IEntry relevance upper-bounds every descendant's
        exact relevance, for random signatures and random queries."""
        universe = make_universe()
        tree = SignatureTree(make_store(universe, n_users, seed=seed), 0)
        query = make_query(universe, seed=seed)
        bound = tree.root_bound(query, lambda_s=0.4)
        assert np.all(bound >= row_scores(tree.store, query) - 1e-9)

    def test_internal_bounds_dominate_children(self):
        universe = make_universe()
        store = make_store(universe, 27, seed=3, fanout=3)
        for category in range(N_CATEGORIES):
            assert_bounds_dominate(store, make_query(universe, seed=3, category=category))


class TestUpdate:
    def test_update_entry_refreshes_values_and_ancestors(self):
        universe = make_universe()
        store = make_store(universe, 12, seed=1, fanout=3)
        rng = np.random.default_rng(99)
        row = store.find(5)
        store.rows[row] = random_row(store, rng)
        store.p_long[row, 0] = 0.99
        assert store.reaggregate([row]) == 3  # leaf group, internal, root
        store.check_invariants()
        assert store.levels[-1][0, store.floor_col + 2] >= 0.99

    def test_update_missing_user_returns_false(self):
        store = make_store(make_universe(), 5, fanout=3)
        assert store.find(999) is None
        assert 999 not in store

    def test_find_leaf_entry(self):
        store = make_store(make_universe(), 9, fanout=3)
        assert store.member_ids[store.find(4)] == 4
        assert store.find(100) is None

    def test_partial_reaggregation_equals_full(self):
        rng = np.random.default_rng(7)
        store = make_store(make_universe(), 40, seed=7, fanout=3)
        for _ in range(5):
            rows = rng.choice(40, size=4, replace=False)
            for row in rows:
                store.rows[row] = random_row(store, rng)
            store.reaggregate(rows)
            store.check_invariants()  # bitwise against a full rebuild


class TestInsert:
    def test_insert_grows_tree_and_keeps_invariants(self):
        universe = make_universe()
        store = make_store(universe, 4, seed=2, fanout=3)
        rng = np.random.default_rng(5)
        for uid in range(100, 130):
            row = store.append(uid)
            store.rows[row] = random_row(store, rng)
            store.reaggregate([row])
        assert len(store) == 34
        store.check_invariants()
        assert 115 in store

    def test_duplicate_insert_rejected(self):
        store = make_store(make_universe(), 3, fanout=3)
        with pytest.raises(ValueError, match="already indexed"):
            store.append(0)

    def test_insert_into_empty_tree(self):
        store = make_store(make_universe(), 0, fanout=3)
        row = store.append(1)
        store.rows[row] = random_row(store, np.random.default_rng(0))
        store.reaggregate([row])
        assert len(store) == 1
        store.check_invariants()

    def test_bound_still_dominates_after_mixed_operations(self):
        universe = make_universe()
        store = make_store(universe, 10, seed=4, fanout=3)
        rng = np.random.default_rng(6)
        for uid in range(200, 215):
            row = store.append(uid)
            store.rows[row] = random_row(store, rng)
            store.reaggregate([row])
        row = store.find(3)
        store.rows[row] = random_row(store, rng)
        store.p_long[row] = 0.9
        store.reaggregate([row])
        store.check_invariants()
        query = make_query(universe, seed=4)
        assert_bounds_dominate(store, query)
        tree = SignatureTree(store, 0)
        assert np.all(tree.root_bound(query, 0.4) >= row_scores(store, query) - 1e-9)
