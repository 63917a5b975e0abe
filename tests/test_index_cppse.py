"""Tests for the CPPse-index: build, KNN exactness, maintenance."""

import numpy as np
import pytest

from repro.core.profiles import ProfileEvent
from repro.datasets.schema import Interaction, SocialItem
from repro.index.signature import QuerySignature


def scan_restricted_to(recommender, item, users, k):
    """Reference ranking: vectorized scan over a user subset."""
    ranked = recommender.matcher.top_k(item, len(recommender.profiles))
    return [(u, s) for u, s in ranked if u in users][:k]


class TestBuild:
    def test_every_consumer_is_blocked_and_vectorized(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        assert set(index.block_of_user) == {
            p.user_id for p in fitted_ssrec_indexed.profiles
        }
        for user_id, block_id in index.block_of_user.items():
            store = index.stores[block_id]
            row = store.find(user_id)
            assert row is not None
            assert store.versions[row] == fitted_ssrec_indexed.profiles.get(user_id).version

    def test_trees_cover_block_categories(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        for block in index.blocks:
            for category in block.categories:
                assert (block.block_id, category) in index.trees

    def test_hash_table_routes_universe_pairs(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        block = index.blocks[0]
        universe = index.universes[block.block_id]
        category = next(iter(block.categories))
        entity = universe.entity_ids()[0]
        ptrs = index.hash_table.lookup(category, entity)
        assert block.block_id in ptrs
        assert ptrs[block.block_id] is index.trees[(block.block_id, category)]

    def test_invariants_after_build(self, fitted_ssrec_indexed):
        fitted_ssrec_indexed.index.check_invariants()

    def test_signature_statistics_shape(self, fitted_ssrec_indexed):
        stats = fitted_ssrec_indexed.index.signature_statistics()
        assert stats["n_blocks"] >= 1
        assert stats["n_trees"] >= stats["n_blocks"]
        assert stats["max_entity_num"] > 0


class TestKnnExactness:
    def test_knn_equals_scan_over_probed_users(
        self, fitted_ssrec, fitted_ssrec_indexed, ytube_stream
    ):
        """No false dismissals: the index top-k must equal the exact scan
        top-k over the users the probed trees contain (Lemmas 1-2)."""
        items = ytube_stream.items_in_partition(2)[:25]
        index = fitted_ssrec_indexed.index
        for item in items:
            probed = index.users_in_probed_trees(item)
            if not probed:
                continue
            got = index.knn(item, 10)
            expected = scan_restricted_to(fitted_ssrec, item, probed, 10)
            got_scores = [round(s, 9) for _, s in got]
            exp_scores = [round(s, 9) for _, s in expected]
            assert got_scores == exp_scores, f"item {item.item_id}"
            # Identical users except possibly within exact ties.
            for (gu, gs), (eu, es) in zip(got, expected):
                if gu != eu:
                    assert gs == pytest.approx(es, abs=1e-9)

    def test_knn_k_larger_than_population(self, fitted_ssrec_indexed, ytube_stream):
        item = ytube_stream.items_in_partition(2)[0]
        index = fitted_ssrec_indexed.index
        got = index.knn(item, 10_000)
        assert len(got) == len(index.users_in_probed_trees(item))

    def test_knn_scores_descending(self, fitted_ssrec_indexed, ytube_stream):
        item = ytube_stream.items_in_partition(2)[1]
        scores = [s for _, s in fitted_ssrec_indexed.index.knn(item, 20)]
        assert scores == sorted(scores, reverse=True)

    def test_knn_rejects_negative_k(self, fitted_ssrec_indexed, ytube_small):
        with pytest.raises(ValueError):
            fitted_ssrec_indexed.index.knn(ytube_small.items[0], -1)

    def test_knn_zero_k_is_empty_window(self, fitted_ssrec_indexed, ytube_small):
        """k=0 is an empty recommendation window, not an error."""
        index = fitted_ssrec_indexed.index
        assert index.knn(ytube_small.items[0], 0) == []
        assert index.knn_batch(ytube_small.items[:3], 0) == [[], [], []]
        assert index.knn_batch([], 5) == []

    def test_unindexed_category_returns_empty(self, fitted_ssrec_indexed):
        item = SocialItem(
            item_id=10**9,
            category=0,
            producer=0,
            entities=(10**8,),  # entity no block has seen
            text="",
            timestamp=1.0,
        )
        # Entity unknown anywhere -> no tree located -> empty result.
        index = fitted_ssrec_indexed.index
        if not index.locate_trees(item):
            assert index.knn(item, 5) == []


class TestMaintenance:
    def _record_events(self, rec, user_id, item, times):
        for _ in range(times):
            rec.profiles.record(
                user_id,
                ProfileEvent(
                    category=item.category,
                    producer=item.producer,
                    item_id=item.item_id,
                    entities=item.entities,
                ),
            )

    def test_updates_change_knn_ranking(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        item = ytube_stream.items_in_partition(2)[0]
        baseline = rec.index.knn(item, 5)
        # Make one previously-low user strongly interested in this item.
        probed = rec.index.users_in_probed_trees(item)
        all_ranked = [u for u, _ in rec.index.knn(item, len(probed))]
        target = all_ranked[-1]
        self._record_events(rec, target, item, rec.profiles.window_size * 4)
        rec.index.maintain([target])
        rec.index.check_invariants()
        updated = rec.index.knn(item, 5)
        assert target in [u for u, _ in updated]
        assert updated != baseline

    def test_maintenance_keeps_scan_agreement(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        # Stream one test partition of updates through profiles + maintain.
        partition = ytube_stream.partitions[2][:300]
        item_by_id = {it.item_id: it for it in ytube_stream.dataset.items}
        touched = set()
        for inter in partition:
            item = item_by_id[inter.item_id]
            rec.profiles.record(
                inter.user_id,
                ProfileEvent(
                    category=inter.category,
                    producer=inter.producer,
                    item_id=inter.item_id,
                    entities=item.entities,
                ),
            )
            touched.add(inter.user_id)
        rec.index.maintain(sorted(touched))
        rec.index.check_invariants()
        rec.matcher.sync()
        for item in ytube_stream.items_in_partition(2)[:8]:
            probed = rec.index.users_in_probed_trees(item)
            if not probed:
                continue
            got = [round(s, 9) for _, s in rec.index.knn(item, 8)]
            expected = [
                round(s, 9) for _, s in scan_restricted_to(rec, item, probed, 8)
            ]
            assert got == expected

    def test_new_user_inserted(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        new_user = max(p.user_id for p in rec.profiles) + 1
        item = ytube_small.items[0]
        self._record_events(rec, new_user, item, rec.profiles.window_size * 2)
        rec.index.maintain([new_user])
        assert new_user in rec.index.block_of_user
        block_id = rec.index.block_of_user[new_user]
        tree = rec.index.trees[(block_id, item.category)]
        assert new_user in tree
        assert tree.store.find(new_user) is not None
        rec.index.check_invariants()

    def test_new_entity_extends_universe_and_hash(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        profile = next(p for p in rec.profiles if p.n_long_events >= 5)
        block_id = rec.index.block_of_user[profile.user_id]
        universe = rec.index.universes[block_id]
        new_entity = max(universe.entity_ids()) + 500
        base = ytube_small.items[0]
        item = SocialItem(
            item_id=10**7,
            category=base.category,
            producer=base.producer,
            entities=(new_entity,),
            text="",
            timestamp=1.0,
        )
        self._record_events(rec, profile.user_id, item, profile.window_size)
        rec.index.maintain([profile.user_id])
        universe = rec.index.universes[rec.index.block_of_user[profile.user_id]]
        assert universe.entity_slot(new_entity) is not None
        for category in rec.index.blocks[rec.index.block_of_user[profile.user_id]].categories:
            assert rec.index.block_of_user[profile.user_id] in rec.index.hash_table.lookup(
                category, new_entity
            )

    def test_overflow_triggers_block_rebuild(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        profile = next(p for p in rec.profiles if p.n_long_events >= 5)
        block_id = rec.index.block_of_user[profile.user_id]
        universe = rec.index.universes[block_id]
        headroom = universe.entity_capacity - universe.n_entities
        base = ytube_small.items[0]
        start = 10**6
        # Browse far more new entities than the reserved zone can hold.
        for i in range(headroom + 5):
            item = SocialItem(
                item_id=start + i,
                category=base.category,
                producer=base.producer,
                entities=(start + i,),
                text="",
                timestamp=1.0,
            )
            self._record_events(rec, profile.user_id, item, 1)
        # Force flush of anything left in the window.
        while rec.profiles.get(profile.user_id).window:
            self._record_events(rec, profile.user_id, base, 1)
        rec.index.maintain([profile.user_id])
        rec.index.check_invariants()
        new_universe = rec.index.universes[block_id]
        assert new_universe is not universe  # rebuilt
        assert new_universe.entity_slot(start) is not None

    def test_maintain_unknown_user_is_noop(self, fresh_ssrec_indexed):
        assert fresh_ssrec_indexed.index.maintain([99_999_999]) == 0


class TestFlatStoreMaintenance:
    def _flush_events(self, rec, user_id, item, times):
        for _ in range(times):
            rec.profiles.record(
                user_id,
                ProfileEvent(
                    category=item.category,
                    producer=item.producer,
                    item_id=item.item_id,
                    entities=item.entities,
                ),
            )

    def test_phantom_category_tree_stays_fresh(self, fresh_ssrec_indexed, ytube_small):
        """A block built with no categories gets a category-0 tree that is
        not in ``block.categories``; maintenance must still refresh what it
        reads (it is a view of the block's rows, like every other tree)."""
        rec = fresh_ssrec_indexed
        index = rec.index
        block_id = next(
            b for b, c in index.trees if c == 0 and 0 not in index.blocks[b].categories
        )
        user_id = index.blocks[block_id].user_ids[0]
        item = next(it for it in ytube_small.items if it.category == 0 and it.entities)
        self._flush_events(rec, user_id, item, rec.profiles.window_size)
        index.maintain([user_id])
        index.check_invariants()
        profile = rec.profiles.get(user_id)
        tree = index.trees[(block_id, 0)]
        row = np.array([tree.store.find(user_id)])
        query = QuerySignature.encode(
            item, rec.scorer.expanded_query(item), tree.universe, block_id
        )
        score = tree.store.relevance(tree.store.rows, row, query, rec.config.lambda_s)[0]
        assert score == pytest.approx(rec.scorer.score(item, profile), abs=1e-9)
        assert tree.store.versions[row[0]] == profile.version

    def test_stale_row_fails_invariants(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        user_id = rec.index.blocks[0].user_ids[0]
        self._flush_events(rec, user_id, ytube_small.items[0], 1)
        with pytest.raises(AssertionError, match="row version"):
            rec.index.check_invariants()
        rec.index.maintain([user_id])
        rec.index.check_invariants()

    def test_maintain_refreshes_each_block_once(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        index = rec.index
        block = max(index.blocks, key=lambda b: len(b.user_ids))
        users = block.user_ids[:3]
        for user_id in users:
            self._flush_events(rec, user_id, ytube_small.items[1], 1)
        before = index.stats.nodes_reaggregated
        assert index.maintain(users) == len(users)
        # One pass over the dirty leaf groups and their ancestors.
        assert index.stats.nodes_reaggregated - before <= sum(
            len(level) for level in index.stores[block.block_id].levels
        )
        assert index.stats.rows_refreshed == len(users)
        index.check_invariants()


class TestIndexCounters:
    def test_counters_reach_the_plan_registry(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        items = ytube_stream.items_in_partition(2)[:6]
        rec.recommend_batch(items, 10)
        item = items[0]
        user_id = next(iter(rec.index.block_of_user))
        rec.update(Interaction(user_id, item.item_id, item.category, item.producer, 1.0), item)
        rec.run_maintenance()
        dump = rec.obs_registry().to_dict()
        counters = {metric["name"]: metric["value"] for metric in dump["counters"]}
        stats = rec.index.stats
        assert counters["index.trees_probed"] == stats.trees_probed > 0
        assert counters["index.leaves_scored"] == stats.leaves_scored > 0
        assert counters["index.bounds_evaluated"] >= stats.trees_probed
        assert counters["index.maintain.rows_refreshed"] == 1
        assert counters["index.maintain.nodes_reaggregated"] >= 1
        assert counters["index.maintain.block_rebuilds"] == 0
        gauges = {metric["name"]: metric["value"] for metric in dump["gauges"]}
        assert 0.0 <= gauges["index.pruned_frac"] < 1.0
        assert stats.leaves_scored <= stats.users_probed
