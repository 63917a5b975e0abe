"""Tests for block universes, impact/frequency encodings."""

import numpy as np
import pytest

from repro.datasets.schema import SocialItem
from repro.index.signature import (
    BlockUniverse,
    QuerySignature,
    UniverseOverflow,
    relevance_from_parts,
)
from repro.index.sigtree import BlockStore, relevance_rows


def encode_row(profile, universe, rec):
    """One user's impact-encoded row (the "user vector") in a fresh store."""
    store = BlockStore(0, universe, rec.interest.n_categories)
    row = store.append(profile.user_id)
    store.write_profiles(
        [row],
        [profile],
        rec.scorer,
        [rec.interest.long_term_distribution(profile)],
        [rec.interest.short_term_distribution(profile)],
    )
    return store, row


class TestBlockUniverse:
    def test_slots_are_dense_and_sorted(self):
        universe = BlockUniverse([5, 2], [30, 10, 20], slack=0.2)
        assert universe.producer_ids() == [2, 5]
        assert universe.entity_ids() == [10, 20, 30]
        assert universe.producer_slot(2) == 0 and universe.producer_slot(5) == 1
        assert universe.entity_slot(20) == 1
        assert universe.entity_slot(99) is None

    def test_capacity_includes_slack(self):
        universe = BlockUniverse([1], list(range(10)), slack=0.2)
        assert universe.entity_capacity >= 12  # 10 + ceil(2) + 1

    def test_add_entity_claims_reserved_slot(self):
        universe = BlockUniverse([1], [0, 1], slack=0.5)
        slot = universe.add_entity(42)
        assert universe.entity_slot(42) == slot == 2
        assert universe.n_entities == 3

    def test_add_existing_entity_is_idempotent(self):
        universe = BlockUniverse([1], [0, 1], slack=0.5)
        assert universe.add_entity(0) == universe.entity_slot(0)
        assert universe.n_entities == 2

    def test_overflow_raises(self):
        universe = BlockUniverse([1], [0], slack=0.0)
        universe.add_entity(7)  # the +1 headroom slot
        with pytest.raises(UniverseOverflow):
            universe.add_entity(8)

    def test_add_producer(self):
        universe = BlockUniverse([1], [0], slack=0.5)
        slot = universe.add_producer(9)
        assert universe.producer_slot(9) == slot

    def test_invalid_slack_rejected(self):
        with pytest.raises(ValueError):
            BlockUniverse([1], [0], slack=1.0)


class TestUserVector:
    """A member row of :class:`BlockStore` encodes the user's impact lists."""

    def test_values_match_reference_scorer(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(p for p in fitted_ssrec.profiles if p.n_long_events >= 5)
        producer_ids = list(profile.producer_counts)[:3] or [0]
        entity_ids = list(profile.entity_counts)[:5] or [0]
        universe = BlockUniverse(producer_ids, entity_ids, slack=0.2)
        store, row = encode_row(profile, universe, fitted_ssrec)
        for pid in producer_ids:
            slot = universe.producer_slot(pid)
            assert store.p_producer[row, slot] == scorer.producer_probability(profile, pid)
        for eid in entity_ids:
            slot = universe.entity_slot(eid)
            assert store.p_entity[row, slot] == scorer.entity_probability(profile, eid)
        long_dist = fitted_ssrec.interest.long_term_distribution(profile)
        assert np.array_equal(store.p_long[row], long_dist)
        assert store.versions[row] == profile.version

    def test_floors_match_unseen_probability(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(p for p in fitted_ssrec.profiles if p.n_long_events >= 5)
        unseen_producer = next(
            p for p in range(scorer.n_producers) if p not in profile.producer_counts
        )
        unseen_entity = next(
            e for e in range(scorer.n_entities) if e not in profile.entity_counts
        )
        universe = BlockUniverse([0], [0], slack=0.2)
        store, row = encode_row(profile, universe, fitted_ssrec)
        assert store.floor_producer[row] == pytest.approx(
            scorer.producer_probability(profile, unseen_producer)
        )
        assert store.floor_entity[row] == pytest.approx(
            scorer.entity_probability(profile, unseen_entity)
        )

    def test_reserved_slots_hold_floor(self, fitted_ssrec):
        profile = next(iter(fitted_ssrec.profiles))
        universe = BlockUniverse([0], [0, 1], slack=0.5)
        store, row = encode_row(profile, universe, fitted_ssrec)
        for slot in range(universe.n_entities, universe.entity_capacity):
            assert store.p_entity[row, slot] == store.floor_entity[row]

    def test_row_score_matches_scalar_reference(self, fitted_ssrec, ytube_small):
        """The vectorized relevance of a row is bitwise the scalar
        Def. 2 combination over the same parts."""
        profile = next(p for p in fitted_ssrec.profiles if p.n_long_events >= 5)
        universe = BlockUniverse(profile.producer_counts, profile.entity_counts, slack=0.2)
        store, row = encode_row(profile, universe, fitted_ssrec)
        for item in ytube_small.items[:10]:
            weighted = fitted_ssrec.scorer.expanded_query(item)
            query = QuerySignature.encode(item, weighted, universe, 0)
            sub = store.rows[[row]][:, query.columns]
            got = relevance_rows(sub, query.coeffs, 0.4)[0]
            entity_sum = query.entity_sum(store.p_entity[row], store.floor_entity[row])
            assert entity_sum == np.add.accumulate(sub[0, 3:] * query.coeffs)[-1]
            want = relevance_from_parts(
                store.p_long[row, item.category],
                query.producer_prob(store.p_producer[row], store.floor_producer[row]),
                entity_sum,
                store.p_short[row, item.category],
                0.4,
            )
            assert got == pytest.approx(want, abs=1e-12)


def make_item(item_id=0, category=1, producer=2, entities=(10, 10, 20)):
    return SocialItem(
        item_id=item_id,
        category=category,
        producer=producer,
        entities=tuple(entities),
        text="",
        timestamp=0.0,
    )


class TestQuerySignature:
    def test_encoding_accumulates_frequency_times_weight(self):
        universe = BlockUniverse([2], [10, 20], slack=0.2)
        item = make_item()
        weighted = [(10, 1.0), (10, 1.0), (20, 1.0), (30, 0.7)]
        query = QuerySignature.encode(item, weighted, universe, block_id=0)
        assert dict(query.entity_weights) == {
            universe.entity_slot(10): 2.0,
            universe.entity_slot(20): 1.0,
        }
        assert query.oov_weight == pytest.approx(0.7)
        assert query.producer_slot == universe.producer_slot(2)

    def test_out_of_universe_producer(self):
        universe = BlockUniverse([5], [10], slack=0.2)
        query = QuerySignature.encode(make_item(producer=2), [(10, 1.0)], universe, 0)
        assert query.producer_slot is None
        assert query.producer_prob(np.array([0.3]), floor_producer=0.01) == 0.01

    def test_entity_sum_matches_manual_dot_product(self):
        universe = BlockUniverse([2], [10, 20], slack=0.0)
        query = QuerySignature.encode(
            make_item(), [(10, 2.0), (20, 0.5), (99, 0.3)], universe, 0
        )
        p_entity = np.array([0.4, 0.1, 0.0, 0.0])
        expected = 2.0 * 0.4 + 0.5 * 0.1 + 0.3 * 0.01
        assert query.entity_sum(p_entity, floor_entity=0.01) == pytest.approx(expected)


class TestRelevanceFromParts:
    def test_matches_score_parts_combine(self):
        from repro.core.matching import ScoreParts

        parts = ScoreParts(0.2, 0.05, 0.3, 0.1)
        assert relevance_from_parts(0.2, 0.05, 0.3, 0.1, 0.4) == pytest.approx(
            parts.combine(0.4)
        )

    def test_monotone_in_every_component(self):
        base = relevance_from_parts(0.2, 0.05, 0.3, 0.1, 0.4)
        assert relevance_from_parts(0.3, 0.05, 0.3, 0.1, 0.4) > base
        assert relevance_from_parts(0.2, 0.06, 0.3, 0.1, 0.4) > base
        assert relevance_from_parts(0.2, 0.05, 0.4, 0.1, 0.4) > base
        assert relevance_from_parts(0.2, 0.05, 0.3, 0.2, 0.4) > base
