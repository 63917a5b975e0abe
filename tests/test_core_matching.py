"""Tests for interest prediction and the Eq. 1-4 matching scorers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SsRecConfig
from repro.core.matching import ScoreParts, VectorizedMatcher
from repro.core.profiles import ProfileStore
from repro.datasets.schema import SocialItem
from repro.hmm.utils import PROB_FLOOR


class TestSsRecConfig:
    def test_defaults_are_paper_optima(self):
        config = SsRecConfig()
        assert config.window_size == 5
        assert config.lambda_s == pytest.approx(0.4)

    def test_mlens_preset(self):
        assert SsRecConfig.for_mlens().lambda_s == pytest.approx(0.3)

    def test_with_options_returns_new_frozen_copy(self):
        config = SsRecConfig()
        other = config.with_options(lambda_s=0.7)
        assert other.lambda_s == pytest.approx(0.7)
        assert config.lambda_s == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"lambda_s": 1.5},
            {"dirichlet_mu": 0.0},
            {"tree_fanout": 1},
            {"hash_buckets": 0},
            {"signature_slack": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SsRecConfig(**kwargs)


class TestScoreParts:
    def test_combine_matches_equation_three(self):
        parts = ScoreParts(
            p_long_category=0.2, p_producer=0.1, entity_sum=0.05, p_short_category=0.3
        )
        lam = 0.4
        expected = (1 - lam) * (
            math.log(0.2) + math.log(0.1) + math.log(0.05)
        ) + lam * math.log(0.3)
        assert parts.combine(lam) == pytest.approx(expected)

    def test_lambda_zero_is_long_term_only(self):
        parts = ScoreParts(0.2, 0.1, 0.05, 0.9)
        assert parts.combine(0.0) == pytest.approx(parts.long_score())

    def test_lambda_one_is_short_term_only(self):
        parts = ScoreParts(0.2, 0.1, 0.05, 0.9)
        assert parts.combine(1.0) == pytest.approx(parts.short_score())

    def test_zero_probabilities_floored(self):
        parts = ScoreParts(0.0, 0.0, 0.0, 0.0)
        assert math.isfinite(parts.combine(0.4))


class TestInterestPredictor:
    def test_distributions_sum_to_one(self, fitted_ssrec):
        profile = next(iter(fitted_ssrec.profiles))
        interest = fitted_ssrec.interest
        assert interest.long_term_distribution(profile).sum() == pytest.approx(1.0)
        assert interest.short_term_distribution(profile).sum() == pytest.approx(1.0)

    def test_probabilities_floored_positive(self, fitted_ssrec):
        profile = next(iter(fitted_ssrec.profiles))
        for c in range(fitted_ssrec.interest.n_categories):
            assert fitted_ssrec.interest.long_term_probability(profile, c) > 0
            assert fitted_ssrec.interest.short_term_probability(profile, c) > 0

    def test_incremental_update_matches_fresh_computation(self, fresh_ssrec, ytube_small):
        """Advancing the cached filtered state event-by-event must equal
        recomputing from scratch for the same profile."""
        interest = fresh_ssrec.interest
        profiles = [p for p in fresh_ssrec.profiles if p.n_long_events >= 10]
        profile = profiles[0]
        item = ytube_small.items[0]
        # Prime the cache, then record enough events to force a flush.
        interest.long_term_distribution(profile)
        from repro.core.profiles import ProfileEvent

        for i in range(profile.window_size):
            profile.record(
                ProfileEvent(
                    category=item.category,
                    producer=item.producer,
                    item_id=item.item_id,
                    entities=item.entities,
                )
            )
        incremental = interest.long_term_distribution(profile).copy()
        interest.forget_user(profile.user_id)
        fresh = interest.long_term_distribution(profile)
        np.testing.assert_allclose(incremental, fresh, atol=1e-10)

    def test_short_term_cache_invalidated_by_updates(self, fresh_ssrec, ytube_small):
        interest = fresh_ssrec.interest
        profile = next(p for p in fresh_ssrec.profiles if p.n_long_events >= 10)
        before = interest.short_term_distribution(profile).copy()
        from repro.core.profiles import ProfileEvent

        item = ytube_small.items[10]
        profile.record(
            ProfileEvent(
                category=item.category,
                producer=item.producer,
                item_id=item.item_id,
                entities=item.entities,
            )
        )
        after = interest.short_term_distribution(profile)
        assert not np.allclose(before, after) or profile.window == []


class TestMatchingScorer:
    def test_smoothed_producer_probabilities_sum_to_one(self, fitted_ssrec, ytube_small):
        scorer = fitted_ssrec.scorer
        profile = next(iter(fitted_ssrec.profiles))
        total = sum(
            scorer.producer_probability(profile, p) for p in range(scorer.n_producers)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_smoothed_entity_probabilities_sum_to_one(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(iter(fitted_ssrec.profiles))
        total = sum(
            scorer.entity_probability(profile, e) for e in range(scorer.n_entities)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_seen_producer_beats_unseen(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(p for p in fitted_ssrec.profiles if p.producer_counts)
        seen = next(iter(profile.producer_counts))
        unseen = next(
            p for p in range(scorer.n_producers) if p not in profile.producer_counts
        )
        assert scorer.producer_probability(profile, seen) > scorer.producer_probability(
            profile, unseen
        )

    def test_expanded_query_includes_originals_with_weight_one(
        self, fitted_ssrec, ytube_small
    ):
        item = ytube_small.items[0]
        query = fitted_ssrec.scorer.expanded_query(item)
        originals = [(e, w) for e, w in query[: len(item.entities)]]
        assert originals == [(e, 1.0) for e in item.entities]

    def test_expansion_entities_weigh_below_one(self, fitted_ssrec, ytube_small):
        item = ytube_small.items[0]
        query = fitted_ssrec.scorer.expanded_query(item)
        for entity_id, weight in query[len(item.entities):]:
            assert 0 < weight < 1.0
            assert entity_id not in item.entities

    def test_query_cached_per_item(self, fitted_ssrec, ytube_small):
        item = ytube_small.items[1]
        assert fitted_ssrec.scorer.expanded_query(item) is fitted_ssrec.scorer.expanded_query(item)

    def test_expansion_disabled_for_ssrec_ne(self, ytube_small, ytube_stream):
        from repro.core.ssrec import SsRecRecommender

        rec = SsRecRecommender(
            config=SsRecConfig(use_expansion=False), use_index=False, seed=1
        )
        rec.fit(ytube_small, ytube_stream.training_interactions())
        item = ytube_small.items[0]
        query = rec.scorer.expanded_query(item)
        assert len(query) == len(item.entities)


class TestVectorizedMatcher:
    def test_matches_reference_scorer_exactly(self, fitted_ssrec, ytube_small):
        """The batch scorer and the per-pair scorer must agree bit-for-bit
        on Eq. 3 — the core consistency contract."""
        matcher = fitted_ssrec.matcher
        scorer = fitted_ssrec.scorer
        lam = scorer.config.lambda_s
        for item in ytube_small.items[200:205]:
            scores = matcher.score_all(item)
            for row, user_id in enumerate(matcher.user_ids):
                profile = fitted_ssrec.profiles.get(user_id)
                expected = scorer.score(item, profile)
                assert scores[row] == pytest.approx(expected, abs=1e-9), (
                    f"user {user_id} item {item.item_id} lambda {lam}"
                )

    def test_matches_numpy_reference(self, fitted_ssrec, ytube_small):
        """Eq. 2-4 restated as closed-form NumPy over the dense state
        arrays agrees with ``score_all`` within the tie tolerance."""
        matcher = fitted_ssrec.matcher
        scorer = fitted_ssrec.scorer
        mu, lam = scorer.config.dirichlet_mu, scorer.config.lambda_s
        matcher.sync()
        n = len(matcher.user_ids)
        state = {name: arr[:n] for name, arr in matcher.state_arrays().items()}
        checked = 0
        for item in ytube_small.items[:40]:
            query = scorer.expanded_query(item)
            if not (0 <= item.producer < scorer.n_producers) or any(
                not 0 <= e < scorer.n_entities for e, _ in query
            ):
                continue  # out-of-universe symbols live in the sparse overflow
            c = item.category
            p_long = np.maximum(state["long_dist"][:, c], PROB_FLOOR)
            p_short = np.maximum(state["short_dist"][:, c], PROB_FLOOR)
            p_prod = (state["producer_counts"][:, item.producer] + mu / scorer.n_producers) / (
                state["n_long"] + mu
            )
            esum = np.zeros(n)
            for entity, weight in query:
                esum += weight * (state["entity_counts"][:, entity] + mu / scorer.n_entities) / (
                    state["n_tokens"] + mu
                )
            r_long = (
                np.log(p_long)
                + np.log(np.maximum(p_prod, PROB_FLOOR))
                + np.log(np.maximum(esum, PROB_FLOOR))
            )
            want = (1.0 - lam) * r_long + lam * np.log(p_short)
            np.testing.assert_allclose(matcher.score_all(item), want, rtol=0.0, atol=1e-9)
            checked += 1
        assert checked > 0

    def test_top_k_order_deterministic(self, fitted_ssrec, ytube_small):
        item = ytube_small.items[50]
        a = fitted_ssrec.matcher.top_k(item, 10)
        b = fitted_ssrec.matcher.top_k(item, 10)
        assert a == b
        scores = [s for _, s in a]
        assert scores == sorted(scores, reverse=True)

    def test_lambda_recombination_matches_direct(self, fitted_ssrec, ytube_small):
        item = ytube_small.items[60]
        r_long, r_short = fitted_ssrec.matcher.score_components(item)
        for lam in (0.0, 0.3, 1.0):
            direct = fitted_ssrec.matcher.score_all(item, lambda_s=lam)
            np.testing.assert_allclose(direct, (1 - lam) * r_long + lam * r_short)

    def test_rows_follow_profile_updates(self, fresh_ssrec, ytube_small):
        matcher = fresh_ssrec.matcher
        item = ytube_small.items[70]
        before = matcher.score_all(item).copy()
        # Update one user's profile with this very item repeatedly —
        # through the store, which is the mutation contract the matcher's
        # O(1) freshness check relies on (out-of-band profile mutation
        # requires ``store.touch()``).
        from repro.core.profiles import ProfileEvent

        target = matcher.user_ids[0]
        profile = fresh_ssrec.profiles.get(target)
        for _ in range(profile.window_size * 2):
            fresh_ssrec.profiles.record(
                target,
                ProfileEvent(
                    category=item.category,
                    producer=item.producer,
                    item_id=item.item_id,
                    entities=item.entities,
                )
            )
        after = matcher.score_all(item)
        assert after[0] > before[0]


class TestSelectTopK:
    """``VectorizedMatcher.select_top_k``: the ``(-score, user_id)``
    selection every scan plan ends in."""

    @staticmethod
    def _reference(scores, user_ids, k):
        order = sorted(range(len(scores)), key=lambda r: (-scores[r], user_ids[r]))
        return [(int(user_ids[r]), float(scores[r])) for r in order[: min(k, len(scores))]]

    @pytest.fixture(scope="class")
    def reversed_matcher(self, fitted_ssrec):
        """A matcher whose row order is descending user id, so a tie
        broken by row position would pick the wrong users."""
        store = ProfileStore(fitted_ssrec.profiles.window_size)
        for user_id in sorted(fitted_ssrec.profiles.user_ids(), reverse=True):
            store.add(fitted_ssrec.profiles.get(user_id))
        matcher = VectorizedMatcher(fitted_ssrec.scorer, store)
        matcher.sync()
        return matcher

    def test_rejects_negative_k(self, fitted_ssrec):
        with pytest.raises(ValueError, match="k must be"):
            fitted_ssrec.matcher.select_top_k(np.zeros(3), -1)

    def test_k_zero_selects_nothing(self, reversed_matcher):
        scores = np.arange(reversed_matcher.user_id_array().size, dtype=np.float64)
        assert reversed_matcher.select_top_k(scores, 0) == []

    def test_k_larger_than_n_returns_all_sorted(self, reversed_matcher):
        uids = reversed_matcher.user_id_array()
        scores = np.random.default_rng(0).random(uids.size)
        got = reversed_matcher.select_top_k(scores, uids.size + 50)
        assert got == self._reference(scores, uids, uids.size + 50)

    def test_ties_break_on_user_id_not_position(self, reversed_matcher):
        uids = reversed_matcher.user_id_array()
        assert uids[0] > uids[-1]  # rows really run against user-id order
        got = reversed_matcher.select_top_k(np.ones(uids.size), 2)
        assert [u for u, _ in got] == sorted(uids.tolist())[:2]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=120))
    def test_matches_sorted_reference(self, reversed_matcher, seed, k):
        uids = reversed_matcher.user_id_array()
        # Coarse quantization manufactures plenty of exact score ties.
        scores = np.random.default_rng(seed).integers(0, 5, size=uids.size).astype(np.float64)
        assert reversed_matcher.select_top_k(scores, k) == self._reference(scores, uids, k)
