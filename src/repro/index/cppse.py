"""The CPPse-index: build, Algorithm 1 KNN, Algorithm 2 maintenance.

Structure (Fig. 4): a chained hash table maps each category-entity pair to
the extended signature trees (one per user block holding that pair); each
tree is the category view of its block's flat :class:`BlockStore`.  KNN
queries visit the located trees in descending root-bound order and descend
each a level at a time, pruning nodes whose upper-bound relevance (Def. 2)
cannot beat the current k-th best — Lemmas 1-2 guarantee no false
dismissals among the probed trees.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import SsRecConfig
from repro.core.matching import MatchingScorer
from repro.core.profiles import ProfileStore, UserProfile
from repro.datasets.schema import SocialItem
from repro.index.blocks import UserBlock, assign_to_block, block_statistics, one_pass_clustering
from repro.index.hashing import ChainedHashTable
from repro.index.signature import BlockUniverse, QuerySignature, UniverseOverflow
from repro.index.sigtree import BlockStore, SignatureTree, group_ranges, relevance_rows

#: Tie tolerance when comparing against the pruning bound; entries whose
#: upper bound equals the current k-th best (within float noise) are still
#: explored so tied users resolve deterministically by id.
_TIE_EPS = 1e-12


@dataclass
class IndexStats:
    """Algorithm-1/2 work counters since the index was built (plain ints,
    added once per query and once per block refresh)."""

    trees_probed: int = 0
    bounds_evaluated: int = 0
    leaves_scored: int = 0
    users_probed: int = 0
    rows_refreshed: int = 0
    nodes_reaggregated: int = 0
    block_rebuilds: int = 0

    @property
    def pruned_frac(self) -> float:
        """Share of probed users Algorithm 1 never scored."""
        return 1.0 - self.leaves_scored / self.users_probed if self.users_probed else 0.0

    def counters(self) -> dict[str, int]:
        """The counters under their ``repro.obs`` metric names."""
        return {
            "index.trees_probed": self.trees_probed,
            "index.bounds_evaluated": self.bounds_evaluated,
            "index.leaves_scored": self.leaves_scored,
            "index.maintain.rows_refreshed": self.rows_refreshed,
            "index.maintain.nodes_reaggregated": self.nodes_reaggregated,
            "index.maintain.block_rebuilds": self.block_rebuilds,
        }


class CPPseIndex:
    """Hash-routed extended signature trees over blocked user profiles.

    Build with :meth:`build`; query with :meth:`knn`; keep fresh with
    :meth:`maintain`.
    """

    def __init__(
        self,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        config: SsRecConfig | None = None,
    ) -> None:
        self.profiles = profiles
        self.scorer = scorer
        self.interest = scorer.interest
        self.n_categories = int(n_categories)
        self.config = config or SsRecConfig()
        self.blocks: list[UserBlock] = []
        self.stores: dict[int, BlockStore] = {}
        self.trees: dict[tuple[int, int], SignatureTree] = {}
        self.hash_table = ChainedHashTable(n_buckets=self.config.hash_buckets)
        self.block_of_user: dict[int, int] = {}
        self.stats = IndexStats()

    @property
    def universes(self) -> dict[int, BlockUniverse]:
        """Block id -> the block's symbol universe."""
        return {block_id: store.universe for block_id, store in self.stores.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        config: SsRecConfig | None = None,
    ) -> "CPPseIndex":
        """Cluster users into blocks and build every (block, category) tree."""
        index = cls(profiles, scorer, n_categories, config)
        ordered = [profiles.get(uid) for uid in profiles.user_ids()]
        index.blocks = one_pass_clustering(
            ordered,
            n_categories,
            similarity_threshold=index.config.block_similarity_threshold,
            max_blocks=index.config.max_blocks,
        )
        for block in index.blocks:
            index._build_block(block)
        index.stats = IndexStats()  # count serving work only
        return index

    @classmethod
    def build_from_blocks(
        cls,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        blocks: Sequence[UserBlock],
        config: SsRecConfig | None = None,
    ) -> "CPPseIndex":
        """Build over a caller-supplied block partition.

        The sharded serving runtime (:mod:`repro.serve`) reuses one global
        blocking across all shards: each shard passes the blocks it owns
        (re-numbered densely from 0) instead of re-clustering its slice.
        Because a query probes exactly the trees whose block universe holds
        a query entity, sharing the blocking makes the union of per-shard
        probed users equal the single index's probed set — which is what
        makes sharded results bit-identical to the unsharded index.

        ``blocks`` must have dense ids ``0..len-1`` and every member user
        must exist in ``profiles``.
        """
        index = cls(profiles, scorer, n_categories, config)
        index.blocks = list(blocks)
        for position, block in enumerate(index.blocks):
            if block.block_id != position:
                raise ValueError(
                    f"blocks must be densely numbered: position {position} "
                    f"has block_id {block.block_id}"
                )
            index._build_block(block)
        index.stats = IndexStats()  # count serving work only
        return index

    def _build_block(self, block: UserBlock) -> None:
        """(Re)build one block: universe, store, trees, hash entries."""
        universe = BlockUniverse(
            producer_ids=block.producer_ids,
            entity_ids=block.entity_ids,
            slack=self.config.signature_slack,
        )
        store = BlockStore(
            block.block_id, universe, self.n_categories, fanout=self.config.tree_fanout
        )
        for uid in block.user_ids:
            self.block_of_user[uid] = block.block_id
        self.stores[block.block_id] = store
        # A rebuild keeps the block's tree objects (the hash table points at
        # them, a category-0 tree outside block.categories included).
        for (block_id, _), tree in self.trees.items():
            if block_id == block.block_id:
                tree.store = store
        for category in sorted(block.categories) or [0]:
            tree = self.trees.get((block.block_id, category))
            if tree is None:
                tree = self.trees[(block.block_id, category)] = SignatureTree(store, category)
            for entity_id in universe.entity_ids():
                self.hash_table.insert(category, entity_id, block.block_id, tree)
        self._refresh_rows(store, [self.profiles.get(uid) for uid in block.user_ids])

    def _refresh_rows(self, store: BlockStore, profiles: list[UserProfile]) -> None:
        """Write the profiles' rows (appending new members), then
        re-aggregate their leaf groups and ancestors once."""
        rows = [store.find(p.user_id) for p in profiles]
        rows = [store.append(p.user_id) if r is None else r for r, p in zip(rows, profiles)]
        store.write_profiles(
            rows,
            profiles,
            self.scorer,
            [self.interest.long_term_distribution(p) for p in profiles],
            [self.interest.short_term_distribution(p) for p in profiles],
        )
        self.stats.rows_refreshed += len(rows)
        self.stats.nodes_reaggregated += store.reaggregate(rows)

    def _create_tree(self, block: UserBlock, category: int) -> SignatureTree:
        """Lazily add a (block, category) tree: a view of the block store."""
        store = self.stores[block.block_id]
        tree = self.trees[(block.block_id, category)] = SignatureTree(store, category)
        block.categories.add(int(category))
        for entity_id in store.universe.entity_ids():
            self.hash_table.insert(category, entity_id, block.block_id, tree)
        return tree

    # ------------------------------------------------------------------
    # KNN query (Algorithm 1)
    # ------------------------------------------------------------------
    def locate_trees(self, item: SocialItem) -> dict[int, SignatureTree]:
        """Step 1 of Algorithm 1: hash the item's category-entity pairs to
        the extended signature trees containing them.

        Probes with the expanded entity set ``E u E'`` so expansion recall
        carries through to tree location.
        """
        found: dict[int, SignatureTree] = {}
        for entity_id, _ in self.scorer.expanded_query(item):
            for block_id, tree in self.hash_table.lookup(item.category, entity_id).items():
                found[block_id] = tree
        return found

    def _locate_trees_cached(
        self,
        item: SocialItem,
        lookup_cache: dict[tuple[int, int], dict[int, SignatureTree]] | None,
    ) -> dict[int, SignatureTree]:
        """:meth:`locate_trees` with an optional per-batch lookup cache.

        Items of one micro-batch overwhelmingly share categories and query
        entities, so their ``(category, entity)`` hash probes repeat; the
        cache turns the repeats into one dictionary hit each.
        """
        if lookup_cache is None:
            return self.locate_trees(item)
        found: dict[int, SignatureTree] = {}
        for entity_id, _ in self.scorer.expanded_query(item):
            probe = (item.category, entity_id)
            hit = lookup_cache.get(probe)
            if hit is None:
                hit = self.hash_table.lookup(item.category, entity_id)
                lookup_cache[probe] = hit
            found.update(hit)
        return found

    def knn(self, item: SocialItem, k: int) -> list[tuple[int, float]]:
        """Algorithm 1: top-``k`` users for ``item`` by branch and bound.

        Returns ``(user_id, score)`` sorted by descending score then user
        id — the same order the sequential scan produces.  ``k == 0`` is
        an empty recommendation window and yields an empty list.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        return self._knn_search(item, k, None, None, None)

    def knn_batch(
        self, items: Sequence[SocialItem], k: int
    ) -> list[list[tuple[int, float]]]:
        """Batched Algorithm 1 over a micro-batch of items.

        Entry ``i`` equals ``knn(items[i], k)`` on the same index state.
        The batch amortizes three costs the per-item path pays per call:

        - items are grouped by pseudo-query ``(category, producer, E u E')``
          and duplicates answered by a single search;
        - ``(category, entity)`` hash-table probes are cached across the
          batch (tree location, step 1 of Algorithm 1);
        - per-block :class:`QuerySignature` encodings are cached, so items
          sharing a query signature descend the same trees without
          re-encoding.

        Callers flush pending maintenance once before the batch (the ssRec
        facade does) rather than once per item.  An empty window, and
        ``k == 0``, both yield empty results rather than an error.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        results: list[list[tuple[int, float]]] = [[] for _ in items]
        if k == 0 or not items:
            return results
        groups: dict[tuple, list[int]] = {}
        for position, item in enumerate(items):
            weighted = self.scorer.expanded_query(item)
            query_key = (item.category, item.producer, tuple(weighted))
            groups.setdefault(query_key, []).append(position)
        lookup_cache: dict[tuple[int, int], dict[int, SignatureTree]] = {}
        encode_cache: dict[tuple, QuerySignature] = {}
        # Category-sorted group order keeps consecutive searches on the same
        # trees (and their cached encodings).
        for query_key in sorted(groups, key=lambda key: key[:2]):
            positions = groups[query_key]
            ranked = self._knn_search(
                items[positions[0]], k, lookup_cache, encode_cache, query_key
            )
            for position in positions:
                results[position] = list(ranked)
        return results

    def _knn_search(
        self,
        item: SocialItem,
        k: int,
        lookup_cache: dict[tuple[int, int], dict[int, SignatureTree]] | None,
        encode_cache: dict[tuple, QuerySignature] | None,
        query_key: tuple | None,
    ) -> list[tuple[int, float]]:
        """One branch-and-bound search, optionally sharing per-batch caches.

        Trees are visited best root bound first; each descends a level at a
        time, evaluating the bounds of all children of the admitted nodes
        in one array op, then scores the admitted leaf groups' rows in one
        gather.  A node is admitted while its bound is within ``_TIE_EPS``
        of the running k-th best, so the result is the exact top-``k`` of
        the probed users whatever the visiting order.
        """
        lambda_s = self.scorer.config.lambda_s
        trees = self._locate_trees_cached(item, lookup_cache)
        weighted = self.scorer.expanded_query(item)
        probes: list[tuple[BlockStore, QuerySignature]] = []
        for block_id, tree in sorted(trees.items()):
            store = tree.store
            if not store.n:
                continue
            cache_key = (block_id, query_key)
            query = encode_cache.get(cache_key) if encode_cache is not None else None
            if query is None:
                query = QuerySignature.encode(item, weighted, store.universe, block_id)
                if encode_cache is not None and query_key is not None:
                    encode_cache[cache_key] = query
            probes.append((store, query))
        if not probes:
            return []
        roots = _root_bounds(probes, lambda_s)
        # Result heap U_k: min-heap on (score, -user_id); its root is the
        # pruning bound LB once full.
        result: list[tuple[float, int]] = []
        bounds = len(probes)
        scored = 0
        for position in sorted(range(len(probes)), key=lambda i: -roots[i]):
            if len(result) >= k and roots[position] < result[0][0] - _TIE_EPS:
                break  # every remaining tree's bound is no better
            store, query = probes[position]
            nodes = np.zeros(1, dtype=np.intp)
            for level in reversed(store.levels[:-1]):
                nodes = group_ranges(nodes, store.fanout, len(level))
                if len(result) >= k:
                    bound = store.relevance(level, nodes, query, lambda_s)
                    bounds += len(nodes)
                    nodes = nodes[bound >= result[0][0] - _TIE_EPS]
            rows = group_ranges(nodes, store.fanout, store.n)
            if not len(rows):
                continue
            scores = store.relevance(store.rows, rows, query, lambda_s)
            scored += len(rows)
            user_ids = store.member_ids[rows]
            if len(result) >= k:
                keep = scores >= result[0][0]
                scores, user_ids = scores[keep], user_ids[keep]
            for score, user_id in zip(scores.tolist(), user_ids.tolist()):
                key = (score, -user_id)
                if len(result) < k:
                    heapq.heappush(result, key)
                elif key > result[0]:
                    heapq.heapreplace(result, key)
        stats = self.stats
        stats.trees_probed += len(probes)
        stats.bounds_evaluated += bounds
        stats.leaves_scored += scored
        stats.users_probed += sum(store.n for store, _ in probes)
        ranked = sorted(result, key=lambda su: (-su[0], -su[1]))
        return [(-neg_uid, score) for score, neg_uid in ranked]

    # ------------------------------------------------------------------
    # Dynamic maintenance (Algorithm 2)
    # ------------------------------------------------------------------
    def maintain(self, user_ids: Sequence[int]) -> int:
        """Algorithm 2: absorb profile updates for ``user_ids``.

        Handles, per the paper: changed entity frequencies (signature
        refresh + ancestor re-aggregation), new entities (reserved-zone
        claim + hash-table insertion, or block rebuild on overflow), new
        categories (lazy tree creation), and new users (block assignment +
        leaf insertion).  Symbols, trees and blocks are settled user by
        user; rows are then written per block from each user's own counts,
        and each touched block re-aggregates its dirty leaf groups and
        their ancestors once.

        Returns the number of profiles processed.
        """
        processed = 0
        dirty: dict[int, dict[int, UserProfile]] = {}
        for user_id in user_ids:
            profile = self.profiles.get(user_id)
            if profile is None:
                continue
            processed += 1
            block_id = self.block_of_user.get(int(user_id))
            if block_id is None:
                block = assign_to_block(
                    self.blocks,
                    profile,
                    self.n_categories,
                    similarity_threshold=self.config.block_similarity_threshold,
                    max_blocks=self.config.max_blocks,
                )
                block_id = block.block_id
                if block_id not in self.stores:
                    # assign_to_block opened a brand-new block; build it whole.
                    self._build_block(block)
                    continue
                self.block_of_user[profile.user_id] = block_id
            if self._claim_symbols(profile, self.blocks[block_id]):
                dirty.setdefault(block_id, {})[profile.user_id] = profile
            else:
                # Reserved zone exhausted: rebuild with fresh capacity.  The
                # rebuild writes every member's current row.
                self._build_block(self.blocks[block_id])
                self.stats.block_rebuilds += 1
                dirty.pop(block_id, None)
        for block_id in sorted(dirty):
            self._refresh_rows(self.stores[block_id], list(dirty[block_id].values()))
        return processed

    def _claim_symbols(self, profile: UserProfile, block: UserBlock) -> bool:
        """Claim reserved-zone slots (plus hash entries) for the user's new
        symbols and create trees for new categories.  False when the zone
        overflowed: the block's sets then cover the profile, and the caller
        rebuilds it."""
        universe = self.stores[block.block_id].universe
        try:
            for entity_id in universe.unclaimed_entities(profile.entity_counts):
                universe.add_entity(entity_id)
                block.entity_ids.add(int(entity_id))
                for category in sorted(block.categories):
                    tree = self.trees.get((block.block_id, category))
                    if tree is not None:
                        self.hash_table.insert(category, entity_id, block.block_id, tree)
            for producer_id in universe.unclaimed_producers(profile.producer_counts):
                universe.add_producer(producer_id)
                block.producer_ids.add(int(producer_id))
        except UniverseOverflow:
            block.entity_ids.update(profile.entity_counts)
            block.producer_ids.update(profile.producer_counts)
            block.categories.update(profile.category_counts)
            return False
        for category in profile.category_counts:
            if (block.block_id, category) not in self.trees:
                self._create_tree(block, category)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def signature_statistics(self) -> dict[str, int]:
        """Table II's per-blocking signature-size factors."""
        stats = block_statistics(self.blocks)
        stats["n_blocks"] = len(self.blocks)
        stats["n_trees"] = len(self.trees)
        return stats

    def users_in_probed_trees(self, item: SocialItem) -> set[int]:
        """Users retrievable for ``item`` (tests compare scan over these)."""
        users: set[int] = set()
        for tree in self.locate_trees(item).values():
            users.update(tree.store.members().tolist())
        return users

    def check_invariants(self) -> None:
        """Validate every store's aggregation and bookkeeping, every tree's
        store pointer, and that each row carries its profile's current
        version (holds once pending updates are maintained)."""
        for block in self.blocks:
            store = self.stores[block.block_id]
            store.check_invariants()
            if store.members().tolist() != list(block.user_ids):
                raise AssertionError(f"block {block.block_id}: members out of sync")
            for row, user_id in enumerate(block.user_ids):
                if self.block_of_user.get(user_id) != block.block_id:
                    raise AssertionError(f"user {user_id}: wrong block")
                version = self.profiles.get(user_id).version
                if store.versions[row] != version:
                    raise AssertionError(
                        f"user {user_id}: row version {store.versions[row]} != {version}"
                    )
        for (block_id, category), tree in self.trees.items():
            if tree.store is not self.stores[block_id] or tree.category != category:
                raise AssertionError(f"tree {(block_id, category)}: stale store")


def _root_bounds(
    probes: list[tuple[BlockStore, QuerySignature]], lambda_s: float
) -> list[float]:
    """Root IEntry bounds of every probed tree in one array op.

    Queries against different blocks read different column counts; the
    short ones are padded with zero-weight columns, which add exactly
    ``+0.0`` to the entity sum.
    """
    width = max(len(query.columns) for _, query in probes)
    sub = np.zeros((len(probes), width))
    coeffs = np.zeros((len(probes), width - 3))
    for i, (store, query) in enumerate(probes):
        sub[i, : len(query.columns)] = store.levels[-1][0, query.columns]
        coeffs[i, : len(query.coeffs)] = query.coeffs
    return relevance_rows(sub, coeffs, lambda_s).tolist()
