"""Extended signature trees over one flat store per user block.

Section V-A: each tree stores the user profiles of one block under one
category.  Leaf entries (LEntry) carry a user's impact-encoded statistics;
internal entries (IEntry) are "virtual users whose interests cover all of
their children", built by "applying max() to all children over their
corresponding signature components".

Every tree of a block holds the same members, and only the ``p_l(c)`` /
``p_s(c)`` components differ between categories, so the block keeps one
:class:`BlockStore`: a row per member (producer impacts, entity impacts,
the two smoothing floors, then ``p_l``/``p_s`` interleaved per category)
plus level-wise max aggregates over fixed groups of ``fanout`` rows.  A
(block, category) :class:`SignatureTree` is a column selection of that
store.  Because every component of the relevance function (Def. 2) is
monotone non-decreasing in the aggregated statistics, a node's relevance
upper bounds every descendant's (Lemmas 1-2) — the property the
Algorithm 1 branch-and-bound relies on for no-false-dismissal pruning.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat

import numpy as np

from repro.core.matching import MatchingScorer
from repro.core.profiles import UserProfile
from repro.hmm.utils import PROB_FLOOR
from repro.index.signature import BlockUniverse, QuerySignature


def relevance_rows(sub: np.ndarray, coeffs: np.ndarray, lambda_s: float) -> np.ndarray:
    """Def. 2 / Eq. 3 over rows gathered at a query's columns.

    ``sub`` holds ``[p_long, p_producer, p_short, floor_entity, entities...]``
    per row (:attr:`QuerySignature.columns`); ``coeffs`` the matching
    ``[oov_weight, weights...]``.  The entity sum accumulates left to right,
    slot by slot, in :meth:`QuerySignature.entity_sum`'s order, so a row's
    score depends on nothing but the row.
    """
    entity_sum = np.add.accumulate(sub[:, 3:] * coeffs, axis=1)[:, -1]
    logs = np.log(np.maximum(sub[:, :3], PROB_FLOOR))
    long_score = logs[:, 0] + logs[:, 1] + np.log(np.maximum(entity_sum, PROB_FLOOR))
    return (1.0 - lambda_s) * long_score + lambda_s * logs[:, 2]


def group_ranges(groups: np.ndarray, fanout: int, n_below: int) -> np.ndarray:
    """Indices one level down covered by sorted ``groups`` (each spans
    ``fanout``; only the level's last group can be partial)."""
    covered = (groups[:, None] * fanout + np.arange(fanout)).ravel()
    if len(groups) and (groups[-1] + 1) * fanout > n_below:
        covered = covered[: len(covered) - (groups[-1] + 1) * fanout + n_below]
    return covered


class BlockStore:
    """Member rows and level-wise aggregates of one block's signature trees.

    Args:
        block_id: owning block.
        universe: the block's symbol universe (fixes the row layout).
        n_categories: category count (``p_l``/``p_s`` column pairs).
        fanout: rows per leaf group / groups per parent node.
    """

    def __init__(
        self, block_id: int, universe: BlockUniverse, n_categories: int, fanout: int = 8
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.block_id = int(block_id)
        self.universe = universe
        self.fanout = int(fanout)
        self.n_categories = int(n_categories)
        self.entity_col = universe.producer_capacity
        self.floor_col = self.entity_col + universe.entity_capacity
        self.width = self.floor_col + 2 + 2 * self.n_categories
        self.n = 0
        self.rows = np.zeros((0, self.width))
        self.member_ids = np.zeros(0, dtype=np.int64)
        self.versions = np.zeros(0, dtype=np.int64)
        self._row_of: dict[int, int] = {}
        #: ``levels[0]`` aggregates leaf groups of rows; ``levels[-1]`` is the root.
        self.levels: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __contains__(self, user_id: int) -> bool:
        return int(user_id) in self._row_of

    def find(self, user_id: int) -> int | None:
        """Algorithm 2's ``find_leaf_entry``: the user's row, or None."""
        return self._row_of.get(int(user_id))

    def members(self) -> np.ndarray:
        """Member user ids in row order."""
        return self.member_ids[: self.n]

    def append(self, user_id: int) -> int:
        """Claim a zeroed row for a new member (``insert_to_index``); the
        caller writes it and re-aggregates."""
        user_id = int(user_id)
        if user_id in self._row_of:
            raise ValueError(f"user {user_id} already indexed")
        if self.n == len(self.rows):
            grown = max(4, 2 * self.n)
            self.rows = np.resize(self.rows, (grown, self.width))
            self.member_ids = np.resize(self.member_ids, grown)
            self.versions = np.resize(self.versions, grown)
        row = self.n
        self.rows[row] = 0.0
        self.member_ids[row] = user_id
        self.versions[row] = 0
        self._row_of[user_id] = row
        self.n += 1
        return row

    # ------------------------------------------------------------------
    # Row encoding (impact lists, Sec. V-B)
    # ------------------------------------------------------------------
    def write_profiles(
        self,
        rows: Sequence[int],
        profiles: Sequence[UserProfile],
        scorer: MatchingScorer,
        long_dists: Sequence[np.ndarray],
        short_dists: Sequence[np.ndarray],
    ) -> None:
        """Encode each profile into its row from the user's own counts.

        Values are exactly :meth:`MatchingScorer.producer_probability` /
        ``entity_probability``; universe slots the user never browsed (and
        the reserved zone) hold the user's unseen-symbol floor.
        """
        mu = scorer.config.dirichlet_mu
        rows = np.asarray(rows, dtype=np.intp)
        denom_p = np.array([p.n_long_events for p in profiles], dtype=np.float64) + mu
        denom_e = np.array([p.n_entity_tokens for p in profiles], dtype=np.float64) + mu
        base_p = mu / scorer.n_producers
        base_e = mu / scorer.n_entities
        block = self.rows
        block[rows, self.floor_col] = base_p / denom_p
        block[rows, self.floor_col + 1] = base_e / denom_e
        block[rows, : self.entity_col] = block[rows, self.floor_col, None]
        block[rows, self.entity_col : self.floor_col] = block[rows, self.floor_col + 1, None]
        block[rows, self.floor_col + 2 :: 2] = np.array(long_dists)
        block[rows, self.floor_col + 3 :: 2] = np.array(short_dists)
        universe = self.universe
        producers = [p.producer_counts for p in profiles]
        entities = [p.entity_counts for p in profiles]
        self._write_counts(rows, producers, universe._producer_slot, 0, base_p, denom_p)
        self._write_counts(rows, entities, universe._entity_slot, self.entity_col, base_e, denom_e)
        self.versions[rows] = [p.version for p in profiles]

    def _write_counts(self, rows, counters, slot_of, offset, base, denom) -> None:
        """Scatter ``(count + base) / denom`` of every in-universe symbol of
        each row's counter into the row (one gather of all the counts)."""
        sizes = [len(counts) for counts in counters]
        total = sum(sizes)
        keys = chain.from_iterable(counters)
        slots = np.fromiter(map(slot_of.get, keys, repeat(-1)), np.intp, total)
        counts = np.fromiter(chain.from_iterable(c.values() for c in counters), np.float64, total)
        owner = np.repeat(np.arange(len(counters)), sizes)
        seen = slots >= 0
        owner = owner[seen]
        self.rows[rows[owner], offset + slots[seen]] = (counts[seen] + base) / denom[owner]

    # ------------------------------------------------------------------
    # Aggregation (IEntries)
    # ------------------------------------------------------------------
    def _level_sizes(self) -> list[int]:
        """Node count per level, leaf groups first (none when empty)."""
        sizes: list[int] = []
        size = self.n
        while size > 1 or (size and not sizes):
            size = -(-size // self.fanout)
            sizes.append(size)
        return sizes

    def reaggregate(self, rows: Sequence[int] | None = None) -> int:
        """Recompute the IEntries over ``rows`` (leaf groups and ancestors),
        or every level when ``rows`` is None or membership changed the
        level shapes.  Returns the number of nodes recomputed."""
        sizes = self._level_sizes()
        below = self.rows[: self.n]
        if rows is None or sizes != [len(level) for level in self.levels]:
            self.levels = []
            for _ in sizes:
                below = np.maximum.reduceat(below, np.arange(0, len(below), self.fanout), axis=0)
                self.levels.append(below)
            return sum(sizes)
        nodes = np.unique(np.asarray(rows, dtype=np.intp) // self.fanout)
        total = 0
        for level in self.levels:
            covered = group_ranges(nodes, self.fanout, len(below))
            starts = np.searchsorted(covered, nodes * self.fanout)
            level[nodes] = np.maximum.reduceat(below[covered], starts, axis=0)
            total += len(nodes)
            below = level
            nodes = np.unique(nodes // self.fanout)
        return total

    def check_invariants(self) -> None:
        """Assert membership bookkeeping and that every IEntry is exactly
        the max over its children (bitwise)."""
        if sorted(self._row_of.values()) != list(range(self.n)):
            raise AssertionError(f"block {self.block_id}: row map out of sync")
        for uid, row in self._row_of.items():
            if self.member_ids[row] != uid:
                raise AssertionError(f"block {self.block_id}: row {row} is not user {uid}")
        stored = [level.copy() for level in self.levels]
        self.reaggregate()
        if len(stored) != len(self.levels) or not all(
            np.array_equal(a, b) for a, b in zip(stored, self.levels)
        ):
            raise AssertionError(f"block {self.block_id}: stale aggregate")

    # ------------------------------------------------------------------
    # Column views (tests, introspection)
    # ------------------------------------------------------------------
    @property
    def p_producer(self) -> np.ndarray:
        return self.rows[: self.n, : self.entity_col]

    @property
    def p_entity(self) -> np.ndarray:
        return self.rows[: self.n, self.entity_col : self.floor_col]

    @property
    def floor_producer(self) -> np.ndarray:
        return self.rows[: self.n, self.floor_col]

    @property
    def floor_entity(self) -> np.ndarray:
        return self.rows[: self.n, self.floor_col + 1]

    @property
    def p_long(self) -> np.ndarray:
        return self.rows[: self.n, self.floor_col + 2 :: 2]

    @property
    def p_short(self) -> np.ndarray:
        return self.rows[: self.n, self.floor_col + 3 :: 2]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def relevance(
        self, matrix: np.ndarray, index: np.ndarray, query: QuerySignature, lambda_s: float
    ) -> np.ndarray:
        """Relevance of rows ``index`` of ``matrix`` (member rows for exact
        scores, a level for IEntry upper bounds) in one gather."""
        return relevance_rows(matrix[index[:, None], query.columns], query.coeffs, lambda_s)


class SignatureTree:
    """One extended signature tree: the (block, category) view of a store.

    Hash-table ``sptr`` entries point here; the store behind it is shared by
    every category tree of the block.
    """

    def __init__(self, store: BlockStore, category: int) -> None:
        self.store = store
        self.category = int(category)

    @property
    def universe(self) -> BlockUniverse:
        return self.store.universe

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self.store

    def height(self) -> int:
        """Levels from root to leaf groups (1 for a single leaf root)."""
        return len(self.store.levels)

    def root_bound(self, query: QuerySignature, lambda_s: float) -> float:
        """The root IEntry's upper-bound relevance for ``query`` (Def. 2)."""
        root = self.store.levels[-1]
        return float(self.store.relevance(root, np.zeros(1, dtype=np.intp), query, lambda_s)[0])
