"""Signature encodings for the extended signature trees (Sec. V-A/B).

Two encodings, as the paper specifies: "an impact encoding for maintaining
user profiles and a frequency-based encoding for queries".

- :class:`BlockUniverse` — the block's producer/entity id spaces with the
  20% reserved growth zones ("following the classic technique for memory
  management in database systems, we reserve 20% space of each entry, and
  fill it with zones").
  The impact lists themselves (``P_Up`` / ``P_E`` per user, laid out over
  these slots) are rows of :class:`repro.index.sigtree.BlockStore`.
- :class:`QuerySignature` — the pseudo-query of an item against one block:
  per-universe-slot accumulated weight (frequency x expansion weight, as in
  Example 1) plus the total weight of out-of-universe query entities, which
  scores against the floor.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.datasets.schema import SocialItem
from repro.hmm.utils import PROB_FLOOR


class UniverseOverflow(Exception):
    """Raised when a block universe's reserved zone is exhausted; the owner
    rebuilds the affected trees with an enlarged universe."""


class BlockUniverse:
    """Producer/entity id spaces of one block, with growth slack.

    Args:
        producer_ids: initial producer universe (sorted for determinism).
        entity_ids: initial entity universe.
        slack: reserved share of extra capacity (paper: 0.2).
    """

    def __init__(
        self,
        producer_ids: Iterable[int],
        entity_ids: Iterable[int],
        slack: float = 0.2,
    ) -> None:
        if not (0.0 <= slack < 1.0):
            raise ValueError(f"slack must be in [0, 1), got {slack}")
        self.slack = float(slack)
        self._producers: list[int] = sorted(set(int(p) for p in producer_ids))
        self._entities: list[int] = sorted(set(int(e) for e in entity_ids))
        self._producer_slot: dict[int, int] = {p: i for i, p in enumerate(self._producers)}
        self._entity_slot: dict[int, int] = {e: i for i, e in enumerate(self._entities)}
        self.producer_capacity = self._with_slack(len(self._producers))
        self.entity_capacity = self._with_slack(len(self._entities))

    def _with_slack(self, n: int) -> int:
        return max(1, n + int(np.ceil(n * self.slack)) + 1)

    @property
    def n_producers(self) -> int:
        return len(self._producers)

    @property
    def n_entities(self) -> int:
        return len(self._entities)

    def producer_slot(self, producer_id: int) -> int | None:
        return self._producer_slot.get(int(producer_id))

    def entity_slot(self, entity_id: int) -> int | None:
        return self._entity_slot.get(int(entity_id))

    def unclaimed_entities(self, entity_ids: Iterable[int]) -> list[int]:
        """The ids among ``entity_ids`` without a slot, in iteration order."""
        return [e for e in entity_ids if e not in self._entity_slot]

    def unclaimed_producers(self, producer_ids: Iterable[int]) -> list[int]:
        """The ids among ``producer_ids`` without a slot, in iteration order."""
        return [p for p in producer_ids if p not in self._producer_slot]

    def entity_ids(self) -> list[int]:
        return list(self._entities)

    def producer_ids(self) -> list[int]:
        return list(self._producers)

    def add_entity(self, entity_id: int) -> int:
        """Claim a reserved-zone slot for a new entity.

        Raises :class:`UniverseOverflow` when the zone is exhausted.
        """
        entity_id = int(entity_id)
        existing = self._entity_slot.get(entity_id)
        if existing is not None:
            return existing
        if len(self._entities) >= self.entity_capacity:
            raise UniverseOverflow(
                f"entity universe full ({self.entity_capacity} slots)"
            )
        slot = len(self._entities)
        self._entities.append(entity_id)
        self._entity_slot[entity_id] = slot
        return slot

    def add_producer(self, producer_id: int) -> int:
        """Claim a reserved-zone slot for a new producer."""
        producer_id = int(producer_id)
        existing = self._producer_slot.get(producer_id)
        if existing is not None:
            return existing
        if len(self._producers) >= self.producer_capacity:
            raise UniverseOverflow(
                f"producer universe full ({self.producer_capacity} slots)"
            )
        slot = len(self._producers)
        self._producers.append(producer_id)
        self._producer_slot[producer_id] = slot
        return slot


@dataclass
class QuerySignature:
    """Pseudo-query of one item against one block (Example 1).

    Attributes:
        block_id: the target block.
        category: the item category ``c``.
        producer_slot: universe slot of the item's producer, or None when
            out of universe (scores against ``floor_producer``).
        entity_weights: ``(slot, accumulated weight)`` pairs — frequency
            times expansion weight folded together, so the dot product with
            an impact list equals ``F . (W x P)`` of Definition 2.
        oov_weight: total weight of query entities outside the universe
            (scores against ``floor_entity``).
        columns: the :class:`~repro.index.sigtree.BlockStore` columns a
            score reads — ``p_l(c)``, the producer (or its floor),
            ``p_s(c)``, the entity floor, then each entity slot.
        coeffs: ``[oov_weight, weights...]`` against the entity-floor and
            entity-slot columns.
    """

    block_id: int
    category: int
    producer_slot: int | None
    entity_weights: list[tuple[int, float]]
    oov_weight: float
    columns: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def encode(
        cls,
        item: SocialItem,
        weighted_entities: Sequence[tuple[int, float]],
        universe: BlockUniverse,
        block_id: int,
    ) -> "QuerySignature":
        """Encode ``item`` (with its expanded weighted entity list) over a
        block universe."""
        slot_of = universe._entity_slot.get
        slot_weight: dict[int, float] = {}
        oov = 0.0
        for entity_id, weight in weighted_entities:
            slot = slot_of(entity_id)
            if slot is None:
                oov += weight
            else:
                slot_weight[slot] = slot_weight.get(slot, 0.0) + weight
        entity_weights = sorted(slot_weight.items())
        producer_slot = universe.producer_slot(item.producer)
        floor_col = universe.producer_capacity + universe.entity_capacity
        long_col = floor_col + 2 + 2 * int(item.category)
        columns = [long_col, floor_col if producer_slot is None else producer_slot]
        columns += [long_col + 1, floor_col + 1]
        columns += [universe.producer_capacity + slot for slot, _ in entity_weights]
        return cls(
            block_id=int(block_id),
            category=int(item.category),
            producer_slot=producer_slot,
            entity_weights=entity_weights,
            oov_weight=oov,
            columns=np.array(columns, dtype=np.intp),
            coeffs=np.array([oov] + [w for _, w in entity_weights], dtype=np.float64),
        )

    def entity_sum(self, p_entity: np.ndarray, floor_entity: float) -> float:
        """``sum_e w_e * p^(e|u)`` against one impact list."""
        total = self.oov_weight * floor_entity
        for slot, weight in self.entity_weights:
            total += weight * float(p_entity[slot])
        return total

    def producer_prob(self, p_producer: np.ndarray, floor_producer: float) -> float:
        """``p^(u^p|u)`` against one impact list."""
        if self.producer_slot is None:
            return floor_producer
        return float(p_producer[self.producer_slot])


def relevance_from_parts(
    p_long: float,
    p_producer: float,
    entity_sum: float,
    p_short: float,
    lambda_s: float,
) -> float:
    """Definition 2 / Eq. 3 for one user (scalar reference of the
    vectorized :func:`repro.index.sigtree.relevance_rows`)."""
    long_score = (
        np.log(max(p_long, PROB_FLOOR))
        + np.log(max(p_producer, PROB_FLOOR))
        + np.log(max(entity_sum, PROB_FLOOR))
    )
    short_score = np.log(max(p_short, PROB_FLOOR))
    return float((1.0 - lambda_s) * long_score + lambda_s * short_score)
