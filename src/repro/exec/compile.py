"""Plan compilation: bind an :class:`~repro.exec.plan.ExecPlan` to live state.

``compile_plan(plan, owner)`` turns a declarative plan into a
:class:`CompiledPlan` — the operator pipeline the facades actually serve
through.  The ``owner`` is the state holder the operators wrap:

- local plans bind to a fitted :class:`~repro.core.ssrec.SsRecRecommender`
  (its ``matcher``, ``index``, pending-maintenance set and mutation
  epoch);
- sharded plans bind to a :class:`~repro.serve.service.ShardedRecommender`
  (its shards, fan-out backend and mutation epoch).

The shared request prologue — ``k`` coercion (None means the config's
``default_k``; an explicit ``k=0`` stays an empty window) and the
empty-batch short-circuit — lives here, once, instead of once per facade
method.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import SsRecConfig
from repro.datasets.schema import SocialItem
from repro.exec.cache import ResultCache
from repro.exec.dedup import DedupState
from repro.obs.hooks import active_hooks
from repro.exec.ops import (
    CppseKnnOp,
    CppseProbeCandidateOp,
    DedupOp,
    ExecContext,
    FanoutOp,
    FullScanCandidateOp,
    MergeOp,
    OracleScoreOp,
    OracleSelectOp,
    PreRankedSelectOp,
    ResultCacheOp,
    ServeOp,
    TopKSelectOp,
    VectorizedScoreOp,
)
from repro.exec.plan import ExecPlan

RankedList = list[tuple[int, float]]


def coerce_k(k: int | None, config: SsRecConfig) -> int:
    """The one ``k`` rule every recommend entry point shares:
    ``None`` means the configured ``default_k``; an explicit ``k=0`` is
    an empty recommendation window (and stays 0)."""
    return config.default_k if k is None else int(k)


class CompiledPlan:
    """An operator pipeline bound to live state, ready to serve.

    Exposes both entry points regardless of the plan's primary
    ``batching`` axis — per-item and micro-batched serving are
    bit-identical on the same state, only the cost profile differs.

    Attributes:
        plan: the declarative plan this pipeline implements.
        owner: the bound facade (state holder).
        ops: the stage list, applied in order.
        result_cache: the plan-level cache (None for uncached plans).
        dedup_state: the near-duplicate collapse memo (None when the
            plan's ``dedup`` axis is ``"off"``).
    """

    def __init__(
        self,
        plan: ExecPlan,
        owner,
        ops: Sequence[ServeOp],
        result_cache: ResultCache | None = None,
        dedup_state: DedupState | None = None,
    ) -> None:
        self.plan = plan
        self.owner = owner
        self.ops = list(ops)
        self.result_cache = result_cache
        self.dedup_state = dedup_state

    def run_item(self, item: SocialItem, k: int | None = None) -> RankedList:
        """Top-``k`` ``(user_id, score)`` for one item."""
        ctx = ExecContext([item], coerce_k(k, self.owner.config))
        hooks = active_hooks()
        if hooks is None:  # nobody watching: keep the original tight loop
            for op in self.ops:
                op.run_item(ctx)
        else:
            plan_name = self.plan.name
            for op in self.ops:
                with hooks.operator(plan_name, type(op).__name__):
                    op.run_item(ctx)
        assert ctx.ranked is not None
        return ctx.ranked[0]

    def run_batch(
        self, items: Sequence[SocialItem], k: int | None = None
    ) -> list[RankedList]:
        """Per-item top-``k`` lists for a micro-batch (empty in, empty out)."""
        items = list(items)
        if not items:
            return []
        ctx = ExecContext(items, coerce_k(k, self.owner.config))
        hooks = active_hooks()
        if hooks is None:  # nobody watching: keep the original tight loop
            for op in self.ops:
                op.run_batch(ctx)
        else:
            plan_name = self.plan.name
            for op in self.ops:
                with hooks.operator(plan_name, type(op).__name__):
                    op.run_batch(ctx)
        assert ctx.ranked is not None
        return ctx.ranked

    def run_requests(
        self, requests: Sequence[tuple[SocialItem, int | None]]
    ) -> list[RankedList]:
        """Serve one *coalesced* micro-batch of independent requests.

        This is the seam the network coalescer
        (:class:`repro.serve.server.RecommenderServer`) executes through:
        concurrently arriving ``(item, k)`` requests — possibly with
        different ``k`` — are grouped by ``k`` and each group runs
        through :meth:`run_batch`, so the amortized window costs apply to
        traffic that never asked to be a batch.  Results come back in
        request order and are bit-identical to serving each request
        through :meth:`run_item` (the batch entry's exactness guarantee).
        """
        requests = list(requests)
        if not requests:
            return []
        groups: dict[int | None, list[int]] = {}
        for position, (_, k) in enumerate(requests):
            groups.setdefault(k, []).append(position)
        out: list[RankedList | None] = [None] * len(requests)
        for k, positions in groups.items():
            ranked = self.run_batch([requests[p][0] for p in positions], k)
            for position, result in zip(positions, ranked):
                out[position] = result
        return out  # type: ignore[return-value]

    def obs_registry(self):
        """This pipeline's stage telemetry as a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        Exposes the result cache's hit/miss/eviction counters (plus a
        ``cache.hit_rate`` gauge), the dedup stage's collapse counters and,
        on index plans, the CPPse index's Algorithm-1/2 work counters (plus
        an ``index.pruned_frac`` gauge) under the plan's name, so the
        facades' merged registries — and
        through them the server's ``metrics`` route and ``python -m
        repro.obs summarize`` — report cache and dedup behavior without a
        side channel.  Counters snapshot the live stats objects; the
        registry is rebuilt per call, so merging it repeatedly into an
        aggregate view cannot double-count.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        plan_name = self.plan.name
        if self.result_cache is not None:
            stats = self.result_cache.stats
            registry.counter("cache.hits", plan=plan_name).inc(stats.hits)
            registry.counter("cache.misses", plan=plan_name).inc(stats.misses)
            registry.counter("cache.evictions", plan=plan_name).inc(stats.evictions)
            registry.gauge("cache.hit_rate", plan=plan_name).set(stats.hit_rate)
        if self.dedup_state is not None:
            stats = self.dedup_state.stats
            mode = self.plan.dedup
            registry.counter("dedup.collapsed", plan=plan_name, mode=mode).inc(
                stats.collapsed
            )
            registry.counter("dedup.groups", plan=plan_name, mode=mode).inc(
                stats.groups
            )
            registry.counter(
                "dedup.false_merge_checks", plan=plan_name, mode=mode
            ).inc(stats.false_merge_checks)
            registry.gauge("dedup.collapse_rate", plan=plan_name, mode=mode).set(
                stats.collapse_rate
            )
        index = getattr(self.owner, "index", None)
        if self.plan.uses_index and index is not None:
            for name, value in index.stats.counters().items():
                registry.counter(name, plan=plan_name).inc(value)
            registry.gauge("index.pruned_frac", plan=plan_name).set(index.stats.pruned_frac)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = " -> ".join(type(op).__name__ for op in self.ops)
        return f"CompiledPlan({self.plan.name!r}: {stages})"


def compile_plan(
    plan: ExecPlan,
    owner,
    result_cache: ResultCache | None = None,
    dedup_state: DedupState | None = None,
) -> CompiledPlan:
    """Build the operator pipeline for ``plan`` over ``owner``'s state.

    Args:
        plan: the declarative plan to compile.
        owner: a fitted local recommender (local plans) or a sharded
            service (sharded plans); validated by duck-typing the
            attributes the operators need.
        result_cache: reuse an existing cache for cached plans; a fresh
            one sized by ``config.result_cache_size`` is created when
            omitted.
        dedup_state: reuse an existing collapse memo for ``*-dedup``
            plans; a fresh one parameterized by the owner's config
            (``dedup_threshold``/``dedup_bands``/``dedup_rows``, sized by
            ``result_cache_size``) is created when omitted.
    """
    if plan.is_sharded:
        if not hasattr(owner, "shards"):
            raise TypeError(
                f"plan {plan.name!r} is sharded but owner {type(owner).__name__} "
                f"has no shards"
            )
        serve: list[ServeOp] = [FanoutOp(owner), MergeOp()]
        prologue: list[ServeOp] = []
    elif plan.scoring == "oracle-reference":
        prologue = [FullScanCandidateOp(owner)]
        serve = [OracleScoreOp(owner), OracleSelectOp()]
    elif plan.uses_index:
        if getattr(owner, "index", None) is None:
            raise TypeError(
                f"plan {plan.name!r} probes the CPPse-index but owner has none "
                f"(fit with use_index=True or call attach_index())"
            )
        prologue = [CppseProbeCandidateOp(owner)]
        serve = [CppseKnnOp(owner), PreRankedSelectOp()]
    else:
        if getattr(owner, "matcher", None) is None:
            raise TypeError(f"owner of plan {plan.name!r} has no matcher (not fitted?)")
        prologue = [FullScanCandidateOp(owner)]
        serve = [VectorizedScoreOp(owner), TopKSelectOp(owner)]

    # Dedup wraps the serve stages first — ahead of scoring, and ahead of
    # the fan-out on sharded plans, so one collapse saves every shard's
    # pass.  The result cache (id-keyed, the cheapest lookup) wraps
    # outermost: a redelivered id short-circuits before dedup even has to
    # resolve the item's expanded query.
    dedup: DedupState | None = None
    if plan.dedup != "off":
        config = owner.config
        dedup = dedup_state or DedupState(
            plan.dedup,
            threshold=config.dedup_threshold,
            n_bands=config.dedup_bands,
            n_rows=config.dedup_rows,
            max_groups=config.result_cache_size,
        )
        serve = [DedupOp(dedup, owner, serve)]
    cache: ResultCache | None = None
    if plan.cached:
        cache = result_cache or ResultCache(owner.config.result_cache_size)
        serve = [ResultCacheOp(cache, owner, serve)]
    return CompiledPlan(
        plan, owner, [*prologue, *serve], result_cache=cache, dedup_state=dedup
    )


class _RecommenderExecutor:
    """Adapter giving arbitrary recommenders (baselines, shards, test
    doubles) the compiled-plan serving interface."""

    def __init__(self, recommender) -> None:
        self.recommender = recommender

    def run_item(self, item: SocialItem, k: int) -> RankedList:
        return self.recommender.recommend(item, k)

    def run_batch(self, items: Sequence[SocialItem], k: int) -> list[RankedList]:
        batch = getattr(self.recommender, "recommend_batch", None)
        if callable(batch):
            return batch(items, k)
        return [self.recommender.recommend(item, k) for item in items]

    def run_requests(
        self, requests: Sequence[tuple[SocialItem, int | None]]
    ) -> list[RankedList]:
        """Mixed-``k`` coalesced serving for adapted recommenders (same
        contract as :meth:`CompiledPlan.run_requests`)."""
        requests = list(requests)
        if not requests:
            return []
        groups: dict[int | None, list[int]] = {}
        for position, (_, k) in enumerate(requests):
            groups.setdefault(k, []).append(position)
        out: list[RankedList | None] = [None] * len(requests)
        for k, positions in groups.items():
            ranked = self.run_batch([requests[p][0] for p in positions], k)
            for position, result in zip(positions, ranked):
                out[position] = result
        return out  # type: ignore[return-value]


def as_executor(recommender):
    """The plan executor for any recommender-shaped object.

    Plan-aware facades (``SsRecRecommender``, ``ShardedRecommender``)
    hand back their compiled plan; anything else merely exposing
    ``recommend``/``recommend_batch`` is adapted, so the stream bolts can
    execute plans without caring what serves them.
    """
    executor = getattr(recommender, "executor", None)
    if callable(executor):
        return executor()
    return _RecommenderExecutor(recommender)
