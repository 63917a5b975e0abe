"""The ``replay_scan`` and ``replay_index`` workloads.

Both replay one seeded stream in time order through an in-process
``SsRecRecommender``: each upload goes through ``observe_item``, each
interaction through ``update``, and every ``WINDOW`` uploads one
``recommend_batch(window, k=K)`` serves the window.  ``replay_scan``
serves through the default scan plan; ``replay_index`` attaches the
CPPse index (Algorithm 1 queries, Algorithm 2 maintenance every
``maintenance_interval`` updates).  The stream is the same on both, so
the pair compares the two plans on identical work.

Every pass starts from the same fitted state (one pickled template), so
all passes of a run must return bit-identical lists.  The first pass is
judged: at seeded windows the state is pickled while the clock is
paused, and after the pass sampled lists are compared with
``OracleMatcher`` on that state.  Later passes are compared bitwise
with the first.
"""

from __future__ import annotations

import gc
import json
import pickle
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.partitions import partition_interactions
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.obs.trace import Trace, span, use_trace
from repro.sim.oracle import OracleMatcher, matches_within_ties

from measure import Tally, median, percentile, self_times, tail

K = 30
WINDOW = 64
#: Uploads replayed per pass: the first eight windows of the test stream,
#: with every interaction that arrives before the 513th upload.  The
#: full test stream (about 2,650 uploads) takes 40 s per pass on the
#: index plan on a 2-CPU host, which would not fit the run budget.
REPLAY_UPLOADS = 512
#: Set-ups per untraced run; ``setup_s`` is their median.  Each set-up
#: is followed by a block of timed passes (at least one, more while the
#: block's share of ``--seconds`` lasts); ``items_per_s`` and the
#: latencies are medians over all passes.
SETUPS = 2
JUDGED_WINDOWS = 3
JUDGED_PER_WINDOW = 4
PROBE_SAMPLE = 32

UPLOAD, INTERACTION = 0, 1


@dataclass
class Fitted:
    rec: SsRecRecommender
    events: list
    uploads: list
    times: dict[str, float]

    @property
    def setup_s(self) -> float:
        return sum(self.times.values())


def set_up(seed: int, use_index: bool) -> Fitted:
    """Generate the dataset, fit, and (for the index plan) attach the
    index, timing each step."""
    clock = time.perf_counter
    started = clock()
    dataset = generate_ytube(YTubeConfig(seed=seed))
    stream = partition_interactions(dataset)
    generated = clock()
    rec = SsRecRecommender(SsRecConfig(), use_index=False, seed=seed)
    rec.fit(dataset, stream.training_interactions())
    fitted = clock()
    if use_index:
        rec.attach_index()
    indexed = clock()
    events, uploads = replay_events(dataset, stream)
    return Fitted(rec, events, uploads, {
        "dataset": generated - started,
        "fit": fitted - generated,
        "index_build": indexed - fitted,
    })


def replay_events(dataset, stream) -> tuple[list, list]:
    """The merged test stream, cut after :data:`REPLAY_UPLOADS` uploads.

    Uploads sort before interactions at equal timestamps, as in the
    evaluation harness."""
    item_by_id = {item.item_id: item for item in dataset.items}
    merged = []
    for partition in stream.test_indices:
        for item in stream.items_in_partition(partition):
            merged.append((item.timestamp, UPLOAD, item, None))
        for inter in stream.partitions[partition]:
            merged.append((inter.timestamp, INTERACTION, inter, item_by_id.get(inter.item_id)))
    merged.sort(key=lambda event: (event[0], event[1]))
    events, uploads = [], []
    for _, kind, payload, item in merged:
        if kind == UPLOAD:
            if len(uploads) == REPLAY_UPLOADS:
                break
            uploads.append(payload)
        events.append((kind, payload, item))
    if len(uploads) < REPLAY_UPLOADS:
        raise ValueError(f"test stream has only {len(uploads)} uploads")
    return events, uploads


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    #: The pass's lists; dropped once checked (only the judged pass keeps
    #: them), so memory does not grow with the number of passes.
    ranked: list | None
    snapshots: list = field(default_factory=list)
    #: Traced passes only: the pass's layer figures and (last pass of a
    #: run only) its spans.
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.lists = len(self.ranked)

    @property
    def items_per_s(self) -> float:
        return self.lists / self.wall


def replay(rec, events, snapshot_windows=frozenset()) -> Pass:
    """One timed pass.  A window listed in ``snapshot_windows`` pickles
    the state right after its batch returns, with the clock paused."""
    clock = time.perf_counter
    observe, update, recommend = rec.observe_item, rec.update, rec.recommend_batch
    latencies: list[float] = []
    ranked: list = []
    snapshots = []
    window: list = []
    starts: list[float] = []
    paused = 0.0
    begin = clock()
    for kind, payload, item in events:
        if kind == UPLOAD:
            starts.append(clock())
            observe(payload)
            window.append(payload)
            if len(window) < WINDOW:
                continue
        else:
            update(payload, item)
            continue
        lists = recommend(window, K)
        returned = clock()
        latencies.extend(returned - start for start in starts)
        index = len(ranked) // WINDOW
        ranked.extend(lists)
        if index in snapshot_windows:
            snapshots.append((index, pickle.dumps(rec, pickle.HIGHEST_PROTOCOL)))
            paused += clock() - returned
        window, starts = [], []
    if window:
        lists = recommend(window, K)
        returned = clock()
        latencies.extend(returned - start for start in starts)
        ranked.extend(lists)
    wall = clock() - begin - paused
    return Pass(wall, latencies, ranked, snapshots)


def judge(first: Pass, uploads: list, rng: random.Random) -> tuple[int, int]:
    """Compare sampled lists of each snapshotted window with the oracle
    on the snapshot's state.  Returns ``(judged, mismatched)``: the scan
    plan is judged over the full population, the index plan over the
    users of the trees its query probes."""
    judged = mismatched = 0
    for index, blob in first.snapshots:
        state = pickle.loads(blob)
        oracle = OracleMatcher(state.scorer, state.profiles)
        positions = range(index * WINDOW, (index + 1) * WINDOW)
        for pos in rng.sample(positions, JUDGED_PER_WINDOW):
            item = uploads[pos]
            candidates = (
                None if state.index is None else state.index.users_in_probed_trees(item)
            )
            want = oracle.top_k(item, K, candidates)
            judged += 1
            if not matches_within_ties(first.ranked[pos], want):
                mismatched += 1
    return judged, mismatched


def measured_passes(template: bytes, events, seconds: float, reference: Pass, tally: Tally,
                    probe_items=None, at_least: int = 1):
    """Passes from fresh copies of ``template`` until their timed walls
    add up to ``seconds`` (and at least ``at_least``), each compared bit
    for bit with ``reference`` once it ends.  With ``probe_items`` the
    passes are traced: each runs inside :func:`instrumented`, keeps its
    layer figures, and the last keeps its spans."""
    passes = []
    spent = 0.0
    while len(passes) < at_least or spent < seconds:
        rec = pickle.loads(template)
        gc.collect()
        if probe_items is None:
            result = replay(rec, events)
        else:
            with instrumented(rec) as recorder:
                result = replay(rec, events)
            result.layers = pass_layers(result, recorder, rec, probe_items)
            if passes:
                passes[-1].spans = []
            result.spans = recorder.trace.spans()
        rec = None
        check_against(reference, result, tally)
        passes.append(result)
        spent += result.wall
    return passes


def check_against(reference: Pass, other: Pass, tally: Tally) -> None:
    """Bitwise comparison of a later pass with the judged one; the later
    pass's lists are dropped afterwards."""
    wrong = sum(1 for got, want in zip(other.ranked, reference.ranked) if got != want)
    wrong += abs(len(other.ranked) - len(reference.ranked))
    tally.add(len(reference.ranked), wrong, wrong)
    other.ranked = None


def judged_pass(template: bytes, events, uploads, rng: random.Random, tally: Tally, notes):
    """The first pass of a run: timed like the others, with seeded
    windows snapshotted and judged against the oracle afterwards."""
    chosen = frozenset(rng.sample(range(REPLAY_UPLOADS // WINDOW), JUDGED_WINDOWS))
    gc.collect()
    first = replay(pickle.loads(template), events, snapshot_windows=chosen)
    judged, mismatched = judge(first, uploads, rng)
    first.snapshots = []
    tally.add(len(first.ranked), mismatched, mismatched)
    notes.append(f"stream: {REPLAY_UPLOADS} uploads, {len(events) - REPLAY_UPLOADS} "
                 f"interactions, window {WINDOW}, k={K}; oracle-judged lists: {judged}")
    return first


def run_end_to_end(use_index: bool, seed: int, seconds: float, notes: list) -> tuple[dict, Tally]:
    """Set-ups alternate with blocks of passes, so the passes sample the
    host at several moments of the run rather than one.  Every block
    replays from its own set-up's state; all must agree bit for bit."""
    tally = Tally()
    rng = random.Random(seed * 7919 + use_index)
    setup_times, passes = [], []
    first = None
    for block in range(SETUPS):
        gc.collect()
        fitted = set_up(seed, use_index)
        setup_times.append(fitted.setup_s)
        template = pickle.dumps(fitted.rec, pickle.HIGHEST_PROTOCOL)
        events, uploads = fitted.events, fitted.uploads
        fitted = None
        budget = seconds * (block + 1) / SETUPS - sum(p.wall for p in passes)
        at_least = 1
        if first is None:
            first = judged_pass(template, events, uploads, rng, tally, notes)
            passes.append(first)
            budget -= first.wall
            at_least = 0
        passes.extend(measured_passes(template, events, budget, first, tally,
                                      at_least=at_least))
        template = None

    tails = [tail(p.latencies) for p in passes]
    notes.append(f"passes: {len(passes)} in {SETUPS} blocks; bitwise-checked lists: "
                 f"{len(first.ranked) * (len(passes) - 1)}")
    notes.append(f"latency_tail_ms is p{tails[0][0]:g} of each pass's "
                 f"{len(first.latencies)} uploads, median over passes")
    notes.append("setup_s runs: " + ", ".join(f"{t:.3f}" for t in setup_times))
    metrics = {
        "setup_s": median(setup_times),
        "items_per_s": median([p.items_per_s for p in passes]),
        "latency_p50_ms": 1e3 * median([percentile(p.latencies, 50.0) for p in passes]),
        "latency_tail_ms": 1e3 * median([value for _, value in tails]),
    }
    return metrics, tally


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class Recorder:
    """The spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.trace = Trace()
        self.maintained_profiles = 0


def _wrap(owner, attr: str, name: str, on_result=None) -> None:
    inner = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        with span(name):
            result = inner(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, wrapped)


@contextmanager
def instrumented(rec):
    """Wrap the layer entry points of one recommender instance in spans
    and install a trace for the pass; yields its :class:`Recorder`.

    Only instance attributes are replaced, so the class and every other
    instance are untouched; the program's own ``exec.<Op>`` spans come
    from its trace seam once a trace is installed."""
    recorder = Recorder()
    _wrap(rec, "observe_item", "observe")
    _wrap(rec, "update", "update")
    _wrap(rec, "recommend_batch", "recommend")
    _wrap(rec.matcher, "sync", "matching.sync")
    _wrap(rec.matcher, "score_all_batch", "matching.score")
    if rec.index is not None:
        _wrap(rec.index, "knn_batch", "index.knn")

        def count(profiles: int) -> None:
            recorder.maintained_profiles += profiles

        _wrap(rec.index, "maintain", "index.maintain", on_result=count)
    with use_trace(recorder.trace):
        yield recorder


#: ``exec.<Op>`` spans grouped by the stage they implement (class-name
#: suffix), so a renamed or added operator of a known kind still counts.
EXEC_STAGES = (
    ("memo", ("CacheOp", "DedupOp", "MemoOp")),
    ("candidate", ("CandidateOp",)),
    ("score", ("ScoreOp", "KnnOp", "TopKOp", "FanoutOp")),
    ("select", ("SelectOp", "MergeOp")),
)


def exec_stage(span_name: str) -> str | None:
    op = span_name.removeprefix("exec.")
    for stage, suffixes in EXEC_STAGES:
        if op.endswith(suffixes):
            return stage
    return None


def exec_self_times(spans, selfs) -> dict[str, float]:
    out = {stage: 0.0 for stage, _ in EXEC_STAGES}
    for s in spans:
        if s["name"].startswith("exec."):
            stage = exec_stage(s["name"])
            if stage is not None:
                out[stage] += selfs[s["span_id"]]
    return out


def memo_hit_frac(rec, lists: int) -> float:
    hits = 0
    cache = rec.result_cache_stats()
    if cache is not None:
        hits += cache["hits"]
    dedup = rec.dedup_stats()
    if dedup is not None:
        hits += dedup["collapsed"]
    return hits / lists if lists else 0.0


def pass_layers(result: Pass, recorder: Recorder, rec, probe_items) -> dict[str, float]:
    spans = recorder.trace.spans()
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    top = 0.0
    for s in spans:
        calls[s["name"]] += 1
        busy[s["name"]] += s["duration"]
        own[s["name"]] += selfs[s["span_id"]]
        if s.get("parent_id") is None:
            top += s["duration"]
    stages = exec_self_times(spans, selfs)
    return {
        "observe.calls": calls["observe"],
        "observe.busy_s": busy["observe"],
        "update.calls": calls["update"],
        "update.self_s": own["update"],
        "matching.sync.calls": calls["matching.sync"],
        "matching.sync.busy_s": busy["matching.sync"],
        "matching.score.self_s": own["matching.score"],
        "index.knn.calls": calls["index.knn"],
        "index.knn.busy_s": busy["index.knn"],
        "index.maintain.calls": calls["index.maintain"],
        "index.maintain.busy_s": busy["index.maintain"],
        "index.maintain.profiles": recorder.maintained_profiles,
        "index.probed_frac": probed_frac(rec, probe_items),
        "exec.candidate.self_s": stages["candidate"],
        "exec.score.self_s": stages["score"],
        "exec.select.self_s": stages["select"],
        "exec.memo.self_s": stages["memo"],
        "exec.memo.hit_frac": memo_hit_frac(rec, len(result.ranked)),
        "unattributed_frac": max(0.0, 1.0 - top / result.wall),
    }


def probed_frac(rec, items) -> float:
    """Mean share of users in the trees a query probes, over ``items``
    on the pass's final state (0 on the scan plan)."""
    if rec.index is None:
        return 0.0
    probed = sum(len(rec.index.users_in_probed_trees(item)) for item in items)
    return probed / (len(rec.profiles) * len(items))


def run_traced(use_index: bool, seed: int, seconds: float, notes: list,
               out_path) -> tuple[dict, Tally]:
    fitted = set_up(seed, use_index)
    times = fitted.times
    template = pickle.dumps(fitted.rec, pickle.HIGHEST_PROTOCOL)
    events, uploads = fitted.events, fitted.uploads
    fitted = None

    tally = Tally()
    rng = random.Random(seed * 7919 + use_index)
    first = judged_pass(template, events, uploads, rng, tally, notes)
    half = seconds / 2.0
    plain = [first, *measured_passes(template, events, half - first.wall, first, tally,
                                     at_least=0)]
    probe_items = rng.sample(uploads, PROBE_SAMPLE)
    traced = measured_passes(template, events, half, first, tally, probe_items)

    layers = {name: median([p.layers[name] for p in traced]) for name in traced[0].layers}
    layers["trace.overhead_frac"] = 1.0 - (
        median([p.items_per_s for p in traced]) / median([p.items_per_s for p in plain])
    )
    layers.update({
        "setup.dataset_s": times["dataset"],
        "setup.fit_s": times["fit"],
        "setup.index_build_s": times["index_build"],
    })
    write_spans(out_path, traced[-1].spans)
    notes.append(f"untraced passes: {len(plain)}, traced passes: {len(traced)} "
                 f"(median wall {median([p.wall for p in traced]):.3f} s); "
                 f"spans of the last traced pass: {out_path}")
    return layers, tally


def write_spans(path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans}, handle)
