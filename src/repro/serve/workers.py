"""Process-hosted shard workers: one OS process per :class:`RecommenderShard`.

The thread backend of :class:`~repro.serve.service.ShardedRecommender`
fans queries out on a ``ThreadPoolExecutor``, but the scoring work inside a
shard is largely GIL-bound Python (the per-query tree search, per-pair
arithmetic), so threads barely parallelize it.  A :class:`ShardWorkerPool`
hosts every shard in its *own process* instead — the Storm-worker layout
the paper deploys on — so N shards score on N cores.

Mechanics:

- **Shipping.** Each worker receives its shard through the same pickle
  serialization the snapshot layer uses (:mod:`repro.serve.snapshot`
  pickles the live object graph); the warm-start tests prove this
  round-trip preserves serving results bit for bit, which is what makes
  the process backend exact.  (The shared-memory backend in
  :mod:`repro.serve.shmem` replaces the per-worker pickle copy with
  zero-copy attached views; it reuses this module's pool base.)
- **Transport.** One request queue and one reply queue per worker
  (``multiprocessing`` queues under the ``spawn`` start method — the only
  one that is safe on every platform and under NumPy/BLAS threading).
  Every request produces exactly one reply and each worker serves its
  queue FIFO, so the parent can pipeline a fan-out (send to all workers,
  then collect in shard order) while mutation ordering stays identical to
  the in-process backends.  Requests and replies carry a per-worker
  sequence tag; replies left uncollected by a failed exchange are
  recognized as stale and discarded, never misattributed to a later call.
- **Collection safety.** The parent never reads a reply queue directly:
  a per-worker daemon *pump thread* drains the multiprocessing queue into
  an in-process ``queue.Queue`` the parent waits on with real timeouts.
  ``multiprocessing.Queue.get(timeout)`` only applies its timeout to the
  initial poll — once a frame header is seen, the subsequent
  ``recv_bytes`` blocks unboundedly, so a worker killed mid-write of a
  large reply (a ``collect`` pickle, say) used to deadlock the parent.
  With the pump, that blocking read happens on an abandonable daemon
  thread and the parent's wait keeps honoring liveness and deadlines.
- **Authority.** Once the pool is running the *worker* copies are the
  authoritative shard state; the parent's ``service.shards`` go stale
  until :meth:`collect`/:meth:`collect_all` pull the live objects back
  (the service does this before snapshots and on ``close()``).
- **Restart.** :meth:`restart` collects a worker's state, stops the
  process, and spawns a fresh one from the collected pickle — a rolling
  mid-stream restart that the conformance harness replays to prove the
  respawned worker continues bit-compatibly.

Failures surface as :class:`ShardWorkerError` carrying the remote
traceback; a dead worker is detected by liveness polling instead of
hanging the parent forever.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_lib
import threading
import time
import traceback
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.trace import Trace, current_trace, span, use_trace

#: Operations a worker understands (requests are ``(seq, op, args,
#: trace_ctx)`` tuples; every reply echoes its request's ``seq`` and
#: carries the spans recorded under ``trace_ctx``, or ``None``).
WORKER_OPS = (
    "recommend",
    "recommend_batch",
    "update",
    "observe",
    "maintenance",
    "metrics",
    "obs",
    "n_users",
    "probed_users",
    "collect",
    "stop",
)

#: Sent through a reply queue by the *parent* to release that queue's pump
#: thread (a blocked cross-process read is not interrupted by closing the
#: queue).  A plain string so it survives the queue's pickle round trip.
_PUMP_STOP = "__repro_pump_stop__"

#: Start methods a pool accepts.  ``fork`` is excluded on purpose: it is
#: unsafe under NumPy/BLAS threading and macOS system libraries.
POOL_START_METHODS = ("spawn", "forkserver")


class ShardWorkerError(RuntimeError):
    """A shard worker process failed, died, or timed out."""


def _apply_op(shard, op: str, args: tuple):
    """Execute one request against the worker-local shard.

    Mutating ops mirror exactly what the in-process backends do to the
    same objects — ``observe`` replays the shared-state mutation of
    ``SsRecRecommender.observe_item`` against the worker's copies of the
    interest predictor and expander (the parent ships pre-annotated
    mentions so the worker needs no extractor), ``update`` records through
    the shard store (which creates profiles for users joining mid-stream,
    matching the parent's ``get_or_create``-then-adopt path).
    """
    if op == "recommend":
        item, k = args
        return shard.recommend(item, k)
    if op == "recommend_batch":
        items, k = args
        return shard.recommend_batch(items, k)
    if op == "update":
        interaction, item = args
        shard.update(interaction, item)
        return None
    if op == "observe":
        producer, item_id, category, mentions, entities = args
        shard.scorer.interest.observe_new_item(producer, item_id, category)
        expander = shard.scorer.expander
        if expander is not None:
            if mentions:
                expander.observe(category, list(mentions))
            else:
                expander.observe_entity_list(category, list(entities))
        return None
    if op == "maintenance":
        return shard.run_maintenance()
    if op == "metrics":
        row = {"shard_id": shard.shard_id, "users": shard.n_users}
        row.update(shard.metrics.as_dict())
        return row
    if op == "obs":
        return shard.obs_registry().to_dict()
    if op == "n_users":
        return shard.n_users
    if op == "probed_users":
        (item,) = args
        if shard.index is None:
            return set()
        return shard.index.users_in_probed_trees(item)
    if op == "collect":
        return pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)
    raise ShardWorkerError(f"unknown worker op {op!r}")


def _shard_worker_main(shard_blob: bytes, requests, replies) -> None:
    """Worker process entry point: unpickle the shard, serve the queue.

    Module-level so the ``spawn`` start method can import it by reference;
    every exception is shipped back as an ``("err", (kind, traceback))``
    reply rather than killing the process, so one bad request does not
    lose the shard state.
    """
    shard = pickle.loads(shard_blob)
    while True:
        seq, op, args, trace_ctx = requests.get()
        if op == "stop":
            replies.put((seq, "ok", None, None))
            break
        try:
            if trace_ctx is None:
                replies.put((seq, "ok", _apply_op(shard, op, args), None))
            else:
                # Re-hydrate the parent's trace on this side of the
                # process boundary; the recorded spans travel back on
                # the reply and are grafted into the parent's tree.
                trace = Trace(trace_ctx["trace_id"])
                with use_trace(trace, trace_ctx.get("parent_id")):
                    with span(f"worker.{op}", shard=shard.shard_id):
                        value = _apply_op(shard, op, args)
                replies.put((seq, "ok", value, trace.spans()))
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            replies.put(
                (seq, "err", ("worker", f"{exc!r}\n{traceback.format_exc()}"), None)
            )


def _pump_replies(replies, inbox: queue_lib.Queue) -> None:
    """Drain one worker's multiprocessing reply queue into ``inbox``.

    Runs on a daemon thread.  The blocking cross-process read lives here
    so the parent's reply wait can honor timeouts and liveness checks —
    a worker that dies mid-write leaves this thread blocked (or raises a
    truncated-frame error), never the parent.  Exits on the
    :data:`_PUMP_STOP` sentinel, on queue teardown, or on any decode
    error from a torn frame.
    """
    while True:
        try:
            item = replies.get()
        except (EOFError, OSError):
            break
        except Exception:  # noqa: BLE001 - torn frame from a dying worker
            break
        if isinstance(item, str) and item == _PUMP_STOP:
            break
        inbox.put(item)


@dataclass
class _Worker:
    """Parent-side handle of one shard worker.

    ``seq`` is the per-worker exchange counter: every request carries the
    next value and its reply must echo it back.  When an exchange fails —
    a timeout, a worker error raised mid-:meth:`ShardWorkerPool.map` —
    the un-collected replies of that exchange stay queued; the tag lets
    later exchanges recognize and discard them instead of mistaking a
    stale reply for their own (an off-by-one that would silently serve
    the wrong shard's results forever after).

    ``inbox`` is the in-process queue the pump thread forwards replies
    into; the parent only ever waits on it, never on ``replies`` directly
    (see the module docstring on collection safety).
    """

    process: multiprocessing.process.BaseProcess
    requests: object  # multiprocessing.Queue
    replies: object  # multiprocessing.Queue
    inbox: queue_lib.Queue = field(default_factory=queue_lib.Queue)
    pump: threading.Thread | None = None
    seq: int = 0


class _WorkerPoolBase:
    """Spawn/transport/liveness machinery shared by the worker pools.

    Subclasses decide what the workers *are* (a pickled shard copy for
    :class:`ShardWorkerPool`, a stateless shared-memory reader for
    :class:`~repro.serve.shmem.ShmemWorkerPool`) and populate
    ``self._workers`` via :meth:`_spawn_worker`; everything about sending
    sequence-tagged requests, collecting replies without ever blocking on
    a dead process, and tearing workers down lives here, once.
    """

    #: Seconds a detected-dead worker's pump is still given to deliver a
    #: final already-sent reply before the death is surfaced.
    death_grace = 0.5

    def __init__(
        self, reply_timeout: float = 300.0, start_method: str = "spawn"
    ) -> None:
        if start_method not in POOL_START_METHODS:
            raise ValueError(
                f"start_method must be one of {POOL_START_METHODS}, "
                f"got {start_method!r}"
            )
        self.reply_timeout = float(reply_timeout)
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, target, args: tuple, name: str) -> _Worker:
        """Launch one worker process plus its reply pump thread."""
        requests = self._ctx.Queue()
        replies = self._ctx.Queue()
        process = self._ctx.Process(
            target=target,
            args=(*args, requests, replies),
            name=name,
            daemon=True,
        )
        process.start()
        worker = _Worker(process=process, requests=requests, replies=replies)
        worker.pump = threading.Thread(
            target=_pump_replies,
            args=(replies, worker.inbox),
            name=f"{name}-pump",
            daemon=True,
        )
        worker.pump.start()
        return worker

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        """Every worker process is still running."""
        return not self._closed and all(w.process.is_alive() for w in self._workers)

    def _stop_worker(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            seq = self._send(worker, "stop", ())
            try:
                self._reply_from(worker, len(self._workers), seq)
            except ShardWorkerError:
                pass  # dying while stopping is not worth surfacing
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        # Release the pump: it is blocked in a cross-process read that
        # closing the queue does not interrupt, so route a sentinel
        # through the queue itself.  If a worker died mid-write the
        # sentinel may arrive as a torn frame — the pump treats decode
        # errors as exit, and in the worst case (the queue's shared write
        # lock died held) the daemon thread is abandoned after the join
        # timeout rather than blocking teardown.
        try:
            worker.replies.put(_PUMP_STOP)
        except Exception:  # noqa: BLE001 - queue already broken
            pass
        if worker.pump is not None:
            worker.pump.join(timeout=2.0)
        for q in (worker.requests, worker.replies):
            q.close()
            q.cancel_join_thread()

    def close(self) -> None:
        """Stop every worker process and release the queues.

        The pool is unusable afterwards; callers wanting worker-held
        state must extract it *before* closing (the service does).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop_worker(worker)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Request/reply plumbing
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ShardWorkerError("worker pool is closed")

    @staticmethod
    def _send(
        worker: _Worker, op: str, args: tuple, trace_ctx: dict | None = None
    ) -> int:
        """Enqueue one sequence-tagged request; returns the tag to await."""
        worker.seq += 1
        worker.requests.put((worker.seq, op, args, trace_ctx))
        return worker.seq

    def _raise_worker_failure(self, index: int, value) -> None:
        """Re-raise a worker-shipped error under its declared kind."""
        kind, text = (
            value if isinstance(value, tuple) and len(value) == 2 else ("worker", value)
        )
        if kind == "shmem":
            from repro.serve.shmem import ShmemError  # local: avoids cycle

            raise ShmemError(f"shard worker {index} failed:\n{text}")
        raise ShardWorkerError(f"shard worker {index} failed:\n{text}")

    def _reply_from(self, worker: _Worker, index: int, seq: int):
        """Await the reply tagged ``seq``, discarding stale leftovers.

        A reply with a lower tag belongs to an exchange whose collection
        was abandoned (a prior :class:`ShardWorkerError` unwound ``map``
        mid-collection); consuming it as ours would shift every later
        reply off by one, so it is dropped.  The wait runs against the
        pump's in-process inbox, so it is never exposed to a blocking
        cross-process read: a worker that died after the request was
        enqueued surfaces within the poll interval (plus a short grace
        period for a final in-flight reply), and a hung worker surfaces
        at the reply timeout.
        """
        deadline = time.monotonic() + self.reply_timeout
        death_deadline: float | None = None
        while True:
            try:
                reply = worker.inbox.get(timeout=0.05)
            except queue_lib.Empty:
                now = time.monotonic()
                if not worker.process.is_alive():
                    if death_deadline is None:
                        death_deadline = now + self.death_grace
                    elif now > death_deadline:
                        raise ShardWorkerError(
                            f"shard worker {index} died "
                            f"(exit code {worker.process.exitcode})"
                        ) from None
                if now > deadline:
                    raise ShardWorkerError(
                        f"shard worker {index} timed out after "
                        f"{self.reply_timeout:.0f}s"
                    ) from None
                continue
            got_seq, status, value = reply[0], reply[1], reply[2]
            # Stale replies may predate the span slot; tolerate 3-tuples.
            spans = reply[3] if len(reply) > 3 else None
            if got_seq != seq:
                continue  # stale reply from an abandoned exchange
            if spans:
                trace = current_trace()
                if trace is not None:
                    trace.extend(spans)
            if status == "ok":
                return value
            self._raise_worker_failure(index, value)

    def call(self, index: int, op: str, *args, trace_ctx: dict | None = None):
        """One request to one worker; blocks for the reply."""
        self._require_open()
        worker = self._workers[index]
        return self._reply_from(worker, index, self._send(worker, op, args, trace_ctx))

    def map(self, op: str, *args, trace_ctx: dict | None = None) -> list:
        """Send the same request to every worker, collect in shard order.

        This is the fan-out primitive: all workers compute concurrently;
        only the collection is sequential.  ``trace_ctx`` (from
        :func:`repro.obs.trace.trace_context`) rides along to every
        worker; the spans each one records come back on its reply and are
        grafted into the caller's active trace.
        """
        self._require_open()
        seqs = [self._send(worker, op, args, trace_ctx) for worker in self._workers]
        return [
            self._reply_from(worker, index, seq)
            for (index, worker), seq in zip(enumerate(self._workers), seqs)
        ]


class ShardWorkerPool(_WorkerPoolBase):
    """One spawn-safe OS process per shard, request/reply over queues.

    Args:
        shards: the :class:`~repro.serve.shard.RecommenderShard` objects to
            host; worker ``i`` owns ``shards[i]`` (shard order is the reply
            order of :meth:`map`, so merging stays deterministic).
        reply_timeout: seconds to wait for one reply before declaring the
            worker hung (liveness is polled, so a *dead* worker fails fast
            regardless of this value).

    The constructor spawns every worker immediately; construction returns
    once the processes are launched (workers finish unpickling their shard
    lazily — the first reply waits for it).
    """

    def __init__(self, shards: Sequence, reply_timeout: float = 300.0) -> None:
        if not shards:
            raise ValueError("ShardWorkerPool needs at least one shard")
        super().__init__(reply_timeout=reply_timeout, start_method="spawn")
        for shard in shards:
            self._workers.append(self._spawn(shard))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard) -> _Worker:
        blob = pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)
        return self._spawn_worker(
            _shard_worker_main, (blob,), name=f"repro-shard-{shard.shard_id}"
        )

    def restart(self, index: int) -> None:
        """Collect worker ``index``'s live shard, stop it, respawn fresh.

        The respawned worker starts from the exact pickled state of the old
        one, so serving continues bit-compatibly mid-stream.
        """
        shard = self.collect(index)
        self._stop_worker(self._workers[index])
        self._workers[index] = self._spawn(shard)

    def restart_all(self) -> None:
        """Rolling restart of every worker (collect → stop → respawn)."""
        for index in range(len(self._workers)):
            self.restart(index)

    # ------------------------------------------------------------------
    # State extraction
    # ------------------------------------------------------------------
    def collect(self, index: int):
        """The live shard object of worker ``index`` (pickle round-trip)."""
        return pickle.loads(self.call(index, "collect"))

    def collect_all(self) -> list:
        """Every worker's live shard, in shard order (workers pickle
        concurrently; the parent unpickles as replies arrive).

        A worker dying mid-collection surfaces as
        :class:`ShardWorkerError` within the liveness poll interval — the
        parent's wait runs against the pump inbox, so even a reply
        truncated mid-write cannot block it (the historical deadlock this
        path regression-tests against).
        """
        return [pickle.loads(blob) for blob in self.map("collect")]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("alive" if self.alive else "degraded")
        return f"ShardWorkerPool(workers={self.n_workers}, {state})"
