"""The ``served_repeat`` workload: read-only recommends over the socket.

The server is launched the way the README's serving quickstart does
(``python -m repro.eval serve --dataset YTube --scale default --seed S``:
scan plan, coalescing on) as a separate process.  The run has two
phases, each on its own freshly launched and warmed server:

- phase A, an open loop at :data:`RATE` requests per second, well below
  the knee (see WORKLOADS.md for the capacity ladder).  It gives the
  latency metrics, timed from each request's due time;
- phase B, a closed loop with :data:`IN_FLIGHT` requests in flight.  It
  gives ``items_per_s``.

Phase A runs first on a fresh server because a saturation phase leaves
the server slower for a while (its tail latency more than tripled in
probes), which would make phase A measure phase B's aftermath.

Every served list is compared bit for bit with an in-process replica
fitted from the same seed, and a sample of the replica's lists is judged
against ``OracleMatcher`` over the full population.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.partitions import partition_interactions
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.obs.metrics import LatencyHistogram
from repro.serve.client import AsyncRecommenderClient, RecommenderClient
from repro.serve.protocol import (
    FrameDecoder,
    Request,
    ServerError,
    decode_reply,
    encode_request,
    item_to_wire,
    ranked_from_wire,
)
from repro.sim.oracle import OracleMatcher, matches_within_ties

from measure import (
    OpenLoopLedger,
    Tally,
    median,
    percentile,
    schedule,
    self_times,
    tail,
    unique_spans,
)
from replay import EXEC_STAGES, exec_self_times, write_spans

K = 30
#: Phase A's offered rate: a twelfth of the highest rate the server kept
#: up with on a 2-CPU host (see the capacity ladder in WORKLOADS.md).  At
#: 1,000/s and at 500/s, spells in which the host's CPU was largely taken
#: away pushed the server toward its knee and the p50 of whole runs from
#: about 1 ms to 4-6 ms.
RATE = 250.0
#: Share of ``--seconds`` phase A runs for; phase B's rounds take the
#: rest.
PHASE_A_SHARE = 0.5
#: Two coalescer batches' worth (the CLI server's ``max_batch`` is 32), so
#: the server always has a full batch queued and the client's own pace
#: does not set the batch size.
IN_FLIGHT = 64
ROUND_REQUESTS = 1500
#: Plain/traced round pairs of the traced run.
ROUNDS = 8
WARMUP_REQUESTS = 400
#: Share of requests that redeliver a recent item (the
#: ``duplicate_out_of_order`` scenario collapses 0.497 of its requests).
REDELIVER = 0.5
RECENT = 8
ORACLE_SAMPLE = 8
#: In the traced run every TRACE_EVERY-th phase-A request asks for its
#: server-side span tree.
TRACE_EVERY = 10
READY_TIMEOUT_S = 150.0
DRAIN_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 30.0

_SERVING_LINE = re.compile(r"serving \S+ \(\S+\) on (\S+):(\d+)")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def request_sequence(items, n: int, rng: random.Random) -> tuple[list, int]:
    """``n`` requests: with probability :data:`REDELIVER` a redelivery
    of one of the last :data:`RECENT` distinct items, otherwise the next
    item of the test stream (wrapping).  Returns the items and how many
    were redeliveries."""
    out, recent = [], []
    cursor = redelivered = 0
    for _ in range(n):
        if recent and rng.random() < REDELIVER:
            out.append(rng.choice(recent))
            redelivered += 1
            continue
        item = items[cursor % len(items)]
        cursor += 1
        out.append(item)
        recent.append(item)
        del recent[:-RECENT]
    return out, redelivered


class Replica:
    """The in-process reference: the CLI's dataset and fit, same seed."""

    def __init__(self, seed: int) -> None:
        clock = time.perf_counter
        started = clock()
        dataset = generate_ytube(YTubeConfig(seed=seed))
        stream = partition_interactions(dataset)
        generated = clock()
        self.rec = SsRecRecommender(SsRecConfig(), use_index=False, seed=seed)
        self.rec.fit(dataset, stream.training_interactions())
        self.times = {"dataset": generated - started, "fit": clock() - generated}
        self.items = [
            item
            for partition in stream.test_indices
            for item in stream.items_in_partition(partition)
        ]
        self.expected: dict[int, list] = {}

    def expect(self, requests) -> None:
        """Reference lists for every distinct item in ``requests``."""
        todo = list({item.item_id: item for item in requests
                     if item.item_id not in self.expected}.values())
        for start in range(0, len(todo), 64):
            chunk = todo[start:start + 64]
            for item, ranked in zip(chunk, self.rec.recommend_batch(chunk, K)):
                self.expected[item.item_id] = ranked

    def judge(self, rng: random.Random) -> tuple[int, int]:
        """Oracle check of sampled reference lists (full population)."""
        oracle = OracleMatcher(self.rec.scorer, self.rec.profiles)
        sample = rng.sample(self.items, ORACLE_SAMPLE)
        self.expect(sample)
        wrong = sum(
            1 for item in sample
            if not matches_within_ties(self.expected[item.item_id], oracle.top_k(item, K))
        )
        return len(sample), wrong


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _prepare_server_child() -> None:
    """In the child, before exec: give SIGINT (the CLI's drain-and-exit
    path) its default action, since a shell that starts the benchmark in
    the background ignores SIGINT and the server would inherit that; then
    ask Linux to send SIGINT if the benchmark process dies first, so a
    killed benchmark leaves no server behind."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGINT)


class ServerProcess:
    """One ``python -m repro.eval serve`` child, stopped with SIGINT (the
    CLI's drain path) and killed only if it does not exit in time."""

    def __init__(self, root: Path, seed: int, log_path: Path) -> None:
        self.root = root
        self.seed = seed
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def launch(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        command = [
            sys.executable, "-m", "repro.eval", "serve",
            "--dataset", "YTube", "--scale", "default", "--seed", str(self.seed),
        ]
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.launched = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
                preexec_fn=_prepare_server_child,
            )
        self._banner = b""

    def read_banner(self) -> float | None:
        """Consume the server's stdout; once the address line is in,
        wait for one answered request and return the seconds since
        launch."""
        chunk = os.read(self.proc.stdout.fileno(), 4096)
        if not chunk:
            raise RuntimeError(
                f"server exited with {self.proc.wait()} before serving; see {self.log_path}"
            )
        self._banner += chunk
        if not self._banner.endswith(b"\n"):
            return None
        line = self._banner.decode("utf-8", "replace")
        match = _SERVING_LINE.search(line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        with RecommenderClient(self.host, self.port) as client:
            client.stats()
        return time.perf_counter() - self.launched

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()


def start_servers(servers) -> list[float]:
    """Launch every server at once and return each one's seconds from
    launch to its first answered request.  The launches overlap (one
    per CPU on a 2-CPU host), which halves the run's set-up wall time."""
    for server in servers:
        server.launch()
    ready: dict[int, float] = {}
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while len(ready) < len(servers):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("a server did not report its address in time")
        waiting = {server.proc.stdout: i for i, server in enumerate(servers) if i not in ready}
        readable, _, _ = select.select(list(waiting), [], [], remaining)
        for stream in readable:
            index = waiting[stream]
            seconds = servers[index].read_banner()
            if seconds is not None:
                ready[index] = seconds
    return [ready[i] for i in range(len(servers))]


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def open_loop(host: str, port: int, requests, rate: float, traced_every: int = 0):
    """Phase A: send ``requests`` on a fixed schedule, never waiting for
    replies, and never retrying.  Returns the ledger and the replies by
    request index (None where none arrived)."""
    frames = [
        encode_request(Request("recommend", i, {
            "item": item_to_wire(item), "k": K,
            **({"trace": True} if traced_every and i % traced_every == 0 else {}),
        }))
        for i, item in enumerate(requests)
    ]
    replies: list = [None] * len(frames)
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    clock = time.perf_counter
    start = clock() + 0.05
    ledger = OpenLoopLedger([start + offset for offset in schedule(rate, len(frames))])

    def receive() -> None:
        decoder = FrameDecoder()
        remaining = len(frames)
        while remaining:
            try:
                data = sock.recv(1 << 16)
            except OSError:
                return
            if not data:
                return
            now = clock()
            for message in decoder.feed(data):
                reply = decode_reply(message)
                index = reply.request_id
                ledger.done[index] = now
                ledger.ok[index] = reply.status == "ok"
                replies[index] = reply
                remaining -= 1

    receiver = threading.Thread(target=receive, name="perfbench-receiver")
    try:
        with collector_paused():
            receiver.start()
            for index, frame in enumerate(frames):
                delay = ledger.due[index] - clock()
                if delay > 0:
                    time.sleep(delay)
                ledger.sent[index] = clock()
                sock.sendall(frame)
            receiver.join(DRAIN_TIMEOUT_S)
    finally:
        if receiver.is_alive():
            sock.shutdown(socket.SHUT_RDWR)
            receiver.join()
        sock.close()
    return ledger, replies


async def _closed_loop(host: str, port: int, requests, traced: bool):
    client = await AsyncRecommenderClient.connect(host, port)
    results: list = [None] * len(requests)
    cursor = 0

    async def worker() -> None:
        nonlocal cursor
        while cursor < len(requests):
            index = cursor
            cursor += 1
            try:
                if traced:
                    results[index], _ = await client.recommend_traced(requests[index], K)
                else:
                    results[index] = await client.recommend(requests[index], K)
            except ServerError:
                pass  # refused or errored: its list stays None

    started = time.perf_counter()
    try:
        await asyncio.wait_for(
            asyncio.gather(*(worker() for _ in range(IN_FLIGHT))), DRAIN_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass  # every request still unanswered stays None: timed out
    finally:
        wall = time.perf_counter() - started
        await client.close()
    return results, sum(1 for ranked in results if ranked is None), wall


def closed_loop(host: str, port: int, requests, traced: bool = False):
    """Phase B round: :data:`IN_FLIGHT` workers on one connection, each
    sending its next request when the previous reply arrives.  A refused,
    errored or timed-out request counts once as failed and is not
    retried.  Returns ``(lists, failed, wall_seconds)``."""
    with collector_paused():
        return asyncio.run(_closed_loop(host, port, list(requests), traced))


@contextmanager
def collector_paused():
    """No cyclic garbage collection in this (the client's) process while
    load runs: a pause here would be charged to the server."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def warm_up(server: ServerProcess, requests) -> None:
    closed_loop(server.host, server.port, requests)


def check_lists(lists, requests, replica: Replica) -> int:
    """Lists that differ from the replica's (a missing list is not a
    mismatch: it is already counted as a failed request)."""
    return sum(
        1 for got, item in zip(lists, requests)
        if got is not None and got != replica.expected[item.item_id]
    )


# ----------------------------------------------------------------------
# Server-side counters
# ----------------------------------------------------------------------
def _counter(registry: dict, name: str) -> float:
    return sum(c["value"] for c in registry["counters"] if c["name"] == name)


def _histogram(registry: dict, name: str) -> dict | None:
    for h in registry["histograms"]:
        if h["name"] == name:
            return h
    return None


def histogram_delta(after: dict, before: dict, name: str) -> LatencyHistogram:
    """The samples a named histogram gained between two scrapes."""
    late = _histogram(after, name)
    hist = LatencyHistogram(None if late is None else late["bounds"])
    if late is None:
        return hist
    early = _histogram(before, name)
    base = [0] * len(late["counts"]) if early is None else early["counts"]
    hist.counts = [a - b for a, b in zip(late["counts"], base)]
    hist.count = sum(hist.counts)
    hist.sum = late["sum"] - (0.0 if early is None else early["sum"])
    hist.min, hist.max = late["min"], late["max"]
    return hist


def server_layers(before: dict, after: dict) -> dict[str, float]:
    """Phase-A deltas of the server's ``metrics`` route.  The closing
    scrape counts itself as one request, which is taken off."""
    def delta(name):
        return _counter(after, name) - _counter(before, name)

    requests = delta("server.requests") - 1
    batches = delta("server.coalesced_batches")
    memo_hits = delta("cache.hits") + delta("dedup.collapsed")
    return {
        "serve.requests": requests,
        "serve.overloads": delta("server.overloads"),
        "serve.errors": delta("server.errors"),
        "serve.queue_wait_p50_ms": 1e3 * histogram_delta(
            after, before, "server.queue_seconds").quantile(50),
        "serve.batch_exec_p50_ms": 1e3 * histogram_delta(
            after, before, "server.batch_seconds").quantile(50),
        "serve.mean_batch_size": delta("server.coalesced_requests") / batches if batches else 0.0,
        "exec.memo.hit_frac": memo_hits / requests if requests else 0.0,
    }


def span_layers(ledger: OpenLoopLedger, replies) -> dict[str, float]:
    """Layer times from the span trees of the sampled traced requests."""
    request_self, gaps, round_trips, all_spans = [], [], [], []
    for index, reply in enumerate(replies):
        if reply is None or reply.trace is None or reply.status != "ok":
            continue
        spans = reply.trace["spans"]
        root = next(s for s in spans if s["name"] == "server.request")
        request_self.append(self_times(spans)[root["span_id"]])
        round_trip = ledger.done[index] - ledger.sent[index]
        round_trips.append(round_trip)
        gaps.append(max(0.0, round_trip - root["duration"]))
        all_spans.extend(spans)
    if not round_trips:
        raise RuntimeError("no traced request came back")
    spans = unique_spans(all_spans)
    stages = exec_self_times(spans, self_times(spans))
    return {
        "serve.request.self_ms": 1e3 * median(request_self),
        "serve.client_gap_ms": 1e3 * median(gaps),
        "matching.score.self_s": stages["score"],
        **{f"exec.{stage}.self_s": stages[stage] for stage, _ in EXEC_STAGES},
        "unattributed_frac": sum(gaps) / sum(round_trips),
        "traced_requests": len(round_trips),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
class Inputs:
    def __init__(self, seed: int, seconds: float, replica: Replica) -> None:
        rng = random.Random(seed * 104729 + 3)
        n_a = max(1, int(RATE * seconds * PHASE_A_SHARE))
        self.warm, _ = request_sequence(replica.items[::-1], WARMUP_REQUESTS, rng)
        self.phase_a, redelivered_a = request_sequence(replica.items, n_a, rng)
        self.phase_b, redelivered_b = request_sequence(replica.items, ROUND_REQUESTS, rng)
        self.redelivered = (redelivered_a + redelivered_b) / (n_a + ROUND_REQUESTS)
        self.judge_rng = rng
        replica.expect(self.phase_a + self.phase_b)


def phase_a(server: ServerProcess, inputs: Inputs, replica: Replica, tally: Tally,
            traced_every: int = 0):
    warm_up(server, inputs.warm)
    with RecommenderClient(server.host, server.port) as control:
        before = control.metrics()["registry"]
        ledger, replies = open_loop(
            server.host, server.port, inputs.phase_a, RATE, traced_every
        )
        after = control.metrics()["registry"]
    lists = [
        None if reply is None or reply.status != "ok" else ranked_from_wire(reply.result)
        for reply in replies
    ]
    wrong = check_lists(lists, inputs.phase_a, replica)
    tally.add(len(inputs.phase_a), ledger.failures() + wrong, wrong)
    return ledger, replies, before, after


def phase_b_round(server: ServerProcess, inputs: Inputs, replica: Replica, tally: Tally,
                  traced: bool = False) -> tuple[float, float]:
    """One round; returns its delivered lists per second and its wall."""
    lists, failed, wall = closed_loop(server.host, server.port, inputs.phase_b, traced)
    wrong = check_lists(lists, inputs.phase_b, replica)
    tally.add(len(lists), failed + wrong, wrong)
    return (len(lists) - failed) / wall, wall


def phase_b_rounds(server: ServerProcess, inputs: Inputs, replica: Replica, tally: Tally,
                   seconds: float) -> list[float]:
    """Rounds until their walls add up to ``seconds`` (at least one);
    returns each round's rate."""
    rates, spent = [], 0.0
    while not rates or spent < seconds:
        rate, wall = phase_b_round(server, inputs, replica, tally)
        rates.append(rate)
        spent += wall
    return rates


def loadgen_figures(ledger: OpenLoopLedger, notes: list) -> dict[str, float]:
    lateness = ledger.lateness()
    figures = {
        "loadgen.lateness_p50_ms": 1e3 * percentile(lateness, 50.0),
        "loadgen.lateness_max_ms": 1e3 * max(lateness),
        "loadgen.backlog_end": float(ledger.backlog_at(ledger.due[-1] + 1.0 / RATE)),
    }
    notes.append(
        "phase A generator: lateness p50 {:.3f} ms, max {:.3f} ms; backlog when "
        "the schedule ended {:g}; failed requests {}".format(
            figures["loadgen.lateness_p50_ms"], figures["loadgen.lateness_max_ms"],
            figures["loadgen.backlog_end"], ledger.failures(),
        )
    )
    return figures


def prepare(seed: int, seconds: float, tally: Tally) -> tuple[Replica, Inputs]:
    """The replica, the request sequences and the oracle check, all
    before any server starts.  The replica's object graph is then frozen
    out of the collector, so a full collection in this process cannot
    stall the load generator."""
    replica = Replica(seed)
    inputs = Inputs(seed, seconds, replica)
    judged, wrong = replica.judge(inputs.judge_rng)
    tally.add(judged, wrong, wrong)
    gc.collect()
    gc.freeze()
    return replica, inputs


def _pin(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``; threads it starts
    later inherit the mask."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended since the listing


def place(server_a: ServerProcess, server_b: ServerProcess) -> None:
    """Once the servers are up, give every run the same placement.
    Left to the scheduler, the load generator (this process) and a
    server sometimes shared a CPU and sometimes not, and runs split into
    groups whose phase-A p50s differed by about a quarter and whose
    phase-B rates differed by a fifth.  Phase A's server shares this
    process's CPU: at 250 requests/s both are mostly idle, and a hand-off
    on one CPU avoids the cross-CPU wake-ups of a virtual machine, which
    varied from run to run.  Phase B's server gets the other CPU, so the
    closed loop has a whole CPU on each side.  Set-up stays unpinned, so
    the launches still overlap."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    _pin(os.getpid(), cpus[0])
    _pin(server_a.proc.pid, cpus[0])
    _pin(server_b.proc.pid, cpus[1])


@contextmanager
def fresh_servers(root: Path, out_dir: Path, seed: int):
    """Two fresh servers (phase A's and phase B's), launched together and
    then placed on CPUs (:func:`place`); yields them with their set-up
    seconds and stops both on exit."""
    servers = [
        ServerProcess(root, seed, out_dir / f"served_repeat-seed{seed}-server{i}.log")
        for i in (1, 2)
    ]
    try:
        ready = start_servers(servers)
        place(*servers)
        yield servers, ready
    finally:
        for server in servers:
            server.stop()


def run_end_to_end(root: Path, out_dir: Path, seed: int, seconds: float, notes: list):
    tally = Tally()
    replica, inputs = prepare(seed, seconds, tally)
    with fresh_servers(root, out_dir, seed) as ((server_a, server_b), ready):
        # Phase B's rounds bracket phase A, so they sample the host at two
        # moments; phase A's server sees no load but its warm-up either way.
        warm_up(server_b, inputs.warm)
        half_b = seconds * (1.0 - PHASE_A_SHARE) / 2.0
        rates = phase_b_rounds(server_b, inputs, replica, tally, half_b)
        ledger, _, _, _ = phase_a(server_a, inputs, replica, tally)
        rss = [server_a.peak_rss_mb()]
        server_a.stop()
        rates += phase_b_rounds(server_b, inputs, replica, tally, half_b)
        rss.append(server_b.peak_rss_mb())
    latencies = ledger.latencies()
    q, tail_value = tail(latencies)
    loadgen_figures(ledger, notes)
    notes.append(f"phase A: {len(inputs.phase_a)} requests at {RATE:g}/s; phase B: "
                 f"{len(rates)} rounds of {ROUND_REQUESTS} with {IN_FLIGHT} in flight, "
                 f"items_per_s is their median; "
                 f"redelivered share {inputs.redelivered:.3f}")
    notes.append(f"latency_tail_ms is p{q:g} of {len(latencies)} phase-A requests")
    notes.append("setup_s runs: " + ", ".join(f"{t:.3f}" for t in ready))
    metrics = {
        "setup_s": median(ready),
        "items_per_s": median(rates),
        "latency_p50_ms": 1e3 * percentile(latencies, 50.0),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": max(rss),
    }
    return metrics, tally


def run_traced(root: Path, out_dir: Path, seed: int, seconds: float, notes: list,
               spans_path: Path):
    tally = Tally()
    replica, inputs = prepare(seed, seconds, tally)
    with fresh_servers(root, out_dir, seed) as ((server_a, server_b), ready):
        ledger, replies, before, after = phase_a(
            server_a, inputs, replica, tally, traced_every=TRACE_EVERY
        )
        server_a.stop()
        warm_up(server_b, inputs.warm)
        plain, traced = [], []
        for _ in range(ROUNDS):
            plain.append(phase_b_round(server_b, inputs, replica, tally)[0])
            traced.append(phase_b_round(server_b, inputs, replica, tally, traced=True)[0])
    layers = server_layers(before, after)
    spans = span_layers(ledger, replies)
    write_spans(spans_path, [
        span for reply in replies
        if reply is not None and reply.trace is not None
        for span in reply.trace["spans"]
    ])
    notes.append(f"span trees of {spans.pop('traced_requests')} sampled phase-A requests: "
                 f"{spans_path}")
    layers.update(spans)
    layers.update(loadgen_figures(ledger, notes))
    layers.update({
        "setup.dataset_s": replica.times["dataset"],
        "setup.fit_s": replica.times["fit"],
        "setup.index_build_s": 0.0,
        "setup.server_ready_s": median(ready),
        "trace.overhead_frac": 1.0 - median(traced) / median(plain),
    })
    return layers, tally
