"""Pure measurement helpers shared by every perfbench workload.

Nothing here imports the program under test, so a change to the program
cannot change how it is measured.  The helpers cover four jobs:

- percentiles, including the tail rule "the highest percentile that has
  at least ten samples beyond it";
- self time of a span: its duration minus the part of its interval that
  its child spans cover;
- open-loop accounting: latency from each request's due time, generator
  lateness, and the backlog left when the schedule ends;
- the failure tally behind ``error_frac``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

#: Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99)

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default method).  Raises on empty input."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    position = (len(data) - 1) * (q / 100.0)
    lower = math.floor(position)
    upper = math.ceil(position)
    return data[lower] + (data[upper] - data[lower]) * (position - lower)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_rank(n_samples: int) -> float | None:
    """The highest percentile in :data:`TAIL_LADDER` that leaves at least
    :data:`MIN_BEYOND` of ``n_samples`` above it, or None when even the
    median does not."""
    best = None
    for q in TAIL_LADDER:
        # The tolerance absorbs binary rounding of 100 - q (100 - 99.95
        # is a hair below 0.05), so exactly ten samples beyond qualify.
        if n_samples * (100.0 - q) >= 100.0 * MIN_BEYOND - 1e-6:
            best = q
    return best


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail rule over ``values``."""
    q = tail_rank(len(values))
    if q is None:
        raise ValueError(
            f"{len(values)} samples cannot support a tail percentile "
            f"with {MIN_BEYOND} samples beyond it"
        )
    return q, percentile(values, q)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def span_interval(span: dict) -> tuple[float, float]:
    return span["start"], span["start"] + span["duration"]


def self_times(spans: Sequence[dict]) -> dict[str, float]:
    """``span_id -> self seconds`` for span dicts shaped like
    ``repro.obs.trace`` records (``span_id``, ``parent_id``, ``start``,
    ``duration``).  A child's interval is clipped to its parent's before
    the union is taken, so clock skew between a child and its parent
    never makes self time negative or larger than the duration."""
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id") is not None:
            children[span["parent_id"]].append(span)
    out = {}
    for span in spans:
        start, end = span_interval(span)
        inside = []
        for child in children.get(span["span_id"], ()):
            child_start, child_end = span_interval(child)
            inside.append((max(start, child_start), min(end, child_end)))
        out[span["span_id"]] = max(0.0, span["duration"] - covered(inside))
    return out


def unique_spans(spans: Iterable[dict]) -> list[dict]:
    """Spans deduplicated by id (a coalesced batch's subtree is grafted
    under every traced request that rode in it)."""
    seen = {}
    for span in spans:
        seen.setdefault(span["span_id"], span)
    return list(seen.values())


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def schedule(rate: float, n: int) -> list[float]:
    """Due offsets (seconds from phase start) of ``n`` requests sent at a
    fixed ``rate`` per second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [i / rate for i in range(n)]


class OpenLoopLedger:
    """Per-request times of one open-loop phase, all on one clock.

    ``due[i]`` is when request ``i`` was scheduled, ``sent[i]`` when the
    generator actually wrote it, ``done[i]`` when its reply was read
    (None while outstanding) and ``ok[i]`` whether the reply was a
    success.  Latency runs from ``due`` — a stalled generator or server
    therefore charges its wait to every request that queued behind it.
    """

    def __init__(self, due: Sequence[float]) -> None:
        self.due = list(due)
        n = len(self.due)
        self.sent: list[float | None] = [None] * n
        self.done: list[float | None] = [None] * n
        self.ok: list[bool] = [False] * n

    def latencies(self) -> list[float]:
        """Seconds from due time to reply, successful requests only."""
        return [
            done - due
            for due, done, ok in zip(self.due, self.done, self.ok)
            if ok and done is not None
        ]

    def lateness(self) -> list[float]:
        """Seconds each sent request left after its due time (never
        negative: an early wake-up is clamped to zero)."""
        return [max(0.0, sent - due) for due, sent in zip(self.due, self.sent)
                if sent is not None]

    def backlog_at(self, moment: float) -> int:
        """Requests due at or before ``moment`` whose reply had not been
        read by then (including any the generator had not sent yet)."""
        return sum(
            1 for due, done in zip(self.due, self.done)
            if due <= moment and (done is None or done > moment)
        )

    def failures(self) -> int:
        """Refused, errored and never-answered requests, each once."""
        return sum(1 for ok in self.ok if not ok)


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations of one run.

    A failure is a refused, errored or timed-out request, or a ranked
    list that fails its correctness check; ``mismatches`` counts the
    latter separately because any of them makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def add(self, attempted: int, failed: int = 0, mismatches: int = 0) -> None:
        if failed > attempted or mismatches > failed:
            raise ValueError(
                f"inconsistent tally: {attempted} attempted, {failed} failed, "
                f"{mismatches} mismatched"
            )
        self.attempted += attempted
        self.failed += failed
        self.mismatches += mismatches

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
