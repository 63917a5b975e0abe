"""The repository benchmark: one command, three seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload in turn, each in its own process
(so each reports its own peak memory), and exits non-zero if any did.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that reports the per-layer metrics (and
the cost of tracing itself).  Every metric is printed by name with its
unit, then the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 1 when any ranked list fails its correctness check.

The workloads, the layer each metric belongs to and the end-to-end
metric each layer should move are described in WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("replay_scan", "replay_index", "served_repeat")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MiB",
}

#: Measured and printed on every untraced run, but not in the result
#: line: on ``served_repeat`` host stalls made it vary by more than the
#: largest allowed bound between runs of the same code (WORKLOADS.md).
UNGATED = {"latency_tail_ms": "ms"}

PER_LAYER = {
    "setup.dataset_s": "s",
    "setup.fit_s": "s",
    "setup.index_build_s": "s",
    "setup.server_ready_s": "s",
    "observe.calls": "count",
    "observe.busy_s": "s",
    "update.calls": "count",
    "update.self_s": "s",
    "matching.sync.calls": "count",
    "matching.sync.busy_s": "s",
    "matching.score.self_s": "s",
    "index.knn.calls": "count",
    "index.knn.busy_s": "s",
    "index.maintain.calls": "count",
    "index.maintain.busy_s": "s",
    "index.maintain.profiles": "count",
    "index.probed_frac": "ratio",
    "exec.candidate.self_s": "s",
    "exec.score.self_s": "s",
    "exec.select.self_s": "s",
    "exec.memo.self_s": "s",
    "exec.memo.hit_frac": "ratio",
    "serve.requests": "count",
    "serve.overloads": "count",
    "serve.errors": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.batch_exec_p50_ms": "ms",
    "serve.mean_batch_size": "count",
    "serve.request.self_ms": "ms",
    "serve.client_gap_ms": "ms",
    "loadgen.lateness_p50_ms": "ms",
    "loadgen.lateness_max_ms": "ms",
    "loadgen.backlog_end": "count",
    "unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (set-up is extra)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> tuple[dict, object, list]:
    sys.path.insert(0, str(ROOT / "src"))
    import replay
    import served

    notes: list[str] = []
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    if args.workload == "served_repeat":
        if args.trace:
            metrics, tally = served.run_traced(ROOT, OUT_DIR, args.seed, args.seconds,
                                               notes, spans_path)
        else:
            metrics, tally = served.run_end_to_end(ROOT, OUT_DIR, args.seed, args.seconds,
                                                   notes)
    else:
        use_index = args.workload == "replay_index"
        if args.trace:
            metrics, tally = replay.run_traced(use_index, args.seed, args.seconds,
                                               notes, spans_path)
        else:
            metrics, tally = replay.run_end_to_end(use_index, args.seed, args.seconds,
                                                   notes)
            # Linux reports ru_maxrss in KiB.
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    if not args.trace:
        metrics["success_frac"] = 1.0 - tally.error_frac
    return metrics, tally, notes


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through every ``with`` block, so server
    # processes are stopped and waited for.
    sys.exit(128 + signum)


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    metrics, tally, notes = run(args)
    units = PER_LAYER if args.trace else END_TO_END
    ungated = {} if args.trace else UNGATED
    unknown = set(metrics) - set(units) - set(ungated)
    if unknown:
        raise RuntimeError(f"workload reported undeclared metrics {sorted(unknown)}")
    absent = [name for name in units if name not in metrics]
    for name in absent:
        metrics[name] = 0.0
    for note in notes:
        print(f"# {note}")
    if absent:
        print("# not exercised on this workload (reported as 0): " + ", ".join(absent))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, unit in ungated.items():
        print(f"{name} = {metrics[name]:.6g} {unit} (not in the result line)")
    print(f"error_frac = {tally.error_frac:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted, "
          f"{tally.mismatches} wrong lists)")
    correct = tally.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
