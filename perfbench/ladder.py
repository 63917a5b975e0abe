"""The capacity ladder behind ``served_repeat``'s phase-A rate.

Launches one server as ``served_repeat`` does, warms it, then offers
the open loop at rising fixed rates (lowest first, so saturation comes
last) and ends with the closed loop.  Prints, per rate, the latency
median and tail from due time, generator lateness, the backlog when the
schedule ended and the refused requests.  Run from a checkout's root::

    python3 perfbench/ladder.py --seed 7 --seconds 2

It checks no outputs and is not one of the benchmark's workloads.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RATES = (500, 1000, 2000, 3000, 4000, 5000, 6000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0, help="per rate")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import served
    from measure import percentile, tail

    from repro.datasets.partitions import partition_interactions
    from repro.datasets.ytube import YTubeConfig, generate_ytube

    stream = partition_interactions(generate_ytube(YTubeConfig(seed=args.seed)))
    items = [it for p in stream.test_indices for it in stream.items_in_partition(p)]
    rng = random.Random(args.seed)
    warm, _ = served.request_sequence(items[::-1], served.WARMUP_REQUESTS, rng)
    server = served.ServerProcess(ROOT, args.seed, HERE / "out" / "ladder-server.log")
    try:
        (ready,) = served.start_servers([server])
        print(f"server ready after {ready:.2f} s")
        served.warm_up(server, warm)
        print("rate/s  p50_ms  tail       late_p50_ms  late_max_ms  backlog  failed")
        for rate in RATES:
            requests, _ = served.request_sequence(items, int(rate * args.seconds), rng)
            ledger, _ = served.open_loop(server.host, server.port, requests, rate)
            latencies = ledger.latencies()
            lateness = ledger.lateness()
            q, tail_value = tail(latencies)
            backlog = ledger.backlog_at(ledger.due[-1] + 1.0 / rate)
            print(f"{rate:6d}  {1e3 * percentile(latencies, 50):6.2f}  "
                  f"p{q:g}={1e3 * tail_value:7.2f}  {1e3 * percentile(lateness, 50):11.3f}  "
                  f"{1e3 * max(lateness):11.2f}  {backlog:7d}  {ledger.failures():6d}")
        requests, _ = served.request_sequence(items, served.ROUND_REQUESTS, rng)
        lists, failed, wall = served.closed_loop(server.host, server.port, requests)
        print(f"closed loop, {served.IN_FLIGHT} in flight: "
              f"{(len(lists) - failed) / wall:.0f} lists/s, {failed} failed")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
