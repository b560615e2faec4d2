"""Node-count and timing profile of the realizability search.

Drives decide_degseq over seeded planted instances for a range of ground
sizes and densities, printing per-size percentiles of expanded nodes and
wall time. Useful when touching the engine's pruning or ordering.

Usage:
    python scripts/bench_engine.py --sizes 6 7 8 9 --per-size 200
"""

from __future__ import annotations

import argparse
from math import comb
from statistics import median, quantiles
from time import perf_counter

from hyperdeg import SplitMix64, decide_degseq, gen_planted_degseq
from hyperdeg.core import I64_MAX

# gen_planted_degseq lists every triple of [n] before it samples: 280,840
# at n = 120, which still covers the n = 100 frontier
MAX_SIZE = 120


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 7, 8, 9])
    parser.add_argument("--per-size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=10**8)
    args = parser.parse_args()
    if args.per_size < 1:
        parser.error("--per-size must be at least 1")
    if min(args.sizes) < 0:
        parser.error("--sizes must be at least 0")
    if max(args.sizes) > MAX_SIZE:
        parser.error(f"--sizes must be at most {MAX_SIZE}")
    if not 0 <= args.budget <= I64_MAX:
        parser.error("--budget must be at least 0 and at most 2^63 - 1")

    print(f"{'n':>3} {'instances':>9} {'med nodes':>10} {'p90 nodes':>10} "
          f"{'max nodes':>10} {'total s':>8} {'unknown':>7}")
    total_unknown = 0
    for n in args.sizes:
        meta = SplitMix64(args.seed + n)
        nodes = []
        unknown = 0
        started = perf_counter()
        for i in range(args.per_size):
            m = meta.below(comb(n, 3) + 1)
            inst, _ = gen_planted_degseq(n, m, seed=args.seed + i)
            out = decide_degseq(inst.d, budget=args.budget)
            if out.answer == "UNKNOWN":
                unknown += 1
            nodes.append(out.stats.nodes)
        elapsed = perf_counter() - started
        p90 = quantiles(nodes, n=10)[-1] if len(nodes) >= 10 else max(nodes)
        print(f"{n:>3} {len(nodes):>9} {int(median(nodes)):>10} {int(p90):>10} "
              f"{max(nodes):>10} {elapsed:>8.2f} {unknown:>7}")
        total_unknown += unknown
    print(f"unknown {total_unknown}")


if __name__ == "__main__":
    main()
