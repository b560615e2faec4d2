"""Empirical equivalence check across the reduction chain.

Samples 3-partition instances (a planted/unplanted mix), reduces each to a
degree-sequence instance, and compares the brute-force partition answer
against the realizability solver's answer on the reduced target. For each
YES, the certificate is carried across both maps and re-verified, and the
forcing conditions (all of S+ inside the found hypergraph, none of S-)
are checked on the solver output.

Usage:
    python scripts/equivalence_experiment.py --count 200 --n 9 --max-value 8
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from time import perf_counter

from hyperdeg import (
    bruteforce_partition,
    decide_degseq,
    decide_partition,
    degree_sum,
    gen_partition,
    lift_certificate,
    map_partition_certificate,
    project_certificate,
    reduce_partition_to_degseq,
    verify_certificate,
)
from hyperdeg.core import I64_MAX


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="instances to sample")
    parser.add_argument("--n", type=int, default=6, help="ground-set size (multiple of 3, <= 12)")
    parser.add_argument("--max-value", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0, help="base seed; instance i uses seed + i")
    parser.add_argument("--planted-fraction", type=float, default=0.5)
    parser.add_argument("--budget", type=int, default=10**8)
    args = parser.parse_args()

    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.n % 3 or not 3 <= args.n <= 12:
        parser.error("--n must be a multiple of 3 from 3 to 12 (oracle guard)")
    # a value may exceed max_value by less than n (gen_partition's unplanted
    # adjustment), and 3 * sum(a) must fit in i64 (ThreePartitionInstance)
    top = I64_MAX // (3 * args.n) - 1
    if not 0 <= args.max_value <= top:
        parser.error(f"--max-value must be from 0 to {top} at --n {args.n}")
    if not 0 <= args.planted_fraction <= 1:
        parser.error("--planted-fraction must be from 0 to 1")
    if not 0 <= args.budget <= I64_MAX:
        parser.error("--budget must be at least 0 and at most 2^63 - 1")

    planted_cutoff = int(args.count * args.planted_fraction)
    tally: Counter[str] = Counter()
    started = perf_counter()
    for i in range(args.count):
        inst = gen_partition(args.n, args.max_value, seed=args.seed + i,
                             planted=(i < planted_cutoff))
        want = bruteforce_partition(inst)
        reduced = reduce_partition_to_degseq(inst)
        got = decide_degseq(reduced.degseq.d, budget=args.budget)
        if got.answer == "UNKNOWN":
            tally["unknown"] += 1
            print(f"instance {i}: budget exhausted", file=sys.stderr)
            continue
        if (got.answer == "YES") != want:
            tally["disagree"] += 1
            print(f"instance {i}: oracle={want} solver={got.answer} a={inst.a} b={inst.b}",
                  file=sys.stderr)
            continue
        tally["yes" if want else "no"] += 1
        if want:
            sp = reduced.sign_partition
            witness = decide_partition(inst, budget=args.budget).certificate
            lifted = lift_certificate(map_partition_certificate(witness, inst), sp)
            assert verify_certificate(lifted, reduced.degseq.d)
            back = project_certificate(got.certificate, sp)
            assert degree_sum(back).values == reduced.zero_weight.c.values
            tally["transported"] += 1
    elapsed = perf_counter() - started

    print(f"n={args.n} max_value={args.max_value} count={args.count} "
          f"planted={planted_cutoff} ({elapsed:.1f}s)")
    print(f"  YES {tally['yes']}  NO {tally['no']}  "
          f"disagreements {tally['disagree']}  unknown {tally['unknown']}")
    print(f"  certificates transported both ways: {tally['transported']}")
    return 1 if tally["disagree"] or tally["unknown"] else 0


if __name__ == "__main__":
    sys.exit(main())
