"""Record the search engine's exact behaviour as tests/goldens/engine.json.

Six sections, each a list of [inputs..., answer, nodes, edges] rows (a
polytope row adds the separator):

- "search": the raw engine `_search(n, ordered, target, budget)` on small
  random targets (n = 3..6, SplitMix64 seeds 0..399) at budgets 3, 25 and
  10^7; edges are in inclusion order, null unless YES.
- "sparse": the same on random candidate subsets (n = 5..7) with planted
  targets, half of them with one unit of degree moved, at budgets 25 and
  10^7; the rows carry the candidate list.
- "degseq": `decide_degseq(d, budget=10**7)` on the acceptance corpora of
  criteria 3, 4 and 5 (planted YES, exhaustive small grids plus random
  n = 6, and degseq reduced from 3-partition); edges are the certificate.
- "partition": `decide_partition(inst, budget)` on the criterion-5 corpus
  plus `gen_partition(9, 8, s)` and `gen_partition(12, 20, s)` for s < 50,
  planted and unplanted, at budgets 25 and 10^6; rows carry (a, b).
- "zero": `decide_zero(inst, budget)` on zero-weight instances drawn like
  `test_planted_zero_instances` (n = 4..9, w in -3..3, c the degrees of a
  random subset of S0), every other one with a unit of c moved between two
  vertices of equal weight, at budgets 25 and 10^6; rows carry (w, c).
- "polytope": `decide_degseq(d, budget)` on d reduced from
  `gen_partition(12, 20, s)`, s < 50, planted and unplanted, then on the
  LP_SEEDS targets, at budgets 2000 and 10^6: the root bound refutes 60
  of its 270 rows at 1 node and forces on the other 210; 56 of those
  reach the polytope layer, 24 of them a NO whose rest was exhausted and
  whose separator the layer supplies.
  Nodes count the LP's pivots; the row ends with the certificate edges
  and the NO separator, each null when absent.

The rows of the first five sections all decide within 143 nodes, inside
the search's allowance (300 nodes past the depth of a straight dive), so
the polytope layer never runs on them. The root forces on 288 degseq and
48 zero rows, never on a partition row (an all-ones target scores every
triple alike). The construction runs on 1189 of the 3105 degseq rows and
builds every one, 92 of them after repair (216 moves, at most 10 on one
row), and on the 250 partition rows at n = 3, whose one triple is all of
S0, at the 2 nodes the search took; it runs on no zero or polytope row.

The raw sections prepare their input as the deciders do, since `_search`
checks neither half of its precondition: a target total not divisible by
3 is NO at 0 nodes without a search (the prefilter's refusal),
`_includable` drops the candidates through a zero-demand vertex, and
`_ordered_candidates` ranks the rest, whose triples are listed in that
order once, as `_run_search` lists them.

tests/test_scripts.py replays every row through --diff (below) and
demands every count 0. Rerun this only when a change is meant to move
node counts (branching order, new pruning), and say so:

    PYTHONPATH=src python scripts/engine_golden.py

With --diff it records the rows in memory and, without writing the file,
prints per section how many rows changed in answer, nodes, certificate and
separator; it exits 1 if an answer or a certificate changed (or the rows
no longer pair up), so a change that only moves node counts can account
for its rows before regenerating:

    PYTHONPATH=src python scripts/engine_golden.py --diff
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from math import comb
from pathlib import Path

from hyperdeg import (
    DegreeSequence,
    Hypergraph,
    SplitMix64,
    ThreePartitionInstance,
    WeightVector,
    ZeroWeightInstance,
    decide_degseq,
    decide_partition,
    decide_zero,
    degree_sum,
    enumerate_triples,
    gen_partition,
    gen_planted_degseq,
    reduce_partition_to_degseq,
    sign_partition,
)
from hyperdeg.solver import _includable, _ordered_candidates, _search

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "goldens" / "engine.json"
SEARCH_BUDGETS = (3, 25, 10**7)
SPARSE_BUDGETS = (25, 10**7)
DEGSEQ_BUDGET = 10**7
DECIDER_BUDGETS = (25, 10**6)
POLYTOPE_BUDGETS = (2000, 10**6)


def search_targets():
    """(n, target) pairs drawn like the former engine lockstep test."""
    for seed in range(400):
        rng = SplitMix64(seed)
        n = 3 + rng.below(4)
        yield n, tuple(rng.below(comb(n - 1, 2) + 2) for _ in range(n))


def sparse_cases():
    """(n, candidates, target) with a planted or perturbed target."""
    for seed in range(200):
        rng = SplitMix64(10_000 + seed)
        n = 5 + rng.below(3)
        cands = [t for t in enumerate_triples(n) if rng.below(2)]
        target = [0] * n
        for t in cands:
            if rng.below(2):
                for v in t:
                    target[v] += 1
        u, v = rng.below(n), rng.below(n)
        if rng.below(2) and target[u]:
            target[u] -= 1
            target[v] += 1
        yield n, cands, tuple(target)


def degseq_corpus():
    """Degree sequences of acceptance criteria 3, 4 and 5, in test order."""
    meta = SplitMix64(2024)
    for i in range(1000):
        n = 4 + i % 6
        m = meta.below(comb(n, 3) + 1)
        yield gen_planted_degseq(n, m, seed=i)[0].d.values
    for n in (4, 5):
        yield from product(range(4), repeat=n)
    rng = SplitMix64(640)
    for _ in range(500):
        yield tuple(rng.below(11) for _ in range(6))
    for inst in criterion5_partitions():
        yield reduce_partition_to_degseq(inst).degseq.d.values


def criterion5_partitions():
    """The 3-partition corpus of acceptance criterion 5, in test order."""
    partitions = [ThreePartitionInstance(a, sum(a)) for a in product(range(5), repeat=3)]
    partitions += [gen_partition(6, 8, seed=i, planted=(i < 100)) for i in range(200)]
    return partitions


def partition_corpus():
    """Criterion 5 plus planted and unplanted n = 9 and n = 12 instances."""
    yield from criterion5_partitions()
    for n, max_value in ((9, 8), (12, 20)):
        for s in range(50):
            for planted in (True, False):
                yield gen_partition(n, max_value, seed=s, planted=planted)


def zero_cases():
    """(w, c) pairs: the degrees of a random subset of S0, odd seeds perturbed."""
    for seed in range(300):
        rng = SplitMix64(20_000 + seed)
        n = 4 + rng.below(6)
        w = tuple(rng.below(7) - 3 for _ in range(n))
        zero_edges = sign_partition(WeightVector(w)).s_zero
        picked = tuple(e for e in zero_edges if rng.below(2))
        c = list(degree_sum(Hypergraph(n, picked)).values)
        # a unit moved between equal weights keeps the promise w.c = 0
        moves = [(u, v) for u in range(n) for v in range(n)
                 if u != v and w[u] == w[v] and c[u]]
        if seed % 2 and moves:
            u, v = moves[rng.below(len(moves))]
            c[u] -= 1
            c[v] += 1
        yield w, tuple(c)


# the seeds 50 <= s < 200 whose reduced gen_partition(12, 20, s) target reached
# polytope.solve at budget 2000, unplanted and planted, when ties of largest
# residual went to the lowest index; under the smallest-target tie-break the
# plain search decides 8 of them (unplanted 108, 143, 194, planted 99, 114,
# 123, 142, 180) first, all YES
LP_SEEDS = {
    False: (59, 89, 94, 96, 99, 100, 105, 107, 108, 114, 137, 138, 143, 146, 154,
            160, 161, 167, 194),
    True: (57, 77, 99, 100, 102, 103, 114, 116, 123, 133, 135, 142, 146, 148, 167, 180),
}


def polytope_corpus():
    """Degree sequences reduced from n = 12 instances: s < 50, then LP_SEEDS."""
    for s in range(50):
        for planted in (True, False):
            yield reduce_partition_to_degseq(gen_partition(12, 20, s, planted=planted)).degseq.d
    for planted, seeds in LP_SEEDS.items():
        for s in seeds:
            yield reduce_partition_to_degseq(gen_partition(12, 20, s, planted=planted)).degseq.d


def _edges(edges):
    return None if edges is None else [list(e) for e in edges]


def _decided(out):
    """[answer, nodes, certificate edges] of a DecisionOutcome."""
    cert = out.certificate.edges if out.certificate is not None else None
    return [out.answer, out.stats.nodes, _edges(cert)]


def raw_search(n, candidates, target, budget):
    """`_search` on input prepared as the deciders prepare it (see above)."""
    if sum(target) % 3:
        return "NO", None, 0
    candidates = _includable(candidates, target)
    _, order = _ordered_candidates(candidates, target)
    return _search(n, [candidates[p] for p in order], target, budget)


def record() -> dict:
    search = []
    for n, target in search_targets():
        for budget in SEARCH_BUDGETS:
            answer, edges, nodes = raw_search(n, enumerate_triples(n), target, budget)
            search.append([n, list(target), budget, answer, nodes, _edges(edges)])
    sparse = []
    for n, cands, target in sparse_cases():
        for budget in SPARSE_BUDGETS:
            answer, edges, nodes = raw_search(n, cands, target, budget)
            row = [n, _edges(cands), list(target), budget, answer, nodes, _edges(edges)]
            sparse.append(row)
    degseq = []
    for d in degseq_corpus():
        out = decide_degseq(DegreeSequence(d), budget=DEGSEQ_BUDGET)
        degseq.append([list(d), *_decided(out)])
    partition = []
    for inst in partition_corpus():
        for budget in DECIDER_BUDGETS:
            out = decide_partition(inst, budget)
            partition.append([list(inst.a), inst.b, budget, *_decided(out)])
    zero = []
    for w, c in zero_cases():
        inst = ZeroWeightInstance(WeightVector(w), DegreeSequence(c))
        for budget in DECIDER_BUDGETS:
            out = decide_zero(inst, budget)
            zero.append([list(w), list(c), budget, *_decided(out)])
    polytope = []
    for d in polytope_corpus():
        for budget in POLYTOPE_BUDGETS:
            out = decide_degseq(d, budget)
            sep = None if out.separator is None else list(out.separator)
            polytope.append([list(d.values), budget, *_decided(out), sep])
    return {"search": search, "sparse": sparse, "degseq": degseq,
            "partition": partition, "zero": zero, "polytope": polytope}


# the leading inputs of each section's rows; answer, nodes and edges follow
INPUTS = {"search": 3, "sparse": 4, "degseq": 1, "partition": 3, "zero": 3, "polytope": 2}


def dump(golden: dict) -> str:
    """One row per line, compact JSON inside each row."""
    parts = []
    for key in INPUTS:
        rows = ",\n".join(json.dumps(row, separators=(",", ":")) for row in golden[key])
        parts.append(f'"{key}":[\n{rows}\n]')
    return "{" + ",\n".join(parts) + "}\n"


def diff(old: dict, new: dict) -> bool:
    """Print, per section, how many rows changed in each field.

    Returns True when the rows still pair up and no answer or certificate
    changed; nodes and separators may move on purpose.
    """
    same = True
    for key, k in INPUTS.items():
        pairs = list(zip(old[key], new[key]))
        aligned = len(old[key]) == len(new[key]) and all(a[:k] == b[:k] for a, b in pairs)
        counts = {field: sum(a[k + f] != b[k + f] for a, b in pairs if len(a) > k + f)
                  for f, field in enumerate(("answer", "nodes", "certificate", "separator"))}
        print(f"{key}: {len(new[key])} rows" + "".join(f", {f} {c}" for f, c in counts.items())
              + ("" if aligned else ", inputs differ"))
        same = same and aligned and not counts["answer"] and not counts["certificate"]
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare with the committed golden instead of writing it; "
                             "exit 1 if an answer or certificate changed")
    args = parser.parse_args()
    if args.diff:
        committed = json.loads(GOLDEN.read_text(encoding="utf-8"))
        sys.exit(0 if diff(committed, record()) else 1)
    GOLDEN.write_text(dump(record()), encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
