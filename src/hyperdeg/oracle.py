"""Brute-force ground truth for the three problems and for k = 2.

These oracles exist to catch bugs in the deciders, so they share no code
with them beyond the instance types. The degree-vector oracles scan every
edge subset in exists_subset_with_degrees, the one enumerator, for any
arity; bruteforce_partition enumerates perfect triple partitions.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .core import DegreeSequence, InstanceTooLargeError
from .reduction import ThreePartitionInstance, ZeroWeightInstance


def exists_subset_with_degrees(
    n: int, candidates: Sequence[Sequence[int]], target: Sequence[int]
) -> bool:
    """Exhaustively test all 2^len(candidates) subsets for degree vector target.

    Any arity: edge e sets bit e in the mask of each of its vertices, so
    subset code s has degree popcount(s & mask_v) at v. Vectorized in chunks;
    exact, no pruning beyond the fact that no degree can exceed the edge count.
    """
    import numpy as np  # only here, so bruteforce_partition and the CLI skip it

    m = len(candidates)
    tgt = [int(x) for x in target]
    if any(x < 0 or x > m for x in tgt):
        return False
    masks = [0] * n
    for e, edge in enumerate(candidates):
        for v in edge:
            masks[v] |= 1 << e
    chunk = 1 << 16
    for lo in range(0, 1 << m, chunk):
        codes = np.arange(lo, min(lo + chunk, 1 << m), dtype=np.uint32)
        ok = np.ones(codes.shape, dtype=bool)
        for v in range(n):
            ok &= np.bitwise_count(codes & np.uint32(masks[v])) == tgt[v]
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def bruteforce_degseq(d: DegreeSequence) -> bool:
    """Ground truth for realizability by exhausting all triple subsets, n <= 6."""
    n = d.n
    if n > 6:
        raise InstanceTooLargeError(f"degree-sequence brute force limited to n <= 6, got n = {n}")
    return exists_subset_with_degrees(
        n, list(itertools.combinations(range(n), 3)), d.values
    )


def bruteforce_zero(inst: ZeroWeightInstance) -> bool:
    """Ground truth for the zero-weight problem; requires |S0| <= 20.

    Recomputes the zero-weight triples inline rather than reusing the sign
    partition, to stay independent of the code it checks.
    """
    w = inst.w.values
    candidates = [
        x
        for x in itertools.combinations(range(inst.n), 3)
        if w[x[0]] + w[x[1]] + w[x[2]] == 0
    ]
    if len(candidates) > 20:
        raise InstanceTooLargeError(
            f"zero-weight brute force limited to |S0| <= 20, got {len(candidates)}"
        )
    return exists_subset_with_degrees(inst.n, candidates, inst.c.values)


def bruteforce_partition(inst: ThreePartitionInstance) -> bool:
    """Ground truth for 3-partition by exhausting perfect triple partitions.

    NO outright when 3 does not divide n; enforced n <= 12 (15400 partitions).
    """
    n = inst.n
    if n % 3:
        return False
    if n > 12:
        raise InstanceTooLargeError(f"partition brute force limited to n <= 12, got n = {n}")
    a = inst.a
    b = inst.b

    def cover(unused: list[int]) -> bool:
        if not unused:
            return True
        first = unused[0]
        rest = unused[1:]
        for second, third in itertools.combinations(rest, 2):
            if a[first] + a[second] + a[third] != b:
                continue
            remaining = [u for u in rest if u != second and u != third]
            if cover(remaining):
                return True
        return False

    return cover(list(range(n)))


def graph_bruteforce(d: DegreeSequence) -> bool:
    """Ground truth for graphicality by exhausting all graphs on [n], n <= 7."""
    n = d.n
    if n > 7:
        raise InstanceTooLargeError(f"graph brute force limited to n <= 7, got n = {n}")
    return exists_subset_with_degrees(n, list(itertools.combinations(range(n), 2)), d.values)
