"""Brute-force ground truth for the three problems and for k = 2.

These oracles exist to catch bugs in the deciders, so they share no code
with them beyond the instance types. The degree-vector oracles meet in the
middle over degree_vectors, the one pure-Python enumerator, for any arity;
bruteforce_partition enumerates perfect triple partitions.
"""

from __future__ import annotations

import itertools
from operator import add, sub
from typing import Sequence

from .core import DegreeSequence, InstanceTooLargeError
from .reduction import ThreePartitionInstance, ZeroWeightInstance


def degree_vectors(n: int, edges: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """The degree vectors on [n] of all subsets of edges, for any arity.

    Built by doubling: each edge adds its indicator to every vector so far.
    """
    vectors = {(0,) * n}
    for edge in edges:
        step = [int(v in edge) for v in range(n)]
        vectors |= {tuple(map(add, x, step)) for x in vectors}
    return vectors


def exists_subset_with_degrees(
    n: int, candidates: Sequence[Sequence[int]], target: Sequence[int]
) -> bool:
    """Exhaustively test all 2^len(candidates) subsets for degree vector target.

    Meet in the middle (Horowitz and Sahni, 1974): YES exactly when target - x
    is a degree vector of the first half of candidates for some degree vector
    x of the second half. No pruning.
    """
    half = len(candidates) // 2
    first = degree_vectors(n, candidates[:half])
    second = degree_vectors(n, candidates[half:])
    return any(tuple(map(sub, target, x)) in first for x in second)


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
