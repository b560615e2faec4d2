"""The k = 2 case: graphical degree sequences.

hh_realize runs the Havel-Hakimi construction and returns an actual
realization; the CLI decides k = 2 by it, in `decide` and `graph-check`.
eg_check evaluates the Erdos-Gallai inequality family in its two-index
(j, l) form and is the cross-check the CLI asserts. Both are measured
against oracle.graph_bruteforce. Graphs are the arity-2 case: Graph is
Hypergraph's edge-set base with the pair parser _validate_pair and the
kind "graph".
"""

from __future__ import annotations

from typing import Sequence, Union

from .core import (
    CertificateCheck,
    DegreeSequence,
    _EdgeSet,
    verify_edges,
)

Pair = tuple[int, int]


def _validate_pair(edge: Sequence[int], n: int) -> Pair:
    try:
        i, j = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not an index pair") from None
    if not (type(i) is int and type(j) is int):
        raise ValueError(f"edge {edge!r} has non-integer indices")
    if not 0 <= i < j < n:
        raise ValueError(f"edge ({i}, {j}) invalid for ground set of size {n}")
    return (i, j)


class Graph(_EdgeSet):
    """A simple graph on [n]: strictly increasing list of index pairs."""

    _parse = staticmethod(_validate_pair)
    kind = "graph"


def eg_check(d: DegreeSequence) -> bool:
    """True iff d is graphical, by the Erdos-Gallai conditions.

    Requires the degree total to be even and, for d sorted descending,
    sum(d[:j]) - sum(d[l:]) <= j * (l - 1) for all 1 <= j <= l <= n.
    The O(n^2) pair loop is deliberate; n is small here and the brute-force
    and Havel-Hakimi oracles guard against transcription error.
    """
    vals = d.values
    total = sum(vals)
    if total % 2:
        return False
    s = sorted(vals, reverse=True)
    n = len(s)
    pre = [0] * (n + 1)
    acc = 0
    for i in range(n):
        acc += s[i]
        pre[i + 1] = acc
    for l in range(1, n + 1):
        tail = total - pre[l]
        lm1 = l - 1
        for j in range(1, l + 1):
            if pre[j] - tail > j * lm1:
                return False
    return True


def hh_realize(d: DegreeSequence) -> Union[Graph, None]:
    """Havel-Hakimi construction: a Graph realizing d, or None.

    Deterministic: each round picks the vertex with the highest residual
    degree (lowest index on ties) and connects it to the highest-residual
    other vertices (again lowest index on ties).
    """
    r = list(d.values)
    n = len(r)
    edges: list[Pair] = []
    while True:
        # one sort per round into (-r[u], u) order (a stable reverse sort keeps
        # ties by index); its head is v and the rest rank v's targets
        order = sorted([u for u in range(n) if r[u]], key=r.__getitem__, reverse=True)
        if not order:
            break
        v = order[0]
        need = r[v]
        r[v] = 0
        targets = order[1:]
        if len(targets) < need:
            return None
        for u in targets[:need]:
            r[u] -= 1
            edges.append((v, u) if v < u else (u, v))
    edges.sort()
    return Graph(n, tuple(edges))


def verify_graph_certificate(
    edges: Sequence[Sequence[int]], d: DegreeSequence
) -> CertificateCheck:
    """Check raw pair edges form a simple graph on [n] with degree vector d."""
    return verify_edges(Graph, edges, d)
