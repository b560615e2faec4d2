"""Exact deciders with certificates for the three decision problems.

decide_partition decides through reduction (1) -> (2) (reduction.py), so
two deciders remain, decide_degseq on all triples and decide_zero on the
zero-weight ones; each adds only its filter and its certificate check to
one front door, _decide, which runs prefilter_degseq before any filter (a
zero-weight certificate is a 3-hypergraph with degrees c). Past the
prefilter, one search engine serves both deciders: depth-first
include/exclude branching, include tried first. Each node branches through
the vertex of largest residual demand (lowest index on ties), the rule
Havel-Hakimi uses for graphs (graph.hh_realize), and takes that vertex's
candidates in a static demand order: highest total demand d_i + d_j + d_k
first, lexicographic on ties (one stable sort on the demand, over
candidates that arrive in lexicographic order). Serving the neediest
vertex first meets its demand while it still has candidates left, and on
reduced instances the demand order reaches the forced part of the
certificate before the search can wander (pure lexicographic order needs
billions of nodes there). Candidates through a vertex of zero demand are
dropped before they are ordered, so every candidate the search sees is
includable. A target that asks for more than half the candidates, and for
no vertex more than its candidate degree, is searched as its complement
(see _run_search). At each node, on residual degrees r and the undecided
candidate counts per vertex, a branch is cut when

  (a) some r_v would go negative (never: a candidate is dropped as soon
      as one of its vertices is saturated),
  (b) the residual total is not divisible by 3,
  (c) some r_v exceeds a third of the residual total, or
  (d) some r_v exceeds the number of undecided candidates containing v
      that are still includable (a candidate stops being includable once
      any of its vertices is saturated).

Each rule is a cheap necessary condition on any completion, so the search
is exact: YES comes with a certificate, NO means the space was exhausted.

Before the first node, the root bound (_root_separator) compares two sums
on the searched side. A realization H of t has E = sum(t) / 3 edges and
sum_{e in H} (t_i + t_j + t_k) = sum_v t_v^2, so sum_v t_v^2 can never
exceed the sum of the E largest candidate demands, which the demand order
has just ranked. When it does, y = 3t - theta*1, with theta the E-th
largest demand, is a separator, by the identity

  y.t - sum_e max(0, y(e)) = 3 (sum_v t_v^2 - top-E demand sum)

over the candidates that were ordered, so the comparison fires exactly
when y separates them. Lowering y at the zero-demand vertices, until no
dropped candidate scores above 0, makes it separate the full list too
(any separator of the searched side gets this, the polytope's as well).
The answer is NO, with y as its separator, only once
core.verify_separator accepts y on the full candidate list; otherwise the
search runs as if the bound had not fired. The bound costs one node, like
a root that fails (b)-(d), and only runs on a budget of at least 1. E is
at most the candidate count, so every t_v is at most 3m and y stays far
inside i64.

The rules cannot see what the polytope {Mx = t, 0 <= x <= 1} forces (on
reduced instances, S+ in and S- out of every realization), so a search
that outlasts a fixed allowance (ALLOWANCE nodes plus the depth of a
straight dive) hands over to polytope.solve once (see _run_search). Its
infeasibility yields a separator y (its duals rationally reconstructed
and scaled by the lcm of their denominators), a NO only once
core.verify_separator has checked it exactly; its final point x*
otherwise reorders the candidates for a restart on the remaining
budget. Pivots count as nodes.

The budget is a node-expansion count, not wall time, so outcomes are
reproducible across machines; exceeding it yields UNKNOWN, and any larger
budget returns the same YES/NO on instances already decided.

There is one engine, iterative over an explicit stack (no recursion
limit), with the live candidates as one bitset int: availability is a
popcount, the kills that follow a saturation are one AND, and a
backtrack restores two ints. Each node checks only the rules its branch
could have broken, which is exact because its parent passed them all.
tests/goldens/engine.json pins its answers, certificates, and node
counts (regenerated by scripts/engine_golden.py).
"""

from __future__ import annotations

from math import comb
from time import perf_counter
from typing import Callable, Sequence, Union

from .core import (
    DEFAULT_BUDGET,
    Answer,
    CertificateCheck,
    DecisionOutcome,
    DegreeSequence,
    Hypergraph,
    SearchStats,
    Triple,
    _own_certificate,
    check_int,
    checked_sum,
    enumerate_triples,
    triple_sums,
    verify_certificate,
    verify_separator,
)
from .reduction import (
    ThreePartitionInstance,
    ZeroWeightInstance,
    reduce_partition_to_zero,
    verify_zero_certificate,
)

# nodes the plain search spends before the polytope layer, on top of the
# depth of a straight dive (so a dive that meets no failure is never cut)
ALLOWANCE = 500


def prefilter_degseq(d: DegreeSequence) -> Union[str, None]:
    """Cheap necessary conditions on d; a reason string means NO.

    Returns None (PASS) when no condition fires; PASS does not imply YES.
    """
    vals = d.values
    n = len(vals)
    total = checked_sum(vals, "degree total")
    if total % 3:
        return f"degree total {total} is not divisible by 3"
    per_vertex_cap = comb(n - 1, 2) if n >= 1 else 0
    for v, x in enumerate(vals):
        if x > per_vertex_cap:
            return f"d[{v}] = {x} exceeds the per-vertex maximum C(n-1,2) = {per_vertex_cap}"
    edges = total // 3
    for v, x in enumerate(vals):
        if x > edges:
            return f"d[{v}] = {x} exceeds the implied edge count {edges}"
    return None


def _search(
    n: int,
    candidates: Sequence[Triple],
    target: Sequence[int],
    budget: int,
    dive: Union[list[int], None] = None,
) -> tuple[Answer, Union[tuple[Triple, ...], None], int]:
    """Run the include/exclude DFS; returns (answer, edges or None, nodes).

    Iterative over an explicit stack, so the depth is bounded by the
    candidate count rather than by the interpreter's recursion limit. Bit p
    of the int `live` marks candidate p as undecided and still includable
    and vmask[v] marks the candidates through v, so avail[v] is
    (live & vmask[v]).bit_count() and saturating u kills every candidate
    through it with one AND; candidates through a zero-demand vertex are
    killed once, up front. Each node branches on the lowest live candidate
    through v, the vertex of largest residual (lowest index on ties), so
    candidates' order in the list only ranks those through one vertex.
    An include recomputes v from the max(r) that rule (c) needs anyway; an
    exclude leaves r and so v as they were. A frame is
    (pos, live without pos, included?, v), so backtracking restores two
    ints and rescans nothing.

    A child differs from its parent, which passed every rule, only where
    the branch touched it, so only that is rechecked: (c) after an include
    (the total fell), (d) at every unsaturated vertex after an include that
    killed candidates, and (d) at the branched triple after an exclude.

    A list passed as dive receives the positions the first dive included,
    the include path up to the first failed node (polytope's warm start).
    """
    r = list(target)
    total = sum(r)
    if total % 3:
        return "NO", None, 0
    vmask = [0] * n
    for p, (i, j, k) in enumerate(candidates):
        bit = 1 << p
        vmask[i] |= bit
        vmask[j] |= bit
        vmask[k] |= bit
    live = (1 << len(candidates)) - 1
    for rv, mv in zip(r, vmask):
        if not rv:
            live &= ~mv
    ok = all(3 * rv <= total and rv <= (live & mv).bit_count() for rv, mv in zip(r, vmask))
    v = max(range(n), key=r.__getitem__, default=0)
    stack: list[tuple[int, int, bool, int]] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return "UNKNOWN", None, budget
        if total == 0:
            return "YES", tuple(candidates[p] for p, _, inc, _ in stack if inc), nodes
        if ok:
            cand = live & vmask[v]
            low = cand & -cand
            rest = live ^ low
            pos = low.bit_length() - 1
            i, j, k = candidates[pos]
            r[i] -= 1
            r[j] -= 1
            r[k] -= 1
            total -= 3
            live = rest
            if not r[i]:
                live &= ~vmask[i]
            if not r[j]:
                live &= ~vmask[j]
            if not r[k]:
                live &= ~vmask[k]
            stack.append((pos, rest, True, v))
            top = max(r)
            ok = 3 * top <= total
            if ok and live != rest:
                for rv, mv in zip(r, vmask):
                    if rv and rv > (live & mv).bit_count():
                        ok = False
                        break
            v = r.index(top)
            continue
        # the node failed: resume at the deepest include not yet excluded
        if dive is not None:
            # the first failure ends the first dive, every frame an include
            dive.extend(p for p, _, _, _ in stack)
            dive = None
        while stack:
            pos, rest, included, v = stack.pop()
            if included:
                break
        else:
            return "NO", None, nodes
        i, j, k = candidates[pos]
        r[i] += 1
        r[j] += 1
        r[k] += 1
        total += 3
        live = rest
        stack.append((pos, rest, False, v))
        # an exclude child: only (d) at the branched triple can have changed
        ok = (
            r[i] <= (live & vmask[i]).bit_count()
            and r[j] <= (live & vmask[j]).bit_count()
            and r[k] <= (live & vmask[k]).bit_count()
        )


def _ordered_candidates(
    candidates: Sequence[Triple], target: Sequence[int]
) -> tuple[list[Triple], list[int], list[int]]:
    """Static candidate order: highest total demand first, then lexicographic.

    Returns the ordered candidates, each candidate's demand (in input
    order) and the order itself (order[r] is the input position of the
    r-th), so the root bound of _run_search can sum the largest demands
    without a second sort.

    Precondition: candidates are in lexicographic order (enumerate_triples
    or a filtered sublist of it). The sort is stable, reverse=True
    included, so ties keep that order. The demand sum is left unchecked:
    each demand is at most the target total, which the prefilter checked
    against i64 (a complement target is searched only when its total is
    the smaller).

    _search branches through the vertex of largest residual, so this order
    only decides which of that vertex's candidates it tries first.
    """
    demand = [target[i] + target[j] + target[k] for i, j, k in candidates]
    order = sorted(range(len(candidates)), key=demand.__getitem__, reverse=True)
    return [candidates[p] for p in order], demand, order


def _root_separator(
    target: Sequence[int], demand: list[int], order: Sequence[int], size: int
) -> Union[tuple[int, ...], None]:
    """The root bound: y = 3t - theta*1 if it refutes t, else None.

    demand and order are those of _ordered_candidates on the searched
    candidates, and size is sum(t) / 3. It fires when sum_v t_v^2 exceeds
    the sum of the size largest demands, theta the size-th (see the
    module docstring); never when size exceeds the candidate count.
    """
    if not 0 < size <= len(order):
        return None
    theta = demand[order[size - 1]]
    squares = sum(t * t for t in target)
    # each of the size largest demands is at least theta, so most
    # realizable targets are settled without the sum
    if squares <= size * theta or squares <= sum(map(demand.__getitem__, order[:size])):
        return None
    return tuple(3 * t - theta for t in target)


def _run_search(
    n: int, candidates: Sequence[Triple], target: Sequence[int], budget: int
) -> tuple[Answer, Union[tuple[Triple, ...], None], Union[tuple[int, ...], None], int]:
    """Order, search, and canonicalize; returns (answer, edges, separator, nodes).

    Precondition: target passed prefilter_degseq (see _decide), so its
    total is divisible by 3 and inside i64. edges are the sorted YES
    edges, separator the checked separator of a NO by the root bound or
    polytope; each is None otherwise. A subset S of the candidates has
    degree vector t exactly when its complement within the candidates has
    degree vector cand_deg - t, so when t asks for more than half the
    candidates and no entry of t exceeds its candidate degree, the engine
    runs on the complement target and the chosen set is flipped back
    afterwards. Candidates through a vertex of zero demand on the searched
    side are then dropped; the full list stays for flipping a YES back and
    for checking a separator. A root bound that the check accepts answers
    NO at one node.

    The plain search first gets ALLOWANCE nodes plus the depth of a straight
    dive. If that runs out with budget left, polytope.solve runs once on
    the searched side, warm-started from the search's first dive, its
    pivots charged as nodes: an infeasible LP whose separator passes the
    exact check answers NO; otherwise the search restarts on the remaining
    budget with the candidates ranked by -x*_e (stable on the demand
    order). Nothing here depends on the budget except where it stops, so a
    larger budget gives the same YES/NO at the same node count.
    """
    target = tuple(target)
    total = sum(target)
    effective = target
    flipped = False
    if 2 * (total // 3) > len(candidates):
        cand_deg = [0] * n
        for i, j, k in candidates:
            cand_deg[i] += 1
            cand_deg[j] += 1
            cand_deg[k] += 1
        flipped = all(t <= cd for t, cd in zip(target, cand_deg))
        if flipped:
            effective = tuple(cd - t for cd, t in zip(cand_deg, target))
    searched = candidates
    if 0 in effective:
        # _search would kill them at its root; dropped here, they are never
        # ordered or masked
        searched = [
            x for x in candidates if effective[x[0]] and effective[x[1]] and effective[x[2]]
        ]
    ordered, demand, order = _ordered_candidates(searched, effective)
    size = sum(effective) // 3  # the edge count of every realization

    def certified(y: Union[tuple[int, ...], None]) -> Union[tuple[int, ...], None]:
        """A separator of the searched side as a checked one of target, or None.

        y is proposed on the searched candidates. A vertex of zero demand
        has none there, so its entry is lowered (y.effective stays the
        same) until no candidate through it scores above 0.
        """
        if y is None:
            return None
        if searched is not candidates:
            low = -2 * max(0, *y)
            y = tuple(v if t else min(v, low) for v, t in zip(y, effective))
        if flipped:
            y = tuple(-v for v in y)  # y separates cand_deg - t exactly when -y separates t
        return y if verify_separator(y, target, candidates) else None

    if budget:
        y = certified(_root_separator(effective, demand, order, size))
        if y is not None:
            return "NO", None, y, 1
    dive: list[int] = []
    allowance = ALLOWANCE + size
    answer, edges, nodes = _search(n, ordered, effective, min(budget, allowance), dive)
    if answer == "UNKNOWN" and nodes < budget:
        from . import polytope  # only searches that outlast the allowance load it

        lp = polytope.solve(n, ordered, effective, dive, budget - nodes)
        nodes += lp.pivots
        y = certified(polytope.separator(lp.duals) if lp.status == "infeasible" else None)
        if y is not None:
            return "NO", None, y, nodes
        if nodes < budget:
            rank = sorted(range(len(ordered)), key=lambda p: -lp.x[p])
            answer, edges, more = _search(
                n, [ordered[p] for p in rank], effective, budget - nodes
            )
            nodes += more
    if answer == "YES":
        if flipped:
            complement = set(edges)
            edges = tuple(e for e in candidates if e not in complement)
        edges = tuple(sorted(edges))
    return answer, edges, None, nodes


def _decide(
    target: DegreeSequence,
    candidates: Callable[[], list[Triple]],
    check: Callable[[Hypergraph], CertificateCheck],
    budget: int,
) -> DecisionOutcome:
    """The one front door of the k = 3 deciders: budget, prefilter, search, outcome.

    A target that prefilter_degseq refutes is NO at 0 nodes, before
    candidates() builds the decider's lexicographic candidate triples;
    check is a YES's verifier.
    """
    started = perf_counter()
    check_int(budget, "budget", nonnegative=True)  # before any answer, the prefilter's too
    answer, edges, separator, nodes = (
        ("NO", None, None, 0)
        if prefilter_degseq(target) is not None
        else _run_search(target.n, candidates(), target.values, budget)
    )
    certificate = _own_certificate(
        lambda: Hypergraph(target.n, edges) if answer == "YES" else None, check, "search"
    )
    millis = int((perf_counter() - started) * 1000)
    used = nodes / budget if budget > 0 else 1.0
    return DecisionOutcome(answer, certificate, SearchStats(nodes, millis, used), separator)


def decide_degseq(d: DegreeSequence, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
    """Decide whether d is the degree sequence of a 3-hypergraph on [n]."""
    return _decide(d, lambda: enumerate_triples(d.n), lambda h: verify_certificate(h, d), budget)


def decide_zero(inst: ZeroWeightInstance, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
    """Decide whether some G inside the zero-weight triples has degrees c.

    Same engine as decide_degseq, restricted to the triples x with w.x = 0
    (the S0 part of the sign partition, without building the other two).
    """

    def zero_triples() -> list[Triple]:
        triples = enumerate_triples(inst.n)
        return [x for x, v in zip(triples, triple_sums(inst.w.values, triples)) if v == 0]

    return _decide(inst.c, zero_triples, lambda h: verify_zero_certificate(h, inst), budget)


def decide_partition(
    inst: ThreePartitionInstance, budget: int = DEFAULT_BUDGET
) -> DecisionOutcome:
    """Decide 3-partition as decide_zero on its reduction (1) -> (2).

    w.x = 3(a.x - b) makes the feasible triples and certificates the same;
    when 3 does not divide n, the all-ones target total is not divisible by
    3 either, so the prefilter refuses it as NO at 0 nodes, before any
    triple is enumerated.
    """
    return decide_zero(reduce_partition_to_zero(inst), budget)
