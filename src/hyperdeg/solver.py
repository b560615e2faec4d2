"""Exact deciders with certificates for the three decision problems.

decide_partition decides through reduction (1) -> (2) (reduction.py), so
two deciders remain, decide_degseq on all triples and decide_zero on the
zero-weight ones; each adds only its filter and its certificate check to
one front door, _decide, which runs prefilter_degseq before any filter (a
zero-weight certificate is a 3-hypergraph with degrees c). Past the
prefilter, one search engine serves both deciders: depth-first
include/exclude branching, include tried first. Each node branches through
the vertex of largest residual demand, the rule Havel-Hakimi uses for
graphs (graph.hh_realize); among equal residuals it takes the smallest
searched target, then the lowest index. At equal residual r_v, the
smallest t_v is the vertex with the fewest edges placed on the current
path (t_v - r_v): the least served of the neediest, whose remaining demand
is the largest share of its target. The search stays exact under any
choice of a vertex of positive residual, since its lowest live candidate
is either included or excluded, so the rule moves node counts (and with
them which searches outlast a budget), never a YES or a NO; a target
whose entries are all equal branches by lowest index, as the plain
largest-residual rule does. The search takes that vertex's
candidates in a static demand order: highest total demand d_i + d_j + d_k
first, lexicographic on ties (one stable sort on the demand, over
candidates that arrive in lexicographic order). Serving the neediest
vertex first meets its demand while it still has candidates left, and on
reduced instances the demand order reaches the forced part of the
certificate before the search can wander (pure lexicographic order needs
billions of nodes there). The search trusts two facts it never checks:
the prefilter has refused every total not divisible by 3, and _includable
has dropped every candidate through a vertex of zero demand before the
order is built, so every candidate the search sees is includable. A
target that asks for more than half the candidates, and for no vertex more
than its candidate degree, is searched as its complement (see
_run_search). At each node, on residual degrees r and the undecided
candidate counts per vertex, a branch is cut when

  (a) some r_v would go negative (never: a candidate is dropped as soon
      as one of its vertices is saturated),
  (b) the residual total is not divisible by 3 (never past the prefilter:
      a branch moves the total by 0 or 3),
  (c) some r_v exceeds a third of the residual total, or
  (d) some r_v exceeds the number of undecided candidates containing v
      that are still includable (a candidate stops being includable once
      any of its vertices is saturated).

Each rule is a cheap necessary condition on any completion, so the search
is exact: YES comes with a certificate, NO means the space was exhausted.

Before the first node, the root bound (_root_separator) looks for a
separator of one simple kind. A realization H of t has E = sum(t) / 3
edges, and for any integer weights s on the vertices,
sum_{e in H} s(e) = s.t, with s(e) = s_i + s_j + s_k. So s.t can never
exceed the sum of the E largest candidate scores s(e); when it does,
y = 3s - theta*1, with theta the E-th largest score, is a separator, by
the identity

  y.t - sum_e max(0, y(e)) = 3 (s.t - top-E score sum)

over the candidates that were scored, so the comparison fires exactly
when y separates them. The bound tries s = t first, whose scores are the
demands the demand order has just ranked (there s.t = sum_v t_v^2).
f(s) = s.t - top-E sum is concave, and t - deg(T), T the E candidates of
largest score, is a supergradient of f. So while s does not fire, a step
s <- 2s + t - deg(T) climbs f, the positions are ranked again (T read as
the first E), and the new s is tried, at most ROOT_STEPS times. Two
exact tests stop the climb where the s at hand cannot fire: s.t <= E*theta
(each of the E largest scores is at least theta), and, for a new s,
s.(t - deg(T)) <= 0 (T's own score sum is at most the top-E sum).
Targets reduced from 3-partition lie on the boundary of the polytope
below, so a NO among them needs a separator: at n <= 12, s = t finds one
for about 57% of those that reach the search, and a step or two for most
of the rest.
Lowering y at the zero-demand vertices, until no dropped candidate
scores above 0, makes it separate the full list too (any separator of
the searched side gets this, the polytope's as well). The answer is NO,
with y as its separator, only once core.verify_separator accepts y on
the full candidate list; otherwise the search runs as if the bound had
not fired. The bound costs one node, like a root that fails (b)-(d), and
only runs on a budget of at least 1. Every t_v and every |t_v - deg_v|
is at most 3E, and E at most the candidate count, so every |s_v| stays
below 3E * 2^(ROOT_STEPS + 1) and y far inside i64.

The root bound also forces. Every realization's E edges score exactly
s.t under any s, and when no s on the path fires, s.t is at most the
top-E sum by some gap >= 0. An E-set that holds a candidate e outside the
top E scores at most top - theta + s(e), and one that leaves out some e
in it at most top - s(e) + theta, so every realization holds each
candidate scoring above theta + gap and none scoring below theta - gap
(reduced-cost fixing; a tight s, gap 0, fixes all but the theta-scoring
ones). The s on the path that fixes the most puts the former, A, in the
answer and leaves the latter out; the rest is the candidates in between.
With nothing fixed, A is empty and the rest is every searched candidate,
so there is one search path: the search runs on the rest against t less
the degrees of A, and a YES of it gains A (see _run_search). Forcing
costs one node, so forced includes are never branched on; on a reduced
3-partition target it settles most of S+ and S- before the first branch.
There is one forcing round, with no second root bound.

Where the root bound neither fires nor fixes and the candidates are every
triple of [n] (every decide_degseq, and decide_zero with w = 0), a
construction runs before the search (_construct): Havel-Hakimi for
triples, which adds the triple of the vertex of largest residual with the
two others of largest residual whose triple is unused, then min-conflicts
repair (Minton, Johnston, Philips & Laird, "Minimizing conflicts",
Artificial Intelligence 58, 1992), which adds or removes a triple at the
vertices whose residual is not 0, taken round robin; nothing in it is
drawn at random. Deciding is NP-complete (the paper), so no such rule is
complete, but a target inside the polytope (below) has many realizations
and the construction finds one on nearly every planted target. It
answers YES only, never NO: a built edge set is a realization by its own
final check, and _decide verifies its certificate like any other. A
construction that fails hands over to the search, which runs as if it had
not, on the budget it left. Each triple added and each repair move costs
a node, and the final check one more, so a construction without repair
costs E + 1 nodes, the depth of a straight dive. Its steps do not depend
on the budget, so a larger budget gives the same YES at the same node
count, and one node less is UNKNOWN. Targets reduced from
3-partition lie on the boundary, where the root bound nearly always
fixes, so the construction seldom runs on them; it never runs on a
decide_zero or decide_partition target whose S0 is not every triple.

The rules cannot see all that the polytope {Mx = t, 0 <= x <= 1}
forces (on reduced instances, S+ in and S- out of every realization,
which the root bound catches only in part), so a search that outlasts
a short allowance (ALLOWANCE nodes plus the depth of a straight dive of
the rest) hands over to polytope.solve, and so does a forced NO, for its
separator; solve runs at most once per decide (see _run_search). Its
infeasibility yields a separator y (its duals rationally reconstructed
and scaled by the lcm of their denominators), a NO only once
core.verify_separator has checked it exactly; after a search past its
allowance, its final point x* otherwise reorders the same rest for a
restart on the remaining budget, against the same goal, so forcing is
never thrown away. Pivots count as nodes.

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
from operator import mul, sub
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
    _degrees,
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

# nodes the first search spends before the polytope layer, on top of the
# depth of a straight dive (so a dive that meets no failure is never cut)
ALLOWANCE = 30
# supergradient steps the root bound may take from s = t before it gives up
ROOT_STEPS = 3
# repair moves a construction may make before it hands over to the search
REPAIR_MOVES = 60


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

    Precondition, unchecked: 3 divides sum(target), and every candidate's
    vertices have positive demand (see _run_search).

    Iterative over an explicit stack, so the depth is bounded by the
    candidate count rather than by the interpreter's recursion limit. Bit p
    of the int `live` marks candidate p as undecided and still includable
    and vmask[v] marks the candidates through v, so avail[v] is
    (live & vmask[v]).bit_count() and saturating u kills every candidate
    through it with one AND. Each node branches on the lowest live candidate
    through v, the vertex of largest residual, then smallest target, then
    lowest index, so candidates' order in the list only ranks those through
    one vertex. The rule is one int per vertex, key[v] = r_v * base +
    (base - 1 - t_v) with base = max(t) + 1: key order is (r_v, -t_v)
    order, key[v] // base is r_v, and key[v] < base means v is saturated.
    Every branch moves key by base where it moves r. An include recomputes
    v from the max(key) that rule (c) needs anyway, key.index taking the
    lowest index of a tie; an exclude leaves r and so v as they were. A
    frame is (pos, live without pos, included?, v), so backtracking
    restores two ints and rescans nothing.

    A child differs from its parent, which passed every rule, only where
    the branch touched it, so only that is rechecked: (c) after an include
    (the total fell), (d) at every unsaturated vertex after an include that
    killed candidates, and (d) at the branched triple after an exclude.

    A list passed as dive receives the positions the first dive included,
    the include path up to the first failed node (polytope's warm start).
    """
    total = sum(target)
    base = max(target, default=0) + 1
    # the residual r_v is key[v] // base, and r starts at t
    key = [t * base + base - 1 - t for t in target]
    vmask = [0] * n
    for p, (i, j, k) in enumerate(candidates):
        bit = 1 << p
        vmask[i] |= bit
        vmask[j] |= bit
        vmask[k] |= bit
    live = (1 << len(candidates)) - 1
    ok = all(3 * rv <= total and rv <= (live & mv).bit_count() for rv, mv in zip(target, vmask))
    v = key.index(max(key)) if key else 0
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
            key[i] -= base
            key[j] -= base
            key[k] -= base
            total -= 3
            live = rest
            if key[i] < base:
                live &= ~vmask[i]
            if key[j] < base:
                live &= ~vmask[j]
            if key[k] < base:
                live &= ~vmask[k]
            stack.append((pos, rest, True, v))
            top = max(key)
            ok = 3 * (top // base) <= total
            if ok and live != rest:
                for kv, mv in zip(key, vmask):
                    if kv >= base and kv // base > (live & mv).bit_count():
                        ok = False
                        break
            v = key.index(top)
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
        key[i] += base
        key[j] += base
        key[k] += base
        total += 3
        live = rest
        stack.append((pos, rest, False, v))
        # an exclude child: only (d) at the branched triple can have changed
        ok = (
            key[i] // base <= (live & vmask[i]).bit_count()
            and key[j] // base <= (live & vmask[j]).bit_count()
            and key[k] // base <= (live & vmask[k]).bit_count()
        )


def _includable(candidates: Sequence[Triple], target: Sequence[int]) -> Sequence[Triple]:
    """The candidates through no vertex of zero demand, as _search requires."""
    if 0 not in target:
        return candidates
    return [x for x in candidates if target[x[0]] and target[x[1]] and target[x[2]]]


def _ordered_candidates(
    candidates: Sequence[Triple], target: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The demand ranking: highest total demand first, then lexicographic.

    Returns each candidate's demand (input order) and the input positions
    by descending demand (order[r] is the position of the r-th). _run_search
    lists the ordered triples once; the root bound reads the top E demands,
    and each ascent step the triples of T, through positions alone.

    Precondition: candidates are in lexicographic order (enumerate_triples
    or a filtered sublist of it). The sort is stable, reverse=True
    included, so ties keep that order. The demand sum is left unchecked:
    each demand is at most the target total, which the prefilter checked
    against i64 (a complement target is searched only when its total is
    the smaller); the root bound's scores stay far inside i64 too.

    _search branches through the vertex of largest residual, so this order
    only decides which of that vertex's candidates it tries first.
    """
    demand = [target[i] + target[j] + target[k] for i, j, k in candidates]
    return demand, sorted(range(len(candidates)), key=demand.__getitem__, reverse=True)


def _root_separator(
    target: Sequence[int],
    candidates: Sequence[Triple],
    ranked: tuple[list[int], list[int]],
    size: int,
    fixing: Union[list, None] = None,
) -> Union[tuple[int, ...], None]:
    """The root bound: y = 3s - theta*1 for the first s on its path that refutes t.

    candidates are the searched candidates, ranked is _ordered_candidates
    on them and t, and size is sum(t) / 3. From s = t, it fires when s.t
    exceeds the sum of the size largest scores s(e), theta the size-th;
    otherwise s <- 2s + t - deg(T), T the candidates at the first size
    positions, and the positions are ranked again by the new scores, at
    most ROOT_STEPS times (see the module docstring). None when no s on
    the path fires, when a stop shows that s cannot, or when size exceeds
    the candidate count.

    A list passed as fixing receives (count, scores, theta, gap) of the s
    on the path that fixes the most candidates, its scores one per
    candidate, gap = top-size sum - s.t >= 0: every realization scores
    s.t, so it holds each candidate scoring above theta + gap and none
    scoring below theta - gap, count of them in all (_run_search's
    forcing). The climb goes on past it, since a later s may still fire.
    """
    scores, order = ranked
    if not 0 < size <= len(order):
        return None
    s = target
    for step in range(ROOT_STEPS + 1):
        theta = scores[order[size - 1]]
        value = sum(map(mul, s, target))
        # each of the size largest scores is at least theta, so most
        # realizable targets are settled without the sum
        if value <= size * theta:
            return None
        top = sum(map(scores.__getitem__, order[:size]))
        if value > top:
            return tuple(3 * v - theta for v in s)
        if fixing is not None:
            gap = top - value
            count = sum(x > theta + gap or x < theta - gap for x in scores)
            if count > (fixing[0] if fixing else 0):
                fixing[:] = (count, scores, theta, gap)
        if step == ROOT_STEPS:
            break
        # t - deg(T), a supergradient of s.t - top-E sum
        chosen = map(candidates.__getitem__, order[:size])
        gap = list(map(sub, target, _degrees(len(target), chosen)))
        s = [2 * v + g for v, g in zip(s, gap)]
        # T's s-sum is at most the top-E sum, so this s cannot fire
        if sum(map(mul, s, gap)) <= 0:
            return None
        scores, order = _ordered_candidates(candidates, s)
    return None


def _construct(
    target: Sequence[int], size: int, budget: int
) -> tuple[Union[tuple[Triple, ...], None], int]:
    """Havel-Hakimi for triples, then min-conflicts repair; returns (edges or None, nodes).

    The triples are every triple of the vertices of positive demand. The
    construction adds size triples, each that of the vertex of largest
    residual with the two others of largest residual whose triple is
    unused, overshoot allowed. The repair then takes the vertices v with
    r_v != 0 round robin, move k the (k mod their count)-th by index
    (always the first of them cycles on some targets): for r_v > 0 it adds
    v's unused triple of largest partner residuals, for r_v < 0 it removes
    v's triple of least partner residual sum. Among equal residuals the
    larger target comes first, then the order the previous sort left (the
    residual alone builds fewer boundary targets). Nothing is drawn at
    random, so the outcome repeats. Each triple added and each move costs a
    node, and the final check one more; the moves stop after REPAIR_MOVES.
    None, with the nodes spent, when r is not 0 by then, or with the whole
    budget when it runs out first.

    Precondition: size = sum(target) / 3, and the vertices of positive
    demand have at least size triples (so at least three of them when
    size > 0).
    """
    verts = [v for v, t in enumerate(target) if t]
    # ascending key is descending residual r_v = -(key[v] >> shift), then
    # descending target, then the order the stable sort leaves
    shift = max(target, default=0).bit_length() + 1
    one = 1 << shift
    key = [(one >> 1) - t - t * one for t in target]
    order = sorted(verts, key=key.__getitem__)
    bit = [1 << v for v in range(len(target))]
    edges: dict[int, Triple] = {}  # a triple's vertex bitmask -> the triple

    def pick(v: int, others: list[int]) -> bool:
        """Add v's triple with the first pair a, c of others whose triple is unused.

        Pairs go by c's position, then a's (colex), so with others in key
        order the partners of largest residual come first. False when
        every triple through v is used.
        """
        bv = bit[v]
        for q in range(1, len(others)):
            c = others[q]
            bc = bv | bit[c]
            for a in others[:q]:
                m = bc | bit[a]
                if m not in edges:
                    edges[m] = (v, a, c)
                    key[v] += one
                    key[a] += one
                    key[c] += one
                    return True
        return False

    nodes = 0
    for _ in range(size):
        nodes += 1
        if nodes > budget:
            return None, budget
        order.sort(key=key.__getitem__)
        if not pick(order[0], order[1:]):
            break
    bad = [v for v in verts if key[v] >> shift]
    for move in range(REPAIR_MOVES):
        if not bad:
            break
        nodes += 1
        if nodes > budget:
            return None, budget
        v = bad[move % len(bad)]
        if key[v] < 0:
            order.sort(key=key.__getitem__)
            pick(v, [u for u in order if u != v])
        else:
            through = [m for m in edges if m & bit[v]]
            # the least residual sum, by -r_u = key[u] >> shift
            m = max(through, key=lambda m: sum(key[u] >> shift for u in edges[m]))
            for u in edges.pop(m):
                key[u] -= one
        bad = [v for v in verts if key[v] >> shift]
    nodes += 1
    if nodes > budget:
        return None, budget
    if bad:
        return None, nodes
    return tuple(tuple(sorted(e)) for e in edges.values()), nodes


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
    side are then dropped (_includable, _search's precondition); the full
    list stays for flipping a YES back and for checking a separator. A
    separator that the root bound's short ascent proposes (_root_separator,
    from s = t) and the check accepts answers NO at one node.

    Where no s fixes, the candidates are every triple of [n] and the
    searched side holds at least size of them, the construction
    (_construct) runs on effective; a built edge set is a YES at the nodes
    it spent, flipped back like the search's, and a failed one hands its
    remaining budget to the search below, unchanged.

    The search runs once on a rest against a goal, in the demand order of
    the searched side (ranked again by the goal, planted reduced rests ran
    into the allowance). If some s on the ascent fixes candidates (see the
    module docstring), the root forces on the one that fixes the most, at
    the cost of one node: A, the searched candidates scoring above
    theta + gap, joins the answer, those scoring below theta - gap are
    left out, the rest is the others, and the goal is r = effective -
    deg(A). Otherwise A is empty, the rest is every searched candidate and
    the goal is effective. The search gets ALLOWANCE nodes plus the depth
    of a straight dive of the rest, size - |A|, and a YES of it gains A.
    Some r_v < 0 is a NO at the forcing's node, with no search, since
    every realization holds A, and an exhausted forced rest is a NO too;
    a forced NO then asks polytope.solve (below) for a separator, the one
    a search that outlasts its allowance would get, and stands without
    one if the LP is feasible or the budget runs out first.

    If the search outlasts its allowance with budget left, polytope.solve
    runs once on the whole searched side, warm-started from A and the
    search's first dive (from x = 0 after an overshoot, since its start
    must stay within the target), its pivots charged as nodes: an
    infeasible LP whose separator passes the exact check answers NO;
    otherwise the same search runs again on the remaining budget, on the
    same rest against the same goal, with the rest ranked by -x*_e
    (stable on the demand order), and a YES of it gains A too. A and the
    left-out candidates hold in every realization, so an exhausted
    restart is a NO like an exhausted first search, without a separator
    since the LP gave none. With nothing forced the restart
    runs on every searched candidate against effective. Nothing
    here depends on the budget except where it stops, so a larger budget
    gives the same YES/NO at the same node count, but for a forced NO
    whose LP the budget cut short: it gains its separator and the LP's
    pivots.
    """
    target = tuple(target)
    total = sum(target)
    effective = target
    flipped = False
    if 2 * (total // 3) > len(candidates):
        cand_deg = _degrees(n, candidates)
        flipped = all(t <= cd for t, cd in zip(target, cand_deg))
        if flipped:
            effective = tuple(cd - t for cd, t in zip(cand_deg, target))
    searched = _includable(candidates, effective)
    ranked = _ordered_candidates(searched, effective)
    size = sum(effective) // 3  # the edge count of every realization

    def certified(y: Union[tuple[int, ...], None]) -> Union[tuple[int, ...], None]:
        """A separator of the searched side as a checked one of target, or None.

        y is proposed on the searched candidates. A vertex of zero demand
        has none there, so its entry is lowered (y.effective stays the
        same) until no candidate through it scores above 0.
        """
        if y is None:
            return None
        if 0 in effective:
            low = -2 * max(0, *y)
            y = tuple(v if t else min(v, low) for v, t in zip(y, effective))
        if flipped:
            y = tuple(-v for v in y)  # y separates cand_deg - t exactly when -y separates t
        return y if verify_separator(y, target, candidates) else None

    def realized(edges: Sequence[Triple]) -> tuple[Triple, ...]:
        """A YES of the searched side as the sorted edges of one of target."""
        if flipped:
            complement = set(edges)
            edges = [e for e in candidates if e not in complement]
        return tuple(sorted(edges))

    fixing: list = []
    if budget:
        y = certified(_root_separator(effective, searched, ranked, size, fixing))
        if y is not None:
            return "NO", None, y, 1
    nodes = 0
    if not fixing and len(candidates) == comb(n, 3) and size <= len(searched):
        built, nodes = _construct(effective, size, budget)
        if built is not None:
            return "YES", realized(built), None, nodes
    ordered = [searched[p] for p in ranked[1]]
    # nothing forced: A is empty and the rest is every searched position
    forced: list[int] = []
    rest: Sequence[int] = range(len(ordered))
    goal = effective
    if fixing:
        _, scores, theta, gap = fixing
        score = [scores[p] for p in ranked[1]]
        forced = [q for q, x in enumerate(score) if x > theta + gap]
        goal = tuple(map(sub, effective, _degrees(n, map(ordered.__getitem__, forced))))
        rest = [
            q for q, (x, e) in enumerate(zip(score, ordered))
            if abs(x - theta) <= gap and goal[e[0]] and goal[e[1]] and goal[e[2]]
        ]
        nodes = 1
    answer, edges, lp = "NO", None, None
    dive: Union[list[int], None] = []
    order = rest
    allowance = min(budget - nodes, ALLOWANCE + size - len(forced))
    # forced triples that alone overshoot some t_v leave nothing to search,
    # and the LP starts from x = 0, since A would break its precondition
    fits = min(goal, default=0) >= 0
    while True:
        if fits:
            answer, edges, more = _search(n, [ordered[q] for q in order], goal, allowance, dive)
            nodes += more
        # the first search's UNKNOWN asks the polytope once, and so does a
        # forced NO, for the separator an exhausted rest lacks
        if lp is not None or answer == "YES" or answer == "NO" and not fixing or nodes >= budget:
            break
        from . import polytope  # only searches past the allowance, and forced NOs, load it

        start = forced + [rest[q] for q in dive] if fits else []
        lp = polytope.solve(n, ordered, effective, start, budget - nodes)
        nodes += lp.pivots
        y = certified(polytope.separator(lp.duals) if lp.status == "infeasible" else None)
        if y is not None:
            return "NO", None, y, nodes
        if answer == "NO":
            break
        # the rest again, ranked by -x*_e, on what the budget has left
        order = sorted(rest, key=lambda q: -lp.x[q])
        allowance, dive = budget - nodes, None
    if answer == "YES":
        edges = realized(edges + tuple(map(ordered.__getitem__, forced)))
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
