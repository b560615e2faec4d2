"""The degree polytope {Mx = t, 0 <= x <= 1}, by a float phase-1 simplex.

M is the vertex-by-candidate incidence matrix: column e is the indicator
of the triple e, so an integer point of the polytope is a subset of the
candidates with degree vector t. solver._run_search calls solve at most
once per decide: after a search that outlasts its node allowance, or
after a forced NO, to find that NO's separator. It uses the answer in one
of two ways:

- infeasible: the duals y of the phase-1 optimum satisfy
  y.t > sum_e max(0, y(e)), with y(e) = y_i + y_j + y_k (Farkas' lemma
  for the box), and no subset of the candidates has degrees t. separator
  turns y into integers by rational reconstruction; only
  core.verify_separator, an exact integer test, may turn the result into
  a NO. An uncertified float dual never decides anything.
- otherwise: after a search that outlasted its allowance, the final
  point x* (a vertex when feasible, with at most n fractional
  coordinates) ranks the candidates by -x*_e, and the search restarts in
  that order, so its first dive follows an almost integral solution;
  after a forced NO, the NO stands without a separator.

The simplex is the revised bounded one, over an explicit n x n basis
inverse, with duals updated per pivot and the entering column the most
attractive of a pool (the attractive columns of the last full pricing
pass, which runs only when the pool holds none). Every column has three
ones, so a reduced cost is three additions. It starts from the engine's
own first dive: those candidates start at their upper bound, and one
artificial per vertex, basic, carries the residual degree: target less
the dive's degrees, counted by core._degrees. Phase 1 minimizes a
weighted sum of the artificials: weight 1 where the dive left demand,
1/2 where it saturated the vertex, so that pricing first tries the
triples that can move rather than the degenerate ones. Any positive
weights make a zero optimum mean feasible and keep every dual a Farkas
direction, and so does dropping an artificial for good once it leaves
the basis. Each iteration, a bound flip or a basis change, counts as one
pivot; the caller charges pivots to its node budget, and solve stops at
max_pivots or at two pivots per row and column, whichever comes first.

The arithmetic is float and unchecked on purpose: nothing here is trusted.
"""

from __future__ import annotations

from math import isfinite, lcm
from typing import NamedTuple, Sequence, Union

from .core import Triple, _degrees

# reduced costs and ratio-test pivots below this are treated as zero
_EPS = 1e-9
# phase 1 is done once every artificial is at most this
_FEASIBLE = 1e-6
# separator reads each dual as a fraction with at most this denominator
_MAX_DENOMINATOR = 10**4
# solve stops after this many pivots per row and column, whatever the budget
_PIVOTS_PER_VARIABLE = 2


class LPResult(NamedTuple):
    status: str  # "feasible", "infeasible", or "stopped" at max_pivots
    x: list[float]  # the final point, one value per candidate
    duals: list[float]  # one per vertex: the Farkas direction when infeasible
    pivots: int


def solve(
    n: int,
    candidates: Sequence[Triple],
    target: Sequence[int],
    start: Sequence[int],
    max_pivots: int,
) -> LPResult:
    """Phase 1 on {Mx = target, 0 <= x <= 1}, from x = indicator of start.

    start lists candidate positions whose triples together have degrees at
    most target (an include path of the engine). Stops after max_pivots.
    """
    m = len(candidates)
    max_pivots = min(max_pivots, _PIVOTS_PER_VARIABLE * (m + n))
    # sign[p]: +1 nonbasic at 0, -1 nonbasic at 1, 0 basic; a column is
    # attractive when sign[p] * (y_i + y_j + y_k) is positive
    sign = [1.0] * m
    for p in start:
        sign[p] = -1.0
    resid = [t - u for t, u in zip(target, _degrees(n, map(candidates.__getitem__, start)))]
    head = [-1] * n  # the candidate basic in each row; -1 while its artificial is
    xb = [float(r) for r in resid]
    binv = [[1.0 if c == r else 0.0 for c in range(n)] for r in range(n)]
    y = [1.0 if r > 0 else 0.5 for r in resid]  # the artificials' weights
    pool: list[int] = []
    pivots = 0
    while True:
        if all(x <= _FEASIBLE for x, p in zip(xb, head) if p < 0):
            status = "feasible"
            break
        q, best = -1, _EPS
        for p in pool:
            i, j, k = candidates[p]
            score = sign[p] * (y[i] + y[j] + y[k])
            if score > best:
                q, best = p, score
        if q < 0:
            scores = [g * (y[i] + y[j] + y[k]) for (i, j, k), g in zip(candidates, sign)]
            best = max(scores, default=0.0)
            if best <= _EPS:
                status = "infeasible"  # optimal, with an artificial still above 0
                break
            q = scores.index(best)
            pool = [p for p, score in enumerate(scores) if score > _EPS]
        if pivots == max_pivots:
            status = "stopped"
            break
        pivots += 1
        i, j, k = candidates[q]
        alpha = [row[i] + row[j] + row[k] for row in binv]
        up = sign[q] > 0  # x_q rises from 0, else falls from 1
        # ratio test: the first basic variable to reach a bound, else a flip
        theta, leave, width = 1.0, -1, 0.0
        for r in range(n):
            g = alpha[r] if up else -alpha[r]
            if g > _EPS:
                limit = xb[r] / g
            elif g < -_EPS and head[r] >= 0:
                limit = (1.0 - xb[r]) / -g
            else:
                continue
            limit = max(limit, 0.0)
            if limit < theta - _EPS or (limit <= theta + _EPS and abs(g) > width):
                theta, leave, width = limit, r, abs(g)
        step = theta if up else -theta
        for r in range(n):
            if alpha[r]:
                xb[r] -= step * alpha[r]
        if leave < 0:
            sign[q] = -sign[q]
            continue
        out = head[leave]
        if out >= 0:
            # it left at 0 when its value fell, else at 1
            sign[out] = 1.0 if (alpha[leave] > 0) == up else -1.0
        # the duals move by (reduced cost of q) / pivot times the old pivot row
        a = alpha[leave]
        factor = -(y[i] + y[j] + y[k]) / a
        prow = binv[leave]
        y = [u + factor * b for u, b in zip(y, prow)]
        prow = [b / a for b in prow]
        binv[leave] = prow
        for r in range(n):
            ar = alpha[r]
            if ar and r != leave:
                binv[r] = [b - ar * c for b, c in zip(binv[r], prow)]
        head[leave] = q
        sign[q] = 0.0
        xb[leave] = theta if up else 1.0 - theta
    x = [1.0 if g < 0 else 0.0 for g in sign]
    for r, p in enumerate(head):
        if p >= 0:
            x[p] = xb[r]
    return LPResult(status, x, y, pivots)


def separator(duals: Sequence[float]) -> Union[tuple[int, ...], None]:
    """The duals as an integer vector, by rational reconstruction.

    A basic dual solution is rational, so each dual is read as the nearest
    fraction with denominator at most _MAX_DENOMINATOR and the vector is
    scaled by the lcm of the denominators (None if a dual is not finite).
    Only a proposal: the caller must check it with core.verify_separator.
    """
    if not all(map(isfinite, duals)):
        return None
    from fractions import Fraction  # loads decimal; only infeasible LPs need it

    fracs = [Fraction(u).limit_denominator(_MAX_DENOMINATOR) for u in duals]
    scale = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (scale // f.denominator) for f in fracs)
