import itertools
from contextlib import contextmanager
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdeg import (
    DEFAULT_BUDGET,
    DegreeSequence,
    Hypergraph,
    InstanceTooLargeError,
    Int64OverflowError,
    SplitMix64,
    ThreePartitionInstance,
    WeightVector,
    ZeroWeightInstance,
    bruteforce_degseq,
    bruteforce_partition,
    bruteforce_zero,
    decide_degseq,
    decide_partition,
    decide_zero,
    degree_sum,
    enumerate_triples,
    gen_partition,
    gen_planted_degseq,
    prefilter_degseq,
    project_certificate,
    reduce_partition_to_degseq,
    sign_partition,
    verify_certificate,
    verify_partition_certificate,
    verify_separator,
    verify_zero_certificate,
)
from hyperdeg import polytope, solver
from hyperdeg.core import _degrees
from hyperdeg.oracle import degree_vectors, exists_subset_with_degrees
from hyperdeg.solver import _ordered_candidates, _search


class TestPrefilter:
    def test_sum_not_divisible(self):
        reason = prefilter_degseq(DegreeSequence((3, 1, 1, 1, 1, 1)))
        assert reason is not None and "divisible" in reason

    def test_per_vertex_cap(self):
        reason = prefilter_degseq(DegreeSequence((2, 2, 2)))
        assert reason is not None and "C(n-1,2)" in reason

    def test_pass(self):
        assert prefilter_degseq(DegreeSequence((2, 2, 2, 1, 1, 1))) is None

    def test_entry_exceeds_edge_count(self):
        # sum 6 -> 2 edges, but one vertex wants 3 incidences
        reason = prefilter_degseq(DegreeSequence((3, 1, 1, 1, 0, 0)))
        assert reason is not None and "edge count" in reason

    def test_empty(self):
        assert prefilter_degseq(DegreeSequence(())) is None


@contextmanager
def _search_inputs():
    """Record (candidates, target) of every _search call."""
    seen = []
    real = solver._search

    def spy(n, candidates, target, *args):
        seen.append((list(candidates), tuple(target)))
        return real(n, candidates, target, *args)

    solver._search = spy
    try:
        yield seen
    finally:
        solver._search = real


@st.composite
def _decider_cases(draw):
    """(decide, instance) for one of the three k = 3 deciders.

    A degseq or zero-weight target is the degree vector of a random set of
    the decider's candidates that avoids some vertices, so it has zero
    entries, or its complement within all the candidates, which the search
    flips back. Either may then move one unit between two vertices of equal
    weight, and gain one unit at a vertex of weight 0 (both keep w.c = 0;
    the latter leaves a total not divisible by 3). A 3-partition target is
    all ones, on n not always divisible by 3.
    """
    kind = draw(st.sampled_from(("degseq", "zero", "partition")))
    if kind == "partition":
        n, seed = draw(st.sampled_from((3, 4, 5, 6, 9))), draw(st.integers(0, 999))
        if n % 3:
            return decide_partition, ThreePartitionInstance((1,) * n, 3)
        return decide_partition, gen_partition(n, 8, seed=seed, planted=draw(st.booleans()))
    n = draw(st.integers(3, 8))
    w = (0,) * n
    if kind == "zero":
        w = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    triples = sign_partition(WeightVector(w)).s_zero
    dead = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    picked = [x for x, k in zip(triples, keep) if k and not any(dead[v] for v in x)]
    c = list(degree_sum(Hypergraph(n, picked)))
    if draw(st.booleans()):
        c = [cd - t for cd, t in zip(degree_sum(Hypergraph(n, triples)), c)]
    moves = [(u, v) for u in range(n) for v in range(n) if u != v and w[u] == w[v] and c[u]]
    if moves and draw(st.booleans()):
        u, v = draw(st.sampled_from(moves))
        c[u] -= 1
        c[v] += 1
    zero_weight = [v for v in range(n) if not w[v]]
    if zero_weight and draw(st.booleans()):
        c[draw(st.sampled_from(zero_weight))] += 1
    if kind == "degseq":
        return decide_degseq, DegreeSequence(c)
    return decide_zero, ZeroWeightInstance(WeightVector(w), DegreeSequence(c))


class TestDecideDegseq:
    def test_single_triple(self):
        out = decide_degseq(DegreeSequence((1, 1, 1)))
        assert out.answer == "YES"
        assert out.certificate.edges == ((0, 1, 2),)

    def test_no_on_tiny_ground_set(self):
        out = decide_degseq(DegreeSequence((2, 2, 2)))
        assert out.answer == "NO"
        assert out.certificate is None

    def test_witnessed_yes(self):
        d = DegreeSequence((2, 2, 2, 1, 1, 1))
        out = decide_degseq(d)
        assert out.answer == "YES"
        assert len(out.certificate.edges) == 3
        assert verify_certificate(out.certificate, d)

    def test_unknown_on_tiny_budget(self):
        d = degree_sum(gen_planted_degseq(7, 17, seed=3)[1])
        out = decide_degseq(d, budget=2)
        assert out.answer == "UNKNOWN"
        assert out.certificate is None
        assert out.stats.budget_used == 1.0

    def test_budget_monotone(self):
        d = degree_sum(gen_planted_degseq(6, 9, seed=11)[1])
        reference = decide_degseq(d, budget=10**7)
        assert reference.answer == "YES"
        settled = reference.stats.nodes
        for budget in (settled, settled + 1, 10 * settled):
            again = decide_degseq(d, budget=budget)
            assert again.answer == "YES"
            assert again.certificate == reference.certificate
            assert again.stats.nodes == settled

    def test_budget_monotone_no_answer(self):
        # passes every prefilter condition but is unrealizable: vertex 3 is
        # isolated, so only one triple is available for degrees (3, 3, 3)
        d = DegreeSequence((3, 3, 3, 0))
        reference = decide_degseq(d, budget=10**7)
        assert reference.answer == "NO"
        assert prefilter_degseq(d) is None
        settled = reference.stats.nodes
        for budget in (settled, settled + 5, 10 * settled):
            assert decide_degseq(d, budget=budget).answer == "NO"
        assert decide_degseq(d, budget=settled - 1).answer == "UNKNOWN"

    def test_deterministic(self):
        d = DegreeSequence((4, 3, 3, 2, 2, 1, 3))
        first = decide_degseq(d)
        second = decide_degseq(d)
        assert first.answer == second.answer
        assert first.certificate == second.certificate
        assert first.stats.nodes == second.stats.nodes

    @given(_decider_cases())
    @settings(max_examples=200)
    # every candidate runs through a vertex of zero demand
    @example((decide_degseq, DegreeSequence((0,) * 60)))
    # asks for all four triples on [4]: the complement searched is all zero
    @example((decide_degseq, DegreeSequence((3, 3, 3, 3))))
    def test_zero_demand_candidates_never_reach_the_search(self, case):
        # _search checks neither half of its precondition, so every decider
        # must hand it a total divisible by 3 and no candidate through a
        # vertex of zero demand, on the searched side of a flip too
        decide, inst = case
        with _search_inputs() as seen:
            decide(inst, budget=2000)
        for candidates, target in seen:
            assert sum(target) % 3 == 0
            assert all(target[i] and target[j] and target[k] for i, j, k in candidates)


class TestDecideZero:
    def test_everything_in_zero_part(self):
        inst = ZeroWeightInstance(WeightVector((0, 0, 0)), DegreeSequence((1, 1, 1)))
        out = decide_zero(inst)
        assert out.answer == "YES"
        assert out.certificate.edges == ((0, 1, 2),)

    def test_empty_zero_part(self):
        inst = ZeroWeightInstance(
            WeightVector((-1, -1, -1, 3)), DegreeSequence((3, 0, 0, 1))
        )
        assert decide_zero(inst).answer == "NO"

    @given(st.integers(0, 10**6), st.integers(4, 7))
    def test_planted_zero_instances(self, seed, n):
        rng = SplitMix64(seed)
        w = WeightVector(tuple(rng.below(7) - 3 for _ in range(n)))
        zero_edges = sign_partition(w).s_zero
        picked = tuple(e for e in zero_edges if rng.below(2))
        c = degree_sum(Hypergraph(n, picked))
        inst = ZeroWeightInstance(w, c)
        out = decide_zero(inst)
        assert out.answer == "YES"
        assert verify_zero_certificate(out.certificate.edges, inst)

    def test_demand_total_outside_i64_is_refused_by_the_prefilter(self):
        # c's total 3 * 2**62 leaves i64: the prefilter in front of every
        # k = 3 decider refuses it as it refuses the same degree sequence
        c = DegreeSequence((2**62,) * 3)
        inst = ZeroWeightInstance(WeightVector((1, -1, 0)), c)
        with pytest.raises(Int64OverflowError, match="degree total"):
            decide_zero(inst, budget=2000)
        with pytest.raises(Int64OverflowError, match="degree total"):
            decide_degseq(c, budget=2000)


class TestDecidePartition:
    def test_single_group(self):
        out = decide_partition(ThreePartitionInstance((1, 1, 1), 3))
        assert out.answer == "YES"
        assert out.certificate.edges == ((0, 1, 2),)

    def test_two_groups(self):
        inst = ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        out = decide_partition(inst)
        assert out.answer == "YES"
        assert out.certificate.edges == ((0, 2, 5), (1, 3, 4))
        assert verify_partition_certificate(out.certificate.edges, inst)

    def test_no_triple_reaches_target(self):
        # triple values here are only 3 or 9, never 6
        inst = ThreePartitionInstance((1, 1, 1, 1, 1, 7), 6)
        assert decide_partition(inst).answer == "NO"

    def test_n_not_divisible_by_three(self):
        inst = ThreePartitionInstance((1, 1, 1, 1), 3)
        out = decide_partition(inst)
        assert out.answer == "NO"
        assert out.stats.nodes == 0

    @pytest.mark.parametrize(
        "decide, inst",
        [
            (decide_partition, ThreePartitionInstance((1, 1, 1, 1), 3)),
            (decide_zero, ZeroWeightInstance(WeightVector((0,) * 4), DegreeSequence((1,) * 4))),
        ],
        ids=["partition", "zero"],
    )
    @pytest.mark.parametrize("budget", [0, 1, 10**6])
    def test_indivisible_total_refused_before_ordering(self, monkeypatch, decide, inst, budget):
        # a target total of 4: NO at 0 nodes at every budget, and no
        # candidate is ordered for a search that cannot start
        seen = []
        real = solver._ordered_candidates

        def spy(candidates, target):
            seen.append(target)
            return real(candidates, target)

        monkeypatch.setattr(solver, "_ordered_candidates", spy)
        out = decide(inst, budget=budget)
        assert (out.answer, out.stats.nodes, out.separator) == ("NO", 0, None)
        assert out.certificate is None and not seen


# c_0 = 2 exceeds the implied edge count E = 1: a prefilter NO for problem (2)
ZERO_PREFILTER_NO = ZeroWeightInstance(WeightVector((0,) * 4), DegreeSequence((2, 1, 0, 0)))


class TestPrefilterFrontDoor:
    @pytest.mark.parametrize(
        "decide, inst",
        [
            (decide_partition, ThreePartitionInstance((1,) * 100, 3)),
            (decide_zero, ZERO_PREFILTER_NO),
            (decide_degseq, DegreeSequence((2, 2, 2))),
        ],
        ids=["partition", "zero", "degseq"],
    )
    @pytest.mark.parametrize("budget", [0, 1, 10**6])
    def test_refuted_target_never_reaches_the_filter(self, monkeypatch, decide, inst, budget):
        # every zero-weight certificate is a 3-hypergraph with degrees c,
        # so the prefilter refutes for all three problems, before any
        # candidate triple is enumerated or ordered
        calls = []

        def spy(name):
            real = getattr(solver, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("enumerate_triples", "_ordered_candidates"):
            monkeypatch.setattr(solver, name, spy(name))
        out = decide(inst, budget=budget)
        assert (out.answer, out.stats.nodes, out.separator) == ("NO", 0, None)
        assert out.certificate is None and not calls


class TestBudgetCheck:
    @pytest.mark.parametrize(
        "decide, inst",
        [
            (decide_degseq, DegreeSequence((2, 2, 2))),
            (decide_degseq, DegreeSequence((1, 1, 1))),
            (decide_zero, ZeroWeightInstance(WeightVector((0, 0, 0)), DegreeSequence((1, 1, 1)))),
            (decide_zero, ZERO_PREFILTER_NO),
            (decide_partition, ThreePartitionInstance((1, 1, 1, 1), 3)),
            (decide_partition, ThreePartitionInstance((1, 1, 1), 3)),
        ],
        ids=[
            "prefilter-no", "degseq", "zero", "zero-prefilter-no",
            "partition-n-not-divisible-by-3", "partition",
        ],
    )
    @pytest.mark.parametrize("budget", [-1, 2.5, "10"])
    def test_rejected_before_any_answer(self, decide, inst, budget):
        with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
            decide(inst, budget=budget)


@st.composite
def _subset_targets(draw):
    """(n, candidates, target): at most 12 distinct edges of arity 2 or 3 on
    [n], n <= 6, and the degrees of a drawn subset of them, kept as they
    are, perturbed by 1 at one vertex, or with one entry 10**12."""
    arity = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(arity, 6))
    edges = list(itertools.combinations(range(n), arity))
    candidates = draw(st.lists(st.sampled_from(edges), unique=True, max_size=12))
    target = [0] * n
    for edge in candidates:
        if draw(st.booleans()):
            for v in edge:
                target[v] += 1
    kind = draw(st.sampled_from(("planted", "perturbed", "huge")))
    v = draw(st.integers(0, n - 1))
    if kind == "perturbed":
        target[v] += draw(st.sampled_from((-1, 1)))
    elif kind == "huge":
        target[v] = 10**12
    return n, candidates, tuple(target)


class TestBruteforceOracles:
    @given(_subset_targets())
    @example((3, [], (0, 0, 0)))
    @example((3, [], (0, 1, 0)))
    @settings(max_examples=150)
    def test_subset_search_matches_plain_enumeration(self, case):
        n, candidates, target = case
        plain = any(
            tuple(sum(b for b, e in zip(bits, candidates) if v in e) for v in range(n)) == target
            for bits in product((0, 1), repeat=len(candidates))
        )
        assert exists_subset_with_degrees(n, candidates, target) == plain

    def test_degseq_examples(self):
        assert bruteforce_degseq(DegreeSequence((1, 1, 1)))
        assert not bruteforce_degseq(DegreeSequence((2, 2, 2)))
        assert bruteforce_degseq(DegreeSequence((3, 3, 3, 3)))

    def test_degseq_guard(self):
        with pytest.raises(InstanceTooLargeError):
            bruteforce_degseq(DegreeSequence((0,) * 7))

    def test_zero_examples(self):
        assert bruteforce_zero(
            ZeroWeightInstance(WeightVector((0, 0, 0)), DegreeSequence((1, 1, 1)))
        )
        assert not bruteforce_zero(
            ZeroWeightInstance(WeightVector((-1, -1, -1, 3)), DegreeSequence((3, 0, 0, 1)))
        )

    def test_zero_planted(self):
        w = WeightVector((1, -1, 0, 0, 0))
        zero_edges = sign_partition(w).s_zero
        g = Hypergraph(5, (zero_edges[0], zero_edges[2]))
        inst = ZeroWeightInstance(w, degree_sum(g))
        assert bruteforce_zero(inst)

    def test_zero_guard(self):
        inst = ZeroWeightInstance(WeightVector((0,) * 7), DegreeSequence((1,) * 7))
        with pytest.raises(InstanceTooLargeError):
            bruteforce_zero(inst)

    def test_partition_examples(self):
        assert bruteforce_partition(ThreePartitionInstance((1, 1, 1), 3))
        assert bruteforce_partition(ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11))
        assert not bruteforce_partition(ThreePartitionInstance((1, 1, 1, 1, 1, 7), 6))
        assert bruteforce_partition(ThreePartitionInstance((0,) * 6, 0))

    def test_partition_odd_n(self):
        assert not bruteforce_partition(ThreePartitionInstance((1, 1, 1, 1), 3))

    def test_partition_guard(self):
        with pytest.raises(InstanceTooLargeError):
            bruteforce_partition(ThreePartitionInstance((0,) * 15, 0))


class TestOracleAgreement:
    @pytest.mark.parametrize("n", (4, 5))
    def test_exhaustive_grid(self, n):
        for vals in product(range(3), repeat=n):
            d = DegreeSequence(vals)
            out = decide_degseq(d)
            assert out.answer != "UNKNOWN"
            assert (out.answer == "YES") == bruteforce_degseq(d), vals

    def test_prefilter_never_rejects_yes(self):
        for vals in product(range(4), repeat=5):
            d = DegreeSequence(vals)
            if bruteforce_degseq(d):
                assert prefilter_degseq(d) is None, vals


@st.composite
def _lexicographic_candidates(draw):
    """(candidates, target): a lexicographic sublist of the triples on
    [n], 3 <= n <= 9, and a target of small entries, so ties and zeros are
    common."""
    n = draw(st.integers(3, 9))
    triples = enumerate_triples(n)
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    target = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [x for x, k in zip(triples, keep) if k], tuple(target)


class TestDemandOrder:
    @given(_lexicographic_candidates())
    @settings(max_examples=300)
    def test_matches_the_keyed_reference(self, case):
        candidates, t = case
        reference = sorted(candidates, key=lambda x: (-(t[x[0]] + t[x[1]] + t[x[2]]), x))
        demand, order = _ordered_candidates(candidates, t)
        assert [candidates[p] for p in order] == reference
        assert demand == [t[i] + t[j] + t[k] for i, j, k in candidates]

    @pytest.mark.parametrize(
        "decide, inst",
        [
            (decide_degseq, DegreeSequence((2, 2, 2, 1, 1, 1))),
            (decide_zero, ZeroWeightInstance(WeightVector((1, -1, 0, 0, 0)), DegreeSequence((1, 1, 2, 1, 1)))),
            # four triples sum to b and the target asks for two, so the
            # search is not flipped into an all-zero target whose
            # candidates are all dropped
            (decide_partition, ThreePartitionInstance((1, 2, 3, 3, 4, 5), 9)),
        ],
        ids=["degseq", "zero", "partition"],
    )
    def test_deciders_pass_lexicographic_candidates(self, monkeypatch, decide, inst):
        # the ties of _ordered_candidates keep input order, which is the
        # documented lexicographic tie-break only on sorted input
        seen = []
        real = solver._ordered_candidates

        def spy(candidates, target):
            seen.append(list(candidates))
            return real(candidates, target)

        monkeypatch.setattr(solver, "_ordered_candidates", spy)
        decide(inst)
        assert seen and all(c == sorted(c) and len(c) > 1 for c in seen)


@contextmanager
def _root_spy(record):
    """Record, per call of the root bound, record(y, *args) once it returns y."""
    seen = []
    real = solver._root_separator

    def spy(*args):
        y = real(*args)
        seen.append(record(y, *args))
        return y

    solver._root_separator = spy
    try:
        yield seen
    finally:
        solver._root_separator = real


def _root_firings():
    """Record, per call of the root bound, whether it proposed a separator."""
    return _root_spy(lambda y, *args: y is not None)


def _root_forcings():
    """Record, per call of the root bound, whether its ascent fixed candidates without firing."""
    return _root_spy(lambda y, *args: y is None and bool(args[4]))


class TestRootBound:
    def test_fires_only_on_no_exhaustive(self):
        # every target on n <= 6 up to the per-vertex cap; each firing
        # answers at the root with a separator that the check accepts
        answered = 0
        with _root_firings() as fired:
            for n in range(7):
                realizable = _realizable_degrees(n)
                cap = comb(n - 1, 2) if n else 0
                triples = enumerate_triples(n)
                for vals in itertools.combinations_with_replacement(range(cap, -1, -1), n):
                    fired.clear()
                    out = decide_degseq(DegreeSequence(vals))
                    if not any(fired):
                        continue
                    assert vals not in realizable, vals
                    assert (out.answer, out.stats.nodes) == ("NO", 1), vals
                    assert verify_separator(out.separator, vals, triples), vals
                    answered += 1
        assert answered > 1000

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_never_fires_on_planted_yes(self, seed):
        rng = SplitMix64(seed)
        n = 3 + rng.below(9)
        inst, _ = gen_planted_degseq(n, rng.below(comb(n, 3) + 1), seed=seed)
        with _root_firings() as fired:
            assert decide_degseq(inst.d, budget=2000).answer != "NO"
        assert fired and not any(fired)

    @given(st.integers(0, 10**6), st.integers(4, 9))
    @settings(max_examples=60)
    def test_never_fires_on_planted_zero(self, seed, n):
        rng = SplitMix64(seed)
        w = WeightVector(tuple(rng.below(7) - 3 for _ in range(n)))
        picked = tuple(e for e in sign_partition(w).s_zero if rng.below(2))
        inst = ZeroWeightInstance(w, degree_sum(Hypergraph(n, picked)))
        with _root_firings() as fired:
            assert decide_zero(inst, budget=2000).answer != "NO"
        assert fired and not any(fired)

    def test_budget_semantics(self):
        # sum t^2 = 23 exceeds 8 + 7 + 6, the three largest demands of the
        # triples that avoid vertex 0; theta = 6
        d = DegreeSequence((0, 1, 2, 3, 3))
        assert decide_degseq(d, budget=0).answer == "UNKNOWN"
        for budget in (1, 10**6):
            out = decide_degseq(d, budget=budget)
            assert (out.answer, out.stats.nodes) == ("NO", 1)
            assert out.separator == (-6, -3, 0, 3, 3)
            assert verify_separator(out.separator, d.values, enumerate_triples(5))

    def test_reduced_no_refuted_by_a_step(self):
        # the reduction of a = (5, 7, 3, 2, 0, 0, 0, 4, 3), b = 8: s = t does
        # not fire, a supergradient step from it does, so this NO is
        # answered at the root instead of after the allowance and the LP
        inst = ThreePartitionInstance((5, 7, 3, 2, 0, 0, 0, 4, 3), 8)
        d = reduce_partition_to_degseq(inst).degseq.d
        assert d.values == (17, 26, 13, 13, 7, 7, 7, 17, 13)
        with _root_firings() as fired:
            out = decide_degseq(d, budget=2000)
        assert fired == [True]
        assert (out.answer, out.stats.nodes) == ("NO", 1)
        assert verify_separator(out.separator, d.values, enumerate_triples(d.n))
        assert not bruteforce_partition(inst)

    @pytest.mark.parametrize("n, max_value", [(9, 8), (12, 20)])
    def test_fires_only_on_no_reduced(self, n, max_value):
        # every firing, at s = t or after steps, is a NO of the oracle, and
        # its separator holds on all triples
        triples = enumerate_triples(n)
        answered = 0
        with _root_firings() as fired:
            for seed, planted in product(range(100), (True, False)):
                inst = gen_partition(n, max_value, seed=seed, planted=planted)
                d = reduce_partition_to_degseq(inst).degseq.d
                fired.clear()
                out = decide_degseq(d, budget=2000)
                if not any(fired):
                    continue
                assert not bruteforce_partition(inst), (seed, planted)
                assert (out.answer, out.stats.nodes) == ("NO", 1), (seed, planted)
                assert verify_separator(out.separator, d.values, triples), (seed, planted)
                answered += 1
        assert answered > 20

    def test_flipped_side_separator(self):
        # asks for 8 of the 10 triples on [5], so the complement
        # (0, 1, 1, 1, 3) is searched: sum t^2 = 12 exceeds 5 + 5. There
        # y = 3t - 5 = (-5, -2, -2, -2, 4), lowered to -2 * 4 at the
        # zero-demand vertex 0, is negated into a separator of d
        d = DegreeSequence((6, 5, 5, 5, 3))
        out = decide_degseq(d)
        assert (out.answer, out.stats.nodes) == ("NO", 1)
        assert out.separator == (8, 2, 2, 2, -4)
        assert verify_separator(out.separator, d.values, enumerate_triples(5))


class TestRootForcing:
    def test_forced_decides_agree_with_ground_truth(self):
        # every target on n <= 6, and reduced gen_partition(9, 8, s): each
        # decide whose root bound fixes candidates answers as the oracle
        # does, with a certificate or a separator that checks on all triples
        forced = {"exhaustive": 0, "reduced": 0}
        with _root_forcings() as seen:
            for n in range(7):
                realizable = _realizable_degrees(n)
                cap = comb(n - 1, 2) if n else 0
                triples = enumerate_triples(n)
                for vals in itertools.combinations_with_replacement(range(cap, -1, -1), n):
                    seen.clear()
                    out = decide_degseq(DegreeSequence(vals))
                    if any(seen):
                        self._agrees(out, vals, vals in realizable, triples)
                        forced["exhaustive"] += 1
            triples = enumerate_triples(9)
            for seed, planted in product(range(100), (True, False)):
                inst = gen_partition(9, 8, seed=seed, planted=planted)
                d = reduce_partition_to_degseq(inst).degseq.d
                seen.clear()
                out = decide_degseq(d, budget=2000)
                if any(seen):
                    self._agrees(out, d.values, bruteforce_partition(inst), triples)
                    forced["reduced"] += 1
        assert forced["exhaustive"] >= 100 and forced["reduced"] >= 30, forced

    @staticmethod
    def _agrees(out, vals, truth, triples):
        assert out.answer == ("YES" if truth else "NO"), vals
        if truth:
            assert verify_certificate(out.certificate, DegreeSequence(vals)), vals
        elif out.separator is not None:
            assert verify_separator(out.separator, vals, triples), vals

    def test_forced_includes_cost_no_node(self):
        # gen_partition(9, 8, seed=1, planted=True) reduced: every realization
        # has 39 edges, 36 of them S+, and s = t is tight, so the triples
        # scoring above theta go in at once and the rest is a 3-edge search:
        # 5 nodes where the plain search needed 40
        inst = gen_partition(9, 8, seed=1, planted=True)
        red = reduce_partition_to_degseq(inst)
        d = red.degseq.d
        assert sum(d.values) // 3 == 39 and len(red.sign_partition.s_plus) == 36
        with _root_forcings() as seen:
            out = decide_degseq(d, budget=2000)
        assert seen == [True]
        assert (out.answer, out.stats.nodes) == ("YES", 5)
        assert verify_certificate(out.certificate, d)
        projected = project_certificate(out.certificate, red.sign_partition)
        assert verify_partition_certificate(projected, inst)

    @staticmethod
    def _fixings_hold(n, candidates):
        """Check the root bound's fixings against every realization; count them by gap."""
        realizations = {}
        for bits in range(1 << len(candidates)):
            h = {e for p, e in enumerate(candidates) if bits >> p & 1}
            realizations.setdefault(degree_sum(Hypergraph(n, sorted(h))).values, []).append(h)
        seen = {"tight": 0, "gap": 0}
        for t, hs in realizations.items():
            searched = solver._includable(candidates, t)
            fixing = []
            ranked = _ordered_candidates(searched, t)
            assert solver._root_separator(t, searched, ranked, sum(t) // 3, fixing) is None
            if fixing:
                _, scores, theta, gap = fixing
                inside = {e for e, x in zip(searched, scores) if x > theta + gap}
                outside = {e for e, x in zip(searched, scores) if x < theta - gap}
                assert all(inside <= h and not outside & h for h in hs), t
                seen["gap" if gap else "tight"] += 1
        return seen

    def test_fixings_hold_in_every_realization(self):
        # every realizable target of all triples on n <= 5, and of sparse
        # candidate lists on [7]: each realization holds every candidate
        # fixed in and none fixed out, with gap 0 (tight) or above it
        seen = {"tight": 0, "gap": 0}
        lists = [(n, enumerate_triples(n)) for n in range(6)]
        rng = SplitMix64(7)
        for _ in range(12):
            lists.append((7, [e for e in enumerate_triples(7) if rng.below(5) < 2][:12]))
        for n, candidates in lists:
            for key, count in self._fixings_hold(n, candidates).items():
                seen[key] += count
        assert seen["tight"] > 1000 and seen["gap"] > 1000, seen

    # a lexicographic candidate list on [6] whose s = (2, 5, 5, 2, 5, 5)
    # (one step from s = t, theta = 12, gap 0) forces (2, 4, 5) in and leaves
    # the rest (1, 3, 1, 2, 1, 1) on the 8 candidates scoring 12
    SPARSE = [(0, 1, 3), (0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (0, 4, 5),
              (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)]
    SPARSE_TARGET = (1, 3, 2, 2, 2, 2)

    def test_forced_no_asks_the_lp_for_a_separator(self, monkeypatch):
        # the rest is exhausted in 5 nodes (vertex 1 needs all three of its
        # rest candidates, which all hold vertex 3), so the NO is settled; the
        # LP on the whole list then supplies its separator in 5 pivots
        statuses = TestPolytopeLayer._lp_statuses(monkeypatch)
        with _root_forcings() as seen:
            answer, edges, y, nodes = solver._run_search(6, self.SPARSE, self.SPARSE_TARGET, 10**5)
        assert seen == [True] and statuses == ["infeasible"]
        assert (answer, edges, nodes) == ("NO", None, 11)
        assert y == (0, 1, 0, -1, 0, 0)
        assert verify_separator(y, self.SPARSE_TARGET, self.SPARSE)
        assert not exists_subset_with_degrees(6, self.SPARSE, self.SPARSE_TARGET)

    def test_reduced_forced_no_takes_the_lps_separator(self, monkeypatch):
        # reduced gen_partition(12, 20, seed=14), a NO: the root bound does
        # not fire but forces, and the LP on all triples gives the separator
        statuses = TestPolytopeLayer._lp_statuses(monkeypatch)
        inst = gen_partition(12, 20, seed=14)
        d = reduce_partition_to_degseq(inst).degseq.d
        with _root_forcings() as seen:
            out = decide_degseq(d, budget=2000)
        assert seen == [True] and statuses == ["infeasible"]
        assert (out.answer, out.stats.nodes) == ("NO", 409)
        assert verify_separator(out.separator, d.values, enumerate_triples(d.n))
        assert not bruteforce_partition(inst)

    def test_forced_triples_that_overshoot_are_a_no(self, monkeypatch):
        # the 5 triples scoring above theta = 66 (s = (8, 24, 14, 16, 33,
        # 30, 19), three steps from s = t, gap 0) give vertex 1 degree 5 > 4:
        # a NO at the forcing's node, whose separator the LP then supplies
        cands = [(0, 1, 3), (0, 1, 5), (0, 1, 6), (0, 3, 6), (0, 4, 6), (1, 2, 3), (1, 2, 4),
                 (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 6), (2, 3, 4), (2, 3, 5), (2, 4, 6),
                 (2, 5, 6), (3, 5, 6)]
        target = (1, 4, 2, 2, 4, 3, 2)
        statuses = TestPolytopeLayer._lp_statuses(monkeypatch)
        with _root_forcings() as seen:
            answer, edges, y, nodes = solver._run_search(7, cands, target, 10**5)
        assert seen == [True] and statuses == ["infeasible"]
        assert (answer, edges, nodes) == ("NO", None, 10)
        assert verify_separator(y, target, cands)
        assert not exists_subset_with_degrees(7, cands, target)
        # with no budget left for the LP the NO stands, without a separator
        assert solver._run_search(7, cands, target, 1) == ("NO", None, None, 1)


@contextmanager
def _constructions():
    """Record, per construction, (target, size, (edges or None, nodes))."""
    seen = []
    real = solver._construct

    def spy(target, size, budget):
        result = real(target, size, budget)
        seen.append((target, size, result))
        return result

    solver._construct = spy
    try:
        yield seen
    finally:
        solver._construct = real


def _no_construction(monkeypatch):
    """Switch the construction off: every call fails at no node."""
    monkeypatch.setattr(solver, "_construct", lambda target, size, budget: (None, 0))


class TestConstruction:
    def test_exhaustive_small_targets(self):
        # every target on n <= 6: YES exactly when realizable, and every
        # edge set the construction builds realizes the target it was given
        # and is the decide's YES, at the construction's node count
        built = 0
        with _constructions() as seen:
            for n in range(7):
                realizable = _realizable_degrees(n)
                cap = comb(n - 1, 2) if n else 0
                for vals in itertools.combinations_with_replacement(range(cap, -1, -1), n):
                    seen.clear()
                    d = DegreeSequence(vals)
                    out = decide_degseq(d)
                    assert (out.answer == "YES") == (vals in realizable), vals
                    if out.answer == "YES":
                        assert verify_certificate(out.certificate, d), vals
                    for target, size, (edges, nodes) in seen:
                        if edges is not None:
                            built += 1
                            assert len(edges) == size, vals
                            h = Hypergraph(n, tuple(sorted(edges)))
                            assert tuple(degree_sum(h)) == tuple(target), vals
                            assert (out.answer, out.stats.nodes) == ("YES", nodes), vals
        assert built == 205

    def test_flipped_target_is_built_and_flipped_back(self):
        # 60 of the 84 triples on [9]: the complement target is built, 24
        # triples and 2 repair moves, and its complement is the certificate
        d = gen_planted_degseq(9, 60, seed=3)[0].d
        with _constructions() as seen:
            out = decide_degseq(d)
        [(target, size, (edges, nodes))] = seen
        assert target == tuple(28 - x for x in d.values)
        assert (size, nodes) == (24, 27)
        assert (out.answer, out.stats.nodes) == ("YES", 27)
        assert len(out.certificate.edges) == 60
        assert not set(edges) & set(out.certificate.edges)
        assert verify_certificate(out.certificate, d)

    def test_deterministic_and_budget_monotone(self):
        # 30 triples and 2 repair moves: built at 33 nodes, the same
        # edges on every run and at every budget that reaches them
        d = gen_planted_degseq(9, 30, seed=2)[0].d
        with _constructions() as seen:
            out = decide_degseq(d)
        assert [(size, result[1]) for _, size, result in seen] == [(30, 33)]
        assert (out.answer, out.stats.nodes) == ("YES", 33)
        for budget in (33, 34, 10**6):
            again = decide_degseq(d, budget=budget)
            assert (again.answer, again.stats.nodes) == ("YES", 33)
            assert again.certificate.edges == out.certificate.edges
        # one node short, the construction stops and leaves the search none
        short = decide_degseq(d, budget=32)
        assert (short.answer, short.stats.nodes) == ("UNKNOWN", 32)

    def test_failed_construction_hands_over_to_the_search(self, monkeypatch):
        # no target was found with no realization that the root bound
        # neither refutes nor fixes (n <= 7 exhaustively, 30,000 sampled
        # at n = 8, 9), so the bound is switched off: on the complement
        # the construction's 3 triples and 60 moves fail, and the search
        # exhausts the rest in 5 more nodes
        monkeypatch.setattr(solver, "_root_separator", lambda *args: None)
        d = DegreeSequence((6, 5, 4, 3, 3))
        with _constructions() as seen:
            out = decide_degseq(d)
        assert [(size, result) for _, size, result in seen] == [(3, (None, 64))]
        assert (out.answer, out.stats.nodes, out.separator) == ("NO", 69, None)
        assert not bruteforce_degseq(d)


class TestEngineGolden:
    """The engine beside tests/goldens/engine.json.

    Every row of the golden (answers, certificates, node counts and
    separators) is replayed once, by tests/test_scripts.py through
    `scripts/engine_golden.py --diff`; these are the cases it has no row for.
    """

    def test_zero_budget(self):
        # on input that meets _search's precondition: no zero demand
        assert _search(3, enumerate_triples(3), (1, 1, 1), 0) == ("UNKNOWN", None, 0)

    def test_deep_search_has_no_recursion_limit(self):
        # the complete 3-graph on 20 of 25 vertices: 1140 includes deep.
        # decide_degseq builds this target before any search, so _search
        # runs on the triples of its 20 vertices of positive demand
        d = DegreeSequence((171,) * 20 + (0,) * 5)
        answer, edges, nodes = _search(25, enumerate_triples(20), d.values, DEFAULT_BUDGET)
        assert answer == "YES"
        assert nodes == 1141
        assert verify_certificate(Hypergraph(25, tuple(sorted(edges))), d)


@st.composite
def _planted_search_cases(draw):
    """(n, candidates, target): a lexicographic sublist of the triples on
    [n], 4 <= n <= 8, and the degree vector of a random subset of it,
    sometimes with one unit moved between two vertices, so that residual
    ties between vertices of different targets are common."""
    n = draw(st.integers(4, 8))
    triples = enumerate_triples(n)
    keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    candidates = [x for x, k in zip(triples, keep) if k]
    pick = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    target = list(degree_sum(Hypergraph(n, [x for x, k in zip(candidates, pick) if k])))
    moves = [(u, v) for u in range(n) for v in range(n) if u != v and target[u]]
    if moves and draw(st.booleans()):
        u, v = draw(st.sampled_from(moves))
        target[u] -= 1
        target[v] += 1
    return n, candidates, tuple(target)


class TestLargestResidualBranching:
    @staticmethod
    def _replay_includes(target, includes):
        """Walk the includes from r = t; each must hold the rule's vertex."""
        r = list(target)
        for triple in includes:
            v = max(range(len(r)), key=lambda u: (r[u], -target[u], -u))
            assert v in triple, (r, triple)
            for u in triple:
                r[u] -= 1

    @given(_planted_search_cases())
    @settings(max_examples=300)
    # after (2, 3, 4) and (0, 2, 3), r = (0, 1, 1, 2, 2): vertex 4 (t = 3), not 3
    @example((5, enumerate_triples(5), (1, 1, 3, 4, 3)))
    def test_includes_go_through_the_largest_residual_then_smallest_target(self, case):
        # the first dive, and the include path of a YES, replayed on the
        # residuals: every include holds the vertex of largest r, then
        # smallest t, then lowest index (excludes leave r as it was)
        n, candidates, target = case
        candidates = solver._includable(candidates, target)
        _, order = _ordered_candidates(candidates, target)
        ordered = [candidates[p] for p in order]
        dive = []
        answer, edges, _ = _search(n, ordered, target, 10**5, dive)
        self._replay_includes(target, [ordered[p] for p in dive])
        if answer == "YES":
            self._replay_includes(target, edges)

    @pytest.mark.parametrize("seed, planted", [(43, True), (143, False)])
    def test_reduced_yes_within_2000_nodes(self, seed, planted):
        # gen_partition(12, 20, seed) reduced to degseq: with ties of
        # largest residual broken by lowest index these needed 2,297 and
        # 3,352 nodes, UNKNOWN at 2000; the smallest target first decided
        # them in 754 and 109, and with root forcing they take 474 and 303
        d = reduce_partition_to_degseq(gen_partition(12, 20, seed=seed, planted=planted)).degseq.d
        out = decide_degseq(d, budget=2000)
        assert out.answer == "YES"
        assert out.stats.nodes <= 2000
        assert verify_certificate(out.certificate, d)

    def test_planted_n10_decided_within_2000_nodes(self):
        # the 50 planted instances of scripts/bench_engine.py --sizes 10
        # --per-size 50 at seed 0: branching in one static order left 4 of
        # them UNKNOWN even at 2M nodes; through the largest residual,
        # smallest target on ties, the worst needs 307
        meta = SplitMix64(10)
        for i in range(50):
            inst, _ = gen_planted_degseq(10, meta.below(comb(10, 3) + 1), seed=i)
            out = decide_degseq(inst.d, budget=2000)
            assert out.answer == "YES", i
            assert verify_certificate(out.certificate, inst.d), i


def _realizable_degrees(n):
    """Every degree vector of a 3-hypergraph on [n], n <= 6."""
    return degree_vectors(n, list(itertools.combinations(range(n), 3)))


class TestPolytopeLayer:
    @staticmethod
    def _lp_statuses(monkeypatch):
        """A list that receives the status of every polytope.solve call."""
        statuses = []
        real_solve = polytope.solve

        def spy(*args):
            result = real_solve(*args)
            statuses.append(result.status)
            return result

        monkeypatch.setattr(polytope, "solve", spy)
        return statuses

    # unplanted seeds that no root bound refutes: the root forces, and the
    # LP's separator answers NO (at 409, 344, 340 nodes)
    @pytest.mark.parametrize("seed", [14, 21, 34])
    def test_frontier_no_by_separator(self, monkeypatch, seed):
        statuses = self._lp_statuses(monkeypatch)
        inst = gen_partition(12, 20, seed=seed)
        d = reduce_partition_to_degseq(inst).degseq.d
        out = decide_degseq(d, budget=2000)
        assert out.answer == "NO"
        assert statuses == ["infeasible"]
        assert not bruteforce_partition(inst)
        assert out.separator is not None
        assert verify_separator(out.separator, d.values, enumerate_triples(d.n))

    # beyond the oracle's reach; their duals need denominators above 64
    @pytest.mark.parametrize("n, seed", [(30, 3), (36, 11)])
    def test_frontier_no_beyond_the_oracle(self, n, seed):
        d = reduce_partition_to_degseq(gen_partition(n, 20, seed=seed)).degseq.d
        out = decide_degseq(d, budget=20_000)
        assert out.answer == "NO"
        assert verify_separator(out.separator, d.values, enumerate_triples(n))

    @pytest.mark.parametrize(
        "duals, want",
        [
            ((1 / 70, -1 / 74, 1 / 2), (37, -35, 1295)),
            ((0.25, -0.5, 1e-13), (1, -2, 0)),
            ((1.0, float("nan")), None),
            ((float("-inf"), 0.0), None),
        ],
        ids=["lcm-2590", "float-noise", "nan", "inf"],
    )
    def test_separator_by_rational_reconstruction(self, duals, want):
        assert polytope.separator(duals) == want

    def test_warm_start_is_an_include_path(self, monkeypatch, engine_golden):
        # polytope.solve trusts its start: distinct positions whose triples'
        # degrees stay within target. Forced triples that alone overshoot
        # some t_v must not reach it, so every call over the polytope
        # golden's corpus, at both of its budgets, is checked
        real_solve = polytope.solve
        starts = []

        def spy(n, candidates, target, start, max_pivots):
            degrees = _degrees(n, map(candidates.__getitem__, start))
            within = all(map(int.__le__, degrees, target))
            starts.append((len(start), len(set(start)) == len(start), within))
            return real_solve(n, candidates, target, start, max_pivots)

        monkeypatch.setattr(polytope, "solve", spy)
        for d in engine_golden.polytope_corpus():
            for budget in engine_golden.POLYTOPE_BUDGETS:
                decide_degseq(d, budget)
        assert len(starts) == 56
        assert all(distinct and within for _, distinct, within in starts), starts
        # one target's forced triples overshoot: at both budgets its LP starts from x = 0
        assert sum(size == 0 for size, _, _ in starts) == 2

    def test_budget_monotone_through_the_layer(self, monkeypatch):
        statuses = self._lp_statuses(monkeypatch)
        d = reduce_partition_to_degseq(gen_partition(12, 20, seed=14)).degseq.d
        settled = decide_degseq(d, budget=10**6)
        assert settled.answer == "NO" and settled.separator is not None
        nodes = settled.stats.nodes
        for budget in (nodes, nodes + 1, 10 * nodes):
            again = decide_degseq(d, budget=budget)
            assert (again.answer, again.stats.nodes) == ("NO", nodes)
            assert again.separator == settled.separator
        assert statuses == ["infeasible"] * 4
        # one node short, the LP stops at its last pivot before infeasibility
        assert decide_degseq(d, budget=nodes - 1).answer == "UNKNOWN"
        assert statuses[4:] == ["stopped"]

    def test_flipped_lp_separator_on_the_full_candidates(self, monkeypatch):
        # the complement is searched, where the vertices that every triple
        # must contain have zero demand and no candidates; the LP's
        # separator is lowered there, else the check on all triples
        # refuses it and the search ends UNKNOWN at 2000. The root bound
        # refutes this target first, and the construction would then spend
        # nodes on it, so both are switched off to reach the LP
        monkeypatch.setattr(solver, "_root_separator", lambda *args: None)
        _no_construction(monkeypatch)
        inst = ThreePartitionInstance((3, 2, 8, 2, 2, 0, 0, 3, 7), 9)
        d = reduce_partition_to_degseq(inst).degseq.d
        out = decide_degseq(d, budget=2000)
        assert (out.answer, out.stats.nodes) == ("NO", 352)
        assert not bruteforce_partition(inst)
        assert verify_separator(out.separator, d.values, enumerate_triples(d.n))

    def test_flipped_root_separator_on_the_full_candidates(self):
        # the same target with the root bound on: its separator of the
        # complement is lowered and negated like the LP's, at one node
        inst = ThreePartitionInstance((3, 2, 8, 2, 2, 0, 0, 3, 7), 9)
        d = reduce_partition_to_degseq(inst).degseq.d
        out = decide_degseq(d, budget=2000)
        assert (out.answer, out.stats.nodes) == ("NO", 1)
        assert verify_separator(out.separator, d.values, enumerate_triples(d.n))

    def test_decide_zero_shares_the_layer(self, monkeypatch):
        # all weights 0: every triple is a candidate, as in decide_degseq
        statuses = self._lp_statuses(monkeypatch)
        d = reduce_partition_to_degseq(gen_partition(12, 20, seed=14)).degseq.d
        inst = ZeroWeightInstance(WeightVector((0,) * 12), d)
        out = decide_zero(inst, budget=2000)
        assert out.answer == "NO"
        assert out.stats.nodes == decide_degseq(d, budget=2000).stats.nodes
        assert verify_separator(out.separator, d.values, sign_partition(inst.w).s_zero)
        assert statuses == ["infeasible"] * 2

    @classmethod
    def _force_layer(cls, monkeypatch):
        """Allowance 0, no construction, and a record of every LP status.

        The search keeps the depth of a straight dive, one node short of
        finishing one, so every search that does not end in NO within that
        many nodes reaches the polytope layer; the construction would build
        most feasible targets before it.
        """
        monkeypatch.setattr(solver, "ALLOWANCE", 0)
        _no_construction(monkeypatch)
        return cls._lp_statuses(monkeypatch)

    def test_forced_through_the_layer_agrees_with_bruteforce(self, monkeypatch):
        # the root bound answers most NO here before the layer runs, so the
        # LP's infeasible path is driven directly too: from x = 0 on every
        # target, each infeasible LP must give a separator that
        # verify_separator accepts, on a target brute force calls NO
        solve = polytope.solve
        statuses = self._force_layer(monkeypatch)
        checked = root_fired = 0
        lp_statuses = []
        with _root_firings() as fired:
            for n in range(7):
                realizable = _realizable_degrees(n)
                cap = comb(n - 1, 2) if n else 0
                triples = enumerate_triples(n)
                for vals in itertools.combinations_with_replacement(range(cap, -1, -1), n):
                    fired.clear()
                    out = decide_degseq(DegreeSequence(vals))
                    realized = vals in realizable
                    assert out.answer == ("YES" if realized else "NO"), vals
                    if out.separator is not None:
                        assert verify_separator(out.separator, vals, triples), vals
                    if any(fired):
                        assert not realized, vals
                        root_fired += 1
                    lp = solve(n, triples, vals, [], 10**6)
                    lp_statuses.append(lp.status)
                    if lp.status == "infeasible":
                        y = polytope.separator(lp.duals)
                        assert y is not None and verify_separator(y, vals, triples), vals
                        assert not realized, vals
                    checked += 1
        assert checked == 8512
        assert lp_statuses.count("infeasible") > 500 and lp_statuses.count("feasible") > 300
        assert statuses.count("feasible") > 300
        assert root_fired > 1000
        for vals in ((4, 4, 4, 3, 3), (5, 4, 3, 3, 3), (6, 6, 6, 6, 6, 0)):
            d = DegreeSequence(vals)
            assert (decide_degseq(d).answer == "YES") == bruteforce_degseq(d), vals

    def test_decide_zero_forced_through_the_layer_agrees_with_bruteforce(self, monkeypatch):
        statuses = self._force_layer(monkeypatch)
        for seed in range(600):
            rng = SplitMix64(30_000 + seed)
            n = 4 + rng.below(5)
            w = WeightVector(tuple(rng.below(5) - 2 for _ in range(n)))
            zero_edges = sign_partition(w).s_zero
            if len(zero_edges) > 16:
                continue
            c = list(degree_sum(Hypergraph(n, tuple(e for e in zero_edges if rng.below(2)))))
            # a unit moved between equal weights keeps the promise w.c = 0
            moves = [(u, v) for u in range(n) for v in range(n)
                     if u != v and w[u] == w[v] and c[u]]
            if seed % 2 and moves:
                u, v = moves[rng.below(len(moves))]
                c[u] -= 1
                c[v] += 1
            inst = ZeroWeightInstance(w, DegreeSequence(tuple(c)))
            out = decide_zero(inst)
            assert (out.answer == "YES") == bruteforce_zero(inst), (w, c)
            if out.separator is not None:
                assert verify_separator(out.separator, c, zero_edges), (w, c)
        assert statuses.count("feasible") > 300


class TestPlantedRoundTrip:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_planted_yes(self, seed):
        rng = SplitMix64(seed)
        n = 4 + rng.below(5)
        m = rng.below(comb(n, 3) + 1)
        inst, witness = gen_planted_degseq(n, m, seed=seed)
        out = decide_degseq(inst.d, budget=10**8)
        assert out.answer == "YES"
        assert verify_certificate(out.certificate, inst.d)
