import importlib
import itertools
from dataclasses import FrozenInstanceError
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperdeg
from hyperdeg import (
    CertificateCheck,
    DecisionOutcome,
    DegreeSequence,
    DegSeqInstance,
    GroundSetMismatchError,
    Hypergraph,
    Int64OverflowError,
    SearchStats,
    SignPartition,
    ThreePartitionInstance,
    WeightVector,
    ZeroWeightInstance,
    decide_degseq,
    decide_zero,
    degree_sum,
    enumerate_triples,
    gen_partition,
    gen_planted_degseq,
    sign_partition,
    verify_certificate,
    verify_separator,
    weighted_value,
)
from hyperdeg.core import (
    I64_MAX,
    I64_MIN,
    EdgeListError,
    checked_dot,
    checked_sum,
    i64,
    triple_sums,
)
from hyperdeg.graph import Graph
from hyperdeg.workbench import CertificateDoc

from conftest import all_triples, hypergraphs, weight_vectors


class TestEnumerateTriples:
    def test_single_triple(self):
        assert enumerate_triples(3) == [(0, 1, 2)]

    def test_too_small_ground_set(self):
        assert enumerate_triples(2) == []
        assert enumerate_triples(0) == []

    def test_n5(self):
        triples = enumerate_triples(5)
        assert len(triples) == 10
        assert triples[0] == (0, 1, 2)
        assert triples[-1] == (2, 3, 4)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_triples(-1)

    @pytest.mark.parametrize("n", range(13))
    def test_count_and_order(self, n):
        triples = enumerate_triples(n)
        assert len(triples) == comb(n, 3)
        assert all(a < b for a, b in zip(triples, triples[1:]))
        assert len(set(triples)) == len(triples)


class TestDegreeSum:
    def test_single_edge(self):
        assert degree_sum(Hypergraph(3, ((0, 1, 2),))).values == (1, 1, 1)

    def test_empty(self):
        assert degree_sum(Hypergraph(4, ())).values == (0, 0, 0, 0)

    def test_three_edges(self):
        h = Hypergraph(6, ((0, 1, 2), (0, 1, 3), (2, 4, 5)))
        assert degree_sum(h).values == (2, 2, 2, 1, 1, 1)

    @given(hypergraphs())
    def test_total_is_three_per_edge(self, h):
        assert sum(degree_sum(h).values) == 3 * len(h.edges)


_I64_EDGE = st.integers(I64_MAX // 3 - 2, I64_MAX // 3 + 2)


class TestTripleSums:
    @given(
        st.lists(
            st.one_of(st.integers(-5, 5), _I64_EDGE, _I64_EDGE.map(lambda v: -v)),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    def test_exact_sums_or_overflow(self, values, data):
        index = st.integers(0, len(values) - 1)
        triples = data.draw(st.lists(st.tuples(index, index, index), max_size=8))
        exact = [sum(values[v] for v in t) for t in triples]
        if all(I64_MIN <= x <= I64_MAX for x in exact):
            assert triple_sums(values, triples) == exact
        else:
            with pytest.raises(Int64OverflowError):
                triple_sums(values, triples)

    # first and last sums sit exactly on the i64 bounds; only the middle one leaves
    VALUES = (0, 1, -1, I64_MAX, I64_MIN)

    @pytest.mark.parametrize(
        "middle, out",
        [((1, 3, 0), I64_MAX + 1), ((2, 4, 0), I64_MIN - 1)],
        ids=["above", "below"],
    )
    def test_only_a_middle_sum_leaves_i64(self, middle, out):
        triples = [(0, 0, 3), (0, 1, 2), middle, (0, 1, 2), (0, 0, 4)]
        assert triple_sums(self.VALUES, [triples[0], triples[-1]]) == [I64_MAX, I64_MIN]
        with pytest.raises(Int64OverflowError, match=str(out)):
            triple_sums(self.VALUES, triples)

    def test_empty(self):
        assert triple_sums((1, 2, 3), []) == []

    def test_overflow_inside_a_valid_instance(self):
        # every partial sum of w.c stays in i64, but w(0, 2, 4) = 3B does not
        b = 2**62 - 1
        inst = ZeroWeightInstance(WeightVector((b, -b) * 3), DegreeSequence((1,) * 6))
        with pytest.raises(Int64OverflowError):
            sign_partition(inst.w)
        with pytest.raises(Int64OverflowError):
            decide_zero(inst)


class TestWeightedValue:
    def test_direct(self):
        w = WeightVector((-1, -1, -1, 3))
        assert weighted_value(w, (0, 1, 2)) == -3
        assert weighted_value(w, (1, 2, 3)) == 1

    def test_zero_vector(self):
        w = WeightVector((0, 0, 0))
        assert weighted_value(w, (0, 1, 2)) == 0

    def test_out_of_range_triple(self):
        w = WeightVector((1, 2, 3))
        with pytest.raises(ValueError):
            weighted_value(w, (0, 1, 3))

    def test_overflow_signals(self):
        w = WeightVector((I64_MAX, I64_MAX, I64_MAX))
        with pytest.raises(Int64OverflowError):
            weighted_value(w, (0, 1, 2))

    def test_near_min_overflow(self):
        w = WeightVector((I64_MIN, I64_MIN, 0))
        with pytest.raises(Int64OverflowError):
            weighted_value(w, (0, 1, 2))


class TestSignPartition:
    def test_example(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        assert sp.s_minus == ((0, 1, 2),)
        assert sp.s_zero == ()
        assert sp.s_plus == ((0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_zero_weights(self):
        sp = sign_partition(WeightVector((0, 0, 0, 0)))
        assert sp.s_minus == ()
        assert sp.s_plus == ()
        assert len(sp.s_zero) == 4

    def test_zero_part_matches_exhaustive_evaluation(self):
        w = (1, 1, 1, -3, 0)
        sp = sign_partition(WeightVector(w))
        expected_zero = tuple(
            x
            for x in itertools.combinations(range(5), 3)
            if w[x[0]] + w[x[1]] + w[x[2]] == 0
        )
        assert sp.s_zero == expected_zero
        # independently derived: this w admits no zero-sum triples
        assert expected_zero == ()

    @given(weight_vectors())
    def test_parts_partition_all_triples(self, w):
        sp = sign_partition(w)
        for part in (sp.s_minus, sp.s_zero, sp.s_plus):
            assert part == tuple(sorted(part))
        parts = [set(sp.s_minus), set(sp.s_zero), set(sp.s_plus)]
        assert parts[0] | parts[1] | parts[2] == set(all_triples(w.n))
        assert sum(len(p) for p in parts) == comb(w.n, 3)
        for x in sp.s_minus:
            assert weighted_value(w, x) < 0
        for x in sp.s_zero:
            assert weighted_value(w, x) == 0
        for x in sp.s_plus:
            assert weighted_value(w, x) > 0


class TestVerifyCertificate:
    def test_valid(self):
        assert verify_certificate(Hypergraph(3, ((0, 1, 2),)), DegreeSequence((1, 1, 1)))

    def test_degree_mismatch(self):
        check = verify_certificate(Hypergraph(3, ((0, 1, 2),)), DegreeSequence((1, 1, 0)))
        assert not check
        assert check.reason == "degree_mismatch"

    def test_duplicate_edges_rejected(self):
        check = verify_certificate([(0, 1, 2), (0, 1, 2)], DegreeSequence((2, 2, 2)))
        assert not check
        assert check.reason == "edges_out_of_order"

    def test_malformed_edge(self):
        check = verify_certificate([(0, 2, 1)], DegreeSequence((1, 1, 1)))
        assert not check
        assert check.reason == "malformed_edge"

    def test_bool_indices_malformed(self):
        check = verify_certificate([[False, True, 2]], DegreeSequence((1, 1, 1)))
        assert not check
        assert check.reason == "malformed_edge"

    def test_ground_set_mismatch(self):
        check = verify_certificate(Hypergraph(4, ()), DegreeSequence((0, 0, 0)))
        assert not check
        assert check.reason == "ground_set_mismatch"

    @given(hypergraphs())
    def test_accepts_own_degree_sum(self, h):
        assert verify_certificate(h, degree_sum(h))


class TestValueTypes:
    def test_hypergraph_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Hypergraph(4, ((0, 1, 3), (0, 1, 2)))

    def test_hypergraph_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Hypergraph(4, ((0, 1, 2), (0, 1, 2)))

    def test_hypergraph_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, ((0, 1, 3),))

    def test_hypergraph_rejects_descending_triple(self):
        with pytest.raises(ValueError):
            Hypergraph(4, ((2, 1, 0),))

    def test_from_edges_sorts(self):
        h = Hypergraph.from_edges(4, [(1, 2, 3), (0, 1, 2)])
        assert h.edges == ((0, 1, 2), (1, 2, 3))

    def test_degree_sequence_rejects_negative(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, -1))

    def test_degree_sequence_rejects_huge(self):
        with pytest.raises(Int64OverflowError):
            DegreeSequence((I64_MAX + 1,))

    def test_weight_vector_range(self):
        WeightVector((I64_MIN, I64_MAX))
        with pytest.raises(Int64OverflowError):
            WeightVector((I64_MIN - 1,))

    def test_values_immutable(self):
        h = Hypergraph(3, ((0, 1, 2),))
        with pytest.raises(FrozenInstanceError):
            h.n = 5


_H = Hypergraph(3, ((0, 1, 2),))
_D = DegreeSequence((1, 1, 1))
_STATS = SearchStats(nodes=1, millis=2, budget_used=0.5)

# Every record type: keyword arguments, and its repr as frozen dataclasses
# printed it; construction by keyword and by position must agree.
_RECORDS = {
    "Hypergraph": (Hypergraph, {"n": 3, "edges": ((0, 1, 2),)},
                   "Hypergraph(n=3, edges=((0, 1, 2),))"),
    "Graph": (Graph, {"n": 2, "edges": ((0, 1),)}, "Graph(n=2, edges=((0, 1),))"),
    "DegreeSequence": (DegreeSequence, {"values": (1, 1, 1)},
                       "DegreeSequence(values=(1, 1, 1))"),
    "WeightVector": (WeightVector, {"values": (1, -2)}, "WeightVector(values=(1, -2))"),
    "SignPartition": (
        SignPartition,
        {"n": 3, "s_minus": (), "s_zero": ((0, 1, 2),), "s_plus": ()},
        "SignPartition(n=3, s_minus=(), s_zero=((0, 1, 2),), s_plus=())",
    ),
    "CertificateCheck": (CertificateCheck, {"ok": False, "reason": "x"},
                         "CertificateCheck(ok=False, reason='x')"),
    "SearchStats": (SearchStats, {"nodes": 1, "millis": 2, "budget_used": 0.5},
                    "SearchStats(nodes=1, millis=2, budget_used=0.5)"),
    "DecisionOutcome": (
        DecisionOutcome,
        {"answer": "NO", "certificate": None, "stats": _STATS, "separator": (1, -1)},
        "DecisionOutcome(answer='NO', certificate=None, "
        "stats=SearchStats(nodes=1, millis=2, budget_used=0.5), separator=(1, -1))",
    ),
    "ThreePartitionInstance": (ThreePartitionInstance, {"a": (1, 1, 1), "b": 3},
                               "ThreePartitionInstance(a=(1, 1, 1), b=3)"),
    "ZeroWeightInstance": (
        ZeroWeightInstance,
        {"w": WeightVector((1, -1)), "c": DegreeSequence((2, 2))},
        "ZeroWeightInstance(w=WeightVector(values=(1, -1)), c=DegreeSequence(values=(2, 2)))",
    ),
    "DegSeqInstance": (DegSeqInstance, {"d": _D, "k": 2},
                       "DegSeqInstance(d=DegreeSequence(values=(1, 1, 1)), k=2)"),
    "CertificateDoc": (CertificateDoc, {"kind": "graph", "edges": ((0, 1),)},
                       "CertificateDoc(kind='graph', edges=((0, 1),))"),
}


@pytest.mark.parametrize("cls, kwargs, text", _RECORDS.values(), ids=list(_RECORDS))
class TestRecordContract:
    def test_keyword_and_positional_agree(self, cls, kwargs, text):
        value = cls(**kwargs)
        assert value == cls(*kwargs.values())
        assert [getattr(value, k) for k in kwargs] == list(kwargs.values())

    def test_repr(self, cls, kwargs, text):
        assert repr(cls(**kwargs)) == text

    def test_equal_values_equal_hashes(self, cls, kwargs, text):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != object()

    def test_frozen(self, cls, kwargs, text):
        value = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(FrozenInstanceError, match="cannot assign"):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError, match="cannot delete"):
                delattr(value, name)
        assert repr(value) == text


def test_record_equality_compares_the_class():
    assert DegreeSequence((1, 2)) != WeightVector((1, 2))
    assert Hypergraph(3) != Graph(3)
    assert Hypergraph(3) == Hypergraph(3, ())
    assert len({Hypergraph(3), Hypergraph(3, ()), Graph(3)}) == 2


def test_record_defaults():
    assert Hypergraph(3).edges == ()
    assert DegSeqInstance(_D).k == 3
    assert CertificateCheck(True).reason is None
    assert DecisionOutcome("YES", _H, _STATS).separator is None


def test_package_names_load_on_first_use():
    # `import hyperdeg` maps each name to its module; every one resolves to
    # the object its module defines, and dir() lists them before first use
    assert set(hyperdeg.__all__) <= set(dir(hyperdeg))
    for name in hyperdeg.__all__:
        module = importlib.import_module(f"hyperdeg.{hyperdeg._MODULE_OF[name]}")
        assert getattr(hyperdeg, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperdeg.no_such_name


_ZERO = ZeroWeightInstance(WeightVector((1, -1)), DegreeSequence((1, 1)))

# Each entry point places the bad value where its integer value would be
# accepted (a bool as 0 or 1), so only the integer rule can reject it.
_ENTRY_POINTS = {
    "DegreeSequence": (lambda x: DegreeSequence((1, x, 1)), True),
    "WeightVector": (lambda x: WeightVector((1, x, -1)), False),
    "ThreePartitionInstance.a": (lambda x: ThreePartitionInstance((x,), 3 * x), True),
    "ThreePartitionInstance.b": (lambda x: ThreePartitionInstance((), x), True),
    "DegSeqInstance.k": (lambda x: DegSeqInstance(DegreeSequence((1, 1, 1)), x), False),
    "Hypergraph.n": (lambda x: Hypergraph(x, ()), True),
    "Hypergraph.index": (lambda x: Hypergraph(7, ((x, 5, 6),)), True),
    "Graph.n": (lambda x: Graph(x, ()), True),
    "Graph.index": (lambda x: Graph(7, ((x, 6),)), True),
    "enumerate_triples": (lambda x: enumerate_triples(x), True),
    "decide_degseq.budget": (lambda x: decide_degseq(DegreeSequence((1, 1, 1)), budget=x), True),
    "decide_zero.budget": (lambda x: decide_zero(_ZERO, budget=x), True),
    "gen_partition.n": (lambda x: gen_partition(x, 5, 0), True),
    "gen_partition.max_value": (lambda x: gen_partition(3, x, 0), True),
    "gen_planted_degseq.n": (lambda x: gen_planted_degseq(x, 0, 0), True),
    "gen_planted_degseq.m": (lambda x: gen_planted_degseq(4, x, 0), True),
}


def _integer_rule_rows():
    for name, (_, floored) in _ENTRY_POINTS.items():
        for bad in (True, False, 2.0, 1 << 63) + ((-1,) if floored else ()):
            if name.endswith(".index"):
                expected = EdgeListError  # an edge parser's rejection
            elif bad == 1 << 63 and name != "DegSeqInstance.k":
                expected = Int64OverflowError
            else:
                expected = ValueError  # k = 2^63 already failed k in {2, 3}
            yield pytest.param(name, bad, expected, id=f"{name}-{bad!r}")


class TestIntegerRule:
    @pytest.mark.parametrize("entry,bad,expected", _integer_rule_rows())
    def test_rejects(self, entry, bad, expected):
        build, _ = _ENTRY_POINTS[entry]
        with pytest.raises(expected) as err:
            build(bad)
        assert err.type is expected

    def test_floor_and_i64_bounds_accepted(self):
        assert DegreeSequence((0, I64_MAX)).values == (0, I64_MAX)
        assert ThreePartitionInstance((), I64_MAX).b == I64_MAX

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gen_partition(3.0, 5, 0),  # a TypeError from range before the rule
            lambda: gen_planted_degseq(4, True, 0),  # accepted as m = 1 before the rule
            lambda: gen_partition(3, 5, True),
            lambda: gen_partition(3, 5, 1.0),
            lambda: gen_planted_degseq(4, 1, False),
        ],
        ids=["partition-n-float", "planted-m-bool", "partition-seed-bool",
             "partition-seed-float", "planted-seed-bool"],
    )
    def test_generators_reject(self, call):
        with pytest.raises(ValueError) as err:
            call()
        assert err.type is ValueError

    def test_generator_seed_range_is_masked(self):
        # SplitMix64 masks a seed to 64 bits, so only its type is checked
        assert gen_partition(6, 5, -1) == gen_partition(6, 5, (1 << 64) - 1)
        assert gen_planted_degseq(5, 3, 1 << 64) == gen_planted_degseq(5, 3, 0)

    def test_failure_names_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"degree\[2\] must be a nonnegative integer"):
            DegreeSequence((0, 1, True, -1))


class TestVerifySeparator:
    # (3, 3, 3, 0): vertex 3 is isolated, so one triple is all 0..2 can use
    TARGET = (3, 3, 3, 0)

    def test_accepts_a_separator(self):
        # y.t = 9 > 3 = max(0, y(012)), the other triples score -1
        assert verify_separator((1, 1, 1, -3), self.TARGET, enumerate_triples(4))

    def test_rejects_zeroed_y(self):
        check = verify_separator((0, 0, 0, 0), self.TARGET, enumerate_triples(4))
        assert not check and check.reason == "not_separating"

    def test_rejects_a_miss_by_one(self):
        # the bound is 3 (triple 012 alone scores above 0): y.t = 4 separates,
        # y.t = 3 only meets it
        y = (1, 1, 1, -3)
        assert verify_separator(y, (2, 1, 1, 0), enumerate_triples(4))
        check = verify_separator(y, (1, 1, 1, 0), enumerate_triples(4))
        assert not check and check.reason == "not_separating"

    @pytest.mark.parametrize(
        "y",
        [(1, 1, 1, I64_MAX), (1, 1, 1, I64_MIN), (1, 1, 1, 1 << 63), (1, 1, 1, -(1 << 63) - 1),
         (1, 1, True, -3), (1, 1, 1.0, -3), (1, 1, 1)],
        ids=["i64-max", "i64-min", "above-i64", "below-i64", "bool", "float", "short"],
    )
    def test_rejects_malformed(self, y):
        check = verify_separator(y, self.TARGET, enumerate_triples(4))
        assert not check and check.reason == "malformed_separator"

    def test_rejects_overflowing_sums(self):
        big = I64_MAX // 3
        check = verify_separator((big, big, big, 0), (2, 2, 2, 0), enumerate_triples(4))
        assert not check and check.reason == "overflow"


class TestCheckedArithmetic:
    def test_i64_passthrough(self):
        assert i64(I64_MAX) == I64_MAX
        assert i64(I64_MIN) == I64_MIN

    def test_i64_signals(self):
        with pytest.raises(Int64OverflowError):
            i64(I64_MAX + 1)

    def test_checked_sum_partial_overflow(self):
        # the exact total is 0, but the running partial sum leaves i64
        with pytest.raises(Int64OverflowError):
            checked_sum([I64_MAX, 1, -2])

    def test_checked_dot_term_overflow(self):
        with pytest.raises(Int64OverflowError):
            checked_dot((1 << 40,), (1 << 40,))

    def test_checked_dot_length_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            checked_dot((1, 2), (1,))

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=20))
    def test_checked_sum_agrees_with_sum(self, xs):
        assert checked_sum(xs) == sum(xs)
