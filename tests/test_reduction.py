import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdeg import (
    CertificateError,
    DegreeSequence,
    GroundSetMismatchError,
    Hypergraph,
    Int64OverflowError,
    PromiseViolationError,
    ThreePartitionInstance,
    WeightVector,
    ZeroWeightInstance,
    degree_sum,
    gen_partition,
    lift_certificate,
    map_partition_certificate,
    project_certificate,
    reduce_partition_to_degseq,
    reduce_partition_to_zero,
    reduce_zero_to_degseq,
    sign_partition,
    weighted_value,
)
from hyperdeg.core import I64_MAX, checked_dot


class TestInstanceTypes:
    def test_partition_promise_enforced(self):
        with pytest.raises(PromiseViolationError):
            ThreePartitionInstance((1, 1, 1), 2)

    def test_partition_rejects_negative(self):
        with pytest.raises(ValueError):
            ThreePartitionInstance((-1, 1), 0)

    def test_zero_weight_promise_enforced(self):
        with pytest.raises(PromiseViolationError):
            ZeroWeightInstance(WeightVector((1, -1)), DegreeSequence((1, 2)))

    def test_zero_weight_length_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            ZeroWeightInstance(WeightVector((0, 0)), DegreeSequence((1,)))

    def test_valid_instances(self):
        ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        ZeroWeightInstance(WeightVector((1, -1)), DegreeSequence((2, 2)))


class TestReducePartitionToZero:
    def test_all_equal(self):
        inst = ThreePartitionInstance((1, 1, 1), 3)
        zero = reduce_partition_to_zero(inst)
        assert zero.w.values == (0, 0, 0)
        assert zero.c.values == (1, 1, 1)

    def test_componentwise(self):
        inst = ThreePartitionInstance((1, 1, 2), 4)
        zero = reduce_partition_to_zero(inst)
        assert zero.w.values == (-1, -1, 2)
        assert zero.c.values == (1, 1, 1)

    def test_six_values(self):
        inst = ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        zero = reduce_partition_to_zero(inst)
        assert zero.w.values == (-8, -5, -2, 1, 4, 10)
        assert zero.c.values == (1, 1, 1, 1, 1, 1)
        assert checked_dot(zero.w.values, zero.c.values) == 0

    def test_overflow_signals_at_construction(self):
        # once the promise check passes, 3 * a_i - b stays inside i64, so
        # adversarial magnitudes are rejected at the instance boundary
        big = I64_MAX // 3
        with pytest.raises(Int64OverflowError):
            ThreePartitionInstance((big, big, big), big)

    def test_zero_weight_dot_overflow(self):
        with pytest.raises(Int64OverflowError):
            ZeroWeightInstance(WeightVector((I64_MAX,)), DegreeSequence((2,)))

    def test_reduced_degree_overflow(self):
        # w.c = 0 holds exactly, but d = c + degree_sum(S+) leaves i64
        inst = ZeroWeightInstance(
            WeightVector((1, -1, 0, 0)),
            DegreeSequence((I64_MAX, I64_MAX, 5, 0)),
        )
        with pytest.raises(Int64OverflowError):
            reduce_zero_to_degseq(inst)


class TestMapPartitionCertificate:
    def test_identity(self):
        inst = ThreePartitionInstance((1, 1, 1), 3)
        f = Hypergraph(3, ((0, 1, 2),))
        assert map_partition_certificate(f, inst) == f

    def test_empty(self):
        inst = ThreePartitionInstance((1, 1, 2), 4)
        f = Hypergraph(3, ())
        assert map_partition_certificate(f, inst) == f

    def test_six_values(self):
        inst = ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        f = Hypergraph(6, ((0, 2, 5), (1, 3, 4)))
        assert map_partition_certificate(f, inst) == f

    def test_rejects_wrong_value(self):
        inst = ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        f = Hypergraph(6, ((0, 1, 2),))
        with pytest.raises(CertificateError):
            map_partition_certificate(f, inst)


class TestReduceZeroToDegseq:
    def test_zero_weights(self):
        inst = ZeroWeightInstance(WeightVector((0, 0, 0)), DegreeSequence((1, 1, 1)))
        reduced = reduce_zero_to_degseq(inst)
        assert reduced.degseq.d.values == (1, 1, 1)
        assert reduced.sign_partition.s_plus == ()

    def test_single_triple_ground_set(self):
        inst = ZeroWeightInstance(WeightVector((-1, -1, 2)), DegreeSequence((1, 1, 1)))
        reduced = reduce_zero_to_degseq(inst)
        assert reduced.degseq.d.values == (1, 1, 1)

    def test_plus_part_contributes(self):
        inst = ZeroWeightInstance(
            WeightVector((-1, -1, -1, 3)), DegreeSequence((3, 0, 0, 1))
        )
        reduced = reduce_zero_to_degseq(inst)
        assert reduced.sign_partition.s_plus == ((0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert degree_sum(Hypergraph(4, reduced.sign_partition.s_plus)).values == (2, 2, 2, 3)
        assert reduced.degseq.d.values == (5, 2, 2, 4)

    def test_zero_weight_is_the_input(self):
        inst = ZeroWeightInstance(WeightVector((1, -1, 2, -2)), DegreeSequence((2, 2, 1, 1)))
        assert reduce_zero_to_degseq(inst).zero_weight == inst


class TestCertificateLiftProject:
    def test_lift_empty(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        h = lift_certificate(Hypergraph(4, ()), sp)
        assert h.edges == sp.s_plus

    def test_lift_with_empty_plus(self):
        sp = sign_partition(WeightVector((0, 0, 0)))
        h = lift_certificate(Hypergraph(3, ((0, 1, 2),)), sp)
        assert h.edges == ((0, 1, 2),)

    def test_lift_degree_additivity(self):
        w = WeightVector((0, 0, 0, 1, -1))
        sp = sign_partition(w)
        g = Hypergraph(5, ((0, 1, 2),))
        assert g.edges[0] in set(sp.s_zero)
        h = lift_certificate(g, sp)
        expected = [
            a + b
            for a, b in zip(degree_sum(g).values, degree_sum(Hypergraph(5, sp.s_plus)).values)
        ]
        assert list(degree_sum(h).values) == expected

    def test_lift_rejects_non_zero_edge(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        with pytest.raises(CertificateError):
            lift_certificate(Hypergraph(4, ((0, 1, 2),)), sp)

    def test_project_pure_plus(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        g = project_certificate(Hypergraph(4, sp.s_plus), sp)
        assert g.edges == ()

    def test_project_all_zero(self):
        sp = sign_partition(WeightVector((0, 0, 0)))
        h = Hypergraph(3, ((0, 1, 2),))
        assert project_certificate(h, sp).edges == h.edges

    def test_project_rejects_minus_edge(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        h = Hypergraph(4, ((0, 1, 2),) + sp.s_plus)
        with pytest.raises(CertificateError, match="S-"):
            project_certificate(h, sp)

    def test_project_rejects_missing_plus_edge(self):
        sp = sign_partition(WeightVector((-1, -1, -1, 3)))
        h = Hypergraph(4, sp.s_plus[1:])
        with pytest.raises(CertificateError, match="S\\+"):
            project_certificate(h, sp)

    @pytest.mark.parametrize(
        "convert, target",
        [
            (map_partition_certificate, ThreePartitionInstance((1, 1, 1), 3)),
            (lift_certificate, sign_partition(WeightVector((0, 0, 0)))),
            (project_certificate, sign_partition(WeightVector((0, 0, 0)))),
        ],
        ids=["map", "lift", "project"],
    )
    def test_ground_set_mismatch(self, convert, target):
        with pytest.raises(GroundSetMismatchError):
            convert(Hypergraph(4, ()), target)

    @given(st.data())
    def test_round_trip(self, data):
        w = data.draw(
            st.lists(st.integers(-5, 5), min_size=3, max_size=7).map(
                lambda v: WeightVector(tuple(v))
            )
        )
        sp = sign_partition(w)
        zero_edges = list(sp.s_zero)
        subset = data.draw(st.sets(st.sampled_from(zero_edges))) if zero_edges else set()
        g = Hypergraph(w.n, tuple(sorted(subset)))
        assert project_certificate(lift_certificate(g, sp), sp) == g


class TestComposedReduction:
    def test_degenerate(self):
        reduced = reduce_partition_to_degseq(ThreePartitionInstance((1, 1, 1), 3))
        assert reduced.degseq.d.values == (1, 1, 1)

    def test_small_no_plus(self):
        reduced = reduce_partition_to_degseq(ThreePartitionInstance((1, 1, 2), 4))
        assert reduced.degseq.d.values == (1, 1, 1)

    def test_six_values_golden(self):
        # frozen from exhaustive enumeration of all 20 triples of [6]
        inst = ThreePartitionInstance((1, 2, 3, 4, 5, 7), 11)
        reduced = reduce_partition_to_degseq(inst)
        assert reduced.zero_weight.w.values == (-8, -5, -2, 1, 4, 10)
        assert reduced.degseq.d.values == (3, 4, 5, 6, 6, 9)
        sp = reduced.sign_partition
        assert (len(sp.s_minus), len(sp.s_zero), len(sp.s_plus)) == (9, 2, 9)
        assert sp.s_zero == ((0, 2, 5), (1, 3, 4))

    def test_matches_two_step_composition(self):
        inst = ThreePartitionInstance((2, 0, 4, 3, 1, 2), 6)
        composed = reduce_partition_to_degseq(inst)
        zero = reduce_partition_to_zero(inst)
        two_step = reduce_zero_to_degseq(zero)
        assert composed == two_step
        assert composed.zero_weight == zero


class TestReductionProperties:
    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(0, 12),
        st.booleans(),
    )
    def test_promise_preserved_and_identity(self, seed, ngroups, max_value, planted):
        inst = gen_partition(3 * ngroups, max_value, seed, planted=planted)
        zero = reduce_partition_to_zero(inst)
        assert checked_dot(zero.w.values, zero.c.values) == 0
        for x in itertools.combinations(range(inst.n), 3):
            ax = sum(inst.a[v] for v in x)
            assert weighted_value(zero.w, x) == 3 * (ax - inst.b)

    @given(st.integers(0, 10**6), st.integers(1, 2), st.integers(0, 9))
    def test_feasible_sets_coincide(self, seed, ngroups, max_value):
        inst = gen_partition(3 * ngroups, max_value, seed, planted=True)
        zero = reduce_partition_to_zero(inst)
        by_a = {
            x
            for x in itertools.combinations(range(inst.n), 3)
            if sum(inst.a[v] for v in x) == inst.b
        }
        by_w = set(sign_partition(zero.w).s_zero)
        assert by_a == by_w
