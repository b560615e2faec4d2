import json
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdeg import (
    DegreeSequence,
    DegSeqInstance,
    Hypergraph,
    ParseError,
    SplitMix64,
    ThreePartitionInstance,
    WeightVector,
    ZeroWeightInstance,
    bruteforce_partition,
    gen_partition,
    gen_planted_degseq,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from hyperdeg.graph import Graph
from hyperdeg.workbench import dump_document, result_document
from hyperdeg.solver import decide_degseq


class TestSplitMix64:
    # known-answer vectors cross-checked against the reference C code
    VECTORS = {
        0: (16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444),
        1: (10451216379200822465, 13757245211066428519, 17911839290282890590, 8196980753821780235),
        1234567: (6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431),
    }

    @pytest.mark.parametrize("seed,expected", sorted(VECTORS.items()))
    def test_reference_outputs(self, seed, expected):
        rng = SplitMix64(seed)
        assert tuple(rng.next_u64() for _ in range(4)) == expected

    def test_below_uniform_range(self):
        rng = SplitMix64(9)
        draws = [rng.below(6) for _ in range(2000)]
        assert set(draws) == {0, 1, 2, 3, 4, 5}

    def test_below_rejects_nonpositive(self):
        # a bound above 2^64 would leave no accepted draw, so below would never
        # return; a float or a bool is no bound either
        for bound in (0, -1, 2**64 + 1, 2**65, 2.5, True, "3"):
            with pytest.raises(ValueError):
                SplitMix64(0).below(bound)

    def test_below_full_range_is_the_raw_draw(self):
        assert SplitMix64(7).below(2**64) == SplitMix64(7).next_u64()

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        assert items != list(range(10))


class TestGenPlantedDegseq:
    def test_only_triple(self):
        inst, witness = gen_planted_degseq(3, 1, seed=0)
        assert inst.d.values == (1, 1, 1)
        assert witness.edges == ((0, 1, 2),)

    def test_zero_edges(self):
        inst, witness = gen_planted_degseq(5, 0, seed=1)
        assert inst.d.values == (0, 0, 0, 0, 0)
        assert witness.edges == ()

    def test_witness_certifies(self):
        inst, witness = gen_planted_degseq(6, 3, seed=7)
        assert sum(inst.d.values) == 9
        assert verify_certificate(witness, inst.d)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            gen_planted_degseq(4, 5, seed=0)

    @given(st.integers(0, 10**9), st.integers(3, 8), st.data())
    def test_reproducible_and_valid(self, seed, n, data):
        m = data.draw(st.integers(0, comb(n, 3)))
        first = gen_planted_degseq(n, m, seed)
        second = gen_planted_degseq(n, m, seed)
        assert first == second
        inst, witness = first
        assert len(witness.edges) == m
        assert verify_certificate(witness, inst.d)


class TestGenPartition:
    def test_planted_structure(self):
        inst = gen_partition(3, 9, seed=4, planted=True)
        assert sum(inst.a) == inst.b

    def test_planted_always_yes(self):
        for seed in range(25):
            inst = gen_partition(9, 8, seed=seed, planted=True)
            assert bruteforce_partition(inst)

    def test_unplanted_promise_holds(self):
        for seed in range(25):
            inst = gen_partition(6, 8, seed=seed)
            assert 3 * sum(inst.a) == inst.n * inst.b

    def test_reproducible_bytes(self):
        one = serialize_instance(gen_partition(6, 8, seed=123))
        two = serialize_instance(gen_partition(6, 8, seed=123))
        other = serialize_instance(gen_partition(6, 8, seed=124))
        assert one == two
        assert one != other

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gen_partition(4, 5, seed=0)
        with pytest.raises(ValueError):
            gen_partition(0, 5, seed=0)

    def test_zero_max_value(self):
        inst = gen_partition(6, 0, seed=0, planted=True)
        assert inst.a == (0,) * 6
        assert inst.b == 0


class TestParseInstance:
    def test_degseq(self):
        inst = parse_instance('{"problem":"degseq","k":3,"d":[1,1,1]}')
        assert inst == DegSeqInstance(d=DegreeSequence((1, 1, 1)), k=3)

    def test_three_partition(self):
        inst = parse_instance('{"problem":"three_partition","a":[1,1,1],"b":3}')
        assert inst == ThreePartitionInstance((1, 1, 1), 3)

    def test_zero_weight_promise_violation(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"zero_weight","w":[1,-1],"c":[1,2]}')
        assert err.value.field == "promise"

    def test_unknown_problem(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"sat","clauses":[]}')
        assert err.value.field == "problem"

    def test_unknown_field(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"degseq","k":3,"d":[0],"extra":1}')
        assert err.value.field == "extra"

    def test_intermediate_field_skipped(self):
        inst = parse_instance(
            '{"problem":"degseq","k":3,"d":[1,1,1],"intermediate":{"w":[0]}}'
        )
        assert inst.d.values == (1, 1, 1)

    def test_bool_not_integer(self):
        with pytest.raises(ParseError):
            parse_instance('{"problem":"degseq","k":3,"d":[true]}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_instance("{nope")

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError past Python's 4300 digits
        with pytest.raises(ParseError, match="4300 digits"):
            parse_instance('{"problem":"degseq","k":3,"d":[%s]}' % ("9" * 5000))

    def test_negative_degree_named_field(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"degseq","k":3,"d":[-1]}')
        assert err.value.field == "d"

    def test_negative_b_named_field(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"three_partition","a":[1,1,1],"b":-3}')
        assert err.value.field == "b"

    def test_missing_field(self):
        with pytest.raises(ParseError) as err:
            parse_instance('{"problem":"degseq","k":3}')
        assert err.value.field == "d"

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"problem":"zero_weight","w":[0]}', "c"),
            ('{"problem":"three_partition","b":0}', "a"),
            ('{"problem":"zero_weight","w":[0],"c":[-1]}', "c"),
            ('{"problem":"three_partition","a":[-1,1,0],"b":0}', "a"),
            ('{"problem":"three_partition","a":[1,1,2],"b":3}', "promise"),
            ('{"problem":"degseq","k":4,"d":[0]}', "k"),
            ('{"problem":"degseq","k":3,"d":3}', "d"),
            # the promise arithmetic leaves i64: sum of a = 2**63, w.c = 2**64
            ('{"problem":"three_partition","a":[%d,%d,%d],"b":0}' % ((2**62,) * 3), "promise"),
            ('{"problem":"zero_weight","w":[%d,%d],"c":[4,4]}' % ((2**62,) * 2), "promise"),
        ],
        ids=[
            "zero-weight-missing-c", "partition-missing-a", "negative-c", "negative-a",
            "partition-promise", "k-not-2-or-3", "not-a-list", "partition-sum-overflow",
            "zero-weight-promise-overflow",
        ],
    )
    def test_error_names_field(self, text, field):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.field == field


class TestSerializeRoundTrip:
    CANONICAL = [
        '{"problem":"degseq","k":3,"d":[1,1,1]}\n',
        '{"problem":"zero_weight","w":[-1,-1,-1,3],"c":[3,0,0,1]}\n',
        '{"problem":"three_partition","a":[1,2,3,4,5,7],"b":11}\n',
    ]

    @pytest.mark.parametrize("text", CANONICAL)
    def test_parse_then_serialize_is_byte_stable(self, text):
        assert serialize_instance(parse_instance(text)) == text

    @given(st.integers(0, 10**9), st.integers(3, 7), st.data())
    def test_degseq_round_trip(self, seed, n, data):
        m = data.draw(st.integers(0, comb(n, 3)))
        inst, _ = gen_planted_degseq(n, m, seed)
        assert parse_instance(serialize_instance(inst)) == inst

    @given(st.integers(0, 10**9), st.integers(1, 3), st.integers(0, 20), st.booleans())
    def test_partition_round_trip(self, seed, groups, max_value, planted):
        inst = gen_partition(3 * groups, max_value, seed, planted=planted)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_zero_weight_round_trip(self):
        inst = ZeroWeightInstance(WeightVector((2, -1, 0)), DegreeSequence((1, 2, 5)))
        assert parse_instance(serialize_instance(inst)) == inst

    # integers around both i64 edges, bools and floats: what a caller might pass
    ENTRIES = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([1 << 63, (1 << 63) - 1, -(1 << 63), -(1 << 63) - 1]),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @given(st.lists(ENTRIES, max_size=6), st.lists(ENTRIES, min_size=3, max_size=3))
    def test_accepted_vectors_serialize_canonically(self, xs, a):
        builders = (
            lambda: DegSeqInstance(DegreeSequence(xs)),
            lambda: ZeroWeightInstance(WeightVector(xs), DegreeSequence((0,) * len(xs))),
            lambda: ThreePartitionInstance(tuple(a), sum(a)),  # n = 3: 3 * sum(a) = n * b
        )
        for build in builders:
            try:
                inst = build()
            except (ValueError, OverflowError):
                continue
            text = serialize_instance(inst)
            assert serialize_instance(parse_instance(text)) == text


class TestCertificates:
    def test_round_trip(self):
        h = Hypergraph(5, ((0, 1, 2), (0, 3, 4)))
        doc = parse_certificate(serialize_certificate(h))
        assert doc.kind == "hypergraph"
        assert doc.edges == h.edges

    def test_graph_round_trip(self):
        g = Graph(3, ((0, 1), (1, 2)))
        doc = parse_certificate(serialize_certificate(g))
        assert doc.kind == "graph"
        assert doc.edges == g.edges

    def test_rejects_unsorted_list(self):
        # the parser passes edges on unjudged; the verifier rejects them
        doc = parse_certificate('{"certificate":"hypergraph","edges":[[0,1,3],[0,1,2]]}')
        check = verify_certificate(doc.edges, DegreeSequence((2, 2, 1, 1)))
        assert not check
        assert check.reason == "edges_out_of_order"

    def test_rejects_descending_triple(self):
        doc = parse_certificate('{"certificate":"hypergraph","edges":[[2,1,0]]}')
        check = verify_certificate(doc.edges, DegreeSequence((1, 1, 1)))
        assert not check
        assert check.reason == "malformed_edge"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_certificate('{"certificate":"matching","edges":[]}')

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="4300 digits"):
            parse_certificate('{"certificate":"hypergraph","edges":[[0,1,%s]]}' % ("9" * 5000))


class TestEndToEndPipeline:
    @pytest.mark.parametrize("n", (3, 6, 9))
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_reduce_decide_verify(self, n, seed):
        from hyperdeg import reduce_partition_to_degseq

        inst = gen_partition(n, 7, seed=seed, planted=True)
        reduced = reduce_partition_to_degseq(inst)
        out = decide_degseq(reduced.degseq.d)
        assert out.answer == "YES"
        assert verify_certificate(out.certificate, reduced.degseq.d)


class TestResultDocument:
    def test_yes_document_shape(self):
        out = decide_degseq(DegreeSequence((1, 1, 1)))
        doc = result_document(out)
        assert doc["answer"] == "YES"
        assert doc["certificate"] == {"certificate": "hypergraph", "edges": [[0, 1, 2]]}
        assert set(doc["stats"]) == {"nodes", "millis"}
        parsed = json.loads(dump_document(doc))
        assert parsed == doc

    def test_no_document(self):
        out = decide_degseq(DegreeSequence((2, 2, 2)))
        doc = result_document(out)
        assert doc["answer"] == "NO"
        assert doc["certificate"] is None
