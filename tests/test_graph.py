import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdeg import (
    DegreeSequence,
    Graph,
    Hypergraph,
    InstanceTooLargeError,
    eg_check,
    graph_bruteforce,
    hh_realize,
    verify_certificate,
)
from hyperdeg.graph import verify_graph_certificate


class TestEgCheck:
    def test_triangle(self):
        assert eg_check(DegreeSequence((2, 2, 2)))

    def test_degree_exceeds_n_minus_1(self):
        # the (j, l) = (1, 1) inequality gives 2 <= 0
        assert not eg_check(DegreeSequence((2, 0)))

    def test_3311_not_graphical(self):
        # frozen from the exhaustive search over all graphs on 4 vertices
        assert not eg_check(DegreeSequence((3, 3, 1, 1)))

    def test_odd_sum(self):
        assert not eg_check(DegreeSequence((1, 1, 1)))

    def test_empty_sequence(self):
        assert eg_check(DegreeSequence(()))

    @given(st.lists(st.integers(0, 8), max_size=8), st.randoms())
    def test_permutation_invariant(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert eg_check(DegreeSequence(tuple(vals))) == eg_check(
            DegreeSequence(tuple(shuffled))
        )


class TestHhRealize:
    def test_single_edge(self):
        g = hh_realize(DegreeSequence((1, 1)))
        assert g is not None
        assert g.edges == ((0, 1),)

    def test_not_graphical(self):
        assert hh_realize(DegreeSequence((2, 0))) is None

    def test_realizes_exact_degrees(self):
        d = DegreeSequence((3, 3, 2, 2, 2))
        g = hh_realize(d)
        assert g is not None
        assert g.degrees == d.values

    def test_empty(self):
        g = hh_realize(DegreeSequence((0, 0)))
        assert g is not None
        assert g.edges == ()

    @given(st.integers(0, 7), st.integers(0, 2**20))
    def test_sound_on_planted_graph_degrees(self, n, code):
        pairs = list(combinations(range(n), 2))
        edges = tuple(p for e, p in enumerate(pairs) if code >> e & 1)
        counts = [0] * n
        for i, j in edges:
            counts[i] += 1
            counts[j] += 1
        d = DegreeSequence(tuple(counts))
        g = hh_realize(d)
        assert g is not None
        assert g.degrees == d.values


class TestGraphBruteforce:
    def test_odd_sum(self):
        assert not graph_bruteforce(DegreeSequence((1, 1, 1)))

    def test_triangle(self):
        assert graph_bruteforce(DegreeSequence((2, 2, 2)))

    def test_3311(self):
        assert not graph_bruteforce(DegreeSequence((3, 3, 1, 1)))

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            graph_bruteforce(DegreeSequence((0,) * 8))

    def test_huge_entries_unrealizable(self):
        assert not graph_bruteforce(DegreeSequence((10**12, 0, 0)))


def _planted_graph_degrees(n, rnd):
    pairs = list(combinations(range(n), 2))
    counts = [0] * n
    for i, j in rnd.sample(pairs, rnd.randint(0, len(pairs))):
        counts[i] += 1
        counts[j] += 1
    return DegreeSequence(tuple(counts))


class TestGraphBruteforcePastFive:
    # n = 6 and 7 scan 2^15 and 2^21 labeled graphs per target
    @pytest.mark.parametrize("n", (6, 7))
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_yes(self, n, seed):
        d = _planted_graph_degrees(n, random.Random(100 * n + seed))
        assert graph_bruteforce(d)
        assert eg_check(d)
        assert hh_realize(d) is not None

    @pytest.mark.parametrize("n", (6, 7))
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_no(self, n, seed):
        # an even-total vector with entries below n that Erdos-Gallai rejects
        rnd = random.Random(1000 * n + seed)
        while True:
            d = DegreeSequence(tuple(rnd.randrange(n) for _ in range(n)))
            if sum(d) % 2 == 0 and not eg_check(d):
                break
        assert not graph_bruteforce(d), d.values
        assert hh_realize(d) is None


class TestThreeWayAgreement:
    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive_small(self, n):
        for vals in product(range(n if n else 1), repeat=n):
            d = DegreeSequence(vals)
            by_eg = eg_check(d)
            by_bf = graph_bruteforce(d)
            by_hh = hh_realize(d) is not None
            assert by_eg == by_bf == by_hh, vals


class TestGraphType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (0, 1)))

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_non_integer_indices(self):
        with pytest.raises(ValueError):
            Graph(3, ((0.0, 1),))

    def test_degrees(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert g.degrees == (3, 1, 1, 1)

    def test_from_edges_sorts(self):
        assert Graph.from_edges(3, [(1, 2), (0, 1)]).edges == ((0, 1), (1, 2))

    def test_distinct_from_hypergraph(self):
        # one edge-set base, but the class stays part of the value
        h, g = Hypergraph(3, ()), Graph(3, ())
        assert h != g
        assert repr(h) == "Hypergraph(n=3, edges=())"
        assert repr(g) == "Graph(n=3, edges=())"
        assert len({h, g, Hypergraph(3, ()), Graph(3, ())}) == 2
        assert (h.kind, g.kind) == ("hypergraph", "graph")


class TestVerifyGraphCertificate:
    def test_valid(self):
        assert verify_graph_certificate([(0, 1)], DegreeSequence((1, 1)))

    def test_degree_mismatch(self):
        check = verify_graph_certificate([(0, 1)], DegreeSequence((1, 0)))
        assert not check
        assert check.reason == "degree_mismatch"

    def test_duplicate(self):
        check = verify_graph_certificate([(0, 1), (0, 1)], DegreeSequence((2, 2)))
        assert not check
        assert check.reason == "edges_out_of_order"

    @pytest.mark.parametrize(
        "pairs, triples, reason",
        [
            ([(1, 0)], [(0, 2, 1)], "malformed_edge"),
            ([(0, 4)], [(0, 1, 4)], "malformed_edge"),
            ([(0.0, 1)], [(0.0, 1, 2)], "malformed_edge"),
            ([(0, 1, 2)], [(0, 1)], "malformed_edge"),
            ([(0, 1), (0, 1)], [(0, 1, 2), (0, 1, 2)], "edges_out_of_order"),
            ([(1, 2), (0, 1)], [(1, 2, 3), (0, 1, 2)], "edges_out_of_order"),
            ([(0, 1)], [(0, 1, 3)], "degree_mismatch"),
        ],
        ids=["descending", "out_of_range", "non_integer", "wrong_arity",
             "duplicate", "unsorted", "degrees"],
    )
    def test_same_reason_as_triples(self, pairs, triples, reason):
        # one edge-list check serves both arities, so a fault gets one reason
        d = DegreeSequence((1, 1, 1, 0))
        assert verify_graph_certificate(pairs, d).reason == reason
        assert verify_certificate(triples, d).reason == reason
