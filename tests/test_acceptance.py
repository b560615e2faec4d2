"""Acceptance suite: nine oracle-equivalence and invariant criteria.

Every criterion runs at its exact stated tolerance (the domain is integer,
so everything is exact equality) and asserts its wall-clock limit. One
pass/fail line prints per criterion; run `pytest tests/test_acceptance.py
-v -s` to stream them.
"""

from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path
from time import perf_counter

from hyperdeg import (
    DegreeSequence,
    SplitMix64,
    ThreePartitionInstance,
    bruteforce_degseq,
    bruteforce_partition,
    decide_degseq,
    decide_partition,
    degree_sum,
    eg_check,
    gen_partition,
    gen_planted_degseq,
    graph_bruteforce,
    hh_realize,
    lift_certificate,
    map_partition_certificate,
    parse_instance,
    prefilter_degseq,
    project_certificate,
    reduce_partition_to_degseq,
    reduce_partition_to_zero,
    serialize_instance,
    verify_certificate,
    weighted_value,
)
from hyperdeg.cli import cli_main

GOLDENS = Path(__file__).parent / "goldens"


@contextmanager
def criterion(num, name, limit_seconds=None):
    started = perf_counter()
    try:
        yield
        elapsed = perf_counter() - started
        if limit_seconds is not None:
            assert elapsed < limit_seconds, (
                f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
            )
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.1f}s)")


def test_criterion_1_erdos_gallai_exhaustive_agreement():
    # all length-n vectors over {0..4} for n = 0..5: 3906 sequences
    with criterion(1, "Erdos-Gallai exhaustive agreement", 60):
        checked = 0
        for n in range(6):
            for vals in product(range(5), repeat=n):
                d = DegreeSequence(vals)
                by_eg = eg_check(d)
                by_bf = graph_bruteforce(d)
                by_hh = hh_realize(d) is not None
                assert by_eg == by_bf == by_hh, vals
                checked += 1
        assert checked == 3906


def test_criterion_2_eg_hh_extended_agreement():
    with criterion(2, "EG/HH extended agreement", 120):
        checked = 0
        for n in range(8):
            for vals in product(range(n), repeat=n) if n else [()]:
                d = DegreeSequence(vals)
                assert eg_check(d) == (hh_realize(d) is not None), vals
                checked += 1
        assert checked == 1 + sum(n**n for n in range(1, 8))


def test_criterion_3_planted_yes_round_trip():
    with criterion(3, "planted-YES round trip", 120):
        meta = SplitMix64(2024)
        for i in range(1000):
            n = 4 + i % 6
            m = meta.below(comb(n, 3) + 1)
            inst, _ = gen_planted_degseq(n, m, seed=i)
            out = decide_degseq(inst.d)
            assert out.answer == "YES", (n, m, i, out.answer)
            assert verify_certificate(out.certificate, inst.d), (n, m, i)


@lru_cache(maxsize=None)
def _degseq_corpus():
    """Criterion 4 corpus with oracle answers (shared with criterion 8)."""
    corpus = []
    for n in (4, 5):
        for vals in product(range(4), repeat=n):
            corpus.append((vals, bruteforce_degseq(DegreeSequence(vals))))
    rng = SplitMix64(640)
    for _ in range(500):
        vals = tuple(rng.below(11) for _ in range(6))
        corpus.append((vals, bruteforce_degseq(DegreeSequence(vals))))
    return tuple(corpus)


def test_criterion_4_solver_oracle_equivalence():
    with criterion(4, "solver-oracle equivalence", 600):
        for vals, oracle_yes in _degseq_corpus():
            out = decide_degseq(DegreeSequence(vals), budget=10**7)
            assert out.answer != "UNKNOWN", vals
            assert (out.answer == "YES") == oracle_yes, vals


@lru_cache(maxsize=None)
def _partition_corpus():
    """Criterion 5 corpus with oracle answers (shared with 6 and 8)."""
    corpus = []
    for a in product(range(5), repeat=3):
        inst = ThreePartitionInstance(a, sum(a))
        corpus.append((inst, bruteforce_partition(inst)))
    for i in range(200):
        inst = gen_partition(6, 8, seed=i, planted=(i < 100))
        corpus.append((inst, bruteforce_partition(inst)))
    return tuple(corpus)


def test_criterion_5_reduction_equivalence():
    with criterion(5, "theorem equivalence via reduction", 600):
        for inst, oracle_yes in _partition_corpus():
            reduced = reduce_partition_to_degseq(inst)
            out = decide_degseq(reduced.degseq.d, budget=10**7)
            assert out.answer != "UNKNOWN", inst
            assert (out.answer == "YES") == oracle_yes, inst


def test_criterion_6_certificate_transport():
    with criterion(6, "certificate transport"):
        for inst, oracle_yes in _partition_corpus():
            if not oracle_yes:
                continue
            reduced = reduce_partition_to_degseq(inst)
            sp = reduced.sign_partition

            # forward: 3-partition witness -> zero-weight -> hypergraph
            f = decide_partition(inst).certificate
            assert f is not None, inst
            lifted = lift_certificate(map_partition_certificate(f, inst), sp)
            assert verify_certificate(lifted, reduced.degseq.d), inst

            # backward: solver-found H -> G with degree vector c, forcing holds
            found = decide_degseq(reduced.degseq.d)
            assert found.answer == "YES", inst
            h_edges = set(found.certificate.edges)
            assert set(sp.s_plus) <= h_edges, inst
            assert not (h_edges & set(sp.s_minus)), inst
            g = project_certificate(found.certificate, sp)
            assert degree_sum(g).values == reduced.zero_weight.c.values, inst


def test_criterion_7_algebraic_identities():
    with criterion(7, "algebraic identities", 10):
        meta = SplitMix64(7777)
        for i in range(10**4):
            n = (3, 6, 9)[i % 3]
            inst = gen_partition(n, meta.below(13), seed=i, planted=(i % 2 == 0))
            zero = reduce_partition_to_zero(inst)
            w = zero.w
            assert sum(wi * ci for wi, ci in zip(w.values, zero.c.values)) == 0
            a = inst.a
            b = inst.b
            for x in combinations(range(n), 3):
                assert weighted_value(w, x) == 3 * (a[x[0]] + a[x[1]] + a[x[2]] - b)


def test_criterion_8_prefilter_soundness():
    with criterion(8, "prefilter soundness"):
        for vals, oracle_yes in _degseq_corpus():
            if oracle_yes:
                assert prefilter_degseq(DegreeSequence(vals)) is None, vals
        for inst, oracle_yes in _partition_corpus():
            if oracle_yes:
                reduced = reduce_partition_to_degseq(inst)
                assert prefilter_degseq(reduced.degseq.d) is None, inst


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "CLI contract and pipeline", 30):
        # parse/serialize byte stability on the canonical goldens
        for name in ("degseq_yes.json", "three_partition_6.json", "zero_weight_no.json"):
            text = GOLDENS.joinpath(name).read_text()
            assert serialize_instance(parse_instance(text)) == text, name

        # exit-code mapping: 0 = YES, 1 = NO, 2 = usage/validation, 3 = UNKNOWN
        assert cli_main(["decide", "--input", str(GOLDENS / "degseq_yes.json")]) == 0
        assert cli_main(["decide", "--input", str(GOLDENS / "degseq_no.json")]) == 1
        assert cli_main(["decide", "--input", "missing.json"]) == 2
        hard = tmp_path / "hard.json"
        hard.write_text('{"problem":"degseq","k":3,"d":[3,3,3,3,3,3,3,3,3,3]}\n')
        assert cli_main(["decide", "--input", str(hard), "--budget", "1"]) == 3
        capsys.readouterr()

        # end-to-end pipeline at n = 9: gen --planted, reduce, decide, verify
        assert cli_main([
            "gen", "--problem", "three_partition",
            "--n", "9", "--max-value", "8", "--seed", "2026", "--planted",
        ]) == 0
        instance = tmp_path / "p9.json"
        instance.write_text(capsys.readouterr().out)

        assert cli_main([
            "reduce", "--from", "three_partition", "--to", "degseq",
            "--input", str(instance),
        ]) == 0
        reduced = tmp_path / "p9_reduced.json"
        reduced.write_text(capsys.readouterr().out)

        certificate = tmp_path / "p9_cert.json"
        assert cli_main([
            "decide", "--input", str(reduced), "--certificate-out", str(certificate),
        ]) == 0
        capsys.readouterr()

        assert cli_main([
            "verify", "--instance", str(reduced), "--certificate", str(certificate),
        ]) == 0
        capsys.readouterr()
