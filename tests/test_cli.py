import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperdeg
import hyperdeg.cli
import hyperdeg.graph
import hyperdeg.solver
from hyperdeg.cli import cli_main

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestDecide:
    def test_yes_exit_0(self, capsys):
        code, doc = out_json(capsys, "decide", "--input", str(GOLDENS / "degseq_yes.json"))
        assert code == 0
        assert doc["answer"] == "YES"
        assert doc["certificate"] == {"certificate": "hypergraph", "edges": [[0, 1, 2]]}
        assert doc["stats"]["nodes"] >= 0

    def test_no_exit_1(self, capsys):
        code, doc = out_json(capsys, "decide", "--input", str(GOLDENS / "degseq_no.json"))
        assert code == 1
        assert doc["answer"] == "NO"
        assert doc["certificate"] is None

    def test_unknown_exit_3(self, capsys, tmp_path):
        hard = tmp_path / "hard.json"
        hard.write_text('{"problem":"degseq","k":3,"d":[3,3,3,3,3,3,3,3,3,3]}\n')
        code, doc = out_json(capsys, "decide", "--input", str(hard), "--budget", "1")
        assert code == 3
        assert doc["answer"] == "UNKNOWN"

    def test_deep_search_yes_exit_0(self, capsys, tmp_path):
        # 1141 nodes deep; the former recursive engine crashed here and the
        # traceback left with exit code 1, the code for NO
        deep = tmp_path / "deep.json"
        d = [171] * 20 + [0] * 5
        deep.write_text(json.dumps({"problem": "degseq", "k": 3, "d": d}))
        code, doc = out_json(capsys, "decide", "--input", str(deep))
        assert code == 0
        assert doc["answer"] == "YES"
        assert doc["stats"]["nodes"] == 1141

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def broken(d, budget):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(hyperdeg.solver, "decide_degseq", broken)
        code, out, err = run(capsys, "decide", "--input", str(GOLDENS / "degseq_yes.json"))
        assert code == 4
        assert out == ""
        assert "Traceback" in err
        assert err.endswith("internal error: RuntimeError: engine bug\n")

    @pytest.mark.parametrize(
        "doc",
        [
            GOLDENS.joinpath("degseq_yes.json").read_text(),
            '{"problem":"zero_weight","w":[0,0,0],"c":[1,1,1]}',
            GOLDENS.joinpath("three_partition_6.json").read_text(),
        ],
        ids=["degseq_yes.json", "zero_weight_yes", "three_partition_6.json"],
    )
    def test_malformed_engine_output_exit_4(self, capsys, monkeypatch, tmp_path, doc):
        # a repeated triple fails Hypergraph construction with ValueError; an
        # engine fault must not read as the exit 2 of an invalid instance.
        # Each instance passes the prefilter, so the search is reached.
        def broken(n, candidates, target, budget):
            return "YES", ((0, 1, 2), (0, 1, 2)), None, 1

        monkeypatch.setattr(hyperdeg.solver, "_run_search", broken)
        inst = tmp_path / "inst.json"
        inst.write_text(doc)
        code, out, err = run(capsys, "decide", "--input", str(inst))
        assert code == 4
        assert out == ""
        assert err.endswith(
            "internal error: RuntimeError: internal error: "
            "search returned an invalid certificate (edges_out_of_order)\n"
        )

    def test_certificate_write_failure_prints_nothing(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "decide",
            "--input", str(GOLDENS / "degseq_yes.json"),
            "--certificate-out", str(tmp_path / "missing" / "c.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_deeply_nested_instance_exit_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "decide", "--input", str(deep))
        assert (code, out) == (2, "")
        assert "invalid JSON" in err

    def test_integer_past_the_digit_limit_exit_2(self, capsys, tmp_path):
        # a parse error like any other: the message names the file
        inst = tmp_path / "long.json"
        inst.write_text('{"problem":"degseq","k":3,"d":[%s]}' % ("9" * 5000))
        code, out, err = run(capsys, "decide", "--input", str(inst))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {inst}: invalid JSON: ")

    def test_promise_overflow_names_the_file(self, capsys, tmp_path):
        # sum of a = 2**63 leaves i64 while the promise is checked: a parse
        # error like any other, so the message names the file
        inst = tmp_path / "inst.json"
        inst.write_text('{"problem":"three_partition","a":[%d,%d,%d],"b":0}' % ((2**62,) * 3))
        code, out, err = run(capsys, "decide", "--input", str(inst))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {inst}: sum of a = {2**63} is outside")

    def test_weight_sum_overflow_exit_2(self, capsys, tmp_path):
        # a valid instance whose triple (0, 2, 4) sums outside i64
        inst = tmp_path / "inst.json"
        inst.write_text(_VERIFY_INSTANCES["zero_huge"][0])
        code, out, err = run(capsys, "decide", "--input", str(inst))
        assert (code, out) == (2, "")
        assert "outside the signed 64-bit range" in err

    def test_demand_total_overflow_exit_2(self, capsys, tmp_path):
        # a valid zero-weight instance whose demand total 3 * 2**62 leaves
        # i64: the prefilter refuses it as it refuses the degree sequence
        inst = tmp_path / "inst.json"
        inst.write_text('{"problem":"zero_weight","w":[1,-1,0],"c":[%d,%d,%d]}' % ((2**62,) * 3))
        code, out, err = run(capsys, "decide", "--input", str(inst))
        assert (code, out) == (2, "")
        assert "degree total" in err and "outside the signed 64-bit range" in err

    def test_zero_weight_instance(self, capsys):
        code, doc = out_json(capsys, "decide", "--input", str(GOLDENS / "zero_weight_no.json"))
        assert code == 1
        assert doc["answer"] == "NO"

    def test_three_partition_instance(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, doc = out_json(
            capsys,
            "decide",
            "--input", str(GOLDENS / "three_partition_6.json"),
            "--certificate-out", str(cert),
        )
        assert code == 0
        assert cert.read_text() == GOLDENS.joinpath("certificate_p6.json").read_text()

    def test_k2_route(self, capsys):
        code, doc = out_json(capsys, "decide", "--input", str(GOLDENS / "graph_k2.json"))
        assert code == 0
        assert doc["answer"] == "YES"
        assert doc["certificate"]["certificate"] == "graph"

    def test_k2_budget_zero_yes(self, capsys):
        # k = 2 runs no search, so no budget can cut it short
        code, doc = out_json(
            capsys, "decide", "--input", str(GOLDENS / "graph_k2.json"), "--budget", "0"
        )
        assert (code, doc["answer"]) == (0, "YES")

    @pytest.mark.parametrize(
        "d, code, stdout",
        [
            (
                [3, 3, 2, 2, 2],
                0,
                '{"answer":"YES","certificate":{"certificate":"graph","edges":'
                '[[0,1],[0,2],[0,3],[1,2],[1,4],[3,4]]},"stats":{"nodes":0,"millis":0}}\n',
            ),
            ([3, 3, 1, 1], 1, '{"answer":"NO","certificate":null,"stats":{"nodes":0,"millis":0}}\n'),
        ],
    )
    def test_k2_stdout_bytes(self, capsys, monkeypatch, tmp_path, d, code, stdout):
        monkeypatch.setattr(hyperdeg.cli, "perf_counter", lambda: 0.0)
        inst = tmp_path / "k2.json"
        inst.write_text(json.dumps({"problem": "degseq", "k": 2, "d": d}))
        assert run(capsys, "decide", "--input", str(inst)) == (code, stdout, "")

    @pytest.mark.parametrize(
        "command, name, stub, says",
        [
            ("decide", "hh_realize", lambda d: None, "NO"),
            ("decide", "eg_check", lambda d: False, "YES"),
            ("graph-check", "hh_realize", lambda d: None, "NO"),
            ("graph-check", "eg_check", lambda d: False, "YES"),
        ],
        ids=["hh_realize", "eg_check", "graph-check-hh_realize", "graph-check-eg_check"],
    )
    def test_k2_disagreement_exit_4(
        self, capsys, monkeypatch, tmp_path, command, name, stub, says
    ):
        # Havel-Hakimi decides; Erdos-Gallai is a cross-check, and a
        # disagreement is a bug, never a YES without a certificate
        monkeypatch.setattr(hyperdeg.graph, name, stub)
        inst = tmp_path / "k2.json"
        inst.write_text('{"problem":"degseq","k":2,"d":[1,1]}\n')
        code, out, err = run(capsys, command, "--input", str(inst))
        assert code == 4
        assert out == ""
        assert err.endswith(f"Havel-Hakimi says {says}, Erdos-Gallai disagrees\n")

    @pytest.mark.parametrize(
        "command", [("decide",), ("graph-check", "--realize")], ids=["decide", "graph-check"]
    )
    @pytest.mark.parametrize(
        "edges, reason",
        [(((0, 1),), "degree_mismatch"), (((0, 1), (0, 1)), "edges_out_of_order")],
        ids=["wrong-degrees", "malformed-edges"],
    )
    def test_k2_invalid_realization_exit_4(
        self, capsys, monkeypatch, tmp_path, command, edges, reason
    ):
        # a faulty realization is a bug: neither a YES nor the exit 2 of a bad input
        monkeypatch.setattr(hyperdeg.graph, "hh_realize", lambda d: hyperdeg.graph.Graph(4, edges))
        inst = tmp_path / "k2.json"
        inst.write_text('{"problem":"degseq","k":2,"d":[1,1,1,1]}\n')
        code, out, err = run(capsys, *command, "--input", str(inst))
        assert (code, out) == (4, "")
        assert err.endswith(
            "internal error: RuntimeError: internal error: "
            f"Havel-Hakimi returned an invalid certificate ({reason})\n"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            '{"problem":"degseq","k":3,"d":[2,2,2]}',
            '{"problem":"three_partition","a":[1,1,1,1],"b":3}',
            '{"problem":"degseq","k":3,"d":[1,1,1]}',
            '{"problem":"degseq","k":2,"d":[3,3,2,2,2]}',
        ],
        ids=["prefilter-no", "partition-n-not-divisible-by-3", "search", "k2"],
    )
    def test_negative_budget_exit_2(self, capsys, tmp_path, doc):
        # the budget is checked before any answer, not only when a search
        # runs, and on k = 2 as on k = 3
        inst = tmp_path / "inst.json"
        inst.write_text(doc)
        code, out, err = run(capsys, "decide", "--input", str(inst), "--budget", "-5")
        assert (code, out, err) == (2, "", "error: budget must be a nonnegative integer, got -5\n")

    def test_k_mismatch_exit_2(self, capsys):
        code, out, err = run(
            capsys, "decide", "--input", str(GOLDENS / "degseq_yes.json"), "--k", "2"
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "decide", "--input", "no-such-file.json")
        assert code == 2
        assert "error" in err

    def test_invalid_instance_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem":"zero_weight","w":[1,-1],"c":[1,2]}\n')
        code, out, err = run(capsys, "decide", "--input", str(bad))
        assert code == 2
        assert "promise" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "decide")
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


class TestReduce:
    def test_partition_to_degseq_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "reduce",
            "--from", "three_partition",
            "--to", "degseq",
            "--input", str(GOLDENS / "three_partition_6.json"),
        )
        assert code == 0
        assert out == GOLDENS.joinpath("reduce_partition6_to_degseq.json").read_text()

    def test_partition_to_zero(self, capsys):
        code, doc = out_json(
            capsys,
            "reduce",
            "--from", "three_partition",
            "--to", "zero_weight",
            "--input", str(GOLDENS / "three_partition_6.json"),
        )
        assert code == 0
        assert doc == {
            "problem": "zero_weight",
            "w": [-8, -5, -2, 1, 4, 10],
            "c": [1, 1, 1, 1, 1, 1],
        }

    def test_zero_to_degseq(self, capsys):
        code, doc = out_json(
            capsys,
            "reduce",
            "--from", "zero_weight",
            "--to", "degseq",
            "--input", str(GOLDENS / "zero_weight_no.json"),
        )
        assert code == 0
        assert doc["d"] == [5, 2, 2, 4]
        assert doc["intermediate"]["w"] == [-1, -1, -1, 3]
        assert doc["intermediate"]["c"] == [3, 0, 0, 1]
        assert doc["intermediate"]["sign_sizes"] == {"minus": 1, "zero": 0, "plus": 3}

    def test_reduce_output_feeds_decide(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "reduce",
            "--from", "three_partition",
            "--to", "degseq",
            "--input", str(GOLDENS / "three_partition_6.json"),
        )
        reduced = tmp_path / "reduced.json"
        reduced.write_text(out)
        code, doc = out_json(capsys, "decide", "--input", str(reduced))
        assert code == 0
        assert doc["answer"] == "YES"

    def test_wrong_source_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "reduce",
            "--from", "zero_weight",
            "--to", "degseq",
            "--input", str(GOLDENS / "degseq_yes.json"),
        )
        assert code == 2

    def test_unsupported_direction_exit_2(self, capsys):
        code, _, _ = run(
            capsys,
            "reduce",
            "--from", "zero_weight",
            "--to", "zero_weight",
            "--input", str(GOLDENS / "zero_weight_no.json"),
        )
        assert code == 2


class TestVerify:
    def test_valid_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text('{"certificate":"hypergraph","edges":[[0,1,2]]}\n')
        code, doc = out_json(
            capsys,
            "verify",
            "--instance", str(GOLDENS / "degseq_yes.json"),
            "--certificate", str(cert),
        )
        assert code == 0
        assert doc == {"valid": True, "reason": None}

    def test_invalid_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text('{"certificate":"hypergraph","edges":[]}\n')
        code, doc = out_json(
            capsys,
            "verify",
            "--instance", str(GOLDENS / "degseq_yes.json"),
            "--certificate", str(cert),
        )
        assert code == 1
        assert doc["valid"] is False
        assert doc["reason"] == "degree_mismatch"

    def test_partition_certificate(self, capsys):
        code, doc = out_json(
            capsys,
            "verify",
            "--instance", str(GOLDENS / "three_partition_6.json"),
            "--certificate", str(GOLDENS / "certificate_p6.json"),
        )
        assert code == 0
        assert doc["valid"] is True

    def test_kind_mismatch_exit_2(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text('{"certificate":"graph","edges":[[0,1]]}\n')
        code, _, _ = run(
            capsys,
            "verify",
            "--instance", str(GOLDENS / "degseq_yes.json"),
            "--certificate", str(cert),
        )
        assert code == 2


# every reason `verify` can print, per instance kind; edges are judged by
# the verifier, so an edge fault is an invalid certificate (exit 1)
_VERIFY_INSTANCES = {
    "degseq3": ('{"problem":"degseq","k":3,"d":[1,1,1]}', "hypergraph", "graph"),
    "degseq2": ('{"problem":"degseq","k":2,"d":[3,3,2,2,2]}', "graph", "hypergraph"),
    "zero": ('{"problem":"zero_weight","w":[0,1,-1,1,-1],"c":[2,1,1,1,1]}', "hypergraph", "graph"),
    "partition": ('{"problem":"three_partition","a":[1,2,3,4,5,7],"b":11}', "hypergraph", "graph"),
    # B = 2^62 - 1: w.c = 0 in i64, but w(0, 2, 4) = 3B and w(1, 3, 5) = -3B are not
    "zero_huge": (
        '{"problem":"zero_weight","w":[%d,-%d,%d,-%d,%d,-%d],"c":[1,1,1,1,1,1]}'
        % ((2**62 - 1,) * 6),
        "hypergraph",
        "graph",
    ),
}
_VERIFY_TABLE = [
    ("degseq3", "valid", "[[0,1,2]]", None),
    ("degseq3", "empty", "[]", "degree_mismatch"),
    ("degseq3", "descending", "[[2,1,0]]", "malformed_edge"),
    ("degseq3", "width", "[[0,1]]", "malformed_edge"),
    ("degseq3", "float", "[[0.0,1,2]]", "malformed_edge"),
    ("degseq3", "bool", "[[false,1,2]]", "malformed_edge"),
    ("degseq3", "range", "[[0,1,3]]", "malformed_edge"),
    ("degseq3", "order", "[[0,1,2],[0,1,2]]", "edges_out_of_order"),
    ("degseq2", "valid", "[[0,1],[0,2],[0,3],[1,2],[1,4],[3,4]]", None),
    ("degseq2", "empty", "[]", "degree_mismatch"),
    ("degseq2", "descending", "[[1,0]]", "malformed_edge"),
    ("degseq2", "width", "[[0,1,2]]", "malformed_edge"),
    ("degseq2", "float", "[[0.0,1]]", "malformed_edge"),
    ("degseq2", "bool", "[[false,1]]", "malformed_edge"),
    ("degseq2", "range", "[[0,5]]", "malformed_edge"),
    ("degseq2", "order", "[[0,2],[0,1]]", "edges_out_of_order"),
    ("zero", "valid", "[[0,1,2],[0,3,4]]", None),
    ("zero", "empty", "[]", "degree_mismatch"),
    ("zero", "descending", "[[2,1,0],[0,3,4]]", "malformed_edge"),
    ("zero", "width", "[[0,1],[0,3,4]]", "malformed_edge"),
    ("zero", "float", "[[0.0,1,2],[0,3,4]]", "malformed_edge"),
    ("zero", "bool", "[[false,1,2],[0,3,4]]", "malformed_edge"),
    ("zero", "range", "[[0,1,2],[0,3,5]]", "malformed_edge"),
    ("zero", "order", "[[0,3,4],[0,1,2]]", "edges_out_of_order"),
    ("zero", "nonzero", "[[0,1,3],[0,2,4]]", "edge_outside_zero_set"),
    ("zero_huge", "overflow", "[[0,2,4],[1,3,5]]", "edge_outside_zero_set"),
    ("partition", "valid", "[[0,2,5],[1,3,4]]", None),
    ("partition", "partial", "[[0,2,5]]", "degree_mismatch"),
    ("partition", "descending", "[[5,2,0],[1,3,4]]", "malformed_edge"),
    ("partition", "width", "[[0,2],[1,3,4]]", "malformed_edge"),
    ("partition", "float", "[[0.0,2,5],[1,3,4]]", "malformed_edge"),
    ("partition", "bool", "[[false,2,5],[1,3,4]]", "malformed_edge"),
    ("partition", "range", "[[0,2,5],[1,3,6]]", "malformed_edge"),
    ("partition", "order", "[[1,3,4],[0,2,5]]", "edges_out_of_order"),
    ("partition", "value", "[[0,1,2],[3,4,5]]", "edge_value_mismatch"),
]


def _run_verify(capsys, tmp_path, instance, certificate):
    (tmp_path / "inst.json").write_text(_VERIFY_INSTANCES[instance][0])
    (tmp_path / "cert.json").write_text(certificate)
    code, out, _ = run(
        capsys,
        "verify",
        "--instance", str(tmp_path / "inst.json"),
        "--certificate", str(tmp_path / "cert.json"),
    )
    return code, out


@pytest.mark.parametrize(
    "instance, edges, reason",
    [pytest.param(i, e, r, id=f"{i}-{label}") for i, label, e, r in _VERIFY_TABLE],
)
def test_verify_reason_table(capsys, tmp_path, instance, edges, reason):
    kind = _VERIFY_INSTANCES[instance][1]
    cert = f'{{"certificate":"{kind}","edges":{edges}}}'
    code, out = _run_verify(capsys, tmp_path, instance, cert)
    if reason is None:
        assert (code, out) == (0, '{"valid":true,"reason":null}\n')
    else:
        assert (code, out) == (1, f'{{"valid":false,"reason":"{reason}"}}\n')


def test_verify_deeply_nested_certificate_exit_2(capsys, tmp_path):
    cert = '{"certificate":"hypergraph","edges":%s}' % ("[" * 100_000 + "]" * 100_000)
    assert _run_verify(capsys, tmp_path, "degseq3", cert) == (2, "")


@pytest.mark.parametrize("instance", sorted(_VERIFY_INSTANCES))
@pytest.mark.parametrize(
    "document",
    ["not_object", "unknown_kind", "edges_not_list", "kind_mismatch"],
)
def test_verify_document_fault_exit_2(capsys, tmp_path, instance, document):
    _, kind, other = _VERIFY_INSTANCES[instance]
    cert = {
        "not_object": f'[{{"certificate":"{kind}","edges":[]}}]',
        "unknown_kind": '{"certificate":"matching","edges":[]}',
        "edges_not_list": f'{{"certificate":"{kind}","edges":5}}',
        "kind_mismatch": f'{{"certificate":"{other}","edges":[]}}',
    }[document]
    assert _run_verify(capsys, tmp_path, instance, cert) == (2, "")


class TestOracle:
    def test_yes(self, capsys):
        code, doc = out_json(capsys, "oracle", "--input", str(GOLDENS / "degseq_yes.json"))
        assert code == 0
        assert doc["answer"] == "YES"

    def test_no(self, capsys):
        code, doc = out_json(capsys, "oracle", "--input", str(GOLDENS / "degseq_no.json"))
        assert code == 1

    def test_partition(self, capsys):
        code, doc = out_json(
            capsys, "oracle", "--input", str(GOLDENS / "three_partition_6.json")
        )
        assert code == 0

    @pytest.mark.parametrize(
        "d, code", [([6, 6, 6, 6, 6, 6, 0], 1), ([1, 1, 1, 1, 1, 1, 2], 0)]
    )
    def test_graph_n7(self, capsys, tmp_path, d, code):
        inst = tmp_path / "k2.json"
        inst.write_text(json.dumps({"problem": "degseq", "k": 2, "d": d}) + "\n")
        got, doc = out_json(capsys, "oracle", "--input", str(inst))
        assert got == code
        assert doc["answer"] == ("YES" if code == 0 else "NO")

    def test_too_large_exit_2(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"problem": "degseq", "k": 3, "d": [0] * 9}) + "\n")
        code, _, err = run(capsys, "oracle", "--input", str(big))
        assert code == 2
        assert "n <= 6" in err


class TestGen:
    def test_reproducible(self, capsys):
        code1, out1, _ = run(
            capsys, "gen", "--problem", "three_partition",
            "--n", "6", "--max-value", "8", "--seed", "3", "--planted",
        )
        code2, out2, _ = run(
            capsys, "gen", "--problem", "three_partition",
            "--n", "6", "--max-value", "8", "--seed", "3", "--planted",
        )
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["problem"] == "three_partition"

    def test_degseq_with_witness(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        code, out, _ = run(
            capsys, "gen", "--problem", "degseq",
            "--n", "6", "--m", "4", "--seed", "11", "--witness-out", str(witness),
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(doc["d"]) == 12
        cert = json.loads(witness.read_text())
        assert len(cert["edges"]) == 4

    def test_witness_write_failure_prints_nothing(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "gen", "--problem", "degseq", "--n", "6", "--m", "4", "--seed", "11",
            "--witness-out", str(tmp_path / "missing" / "w.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_missing_m_exit_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--problem", "degseq", "--n", "6", "--seed", "1")
        assert code == 2

    def test_missing_max_value_exit_2(self, capsys):
        code, out, err = run(
            capsys, "gen", "--problem", "three_partition", "--n", "6", "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: gen --problem three_partition needs --max-value\n"

    def test_bad_n_exit_2(self, capsys):
        code, _, err = run(
            capsys, "gen", "--problem", "three_partition",
            "--n", "5", "--max-value", "3", "--seed", "1",
        )
        assert code == 2


class TestGraphCheck:
    def test_graphical_with_realization(self, capsys):
        code, doc = out_json(
            capsys, "graph-check", "--input", str(GOLDENS / "graph_k2.json"), "--realize"
        )
        assert code == 0
        assert doc["graphical"] is True
        degrees = [0] * 5
        for i, j in doc["realization"]:
            degrees[i] += 1
            degrees[j] += 1
        assert degrees == [3, 3, 2, 2, 2]

    def test_not_graphical(self, capsys, tmp_path):
        inst = tmp_path / "bad.json"
        inst.write_text('{"problem":"degseq","k":2,"d":[3,3,1,1]}\n')
        code, doc = out_json(capsys, "graph-check", "--input", str(inst))
        assert code == 1
        assert doc == {"graphical": False, "realization": None}

    def test_needs_k2_exit_2(self, capsys):
        code, _, _ = run(capsys, "graph-check", "--input", str(GOLDENS / "degseq_yes.json"))
        assert code == 2


class TestPipeline:
    def test_gen_reduce_decide_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--problem", "three_partition",
            "--n", "6", "--max-value", "9", "--seed", "42", "--planted",
        )
        assert code == 0
        instance = tmp_path / "p.json"
        instance.write_text(out)

        code, out, _ = run(
            capsys, "reduce", "--from", "three_partition", "--to", "degseq",
            "--input", str(instance),
        )
        assert code == 0
        reduced = tmp_path / "reduced.json"
        reduced.write_text(out)

        cert = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "decide", "--input", str(reduced), "--certificate-out", str(cert),
        )
        assert code == 0
        assert json.loads(out)["answer"] == "YES"

        code, doc = out_json(
            capsys, "verify", "--instance", str(reduced), "--certificate", str(cert),
        )
        assert code == 0
        assert doc["valid"] is True


# Modules whose loading a CLI process must not pay for unless its command
# runs them: dataclasses and traceback cost start-up, numpy would cost
# start-up and peak RSS and no module needs it, the polytope layer loads
# only when a search outlasts its allowance, and solver, graph and oracle
# belong to the commands that run them.
_WATCHED = (
    "dataclasses", "traceback", "numpy", "hyperdeg.polytope",
    "hyperdeg.solver", "hyperdeg.graph", "hyperdeg.oracle",
)
_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from hyperdeg.cli import cli_main\n"
    "code = cli_main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv, loads",
    [
        ((), ()),
        (("gen", "--problem", "degseq", "--n", "5", "--m", "3", "--seed", "1"), ()),
        (("reduce", "--from", "three_partition", "--to", "degseq",
          "--input", "three_partition_6.json"), ()),
        (("verify", "--instance", "degseq_yes.json", "--certificate", "{cert}"), ()),
        (("verify", "--instance", "three_partition_6.json",
          "--certificate", "certificate_p6.json"), ()),
        (("verify", "--instance", "{zero}", "--certificate", "certificate_p6.json"), ()),
        (("decide", "--input", "degseq_yes.json"), ("hyperdeg.solver",)),
        (("decide", "--k", "2", "--input", "graph_k2.json"), ("hyperdeg.graph",)),
        # every oracle is pure Python
        (("oracle", "--input", "three_partition_6.json"), ("hyperdeg.oracle",)),
        (("oracle", "--input", "{zero}"), ("hyperdeg.oracle",)),
        (("oracle", "--input", "degseq_yes.json"), ("hyperdeg.oracle",)),
        (("oracle", "--input", "graph_k2.json"), ("hyperdeg.oracle",)),
    ],
    ids=[
        "import", "gen", "reduce", "verify", "verify-partition", "verify-zero",
        "decide", "decide-k2", "oracle-partition", "oracle-zero", "oracle-degseq",
        "oracle-k2",
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, loads):
    # a fresh process per command, as the CLI runs; a stray top-level import
    # in the package shows here rather than only as slower start-up
    cert = tmp_path / "cert.json"
    cert.write_text('{"certificate":"hypergraph","edges":[[0,1,2]]}\n')
    # three_partition_6.json reduced to zero-weight; certificate_p6.json certifies it
    zero = tmp_path / "zero.json"
    zero.write_text('{"problem":"zero_weight","w":[-8,-5,-2,1,4,10],"c":[1,1,1,1,1,1]}\n')
    src = Path(hyperdeg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [a.format(cert=cert, zero=zero) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        cwd=GOLDENS, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert {"hyperdeg.core", "hyperdeg.reduction", "hyperdeg.workbench"} <= loaded
    assert sorted(loaded.intersection(_WATCHED)) == sorted(loads)


def test_polytope_imports_core_not_solver():
    # solver loads polytope for a long search, so polytope must not load
    # solver back: the degree count both use lives in core
    src = Path(hyperdeg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys\n"
        "import hyperdeg.polytope\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert "hyperdeg.core" in loaded
    assert "hyperdeg.solver" not in loaded
