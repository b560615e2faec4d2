"""Command-line surface: decide, reduce, verify, oracle, gen, graph-check.

Every invocation prints one JSON result document to stdout and diagnostics
to stderr. Exit codes: 0 = YES (or valid/graphical/success), 1 = NO (or
an invalid certificate), 2 = usage error or an invalid document, 3 =
UNKNOWN (node budget exhausted), 4 = internal error (a bug, never an answer).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence, TypeVar, Union

from .core import DegreeSequence, Int64OverflowError, verify_certificate
from .graph import eg_check, graph_bruteforce, hh_realize, verify_graph_certificate
from .reduction import (
    DegSeqInstance,
    ZeroWeightInstance,
    reduce_partition_to_zero,
    reduce_zero_to_degseq,
)
from .solver import (
    DEFAULT_BUDGET,
    DecisionOutcome,
    SearchStats,
    bruteforce_degseq,
    bruteforce_partition,
    bruteforce_zero,
    decide_degseq,
    decide_partition,
    decide_zero,
    verify_partition_certificate,
    verify_zero_certificate,
)
from .workbench import (
    ParseError,
    dump_document,
    gen_partition,
    gen_planted_degseq,
    instance_document,
    parse_certificate,
    parse_instance,
    result_document,
    serialize_certificate,
    serialize_instance,
)

_EXIT_BY_ANSWER = {"YES": 0, "NO": 1, "UNKNOWN": 3}

_Doc = TypeVar("_Doc")


class _CliError(ValueError):
    """Validation failure; message goes to stderr, exit code is 2."""


def _load(path: str, parse: Callable[[str], _Doc]) -> _Doc:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        raise _CliError(f"{path}: {exc}{field}") from None


def _emit(doc: dict) -> None:
    sys.stdout.write(dump_document(doc))


def _decide_graph(d: DegreeSequence) -> DecisionOutcome:
    """The one k = 2 decider: Havel-Hakimi decides and certifies.

    eg_check is a cross-check; a disagreement is a bug, never an answer,
    so it raises RuntimeError (exit code 4).
    """
    started = perf_counter()
    realization = hh_realize(d)
    answer = "YES" if realization is not None else "NO"
    if eg_check(d) != (realization is not None):
        raise RuntimeError(f"internal error: Havel-Hakimi says {answer}, Erdos-Gallai disagrees")
    millis = int((perf_counter() - started) * 1000)
    return DecisionOutcome(answer, realization, SearchStats(0, millis, 0.0))


def _cmd_decide(args: argparse.Namespace) -> int:
    inst = _load(args.input, parse_instance)
    if args.k is not None and (not isinstance(inst, DegSeqInstance) or inst.k != args.k):
        raise _CliError(f"--k {args.k} does not match the instance in {args.input}")
    if isinstance(inst, DegSeqInstance) and inst.k == 2:
        outcome = _decide_graph(inst.d)
    elif isinstance(inst, DegSeqInstance):
        outcome = decide_degseq(inst.d, budget=args.budget)
    elif isinstance(inst, ZeroWeightInstance):
        outcome = decide_zero(inst, budget=args.budget)
    else:
        outcome = decide_partition(inst, budget=args.budget)
    _emit(result_document(outcome))
    if args.certificate_out and outcome.certificate is not None:
        Path(args.certificate_out).write_text(
            serialize_certificate(outcome.certificate), encoding="utf-8"
        )
    return _EXIT_BY_ANSWER[outcome.answer]


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = _load(args.input, parse_instance)
    if instance_document(inst)["problem"] != args.source:
        raise _CliError(f"{args.input} is not a {args.source} instance")
    if args.source == args.target:
        raise _CliError(f"unsupported reduction {args.source} -> {args.target}")
    zero = inst if args.source == "zero_weight" else reduce_partition_to_zero(inst)
    if args.target == "zero_weight":
        _emit(instance_document(zero))
        return 0
    degseq, sp, _ = reduce_zero_to_degseq(zero)
    doc = instance_document(degseq)
    doc["intermediate"] = {
        "w": list(zero.w.values),
        "c": list(zero.c.values),
        "sign_sizes": {
            "minus": len(sp.s_minus.edges),
            "zero": len(sp.s_zero.edges),
            "plus": len(sp.s_plus.edges),
        },
    }
    _emit(doc)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load(args.instance, parse_instance)
    cert = _load(args.certificate, parse_certificate)
    if isinstance(inst, DegSeqInstance) and inst.k == 2:
        if cert.kind != "graph":
            raise _CliError("a k = 2 instance needs a 'graph' certificate")
        check = verify_graph_certificate(cert.edges, inst.d)
    else:
        if cert.kind != "hypergraph":
            raise _CliError(f"instance in {args.instance} needs a 'hypergraph' certificate")
        if isinstance(inst, DegSeqInstance):
            check = verify_certificate(cert.edges, inst.d)
        elif isinstance(inst, ZeroWeightInstance):
            check = verify_zero_certificate(cert.edges, inst)
        else:
            check = verify_partition_certificate(cert.edges, inst)
    _emit({"valid": check.ok, "reason": check.reason})
    return 0 if check.ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load(args.input, parse_instance)
    started = perf_counter()
    if isinstance(inst, DegSeqInstance):
        found = graph_bruteforce(inst.d) if inst.k == 2 else bruteforce_degseq(inst.d)
    elif isinstance(inst, ZeroWeightInstance):
        found = bruteforce_zero(inst)
    else:
        found = bruteforce_partition(inst)
    answer = "YES" if found else "NO"
    millis = int((perf_counter() - started) * 1000)
    _emit(result_document(DecisionOutcome(answer, None, SearchStats(0, millis, 0.0))))
    return _EXIT_BY_ANSWER[answer]


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.problem == "degseq":
        if args.m is None:
            raise _CliError("gen --problem degseq needs --m")
        inst, witness = gen_planted_degseq(args.n, args.m, args.seed)
        sys.stdout.write(serialize_instance(inst))
        if args.witness_out:
            Path(args.witness_out).write_text(
                serialize_certificate(witness), encoding="utf-8"
            )
        return 0
    if args.max_value is None:
        raise _CliError("gen --problem three_partition needs --max-value")
    inst = gen_partition(args.n, args.max_value, args.seed, planted=args.planted)
    sys.stdout.write(serialize_instance(inst))
    return 0


def _cmd_graph_check(args: argparse.Namespace) -> int:
    inst = _load(args.input, parse_instance)
    if not isinstance(inst, DegSeqInstance) or inst.k != 2:
        raise _CliError("graph-check needs a degseq instance with k = 2")
    graph = _decide_graph(inst.d).certificate
    graphical = graph is not None
    realization = [list(e) for e in graph.edges] if args.realize and graphical else None
    _emit({"graphical": graphical, "realization": realization})
    return 0 if graphical else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdeg",
        description="Degree-sequence realizability workbench for 3-hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an instance exactly, with certificate")
    p.add_argument("--input", required=True, help="instance JSON file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="node budget (default 10^7)")
    p.add_argument("--k", type=int, choices=(2, 3), default=None, help="expected uniformity")
    p.add_argument("--certificate-out", default=None, help="write YES certificate here")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("reduce", help="apply a forward reduction")
    p.add_argument("--from", dest="source", required=True,
                   choices=("three_partition", "zero_weight"))
    p.add_argument("--to", dest="target", required=True,
                   choices=("zero_weight", "degseq"))
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth (size-guarded)")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate instances (seeded, reproducible)")
    p.add_argument("--problem", required=True, choices=("degseq", "three_partition"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="edge count (degseq)")
    p.add_argument("--max-value", type=int, default=None, help="value bound (three_partition)")
    p.add_argument("--planted", action="store_true", help="hide a YES witness (three_partition)")
    p.add_argument("--witness-out", default=None, help="write the planted witness here (degseq)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("graph-check", help="Havel-Hakimi test for k = 2, Erdos-Gallai checked")
    p.add_argument("--input", required=True)
    p.add_argument("--realize", action="store_true", help="include a Havel-Hakimi realization")
    p.set_defaults(func=_cmd_graph_check)

    return parser


def cli_main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, Int64OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a bug; it must not read as YES, NO or UNKNOWN
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
