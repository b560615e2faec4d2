"""Wire formats and instance generators for batch experimentation.

Instance documents are single JSON objects:

  {"problem": "degseq", "k": 3, "d": [1, 1, 1]}
  {"problem": "zero_weight", "w": [1, -1], "c": [2, 2]}
  {"problem": "three_partition", "a": [1, 1, 1], "b": 3}

Certificates are stored separately; their edges are judged by the
verifiers (core.check_edges), not by the parser:

  {"certificate": "hypergraph", "edges": [[0, 1, 2], [0, 1, 3]]}
  {"certificate": "graph", "edges": [[0, 1]]}           (k = 2 realizations)

Decision results:

  {"answer": "YES", "certificate": {...} | null,
   "stats": {"nodes": 17, "millis": 3}}

All numbers are decimal integers within the signed 64-bit range. Canonical
serialization is compact JSON (no spaces) with the field order shown above
and a trailing newline; parsing a canonical document and re-serializing it
is byte-stable. A top-level "intermediate" field is permitted and skipped
on input: `reduce` embeds its intermediate data there.

Generators draw from SplitMix64, a fixed 64-bit generator documented in
the README, rather than the platform RNG, so identical seeds give
byte-identical fixtures in any implementation of these formats.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Union

from .core import (
    DegreeSequence,
    Hypergraph,
    Int64OverflowError,
    WeightVector,
    check_int,
    degree_sum,
    enumerate_triples,
)
from .graph import Graph
from .reduction import (
    DegSeqInstance,
    PromiseViolationError,
    ThreePartitionInstance,
    ZeroWeightInstance,
)
from .solver import DecisionOutcome

from dataclasses import dataclass

Instance = Union[DegSeqInstance, ZeroWeightInstance, ThreePartitionInstance]

_MASK64 = (1 << 64) - 1


class ParseError(ValueError):
    """A document failed to parse or validate; names the offending field."""

    def __init__(self, message: str, field: Union[str, None] = None):
        super().__init__(message)
        self.field = field


class SplitMix64:
    """SplitMix64: the project's fixed, portable pseudo-random generator.

    State advances by the 64-bit golden-ratio constant; outputs are the
    standard two-round xor-multiply finalizer. Bounded draws use rejection
    sampling on the top of the range, so they are exactly uniform and
    reproducible from the seed alone.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound); bound must be positive."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _check_seed(seed: Any) -> None:
    """A seed is any int but a bool; SplitMix64 masks it to 64 bits."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")


def gen_planted_degseq(n: int, m: int, seed: int) -> tuple[DegSeqInstance, Hypergraph]:
    """Sample m distinct triples of [n] uniformly; return their degree sum
    and the witness hypergraph.

    Sampling is a partial Fisher-Yates pass over the lexicographic triple
    list, so the output is reproducible from (n, m, seed).
    """
    pool = enumerate_triples(n)
    check_int(m, "edge count", nonnegative=True)
    _check_seed(seed)
    if m > len(pool):
        raise ValueError(f"edge count {m} out of range [0, {len(pool)}]")
    rng = SplitMix64(seed)
    for i in range(m):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    witness = Hypergraph(n, tuple(sorted(pool[:m])))
    return DegSeqInstance(d=degree_sum(witness), k=3), witness


def gen_partition(
    n: int, max_value: int, seed: int, planted: bool = False
) -> ThreePartitionInstance:
    """Generate a 3-partition instance satisfying the promise 3*sum(a) = n*b.

    planted: build a as n/3 hidden groups of three values in [0, max_value]
    with a common sum b (the first group drawn freely fixes b, later groups
    are drawn coordinate-wise inside the feasible ranges), then shuffle a.
    The hidden grouping guarantees a YES answer.

    unplanted: draw a uniformly from [0, max_value]^n, then adjust the last
    entry by the smallest delta (trying 0, +1, -1, +2, ...) that keeps it
    nonnegative and makes 3*sum(a) divisible by n; such a delta always
    exists, so no resampling is ever needed.
    """
    check_int(n, "n", nonnegative=True)
    check_int(max_value, "max_value", nonnegative=True)
    _check_seed(seed)
    if n == 0 or n % 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    rng = SplitMix64(seed)
    if planted:
        first = [rng.below(max_value + 1) for _ in range(3)]
        b = sum(first)
        a = list(first)
        for _ in range(n // 3 - 1):
            lo = max(0, b - 2 * max_value)
            hi = min(max_value, b)
            x = lo + rng.below(hi - lo + 1)
            lo2 = max(0, b - x - max_value)
            hi2 = min(max_value, b - x)
            y = lo2 + rng.below(hi2 - lo2 + 1)
            a.extend([x, y, b - x - y])
        rng.shuffle(a)
        return ThreePartitionInstance(a=tuple(a), b=b)
    a = [rng.below(max_value + 1) for _ in range(n)]
    total = sum(a)
    delta = 0
    for step in itertools.count(1):
        # candidate order 0, +1, -1, +2, -2, ...; a valid delta exists in [0, n)
        if (3 * (total + delta)) % n == 0 and a[-1] + delta >= 0:
            break
        delta = (step + 1) // 2 if step % 2 else -(step // 2)
    a[-1] += delta
    b = 3 * (total + delta) // n
    return ThreePartitionInstance(a=tuple(a), b=b)


def _require_int(value: Any, field: str, nonnegative: bool = False) -> int:
    try:
        return check_int(value, f"field '{field}'", nonnegative)
    except (ValueError, Int64OverflowError) as exc:
        raise ParseError(str(exc), field) from None


def _require_int_list(value: Any, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParseError(f"field '{field}' must be a list of integers", field)
    return tuple(_require_int(x, f"{field}[{i}]") for i, x in enumerate(value))


def _check_fields(doc: dict, allowed: set[str]) -> None:
    # "intermediate" carries reduce provenance and is skipped on input
    for key in doc:
        if key not in allowed and key != "intermediate":
            raise ParseError(f"unknown field '{key}'", key)


def _load_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document; errors name the bad field."""
    doc = _load_object(text, "instance")
    problem = doc.get("problem")
    if problem == "degseq":
        _check_fields(doc, {"problem", "k", "d"})
        if "k" not in doc or "d" not in doc:
            raise ParseError("degseq instance needs fields 'k' and 'd'", "d" if "k" in doc else "k")
        k = _require_int(doc["k"], "k")
        if k not in (2, 3):
            raise ParseError(f"field 'k' must be 2 or 3, got {k}", "k")
        d = _require_int_list(doc["d"], "d")
        try:
            return DegSeqInstance(d=DegreeSequence(d), k=k)
        except ValueError as exc:
            raise ParseError(str(exc), "d") from None
    if problem == "zero_weight":
        _check_fields(doc, {"problem", "w", "c"})
        if "w" not in doc or "c" not in doc:
            raise ParseError("zero_weight instance needs fields 'w' and 'c'", "c" if "w" in doc else "w")
        w = _require_int_list(doc["w"], "w")
        c = _require_int_list(doc["c"], "c")
        try:
            return ZeroWeightInstance(w=WeightVector(w), c=DegreeSequence(c))
        except PromiseViolationError as exc:
            raise ParseError(str(exc), "promise") from None
        except ValueError as exc:
            raise ParseError(str(exc), "c") from None
    if problem == "three_partition":
        _check_fields(doc, {"problem", "a", "b"})
        if "a" not in doc or "b" not in doc:
            raise ParseError("three_partition instance needs fields 'a' and 'b'", "b" if "a" in doc else "a")
        a = _require_int_list(doc["a"], "a")
        b = _require_int(doc["b"], "b", nonnegative=True)
        try:
            return ThreePartitionInstance(a=a, b=b)
        except PromiseViolationError as exc:
            raise ParseError(str(exc), "promise") from None
        except ValueError as exc:
            raise ParseError(str(exc), "a") from None
    raise ParseError(
        "field 'problem' must be one of 'degseq', 'zero_weight', 'three_partition'",
        "problem",
    )


def instance_document(inst: Instance) -> dict:
    if isinstance(inst, DegSeqInstance):
        return {"problem": "degseq", "k": inst.k, "d": list(inst.d.values)}
    if isinstance(inst, ZeroWeightInstance):
        return {
            "problem": "zero_weight",
            "w": list(inst.w.values),
            "c": list(inst.c.values),
        }
    if isinstance(inst, ThreePartitionInstance):
        return {"problem": "three_partition", "a": list(inst.a), "b": inst.b}
    raise TypeError(f"not an instance: {inst!r}")


def dump_document(doc: dict) -> str:
    """Canonical rendering: compact separators, given field order, newline."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def serialize_instance(inst: Instance) -> str:
    return dump_document(instance_document(inst))


@dataclass(frozen=True)
class CertificateDoc:
    """Parsed certificate file: kind 'hypergraph' (triples) or 'graph' (pairs).

    Edges are as read and unjudged: list entries as tuples, others unchanged.
    """

    kind: str
    edges: tuple[Any, ...]


def parse_certificate(text: str) -> CertificateDoc:
    """Parse a certificate document, checking the document only.

    Edge faults are not parse errors: the verifier reports them with its
    reason (malformed_edge or edges_out_of_order).
    """
    doc = _load_object(text, "certificate")
    _check_fields(doc, {"certificate", "edges"})
    kind = doc.get("certificate")
    if kind not in ("hypergraph", "graph"):
        raise ParseError(
            "field 'certificate' must be 'hypergraph' or 'graph'", "certificate"
        )
    raw = doc.get("edges")
    if not isinstance(raw, list):
        raise ParseError("field 'edges' must be a list", "edges")
    return CertificateDoc(kind, tuple(tuple(e) if isinstance(e, list) else e for e in raw))


def certificate_document(cert: Union[Hypergraph, Graph]) -> dict:
    return {"certificate": cert.kind, "edges": [list(e) for e in cert.edges]}


def serialize_certificate(cert: Union[Hypergraph, Graph]) -> str:
    return dump_document(certificate_document(cert))


def result_document(outcome: DecisionOutcome) -> dict:
    cert = None
    if outcome.certificate is not None:
        cert = certificate_document(outcome.certificate)
    return {
        "answer": outcome.answer,
        "certificate": cert,
        "stats": {"nodes": outcome.stats.nodes, "millis": outcome.stats.millis},
    }
