"""The three decision problems: instances, reductions, certificate checks.

The chain runs 3-partition -> zero-weight selection -> degree-sequence
realizability:

  (1) 3-partition: given a in Z+^n and b with 3 * sum(a) = n * b, is there
      a set F of triples, each of a-value b, covering every index once?
  (2) zero-weight selection: given w in Z^n and c in Z+^n with w.c = 0, is
      there G inside the zero-weight triples with degree vector c?
  (3) realizability: given d in Z+^n, is there a 3-hypergraph H with
      degree vector d?

Step (1) -> (2) sets w := 3a - b*1 and c := 1, which makes w.x = 3(a.x - b)
for every triple x, so the feasible triple sets coincide and certificates
transfer unchanged. Step (2) -> (3) sets d := c + deg(S+), where
S-/S0/S+ is the sign partition of w. Certificates lift by H := G | S+ and
project by G := H & S0; any H realizing the reduced d is forced to contain
all of S+ and avoid all of S-, which project_certificate checks loudly.
Both reductions to (3) return one Reduction (degseq, sign_partition,
zero_weight), and 3-partition -> (3) is (2) -> (3) after (1) -> (2).

Promise violations (3 * sum(a) != n * b, w.c != 0) are malformed inputs,
rejected at instance construction, never NO answers.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .core import (
    CertificateCheck,
    CertificateError,
    DegreeSequence,
    GroundSetMismatchError,
    Hypergraph,
    Int64OverflowError,
    SignPartition,
    WeightVector,
    _Record,
    _degrees,
    _set_field,
    check_int,
    check_ints,
    checked_dot,
    checked_sum,
    i64,
    sign_partition,
    triple_sums,
    verify_certificate,
)


class PromiseViolationError(ValueError):
    """An instance violates the stated promise of its problem."""


class ThreePartitionInstance(_Record):
    """Values a and target b, promised to satisfy 3 * sum(a) = n * b."""

    a: tuple[int, ...]
    b: int
    _fields = ("a", "b")

    def __init__(self, a: tuple[int, ...], b: int) -> None:
        a = check_ints(a, "a", nonnegative=True)
        check_int(b, "b", nonnegative=True)
        lhs = i64(3 * checked_sum(a, "sum of a"), "3 * sum(a)")
        rhs = i64(len(a) * b, "n * b")
        if lhs != rhs:
            raise PromiseViolationError(
                f"promise 3 * sum(a) = n * b violated: {lhs} != {rhs}"
            )
        _set_field(self, "a", a)
        _set_field(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)


class ZeroWeightInstance(_Record):
    """Weights w and target c, promised to satisfy w.c = 0."""

    w: WeightVector
    c: DegreeSequence
    _fields = ("w", "c")

    def __init__(self, w: WeightVector, c: DegreeSequence) -> None:
        if w.n != c.n:
            raise GroundSetMismatchError(f"w has length {w.n} but c has length {c.n}")
        dot = checked_dot(w.values, c.values, "w.c")
        if dot != 0:
            raise PromiseViolationError(f"promise w.c = 0 violated: w.c = {dot}")
        _set_field(self, "w", w)
        _set_field(self, "c", c)

    @property
    def n(self) -> int:
        return self.w.n


class DegSeqInstance(_Record):
    """A realizability query: uniformity k and target degree vector d."""

    d: DegreeSequence
    k: int
    _fields = ("d", "k")

    def __init__(self, d: DegreeSequence, k: int = 3) -> None:
        if k not in (2, 3):
            raise ValueError(f"only k in {{2, 3}} is supported, got k = {k!r}")
        check_int(k, "k")  # 2.0 == 2, so the membership test alone admits it
        _set_field(self, "d", d)
        _set_field(self, "k", k)

    @property
    def n(self) -> int:
        return self.d.n


def verify_zero_certificate(
    edges: Union[Hypergraph, Sequence[Sequence[int]]], inst: ZeroWeightInstance
) -> CertificateCheck:
    """Check a zero-weight certificate: well-formed, degrees c, all w.x = 0."""
    base = verify_certificate(edges, inst.c)
    if not base:
        return base
    try:
        outside = any(triple_sums(inst.w.values, edges))
    except Int64OverflowError:
        outside = True  # a sum outside i64 is not 0
    if outside:
        return CertificateCheck(False, "edge_outside_zero_set")
    return CertificateCheck(True)


def verify_partition_certificate(
    edges: Union[Hypergraph, Sequence[Sequence[int]]], inst: ThreePartitionInstance
) -> CertificateCheck:
    """Check a 3-partition certificate: covers every index once, a-values b."""
    base = verify_certificate(edges, DegreeSequence((1,) * inst.n))
    if not base:
        return base
    if any(v != inst.b for v in triple_sums(inst.a, edges)):
        return CertificateCheck(False, "edge_value_mismatch")
    return CertificateCheck(True)


class Reduction(NamedTuple):
    """A reduced realizability instance with the data that maps certificates."""

    degseq: DegSeqInstance
    sign_partition: SignPartition
    zero_weight: ZeroWeightInstance


def reduce_partition_to_zero(inst: ThreePartitionInstance) -> ZeroWeightInstance:
    """Map (a, b) to (w, c) with w_i = 3 * a_i - b and c the all-ones vector.

    The output satisfies w.c = 3 * sum(a) - n * b = 0 whenever the input
    promise holds, and w.x = 3 * (a.x - b) for every triple x.
    """
    b = inst.b
    w = WeightVector(
        tuple(i64(i64(3 * ai, "3 * a_i") - b, "weight entry") for ai in inst.a)
    )
    c = DegreeSequence((1,) * inst.n)
    return ZeroWeightInstance(w=w, c=c)


def map_partition_certificate(
    f: Hypergraph, inst: ThreePartitionInstance
) -> Hypergraph:
    """Carry a 3-partition certificate F across the (1) -> (2) reduction.

    w.x = 3(a.x - b) makes the feasible triple sets {x : a.x = b} and
    {x : w.x = 0} coincide, so F transfers unchanged once every edge has
    a.x = b, which this checks.
    """
    if f.n != inst.n:
        raise GroundSetMismatchError(
            f"certificate is on [{f.n}] but instance is on [{inst.n}]"
        )
    b = inst.b
    for (i, j, k), value in zip(f.edges, triple_sums(inst.a, f.edges)):
        if value != b:
            raise CertificateError(
                f"edge ({i}, {j}, {k}) has a-value {value}, expected {b}"
            )
    return f


def reduce_zero_to_degseq(inst: ZeroWeightInstance) -> Reduction:
    """Map (w, c) to the realizability target d = c + core._degrees(S+).

    Returns the sign partition of w and inst itself alongside the reduced
    instance; the certificate maps need exactly this partition and it costs
    O(n^3) to recompute.
    """
    sp = sign_partition(inst.w)
    d = DegreeSequence(
        tuple(
            i64(ci + pi, "reduced degree")
            for ci, pi in zip(inst.c.values, _degrees(inst.n, sp.s_plus))
        )
    )
    return Reduction(degseq=DegSeqInstance(d=d, k=3), sign_partition=sp, zero_weight=inst)


def lift_certificate(g: Hypergraph, sp: SignPartition) -> Hypergraph:
    """Lift a zero-weight certificate G (G inside S0) to H = G | S+.

    degree_sum(H) = degree_sum(G) + degree_sum(S+) because the parts are
    disjoint, so H certifies the reduced degree sequence.
    """
    if g.n != sp.n:
        raise GroundSetMismatchError(
            f"certificate is on [{g.n}] but partition is on [{sp.n}]"
        )
    zero = set(sp.s_zero)
    for edge in g.edges:
        if edge not in zero:
            raise CertificateError(f"edge {edge} lies outside the zero-weight triples")
    return Hypergraph(g.n, tuple(sorted(g.edges + sp.s_plus)))


def project_certificate(h: Hypergraph, sp: SignPartition) -> Hypergraph:
    """Project a realizability certificate H down to G = H & S0.

    Any H realizing the reduced d must contain all of S+ and avoid all of
    S-; both forcing conditions are checked and a violation raises, since
    it means H does not certify the reduced instance.
    """
    if h.n != sp.n:
        raise GroundSetMismatchError(
            f"certificate is on [{h.n}] but partition is on [{sp.n}]"
        )
    edges = set(h.edges)
    stray = edges & set(sp.s_minus)
    if stray:
        raise CertificateError(
            f"forcing violated: certificate meets S- at {sorted(stray)[:3]}"
        )
    missing = set(sp.s_plus) - edges
    if missing:
        raise CertificateError(
            f"forcing violated: certificate misses S+ edges {sorted(missing)[:3]}"
        )
    zero = set(sp.s_zero)
    return Hypergraph(h.n, tuple(e for e in h.edges if e in zero))


def reduce_partition_to_degseq(inst: ThreePartitionInstance) -> Reduction:
    """Compose the two reductions; zero_weight is the intermediate (w, c)."""
    return reduce_zero_to_degseq(reduce_partition_to_zero(inst))
