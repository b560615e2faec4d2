"""Ground-set combinatorics for 3-uniform hypergraphs.

Edges are sorted index triples (i, j, k) with 0 <= i < j < k < n, kept in
strictly increasing lexicographic order inside a hypergraph, so edge sets
are duplicate-free by construction. The 0/1 incidence-vector view of an
edge is recoverable as the indicator vector of {i, j, k}.

Hypergraph and graph.Graph share one edge-set base, _EdgeSet, and differ
only in their edge parser and wire kind. check_edges is the one edge-list
check, behind both and every certificate verifier.

check_int is the one rule for every integer the library accepts (check_ints
for a vector, in one pass); the edge parsers inline its type test.
triple_sums is the one rule for v_i + v_j + v_k over triples (i, j, k).

Every aggregate value carries its ground-set size n and operations reject
operands that disagree on n. All integer arithmetic is checked against the
signed 64-bit range: a result outside [-2^63, 2^63 - 1] raises
Int64OverflowError. Python ints never wrap, so the explicit check is what
enforces the 64-bit contract.

Every value type in the library is a _Record: one small frozen base with
a hand-written __init__ per class, class-sensitive equality and hashing,
and a dataclass-style repr, without the cost of importing dataclasses.
The records every decider returns, DecisionOutcome and SearchStats, live
here beside CertificateCheck and _own_certificate, which checks a
decider's own certificate before use, so k = 2 needs no search engine.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterable,
    Iterator,
    Literal,
    Sequence,
    Union,
)

if TYPE_CHECKING:
    from .graph import Graph

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

Triple = tuple[int, int, int]


class Int64OverflowError(OverflowError):
    """A computed value left the signed 64-bit range."""


class GroundSetMismatchError(ValueError):
    """Operands disagree on the ground-set size n."""


class InstanceTooLargeError(ValueError):
    """Instance exceeds the enforced size guard of an exhaustive routine."""


class CertificateError(ValueError):
    """A certificate map was applied to a hypergraph that cannot certify."""


class EdgeListError(ValueError):
    """An edge list failed check_edges; `reason` is the verifier's reason."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def i64(value: int, what: str = "value") -> int:
    """Return `value` unchanged, or raise if it is outside the i64 range."""
    if value < I64_MIN or value > I64_MAX:
        raise Int64OverflowError(f"{what} = {value} is outside the signed 64-bit range")
    return value


def check_int(value: Any, what: str, nonnegative: bool = False) -> int:
    """Return value if it is an int, not a bool, inside i64 (and >= 0 if nonnegative).

    ValueError for another type or a negative value, else Int64OverflowError.
    """
    if type(value) is not int or (nonnegative and value < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return i64(value, what)


def check_ints(values: Iterable[Any], what: str, nonnegative: bool = False) -> tuple[int, ...]:
    """check_int on every entry, in one pass; a failure names what[index]."""
    vals = tuple(values)
    lo = 0 if nonnegative else I64_MIN
    for x in vals:
        if type(x) is not int or not lo <= x <= I64_MAX:
            # only now build the labels: the rescan raises at the first bad entry
            for v, y in enumerate(vals):
                check_int(y, f"{what}[{v}]", nonnegative)
    return vals


def checked_sum(values: Iterable[int], what: str = "sum") -> int:
    """Sum with every partial sum checked against the i64 range."""
    total = 0
    for v in values:
        total = i64(total + v, what)
    return total


def checked_dot(u: Sequence[int], v: Sequence[int], what: str = "inner product") -> int:
    """Inner product with every term and partial sum checked against i64."""
    if len(u) != len(v):
        raise GroundSetMismatchError(
            f"inner product needs equal lengths, got {len(u)} and {len(v)}"
        )
    total = 0
    for a, b in zip(u, v):
        total = i64(total + i64(a * b, what), what)
    return total


def triple_sums(values: Sequence[int], triples: Iterable[Sequence[int]]) -> list[int]:
    """v_i + v_j + v_k for each triple (i, j, k), in order, checked against i64."""
    sums = [values[i] + values[j] + values[k] for i, j, k in triples]
    # checking the least and the largest sum checks them all
    i64(max(sums, default=0), "weighted value")
    i64(min(sums, default=0), "weighted value")
    return sums


def _validate_triple(edge: Sequence[int], n: int) -> Triple:
    try:
        i, j, k = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not an index triple") from None
    if not (type(i) is int and type(j) is int and type(k) is int):
        raise ValueError(f"edge {edge!r} has non-integer indices")
    if not 0 <= i < j < k < n:
        raise ValueError(f"edge ({i}, {j}, {k}) invalid for ground set of size {n}")
    return (i, j, k)


def check_edges(
    edges: Iterable[Sequence[int]], n: int, parse: Callable[[Sequence[int], int], tuple]
) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Validate a strictly increasing edge list on [n]; return (edges, degrees).

    One pass: parse(edge, n) returns one edge's index tuple or raises
    ValueError. Raises EdgeListError with reason "malformed_edge" or
    "edges_out_of_order".
    """
    check_int(n, "ground-set size", nonnegative=True)
    canon = []
    counts = [0] * n
    prev = None
    for edge in edges:
        try:
            e = parse(edge, n)
        except ValueError as exc:
            raise EdgeListError("malformed_edge", str(exc)) from None
        if prev is not None and e <= prev:
            raise EdgeListError("edges_out_of_order", f"edges not strictly increasing at {e}")
        for v in e:
            counts[v] += 1
        canon.append(e)
        prev = e
    return tuple(canon), tuple(counts)


# writes one field of a _Record past its frozen __setattr__
_set_field = object.__setattr__


class _Record:
    """An immutable value: the one frozen-record base of the library.

    A subclass lists its fields in _fields and sets them in its own
    __init__ with _set_field. Equality and hashing go by the class and the
    field values, and repr shows the fields, as a frozen dataclass's would.
    """

    _fields: ClassVar[tuple[str, ...]] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: Any) -> None:
        # imported on this error path only: dataclasses pulls in inspect and ast
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _EdgeSet(_Record):
    """A strictly increasing edge list on [n] with its counted degrees.

    Subclasses set only their edge parser and kind; equality compares the
    class, and degrees, derived from the edges, is not a field.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    _fields = ("n", "edges")
    _parse: ClassVar[Callable[[Sequence[int], int], tuple]]
    kind: ClassVar[str]

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()) -> None:
        edges, degrees = check_edges(edges, n, self._parse)
        _set_field(self, "n", n)
        _set_field(self, "edges", edges)
        _set_field(self, "degrees", degrees)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]):
        """Build from edges in any order; sorts and rejects duplicates."""
        return cls(n, tuple(sorted(tuple(e) for e in edges)))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.edges)


class Hypergraph(_EdgeSet):
    """A set of triples on ground set [n], stored in increasing lex order."""

    _parse = staticmethod(_validate_triple)
    kind = "hypergraph"


class _IntVector(_Record):
    """An integer vector of length n, checked by check_ints in one pass.

    Subclasses set only its label and floor; equality compares the class.
    """

    values: tuple[int, ...]
    _fields = ("values",)
    _label: ClassVar[str]
    _nonnegative: ClassVar[bool]

    def __init__(self, values: Iterable[int]) -> None:
        _set_field(self, "values", check_ints(values, self._label, self._nonnegative))

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, v: int) -> int:
        return self.values[v]


class DegreeSequence(_IntVector):
    """Nonnegative integer vector of length n; entry v counts edges at v."""

    _label = "degree"
    _nonnegative = True


class WeightVector(_IntVector):
    """Signed integer vector of length n, entries within the i64 range."""

    _label = "weight"
    _nonnegative = False


class SignPartition(_Record):
    """All triples of [n] split by the sign of their weight sum.

    Each part is a tuple of triples in lexicographic order; sign_partition
    builds them from enumerate_triples, so nothing re-checks them.
    """

    n: int
    s_minus: tuple[Triple, ...]
    s_zero: tuple[Triple, ...]
    s_plus: tuple[Triple, ...]
    _fields = ("n", "s_minus", "s_zero", "s_plus")

    def __init__(self, n: int, s_minus: tuple, s_zero: tuple, s_plus: tuple) -> None:
        _set_field(self, "n", n)
        _set_field(self, "s_minus", s_minus)
        _set_field(self, "s_zero", s_zero)
        _set_field(self, "s_plus", s_plus)


class CertificateCheck(_Record):
    """Outcome of a certificate verification; falsy iff the check failed."""

    ok: bool
    reason: Union[str, None]
    _fields = ("ok", "reason")

    def __init__(self, ok: bool, reason: Union[str, None] = None) -> None:
        _set_field(self, "ok", ok)
        _set_field(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


# the node budget of every decider, and of `hyperdeg decide` without --budget
DEFAULT_BUDGET = 10_000_000

Answer = Literal["YES", "NO", "UNKNOWN"]


class SearchStats(_Record):
    """Work behind one answer: nodes expanded, wall millis, share of the budget."""

    nodes: int
    millis: int
    budget_used: float
    _fields = ("nodes", "millis", "budget_used")

    def __init__(self, nodes: int, millis: int, budget_used: float) -> None:
        _set_field(self, "nodes", nodes)
        _set_field(self, "millis", millis)
        _set_field(self, "budget_used", budget_used)


class DecisionOutcome(_Record):
    """An answer with its YES certificate (a Hypergraph, or a Graph for k = 2)."""

    answer: Answer
    certificate: Union[Hypergraph, Graph, None]
    stats: SearchStats
    # a NO by the search's root bound or polytope layer: y with y.d >
    # sum_e max(0, y(e)) over the decider's triples (verify_separator), else None
    separator: Union[tuple[int, ...], None]
    _fields = ("answer", "certificate", "stats", "separator")

    def __init__(
        self,
        answer: Answer,
        certificate: Union[Hypergraph, Graph, None],
        stats: SearchStats,
        separator: Union[tuple[int, ...], None] = None,
    ) -> None:
        _set_field(self, "answer", answer)
        _set_field(self, "certificate", certificate)
        _set_field(self, "stats", stats)
        _set_field(self, "separator", separator)


def _own_certificate(
    build: Callable[[], Any], check: Callable[[Any], CertificateCheck], source: str
) -> Any:
    """build(), a decider's own Hypergraph or graph.Graph, checked before use.

    None passes unchecked. Every fault, malformed edges included, is a
    RuntimeError (exit code 4 in the CLI), never a bad instance's ValueError.
    """
    try:
        value = build()
        result = value is None or check(value)
    except EdgeListError as exc:
        result = CertificateCheck(False, exc.reason)
    if not result:
        raise RuntimeError(
            f"internal error: {source} returned an invalid certificate ({result.reason})"
        )
    return value


def enumerate_triples(n: int) -> list[Triple]:
    """All C(n, 3) triples of [n] in lexicographic order (empty for n < 3)."""
    check_int(n, "ground-set size", nonnegative=True)
    return list(itertools.combinations(range(n), 3))


def _degrees(n: int, triples: Iterable[Triple]) -> list[int]:
    """How many of the triples pass through each of the n vertices."""
    deg = [0] * n
    for i, j, k in triples:
        deg[i] += 1
        deg[j] += 1
        deg[k] += 1
    return deg


def degree_sum(h: Hypergraph) -> DegreeSequence:
    """Per-vertex incidence counts of h; the entries total 3 * |edges|."""
    i64(3 * len(h.edges), "degree total")
    return DegreeSequence(h.degrees)


def weighted_value(w: WeightVector, x: Sequence[int]) -> int:
    """w_i + w_j + w_k for the triple x = (i, j, k), overflow-checked."""
    return triple_sums(w.values, (_validate_triple(x, w.n),))[0]


def sign_partition(w: WeightVector) -> SignPartition:
    """Split all triples of [n] by the sign of their w-value.

    Each part is a tuple of triples in the lexicographic enumeration
    order, so the parts are canonical. Exact integer signs; no epsilon.
    """
    triples = enumerate_triples(w.n)
    neg: list[Triple] = []
    zero: list[Triple] = []
    pos: list[Triple] = []
    for x, v in zip(triples, triple_sums(w.values, triples)):
        if v < 0:
            neg.append(x)
        elif v > 0:
            pos.append(x)
        else:
            zero.append(x)
    return SignPartition(w.n, tuple(neg), tuple(zero), tuple(pos))


def verify_certificate(
    h: Union[Hypergraph, Iterable[Sequence[int]]], d: DegreeSequence
) -> CertificateCheck:
    """Check that h is a well-formed hypergraph on [n] with degree vector d.

    Takes a Hypergraph or raw edges and never raises on malformed input;
    see verify_edges.
    """
    return verify_edges(Hypergraph, h, d)


def verify_separator(
    y: Sequence[Any], target: Sequence[int], candidates: Iterable[Triple]
) -> CertificateCheck:
    """Check that the integer vector y proves target unreachable from candidates.

    Every subset H of the candidates has y.degrees(H) = sum_{e in H} y(e)
    <= sum_e max(0, y(e)), where y(e) = y_i + y_j + y_k, so
    y.target > sum_e max(0, y(e)) shows that no subset has degrees target.
    Exact integer arithmetic, checked against i64: y must be an integer
    vector of target's length with every |y_v| <= I64_MAX // 3 (so every
    y(e) fits), and both sides must fit. Never raises; the reason is
    "malformed_separator", "overflow" or "not_separating".
    """
    try:
        vals = check_ints(y, "separator")
    except (ValueError, Int64OverflowError):
        return CertificateCheck(False, "malformed_separator")
    if len(vals) != len(target) or any(3 * abs(v) > I64_MAX for v in vals):
        return CertificateCheck(False, "malformed_separator")
    try:
        lhs = checked_dot(vals, target, "separator value")
        scores = triple_sums(vals, candidates)
        # every term is nonnegative, so checking the total checks each partial sum
        rhs = i64(sum(s for s in scores if s > 0), "separator bound")
    except Int64OverflowError:
        return CertificateCheck(False, "overflow")
    if lhs <= rhs:
        return CertificateCheck(False, "not_separating")
    return CertificateCheck(True)


def verify_edges(kind: type, edges: Any, d: DegreeSequence) -> CertificateCheck:
    """Check edges as a `kind` value (Hypergraph or graph.Graph) with degrees d.

    Accepts either a validated `kind` value, whose degrees are only
    compared, or raw (untrusted) edge data, as arrives from a certificate
    file, which its constructor checks. Never raises on malformed input:
    the result is falsy and carries a machine-readable reason.
    """
    try:
        value = edges if isinstance(edges, kind) else kind(d.n, edges)
    except EdgeListError as exc:
        return CertificateCheck(False, exc.reason)
    if value.n != d.n:
        return CertificateCheck(False, "ground_set_mismatch")
    if value.degrees != d.values:
        return CertificateCheck(False, "degree_mismatch")
    return CertificateCheck(True)
