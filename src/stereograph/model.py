"""Stereotype graphs: data model, validation, and structural recognizers.

A stereotype graph on n pairs has vertices u1^i, u2^i for each pair index
i in 1..n, an edge inside every pair, and between any two pairs exactly
one of the two possible perfect matchings (so every two pairs induce a
4-cycle). The matching choices are the whole degree of freedom, so the
graph is encoded losslessly as one bit per unordered pair of pair
indices: 0 selects the parallel matching (u1-u1, u2-u2), 1 the crossed
matching (u1-u2, u2-u1).

Vertex ids are dense integers: u_p^i has id 2*(i-1) + (p-1), so ids run
0..2n-1 in pair-major order. StereotypeGraph stores the pattern as one
bitmask per pair (its rows); the bits are derived from them, and
StereotypeGraph.graph builds the neighbour masks from them directly.

Swapping the two sides of pair i (Seidel switching) flips every bit
(i, j) and maps the graph to an isomorphic one, so every graph invariant
is an invariant of the pattern's switching class. Each class has one
normalised pattern, with pair 1 parallel to every other pair;
_normalised_rows computes its rows. switching_representative builds it
from them, stability_report and the characteristic polynomial key their
caches on them without building a graph, and _descendant reads them as
H, the class's descendant at pair 1, defined there. The complete
bipartite class is the one whose H has no edge, and csi's index-3 test
reads H too; the complete ladder class normalises to all 0.

Every constructor checks the pair count with _check_pair_count, and
every pattern is checked as rows by the StereotypeGraph constructor;
_pattern_rows is the one bits-to-rows conversion, which _value_rows and
_all_rows use for pattern numbers.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    DomainError,
    LengthMismatch,
    NotAStereotypeGraph,
    SizeExceeded,
)
from .graphs import Edge, Graph, _check_square_bits, _checked_edge, _edge_ends


def vertex_id(pair: int, side: int) -> int:
    """Dense id of u_side^pair (pair an int >= 1, side the int 1 or 2)."""
    # type() rather than isinstance(), as in _check_pair_count: 1.0 and
    # True compare equal to 1, but vertex_id(1.0, 1) would be 0.0 and
    # vertex_name(True) "u2.1".
    if type(side) is not int or side not in (1, 2):
        raise DomainError(f"side must be the int 1 or 2, got {side!r}")
    if type(pair) is not int or pair < 1:
        raise DomainError(f"pair index must be a positive int, got {pair!r}")
    return 2 * (pair - 1) + (side - 1)


def vertex_pair_side(v: int) -> tuple[int, int]:
    """Inverse of vertex_id: (pair, side) of a dense vertex id."""
    if type(v) is not int or v < 0:
        raise DomainError(f"vertex id must be a non-negative int, got {v!r}")
    return v // 2 + 1, v % 2 + 1


def vertex_name(v: int) -> str:
    pair, side = vertex_pair_side(v)
    return f"u{side}.{pair}"


# Exactly the names vertex_name writes: ASCII digits, no leading zero.
_VERTEX_NAME = re.compile(r"u([12])\.([1-9][0-9]*)")


def parse_vertex_name(name: str) -> int:
    """Parse "u<side>.<pair>" back to a dense vertex id; any other value,
    including a non-canonical spelling such as "u1.01", is rejected."""
    match = _VERTEX_NAME.fullmatch(name) if isinstance(name, str) else None
    if match is not None:
        try:
            return vertex_id(int(match[2]), int(match[1]))
        except ValueError:  # a pair number past int()'s digit limit
            pass
    raise DomainError(f"bad vertex name {name!r}")


def _check_pair_indices(i: int, j: int) -> None:
    # type() rather than isinstance(), as in vertex_id: pattern_slot(3,
    # 1.0, 2.0) would be 0.0 and bit(True, 2) would read pair 1.
    if type(i) is not int or type(j) is not int:
        raise DomainError(f"pair indices must be ints, got ({i!r}, {j!r})")


def pattern_slot(n: int, i: int, j: int) -> int:
    """Index of the bit for pair indices i < j in the lexicographic layout."""
    _check_pair_indices(i, j)
    if not 1 <= i < j <= n:
        raise DomainError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return (i - 1) * n - i * (i + 1) // 2 + (j - 1)


def pattern_length(n: int) -> int:
    return n * (n - 1) // 2


# Writes a row in binary with a 0 before each digit, moving bit j to bit 2j.
_SPREAD = str.maketrans({"0": "00", "1": "01"})


def _check_pair_count(n: int) -> None:
    # type() rather than isinstance(): True and 2.0 compare equal to the
    # ints 1 and 2, but would be written back as themselves, and
    # pattern_length(2.0) is not a length.
    if type(n) is not int or n < 1:
        raise DomainError(f"pair count must be a positive int, got {n!r}")


def _check_limit(what: str, n: int, limit: int | None) -> None:
    # The bound of every exhaustive walk: None (no bound) or an int >= 1.
    if limit is not None:
        if type(limit) is not int or limit < 1:
            raise DomainError(f"limit must be None or a positive int, got {limit!r}")
        if n > limit:
            raise SizeExceeded(f"{what} bounded at n <= {limit}, got n={n}")


@dataclass(frozen=True)
class StereotypeGraph:
    """A stereotype graph on n pairs, stored as its pattern's rows: bit
    j-1 of rows[i-1] is bit(i, j), so each row lies in [0, 2^n), the
    diagonal bits are 0 and the rows are symmetric. from_pattern builds
    one from its matching bits."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_pair_count(self.n)
        n, rows = self.n, self.rows
        if type(rows) is not tuple:
            raise TypeError(
                f"StereotypeGraph takes a tuple of row bitmasks, got {type(rows).__name__}; "
                "build a graph from matching bits with from_pattern"
            )
        if len(rows) != n:
            raise LengthMismatch(f"expected {n} rows for n={n}, got {len(rows)}")
        _check_square_bits(rows, "row")

    def bit(self, i: int, j: int) -> int:
        """Matching bit between pairs i and j (order-insensitive)."""
        _check_pair_indices(i, j)  # before i and j are compared
        if i > j:
            i, j = j, i
        pattern_slot(self.n, i, j)  # raises DomainError unless 1 <= i < j <= n
        return self.rows[i - 1] >> j - 1 & 1

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """The matching bits in lexicographic pair order: bit(1, 2),
        bit(1, 3), ..., bit(n-1, n); from_pattern's argument."""
        n = self.n
        return tuple(row >> j & 1 for i, row in enumerate(self.rows) for j in range(i + 1, n))

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    @cached_property
    def graph(self) -> Graph:
        """The labeled graph, its neighbour masks built from the rows.

        With pairs numbered from 0, u1^i is vertex 2i and u2^i vertex
        2i + 1. u1^i meets u1^j (an even bit) when pairs i and j are
        parallel and u2^j (an odd bit) when they are crossed; u2^i meets
        the other vertex of pair j; each vertex meets its partner.
        """
        n = self.n
        # crossed: the side-1 vertices of the pairs crossed to pair i, bit
        # j of the row moved to bit 2j; even: every side-1 vertex.
        even = int("01" * n, 2)
        masks = []
        for i, row in enumerate(self.rows):
            crossed = int(bin(row)[2:].translate(_SPREAD), 2)
            parallel = even ^ crossed ^ 1 << 2 * i
            masks += [1 << 2 * i + 1 | parallel | crossed << 1, 1 << 2 * i | crossed | parallel << 1]
        return Graph(2 * n, tuple(masks))


def _pattern_rows(n: int, bits: Sequence[object]) -> tuple[int, ...]:
    """The rows of the pattern on n pairs with the given matching bits, in
    lexicographic pair order, after checking that each bit is the int 0
    or 1. itertools.compress skips the parallel pairs of pairs, so only
    the crossed ones are visited to set their two mirror bits; this
    measured faster than checking and placing in one loop over every bit."""
    for b in bits:
        if type(b) is not int or b not in (0, 1):
            raise DomainError(f"pattern bits must be the int 0 or 1, got {b!r}")
    rows = [0] * n
    for i, j in itertools.compress(itertools.combinations(range(n), 2), bits):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def _value_rows(n: int, value: int) -> tuple[int, ...]:
    """The rows of the pattern on n pairs whose matching bits, read as a
    binary number with bit(1, 2) most significant, are value."""
    length = pattern_length(n)
    return _pattern_rows(n, [value >> s & 1 for s in range(length - 1, -1, -1)])


def _all_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The rows of every pattern on n pairs, in pattern-number order.

    Rows are linear in the bits, so the rows of high << low | low_value
    are the XOR of the rows of its two halves: each half is converted
    once, and each pattern costs one XOR per row.
    """
    length = pattern_length(n)
    low = length // 2
    lows = [_value_rows(n, value) for value in range(1 << low)]
    for high in range(1 << length - low):
        high_rows = _value_rows(n, high << low)
        for low_rows in lows:
            yield tuple(map(operator.xor, high_rows, low_rows))


def from_pattern(n: int, bits: Sequence[int]) -> StereotypeGraph:
    """Build the unique stereotype graph with the given matching bits, in
    lexicographic pair order (the order of StereotypeGraph.bits)."""
    _check_pair_count(n)
    bits = tuple(bits)
    if len(bits) != pattern_length(n):
        raise LengthMismatch(
            f"expected {pattern_length(n)} pattern bits for n={n}, got {len(bits)}"
        )
    return StereotypeGraph(n, _pattern_rows(n, bits))


def pattern_of(g: StereotypeGraph) -> tuple[int, ...]:
    """Canonical bit encoding; inverse of from_pattern."""
    return g.bits


def from_edge_list(n: int, edges: Iterable[Edge]) -> StereotypeGraph:
    """Build a stereotype graph from an explicit edge set, or reject it.

    A self-loop, a vertex outside 0..2n-1 or a repeated edge raises
    DomainError, in input order. Then the first of the two defining
    clauses of validate_stereotype that fails raises NotAStereotypeGraph
    with its clause and witness: a pair missing its in-pair edge, or two
    pairs whose cross edges are not a perfect matching. Once both hold,
    every edge is an in-pair or a matching edge, so the pattern is read
    off the masks: pair i crosses pair j iff u1^i is adjacent to u2^j.
    """
    _check_pair_count(n)
    edge_set: set[Edge] = set()
    for edge in edges:
        e = _checked_edge(*_edge_ends(edge), 2 * n)
        if e in edge_set:
            raise DomainError(f"duplicate edge {e}")
        edge_set.add(e)
    return _from_masks(n, Graph.from_edges(2 * n, edge_set).masks)


def _from_masks(n: int, masks: tuple[int, ...]) -> StereotypeGraph:
    """The stereotype graph whose neighbour masks on 2n vertices are
    masks, or NotAStereotypeGraph for the first defining clause that
    fails: from_edge_list after its edge checks."""
    missing, bad_pairpair = _defining_clauses(masks)
    if missing is not None:
        raise NotAStereotypeGraph(
            clause="in-pair-edge",
            witness=missing,
            message=f"pair {missing} is missing its in-pair edge "
            f"{vertex_name(2 * missing - 2)}-{vertex_name(2 * missing - 1)}",
        )
    if bad_pairpair is not None:
        i, j = bad_pairpair
        pair_i, pair_j = (2 * i - 2, 2 * i - 1), (2 * j - 2, 2 * j - 1)
        cross = [(a, b) for a in pair_i for b in pair_j if masks[a] >> b & 1]
        raise NotAStereotypeGraph(
            clause="pair-pair-four-cycle",
            witness=(i, j, cross),
            message=f"pairs ({i}, {j}) induce cross edges "
            f"{cross} instead of a perfect matching",
        )
    crossed = (
        sum(1 << j for j in range(n) if j != i and masks[2 * i] >> 2 * j + 1 & 1) for i in range(n)
    )
    return StereotypeGraph(n, tuple(crossed))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class ValidationReport:
    """Per-clause results of validating a labeled graph on 2n vertices."""

    n: int
    checks: tuple[CheckResult, ...]

    @property
    def valid(self) -> bool:
        """True when every defining clause passes (derived checks excluded)."""
        defining = {"pair-structure", "in-pair-edges", "pair-pair-four-cycles"}
        return all(c.passed for c in self.checks if c.name in defining)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _defining_clauses(masks: Sequence[int]) -> tuple[int | None, tuple[int, int] | None]:
    """The two clauses that define a stereotype graph, read off the
    neighbour masks of a graph on 2n vertices: the first pair (1-based)
    missing its in-pair edge, and the first two pairs (i, j) whose four
    vertices do not induce a 4-cycle; None where the clause holds.

    Two pairs induce a 4-cycle iff each of their four vertices has
    exactly two neighbours among the four. A vertex v has own = 1
    neighbour in its own pair if the pair has its in-pair edge and 0 if
    not (the masks have no self-loops), so the clause for pairs i and j
    holds iff every vertex of each has exactly 2 - own neighbours in the
    other. The pairs are taken in order, and pair i is checked against
    every later pair j at once with a few big-int operations:

    - each vertex of pair i toward every j: with x its mask cut to the
      later pairs and E their side-1 bits, a = x & E and b = x >> 1 & E
      mark the neighbours on each side, so one neighbour per pair is
      a ^ b == E and two are a & b == E;
    - each vertex w of a later pair toward pair i: since the masks are
      symmetric, w's neighbours in pair i are bit w of pair i's two
      masks p and q, so one is p ^ q and two are p & q.

    A failing vertex of either side marks its pair j; the first pair i
    with a mark, and its lowest marked j, is the lexicographically first
    failing (i, j), and the search stops there.
    """
    n = len(masks) // 2
    partnered = [masks[2 * i] >> 2 * i + 1 & 1 for i in range(n)]
    missing = next((i + 1 for i, edge in enumerate(partnered) if not edge), None)
    # own: both vertices of each pair with its in-pair edge; even: the
    # side-1 vertex of every pair.
    own = int("".join("11" if edge else "00" for edge in reversed(partnered)), 2)
    even = int("01" * n, 2)
    for i, edge in enumerate(partnered):
        cut = 2 * i + 2
        later, wanted = even >> cut, own >> cut
        p, q = masks[2 * i] >> cut, masks[2 * i + 1] >> cut
        bad = 0
        for x in (p, q):
            a, b = x & later, x >> 1 & later
            bad |= (a ^ b if edge else a & b) ^ later
        wrong = (wanted & (p ^ q) | p & q & ~wanted) ^ (later | later << 1)
        bad |= (wrong | wrong >> 1) & later
        if bad:
            return missing, (i + 1, i + 2 + ((bad & -bad).bit_length() - 1 >> 1))
    return missing, None


def validate_stereotype(graph: Graph) -> ValidationReport:
    """Check whether a labeled graph is a stereotype graph under the dense
    vertex-id convention, reporting every clause and derived property.

    Failures are data (CheckResult rows with witnesses), never exceptions.
    """
    checks: list[CheckResult] = []
    even = graph.vertex_count % 2 == 0 and graph.vertex_count > 0
    n = graph.vertex_count // 2
    checks.append(
        CheckResult("pair-structure", even, None if even else graph.vertex_count)
    )
    if not even:
        return ValidationReport(n, tuple(checks))

    missing, bad_pairpair = _defining_clauses(graph.masks)
    checks.append(CheckResult("in-pair-edges", missing is None, missing))
    checks.append(CheckResult("pair-pair-four-cycles", bad_pairpair is None, bad_pairpair))

    # Derived structural properties; these follow from the clauses above
    # but are reported so a failure pinpoints what broke.
    size = graph.edge_count()
    edge_ok = size == n * n
    checks.append(CheckResult("edge-count", edge_ok, None if edge_ok else size))
    degrees = graph.degrees()
    irregular = [v for v in range(graph.vertex_count) if degrees[v] != n]
    checks.append(
        CheckResult("n-regular", not irregular, irregular[0] if irregular else None)
    )
    # The vertex count is positive here, so diameter() is None exactly
    # when the graph is disconnected.
    diameter = graph.diameter()
    checks.append(CheckResult("connected", diameter is not None))
    diameter_ok = diameter == (1 if n == 1 else 2)
    checks.append(
        CheckResult("diameter", diameter_ok, None if diameter_ok else diameter)
    )
    girth = graph.girth()
    girth_ok = girth is None if n == 1 else girth in (3, 4)
    checks.append(CheckResult("girth", girth_ok, None if girth_ok else girth))

    return ValidationReport(n, tuple(checks))


@dataclass(frozen=True)
class BasicProfile:
    """Order, size, degree, girth, diameter, connectivity, triangle count."""

    order: int
    size: int
    regular_degree: int
    girth: int | None  # None means acyclic
    diameter: int | None
    connected: bool
    triangle_count: int


def basic_profile(g: StereotypeGraph) -> BasicProfile:
    graph = g.graph
    diameter = graph.diameter()
    return BasicProfile(
        order=graph.vertex_count,
        size=graph.edge_count(),
        regular_degree=g.n,
        girth=graph.girth(),
        diameter=diameter,
        connected=diameter is not None,
        triangle_count=graph.triangle_count(),
    )


def triangle_pair_triples(g: StereotypeGraph) -> list[tuple[int, int, int]]:
    """Pair-index triples whose three matching bits XOR to zero.

    Each such triple carries exactly two triangles (one per side); the
    test suite cross-validates this shortcut against explicit triangle
    enumeration before anything relies on it.
    """
    rows = g.rows
    return [
        (i + 1, j + 1, k + 1)
        for i, j, k in itertools.combinations(range(g.n), 3)
        if (rows[i] >> j ^ rows[i] >> k ^ rows[j] >> k) & 1 == 0
    ]


def restrict_pairs(g: StereotypeGraph, m: int) -> StereotypeGraph:
    """Induced stereotype graph on the first m pairs."""
    if type(m) is not int or not 1 <= m <= g.n:
        raise DomainError(f"need 1 <= m <= {g.n}, got {m!r}")
    return StereotypeGraph(m, tuple(row & (1 << m) - 1 for row in g.rows[:m]))


def _normalised_rows(g: StereotypeGraph) -> tuple[int, ...]:
    """The rows of switching_representative(g), g.rows if g is normalised.

    Swapping the sides of pair i flips every bit(i, j), so switching the
    pairs i with bit(1, i) = 1 clears row 1 and turns bit(i, j) into
    bit(i, j) ^ bit(1, i) ^ bit(1, j). On the rows, with s = rows[0],
    row i becomes row_i ^ s, complemented when pair i is switched.
    """
    rows = g.rows
    s = rows[0]
    if not s:
        return rows
    flip = s ^ (1 << g.n) - 1
    return tuple([row ^ (flip if s >> i & 1 else s) for i, row in enumerate(rows)])


def _descendant(rows: Sequence[int]) -> Iterator[int]:
    """H, the descendant of the switching class at pair 1 (Seidel, "A
    survey of two-graphs", 1976), from its normalised rows, one mask of
    0-based pair indices per pair, lazily: the graph on pairs 2..n whose
    edges are the parallel pairs, so pair i's mask is its row XOR every
    pair but pair 1 and itself, and pair 1's is 0. {j, k} is an edge iff
    the triple (1, j, k) has an even number of crossed bits, which
    switching keeps: H is one graph for the whole class."""
    outside = (1 << len(rows)) - 2
    yield 0
    for i in range(1, len(rows)):
        yield rows[i] ^ outside ^ 1 << i


def switching_representative(g: StereotypeGraph) -> StereotypeGraph:
    """The member of g's switching class with pair 1 parallel to every
    other pair: the normalised pattern the census walks.

    The result is isomorphic to g, so every graph invariant agrees on
    the two, and all 2^(n-1) patterns of a class share it.
    """
    if g.rows[0] == 0:
        return g
    return StereotypeGraph(g.n, _normalised_rows(g))


def recognize_complete_bipartite(g: StereotypeGraph) -> bool:
    """True iff g is a complete bipartite graph on equal sides, i.e. the
    pattern switches to all-crossed (no pair triple is XOR-0): its
    descendant H has no edge. The rows are normalised at once; H is read
    up to the first pair with an edge."""
    return not any(_descendant(_normalised_rows(g)))


def recognize_complete_ladder(g: StereotypeGraph) -> bool:
    """True iff g is two n-cliques joined by a perfect matching, i.e. the
    pattern switches to all-parallel (every pair triple is XOR-0): every
    row of its switching representative is 0."""
    return not any(_normalised_rows(g))


__all__ = [
    "BasicProfile",
    "CheckResult",
    "Graph",
    "StereotypeGraph",
    "ValidationReport",
    "basic_profile",
    "from_edge_list",
    "from_pattern",
    "parse_vertex_name",
    "pattern_length",
    "pattern_of",
    "pattern_slot",
    "recognize_complete_bipartite",
    "recognize_complete_ladder",
    "restrict_pairs",
    "switching_representative",
    "triangle_pair_triples",
    "validate_stereotype",
    "vertex_id",
    "vertex_name",
    "vertex_pair_side",
]
