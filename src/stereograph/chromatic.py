"""Vertex coloring: exact counts, chromatic polynomials, the chromatic
stability index, and the aggregate stability report.

The chromatic polynomial is assembled from the number of partitions of
the vertex set into i nonempty independent sets, as the coefficients
of its Newton form over the falling factorials, expanded by Horner's
rule. Those counts come from a memoised DP over the vertex
subsets reached from the full set by removing independent sets, with
each subset's counts packed into one int; it is exponential, so
`chromatic_polynomial` is bounded at CHROMATIC_POLY_VERTEX_BOUND
vertices. The chromatically-bipartite criterion needs only b0..b2,
which depend on the three top partition counts alone (into V, V-1 and
V-2 sets); `leading_chromatic_coefficients` counts those on the
complement's neighbour masks in O(V^2) big-int operations, at any size,
so no criterion of a report is skipped for size.
The stability report runs all eight criteria on every graph, one pair
included, and derives their agreement from the verdicts. It is computed
once per switching class, on the normalised pattern, and cached on that
pattern: the 1024 graphs on 5 pairs need 64 reports.
Proper-coloring counts are, separately, plain backtracking over raw
color assignments so the two routes stay independent of each other. The chromatic number is exact
branch and bound: greedy upper bound, then one clique search for the
smallest maximum clique, which is both the lower bound and the clique
pre-colored by the DSATUR k-coloring searches run when the bounds
differ. Each search keeps its state as ints on the neighbour bitmasks:
the uncolored set, each color's members and the union of their
neighbourhoods, and the uncolored vertices bucketed by saturation.
Every coloring is one color per vertex id, a `Coloring` tuple, from the
search to the witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

from .errors import DomainError, InternalInvariant, SizeExceeded
from .graphs import Graph, is_clique, iter_bits, max_clique
from .merge import reduce_to_k2
from .model import (
    StereotypeGraph,
    _normalised_rows,
    recognize_complete_bipartite,
    vertex_id,
)
from .polynomials import IntPolynomial
from .spectral import (
    leading_characteristic_coefficients,
    matrix_criterion,
    minor_criterion,
)

CHROMATIC_POLY_VERTEX_BOUND = 14


@dataclass(frozen=True)
class Coloring:
    """A color assignment: colors[v] is the 1-based color of vertex id v."""

    colors: tuple[int, ...]

    @cached_property
    def colors_used(self) -> int:
        return len(set(self.colors))

    def is_proper(self, graph: Graph) -> bool:
        """Whether every vertex of graph has a color and no edge joins two
        vertices of one color: one bitmask per color class, and each
        vertex's neighbour mask must miss its own class."""
        colors = self.colors
        if len(colors) != graph.vertex_count:
            return False
        classes: dict[int, int] = {}
        for v, c in enumerate(colors):
            classes[c] = classes.get(c, 0) | 1 << v
        return not any(mask & classes[c] for mask, c in zip(graph.masks, colors))


def count_proper_colorings(graph: Graph, x: int) -> int:
    """Number of proper colorings from a palette of x colors, counted by
    exhaustive backtracking over assignments (not all colors need occur);
    the last vertex adds the number of colors its neighbors leave free."""
    if type(x) is not int or x < 0:
        raise DomainError(f"palette size must be a non-negative int, got {x!r}")
    n = graph.vertex_count
    if n == 0:
        return 1
    if x == 0:
        return 0
    earlier = [list(iter_bits(mask & ((1 << v) - 1))) for v, mask in enumerate(graph.masks)]
    colors = [0] * n

    def count_from(v: int) -> int:
        if v == n - 1:
            return x - len({colors[w] for w in earlier[v]})
        total = 0
        for c in range(1, x + 1):
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                total += count_from(v + 1)
        colors[v] = 0
        return total

    return count_from(0)


def independent_partition_counts(graph: Graph) -> list[int]:
    """Entry i is the number of partitions of the vertex set into exactly
    i nonempty independent sets.

    In a partition of a vertex subset, the lowest vertex v lies in one
    independent set I whose lowest vertex is v, so the subset's counts
    are those of `subset ^ I`, one part up, summed over every such I
    inside the subset. Those sets are listed once per vertex, and the
    recursion runs down from the full set, memoising only the subsets
    it reaches. A subset's counts are packed into one int, field i of
    `width` bits holding the count for i parts (Bell(V) < 2^width), so
    summing them is one add and moving one part up one shift.
    """
    n = graph.vertex_count
    if n == 0:
        return [1]
    nbr = graph.masks
    full = (1 << n) - 1
    by_lowest: list[list[int]] = []
    for v in range(n):
        sets = []
        # (an independent set, the higher vertices that can still join it)
        stack = [(1 << v, (full ^ ((2 << v) - 1)) & ~nbr[v])]
        while stack:
            members, open_ = stack.pop()
            sets.append(members)
            while open_:
                bit = open_ & -open_
                open_ ^= bit
                stack.append((members | bit, open_ & ~nbr[bit.bit_length() - 1]))
        by_lowest.append(sets)

    width = n.bit_length() * n + 1
    memo = {0: 1}

    def packed_counts(mask: int) -> int:
        outside = full ^ mask
        packed = 0
        for members in by_lowest[(mask & -mask).bit_length() - 1]:
            if not members & outside:
                rest = mask ^ members
                packed += memo[rest] if rest in memo else packed_counts(rest)
        packed <<= width
        memo[mask] = packed
        return packed

    packed = packed_counts(full)
    # The closure refers to itself; dropping the name frees the memo now
    # instead of at the next cyclic garbage collection.
    del packed_counts
    field = (1 << width) - 1
    counts = [(packed >> (parts * width)) & field for parts in range(n + 1)]
    if packed >> ((n + 1) * width) or counts[0] != 0 or counts[n] != 1:
        raise InternalInvariant(
            f"independent partition counts out of shape for {n} vertices: {counts}"
        )
    return counts


@lru_cache(maxsize=4096)
def _chromatic_polynomial_cached(graph: Graph) -> IntPolynomial:
    # sum_k counts[k] x(x-1)...(x-k+1) in Newton form, Horner from the
    # top count: repeatedly times (x - k), plus counts[k].
    counts = independent_partition_counts(graph)
    poly = [counts[-1]]
    for k in range(len(counts) - 2, -1, -1):
        poly = [a - k * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += counts[k]
    return IntPolynomial(tuple(poly))


def chromatic_polynomial(graph: Graph) -> IntPolynomial:
    """Exact chromatic polynomial, degree = vertex count, monic."""
    if graph.vertex_count > CHROMATIC_POLY_VERTEX_BOUND:
        raise SizeExceeded(
            f"chromatic polynomial bounded at {CHROMATIC_POLY_VERTEX_BOUND} vertices, "
            f"got {graph.vertex_count}"
        )
    return _chromatic_polynomial_cached(graph)


def leading_chromatic_coefficients(graph: Graph) -> tuple[int, int, int]:
    """b0..b2 of the chromatic polynomial, the coefficients of
    x^V..x^(V-2), at any vertex count V.

    In the falling-factorial form sum_k a_k x(x-1)...(x-k+1), only
    a_V = 1, a_(V-1) and a_(V-2) reach these powers. With N the
    non-edges, a_(V-1) = N (one non-adjacent pair shares a set) and
    a_(V-2) counts the independent 3-sets plus the pairs of disjoint
    non-edges, C(N, 2) - sum_v C(d_v, 2) for the complement degrees d_v.
    Expanding x(x-1)...(x-V+1) to its third coefficient, a Stirling
    number of the first kind, gives
    b1 = N - C(V, 2) and b2 = C(V, 3)(3V - 1)/4 - N C(V-1, 2) + a_(V-2).
    Everything is counted on the complement's neighbour masks: the
    independent 3-sets are the common non-neighbours above v of each
    non-edge uv, one AND and one popcount per non-edge.
    """
    count = graph.vertex_count
    if count < 2:
        return (1, 0, 0)
    full = (1 << count) - 1
    apart = [full ^ mask ^ 1 << v for v, mask in enumerate(graph.masks)]
    degrees = [mask.bit_count() for mask in apart]
    non_edges = sum(degrees) // 2
    independent_triples = 0
    for u, row in enumerate(apart):
        for v in iter_bits(row >> (u + 1) << (u + 1)):
            independent_triples += ((row & apart[v]) >> (v + 1)).bit_count()
    two_below = (
        independent_triples + comb(non_edges, 2) - sum(comb(d, 2) for d in degrees)
    )
    b1 = non_edges - comb(count, 2)
    b2 = comb(count, 3) * (3 * count - 1) // 4 - non_edges * comb(count - 1, 2) + two_below
    return (1, b1, b2)


@dataclass(frozen=True)
class BipartitionResult:
    """Either a proper 2-coloring or an odd-cycle witness, never both."""

    coloring: Coloring | None
    odd_cycle: tuple[int, ...] | None


def two_coloring(graph: Graph) -> BipartitionResult:
    """Breadth-first bipartition; on failure returns an odd cycle."""
    masks = graph.masks
    color = [0] * graph.vertex_count  # 0: not reached yet
    parent: list[int | None] = [None] * graph.vertex_count
    for root in range(graph.vertex_count):
        if color[root]:
            continue
        color[root] = 1
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in iter_bits(masks[u]):
                if not color[w]:
                    color[w] = 3 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    cycle = _odd_cycle_from_conflict(u, w, parent)
                    return BipartitionResult(coloring=None, odd_cycle=cycle)
    return BipartitionResult(coloring=Coloring(tuple(color)), odd_cycle=None)


def _odd_cycle_from_conflict(
    u: int, w: int, parent: Sequence[int | None]
) -> tuple[int, ...]:
    ancestors_u = [u]
    while parent[ancestors_u[-1]] is not None:
        ancestors_u.append(parent[ancestors_u[-1]])
    position = {v: idx for idx, v in enumerate(ancestors_u)}
    path_w = [w]
    while path_w[-1] not in position:
        path_w.append(parent[path_w[-1]])
    meet = path_w[-1]
    cycle = tuple(ancestors_u[: position[meet] + 1]) + tuple(reversed(path_w[:-1]))
    if len(cycle) % 2 == 0:
        raise InternalInvariant("bipartition conflict produced an even cycle")
    return cycle


def greedy_coloring(graph: Graph) -> Coloring:
    """First-fit coloring in canonical vertex order (an upper bound):
    each vertex joins the first color class, kept as one bitmask, that
    holds none of its neighbors."""
    classes: list[int] = []
    colors: list[int] = []
    for v, mask in enumerate(graph.masks):
        for c, members in enumerate(classes):
            if not members & mask:
                classes[c] = members | 1 << v
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colors.append(c + 1)
    return Coloring(tuple(colors))


def _k_coloring(graph: Graph, k: int, clique: tuple[int, ...]) -> Coloring | None:
    """Exact DSATUR decision search (Brelaz 1979) for a proper coloring
    with at most k colors, the given clique (k >= its size) pre-colored
    1..len(clique).

    The state is a handful of ints on the neighbour bitmasks: the
    uncolored set, the members of each color, the union `seen[c]` of
    the neighbourhoods of color c's members, and buckets of vertices
    keyed by saturation (the number of distinct colors on their
    neighbours). Coloring v with c moves `masks[v] & uncolored &
    ~seen[c]` up one bucket; a vertex reaching bucket k has no color
    left, which is a dead end, and undoing restores the saved ints. A
    colored vertex stays in the bucket it left, so the buckets are read
    through the uncolored set. The search branches on the lowest id
    with the most uncolored neighbours in the highest non-empty bucket,
    that is on the uncolored vertex with the most distinct neighbour
    colors, then the most uncolored neighbours, then the lowest id. It
    tries only that vertex's free colors, and at most one color not yet
    used anywhere.
    """
    masks = graph.masks
    members = [0] * (k + 1)  # colors 1..k; entry 0 unused
    seen = [0] * (k + 1)

    def color(v: int, c: int, uncolored: int, buckets: list[int]) -> list[int] | None:
        """The buckets after coloring v with c, or None at a dead end;
        members[c] and seen[c] are updated in place."""
        members[c] |= 1 << v
        raised = masks[v] & uncolored & ~seen[c]
        seen[c] |= masks[v]
        buckets = buckets[:]
        s = 0
        while raised:
            up = buckets[s] & raised
            if up:
                buckets[s] ^= up
                buckets[s + 1] |= up
                raised ^= up
            s += 1
        return None if buckets[k] else buckets

    def search(uncolored: int, buckets: list[int], used: int) -> bool:
        if not uncolored:
            return True
        s = k - 1
        while not buckets[s] & uncolored:
            s -= 1
        top = buckets[s] & uncolored
        most = -1
        while top:
            bit = top & -top
            top ^= bit
            u = bit.bit_length() - 1
            degree = (masks[u] & uncolored).bit_count()
            if degree > most:
                v, most = u, degree
        rest = uncolored ^ 1 << v
        for c in range(1, min(used + 1, k) + 1):
            if seen[c] >> v & 1:
                continue
            saved = seen[c]
            after = color(v, c, rest, buckets)
            if after is not None and search(rest, after, max(used, c)):
                return True
            members[c] ^= 1 << v
            seen[c] = saved
        return False

    uncolored = (1 << graph.vertex_count) - 1
    buckets = [uncolored] + [0] * k
    for c, v in enumerate(clique, start=1):
        uncolored ^= 1 << v
        after = color(v, c, uncolored, buckets)
        if after is None:
            return None
        buckets = after
    if not search(uncolored, buckets, len(clique)):
        return None
    colors = [0] * graph.vertex_count
    for c in range(1, k + 1):
        for v in iter_bits(members[c]):
            colors[v] = c
    return Coloring(tuple(colors))


def optimal_coloring(graph: Graph) -> Coloring:
    """A verified proper coloring using exactly chi(graph) colors.

    One clique search gives both the lower bound and the clique that the
    exact search pre-colors. That clique is checked on the masks before
    the search and against the palette after it, so a wrong lower bound
    raises instead of passing unnoticed."""
    if graph.vertex_count == 0:
        raise DomainError("chromatic number of an empty graph is undefined here")
    upper = greedy_coloring(graph)
    clique = max_clique(graph)
    if not is_clique(graph, clique):
        raise InternalInvariant(f"the lower-bound clique {clique} is not a clique")
    best = upper
    for k in range(len(clique), upper.colors_used):
        attempt = _k_coloring(graph, k, clique)
        if attempt is not None:
            best = attempt
            break
    if not best.is_proper(graph):
        raise InternalInvariant("optimal coloring failed the properness check")
    if len(clique) > best.colors_used:
        raise InternalInvariant(
            f"a clique of {len(clique)} vertices outgrew a {best.colors_used}-coloring"
        )
    return best


def chromatic_number(graph: Graph) -> int:
    """Exact chromatic number (the chromatic stability index for
    stereotype graphs)."""
    return optimal_coloring(graph).colors_used


def csi(g: StereotypeGraph) -> int:
    return chromatic_number(g.graph)


def constructive_pair_coloring(g: StereotypeGraph) -> Coloring:
    """Proper coloring with at most n colors by the sequential pair walk.

    Colors u2^1 first, then walks pairs in index order giving pair i the
    colors {i-1, i} oriented to avoid the previous pair's same-colored
    neighbor, and finally gives u1^1 the smallest color absent from its
    neighborhood. Free choices always take the smallest color index.
    """
    if g.n < 2:
        raise DomainError("the pair-walk coloring needs at least two pairs")
    graph = g.graph
    theta = [0] * g.vertex_count  # the pivot u1^1 is colored last
    theta[vertex_id(1, 2)] = 1

    first = vertex_id(2, 1)
    if graph.has_edge(vertex_id(1, 2), first):
        theta[first] = 2
    else:
        theta[first] = 1
    theta[vertex_id(2, 2)] = 3 - theta[first]

    for i in range(3, g.n + 1):
        prev_vertex = next(
            v
            for v in (vertex_id(i - 1, 1), vertex_id(i - 1, 2))
            if theta[v] == i - 1
        )
        u1 = vertex_id(i, 1)
        theta[u1] = i if graph.has_edge(u1, prev_vertex) else i - 1
        theta[vertex_id(i, 2)] = (2 * i - 1) - theta[u1]

    pivot = vertex_id(1, 1)
    used_nearby = {theta[w] for w in iter_bits(graph.masks[pivot])}
    free = next((c for c in range(1, g.n + 1) if c not in used_nearby), None)
    if free is None:
        raise InternalInvariant("no free color remained for the first vertex")
    theta[pivot] = free

    coloring = Coloring(tuple(theta))
    if not coloring.is_proper(graph) or coloring.colors_used > g.n:
        raise InternalInvariant("pair-walk coloring violated its own contract")
    return coloring


class StabilityComparison(enum.Enum):
    MORE_STABLE = "more-stable"
    SAME_STABLE = "same-stable"
    MORE_UNSTABLE = "more-unstable"


def compare_stability(g1: StereotypeGraph, g2: StereotypeGraph) -> StabilityComparison:
    """Order two graphs by chromatic stability index; lower is more stable."""
    chi1, chi2 = csi(g1), csi(g2)
    if chi1 < chi2:
        return StabilityComparison.MORE_STABLE
    if chi1 > chi2:
        return StabilityComparison.MORE_UNSTABLE
    return StabilityComparison.SAME_STABLE


def chromatically_bipartite_criterion(g: StereotypeGraph) -> bool:
    """Stability via the second chromatic coefficient reaching C(n^2, 2).

    Also cross-checks the structural coefficient laws (b0 = 1,
    b1 = -n^2, b2 <= C(n^2, 2), and b2 - C(n^2, 2) = c3/2 against the
    characteristic polynomial); any violation is an internal bug.

    b0..b2 come from leading_chromatic_coefficients, three partition
    counts on g's own graph, so the criterion works at any size and
    never builds the whole chromatic polynomial. For one pair
    b2 = C(1, 2) = 0, so K2 reads stable.
    """
    c3 = leading_characteristic_coefficients(g)[3]
    return _chromatically_bipartite(g, c3)


def _chromatically_bipartite(g: StereotypeGraph, c3: int) -> bool:
    """The chromatically-bipartite verdict on g, cross-checked against c3
    of its characteristic polynomial."""
    b0, b1, b2 = leading_chromatic_coefficients(g.graph)
    edge_pairs = comb(g.n * g.n, 2)
    if b0 != 1 or b1 != -g.n * g.n:
        raise InternalInvariant(f"unexpected leading chromatic coefficients ({b0}, {b1})")
    if b2 > edge_pairs or 2 * (b2 - edge_pairs) != c3:
        raise InternalInvariant(
            f"chromatic/characteristic coefficient mismatch: b2={b2}, c3={c3}"
        )
    return b2 == edge_pairs


@dataclass(frozen=True)
class StabilityReport:
    """Verdicts of every stability criterion on one graph.

    Every criterion gives a verdict on every graph, one pair included,
    and none is skipped for size. `agreement` is derived: all eight
    verdicts are equal, and equal to the index test csi == 2. Every field
    is a graph invariant, hence an invariant of the pattern's switching
    class.
    """

    merge: bool
    coloring: bool
    bipartite: bool
    girth: bool
    minor: bool
    matrix: bool
    characteristic: bool
    chromatically_bipartite: bool
    csi: int

    def criteria(self) -> dict[str, bool]:
        return {
            "merge": self.merge,
            "coloring": self.coloring,
            "bipartite": self.bipartite,
            "girth": self.girth,
            "minor": self.minor,
            "matrix": self.matrix,
            "characteristic": self.characteristic,
            "chromatically-bipartite": self.chromatically_bipartite,
        }

    @property
    def stable(self) -> bool:
        return self.csi == 2

    @property
    def agreement(self) -> bool:
        return set(self.criteria().values()) == {self.stable}


def stability_report(g: StereotypeGraph) -> StabilityReport:
    """Run every stability predicate plus the chromatic stability index.

    Every criterion runs, on any number of pairs; a disagreement between
    them is reported by the derived agreement flag, never resolved
    silently.

    The report is computed once per switching class, on the normalised
    pattern switching_representative(g), which is isomorphic to g, and
    cached on that pattern's rows: the 1024 graphs on 5 pairs need 64
    reports. A cache hit builds no graph.
    """
    return _stability_report_cached(tuple(_normalised_rows(g)))


# Keyed on the representative's rows, which fix n as their length, rather
# than on the graph, so that an entry does not keep the graph and its
# neighbour masks alive.
@lru_cache(maxsize=4096)
def _stability_report_cached(rows: tuple[int, ...]) -> StabilityReport:
    return _compute_stability_report(StereotypeGraph(len(rows), rows))


def _compute_stability_report(g: StereotypeGraph) -> StabilityReport:
    """Every criterion and the index run on g itself, without the cache."""
    # One truncated pass gives c3 for the characteristic verdict and
    # for the chromatically-bipartite cross-check.
    c3 = leading_characteristic_coefficients(g)[3]
    return StabilityReport(
        merge=reduce_to_k2(g).stable,
        coloring=two_coloring(g.graph).coloring is not None,
        bipartite=recognize_complete_bipartite(g),
        # From two pairs on the girth is 3 or 4; K2 has no cycle.
        girth=g.graph.girth() != 3,
        minor=minor_criterion(g),
        matrix=matrix_criterion(g),
        characteristic=c3 == 0,
        chromatically_bipartite=_chromatically_bipartite(g, c3),
        csi=csi(g),
    )


__all__ = [
    "BipartitionResult",
    "CHROMATIC_POLY_VERTEX_BOUND",
    "Coloring",
    "StabilityComparison",
    "StabilityReport",
    "chromatic_number",
    "chromatic_polynomial",
    "chromatically_bipartite_criterion",
    "compare_stability",
    "constructive_pair_coloring",
    "count_proper_colorings",
    "csi",
    "greedy_coloring",
    "independent_partition_counts",
    "leading_chromatic_coefficients",
    "optimal_coloring",
    "stability_report",
    "two_coloring",
]
