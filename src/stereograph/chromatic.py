"""Vertex coloring: exact counts, chromatic polynomials, the chromatic
stability index, and the aggregate stability report.

The chromatic polynomial is assembled from the number of partitions of
the vertex set into i nonempty independent sets, as the coefficients
of its Newton form over the falling factorials, expanded by Horner's
rule. Those counts come from a memoised DP over the vertex
subsets reached from the full set by removing independent sets, with
each subset's counts packed into one int; it is exponential, so
`independent_partition_counts` is bounded at CHROMATIC_POLY_VERTEX_BOUND
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
the uncolored set, the union of each color's neighbourhoods, and the
uncolored vertices bucketed by saturation, in a list that a step copies
only when it raises some vertex. A search returns its color classes as
vertex masks; optimal_coloring turns the first that exists into the one
`Coloring` tuple, one color per vertex id, that it returns. Every
coloring the package writes down (the search's, the index-3 one, the
pair walk's, read off the pattern rows, and those of the generators)
passes one check, _certify, with a clique that bounds the index below.
Every index of a stereotype graph (`csi`, report, census, CLI `csi`)
reads _csi_coloring's coloring: written down from the descendant H
(model._descendant) at index 3 and certified with a triangle, else the
search's, handed _pair_rooted_clique's clique (the expansions' too):
max_clique's search rooted only where the swap of every pair's two
sides allows the smallest maximum clique to start.
two_coloring keeps each BFS level as one mask and builds an odd cycle
only for a graph that has one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Sequence

from .errors import DomainError, InternalInvariant, SizeExceeded
from .graphs import Graph, _clique_search, is_clique, iter_bits, max_clique
from .merge import reduce_to_k2
from .model import StereotypeGraph, _descendant, _normalised_rows, recognize_complete_bipartite
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
    summing them is one add and moving one part up one shift. The count
    is exponential, so it is bounded at CHROMATIC_POLY_VERTEX_BOUND
    vertices, which bounds chromatic_polynomial too.
    """
    n = graph.vertex_count
    if n > CHROMATIC_POLY_VERTEX_BOUND:
        raise SizeExceeded(
            f"independent partition counts bounded at {CHROMATIC_POLY_VERTEX_BOUND} "
            f"vertices, got {n}"
        )
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
    """Exact chromatic polynomial, degree = vertex count, monic; bounded
    with independent_partition_counts."""
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
        # higher: u's non-neighbours above the one taken last.
        higher = row >> (u + 1) << (u + 1)
        while higher:
            low = higher & -higher
            higher ^= low
            independent_triples += (higher & apart[low.bit_length() - 1]).bit_count()
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
    """Breadth-first bipartition, one component at a time from its lowest
    vertex; on failure returns an odd cycle.

    Each BFS level is one mask: a vertex of the level adds its neighbours
    to the next level with one OR, after one AND of its neighbours with
    its own level, as an edge inside a level closes an odd cycle. A
    bipartite graph takes color 1 on the even levels and 2 on the odd
    ones; otherwise _odd_cycle reads the cycle off the levels so far.
    """
    masks = graph.masks
    unreached = (1 << graph.vertex_count) - 1
    odd = 0  # the vertices on odd levels
    while unreached:
        level = unreached & -unreached
        levels = [level]
        unreached ^= level
        while level:
            reached = 0
            rest = level
            while rest:
                low = rest & -rest
                rest ^= low
                mask = masks[low.bit_length() - 1]
                if mask & level:
                    return BipartitionResult(coloring=None, odd_cycle=_odd_cycle(masks, levels))
                reached |= mask
            level = reached & unreached
            unreached ^= level
            levels.append(level)
        odd |= sum(levels[1::2])
    colors = tuple(2 if odd >> v & 1 else 1 for v in range(graph.vertex_count))
    return BipartitionResult(coloring=Coloring(colors), odd_cycle=None)


def _odd_cycle(masks: Sequence[int], levels: list[int]) -> tuple[int, ...]:
    """The odd cycle of the first edge inside the last of the BFS levels,
    levels[0] the root, in the order a queue-based BFS meets it.

    That BFS queues each level's vertices by their parents' places in
    the level above, then by id, and a vertex's parent is the first of
    the level above, in that order, next to it. The first vertex u of
    the last level, in that order, with a neighbour in its level, and
    u's lowest such neighbour w, close the cycle u ... a ... w, a the
    lowest common ancestor of the two: 2(d - depth(a)) + 1 vertices for
    the depth d of the last level.
    """
    parent: dict[int, int] = {}
    order = [levels[0].bit_length() - 1]
    for level in levels[1:]:
        queued = []
        for p in order:
            children = masks[p] & level
            level ^= children
            while children:
                low = children & -children
                children ^= low
                v = low.bit_length() - 1
                parent[v] = p
                queued.append(v)
        order = queued
    last = levels[-1]
    u = next(v for v in order if masks[v] & last)
    inside = masks[u] & last
    w = (inside & -inside).bit_length() - 1
    up, across = [u], [w]
    while up[-1] != across[-1]:
        up.append(parent[up[-1]])
        across.append(parent[across[-1]])
    return tuple(up) + tuple(reversed(across[:-1]))


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


def _raise_saturation(buckets: list[int], raised: int) -> list[int]:
    """A copy of the saturation buckets with every vertex of raised moved
    up one bucket; raised lies inside the union of the buckets and
    misses the top one."""
    buckets = buckets[:]
    s = 0
    while raised:
        up = buckets[s] & raised
        if up:
            buckets[s] ^= up
            buckets[s + 1] |= up
            raised ^= up
        s += 1
    return buckets


def _k_coloring(graph: Graph, k: int, clique: tuple[int, ...]) -> list[int] | None:
    """Exact DSATUR decision search (Brelaz 1979) for a proper coloring
    with at most k colors, the given clique (k >= its size) pre-colored
    1..len(clique). Returns the k color classes as vertex masks, class
    c - 1 holding the vertices of color c, or None if there is none.

    The state is a handful of ints on the neighbour bitmasks: the
    uncolored set, the union `seen[c]` of the neighbourhoods of color
    c's members, and buckets 0..k-1 of vertices keyed by saturation
    (the number of distinct colors on their neighbours). Coloring v
    with c raises `masks[v] & uncolored & ~seen[c]` one bucket. If that
    takes a vertex of bucket k-1 up, the vertex has no color left: a
    dead end, found before anything is copied or changed. Only a step
    that raises some vertex copies the bucket list; any other step
    hands the parent's list on. Undoing a step restores `seen[c]`
    alone. A colored vertex stays in the bucket it left, so the buckets
    are read through the uncolored set. The search branches on the
    lowest id with the most uncolored neighbours in the highest
    non-empty bucket (with no degree count when that bucket holds one
    vertex), that is on the uncolored vertex with the most distinct
    neighbour colors, then the most uncolored neighbours, then the
    lowest id. It tries only that vertex's free colors, and at most one
    color not yet used anywhere. The classes are written on the way out
    of a successful search, so a failed branch leaves nothing to undo
    in them.
    """
    masks = graph.masks
    members = [0] * (k + 1)  # colors 1..k; entry 0 unused
    seen = [0] * (k + 1)

    def search(uncolored: int, buckets: list[int], used: int) -> bool:
        """Whether the non-empty uncolored set can be colored."""
        s = k - 1
        while not buckets[s] & uncolored:
            s -= 1
        top = buckets[s] & uncolored
        if top & (top - 1):
            most = -1
            while top:
                low = top & -top
                top ^= low
                degree = (masks[low.bit_length() - 1] & uncolored).bit_count()
                if degree > most:
                    bit, most = low, degree
        else:
            bit = top
        rest = uncolored ^ bit
        mask = masks[bit.bit_length() - 1]
        near = mask & rest
        for c in range(1, (used + 1 if used < k else k) + 1):
            saved = seen[c]
            if saved & bit:
                continue
            raised = near & ~saved
            if raised & buckets[k - 1]:
                continue
            after = _raise_saturation(buckets, raised) if raised else buckets
            seen[c] = saved | mask
            if not rest or search(rest, after, c if c > used else used):
                members[c] |= bit
                return True
            seen[c] = saved
        return False

    uncolored = (1 << graph.vertex_count) - 1
    buckets = [uncolored] + [0] * (k - 1)
    for c, v in enumerate(clique, start=1):
        uncolored ^= 1 << v
        members[c] = 1 << v
        seen[c] = masks[v]
        raised = masks[v] & uncolored
        if raised & buckets[k - 1]:
            return None
        buckets = _raise_saturation(buckets, raised)
    if uncolored and not search(uncolored, buckets, len(clique)):
        return None
    return members[1:]


def optimal_coloring(graph: Graph, clique: tuple[int, ...] | None = None) -> Coloring:
    """A verified proper coloring using exactly chi(graph) colors.

    The clique, max_clique(graph) unless given, is both the lower bound
    and the vertices the exact search pre-colors; any clique keeps the
    search exact, and a maximum one makes it shortest. It is checked on
    the masks before the search, and _certify checks it against the
    coloring after it, so a wrong lower bound raises InternalInvariant
    instead of passing unnoticed. The first palette with a coloring
    gives its color classes, and the one Coloring returned is built from
    them (or is the first-fit one when no smaller palette works)."""
    if graph.vertex_count == 0:
        raise DomainError("chromatic number of an empty graph is undefined here")
    upper = greedy_coloring(graph)
    if clique is None:
        clique = max_clique(graph)
    if not is_clique(graph, clique):
        raise InternalInvariant(f"the lower-bound clique {clique} is not a clique")
    best = upper
    for k in range(max(len(clique), 1), upper.colors_used):
        classes = _k_coloring(graph, k, clique)
        if classes is not None:
            colors = [0] * graph.vertex_count
            for c, members in enumerate(classes, start=1):
                for v in iter_bits(members):
                    colors[v] = c
            best = Coloring(tuple(colors))
            break
    return _certify(graph, best, clique, "optimal coloring")


def _certify(graph: Graph, coloring: Coloring, clique: tuple[int, ...], claim: str) -> Coloring:
    """coloring, once it and clique certify claim on graph: the one check
    of every coloring the package writes down (McConnell et al.,
    "Certifying algorithms", 2011). Raises InternalInvariant naming claim
    unless clique is a clique of graph, coloring is proper on graph and
    len(clique) <= colors_used, which give len(clique) <= chi(graph) <=
    colors_used: the index is proved where the two meet."""
    if not is_clique(graph, clique):
        raise InternalInvariant(f"{claim}: {clique} is not a clique")
    if not coloring.is_proper(graph):
        raise InternalInvariant(f"{claim}: coloring {coloring.colors} is not proper")
    used = coloring.colors_used
    if len(clique) > used:
        raise InternalInvariant(f"{claim}: a {len(clique)}-clique outgrew a {used}-coloring")
    return coloring


def chromatic_number(graph: Graph) -> int:
    """Exact chromatic number of a plain graph; the index of a
    stereotype graph is csi's, which equals it on g.graph."""
    return optimal_coloring(graph).colors_used


def _index_three_blocks(h: Iterable[int]) -> tuple[int, int] | None:
    """The two sides of the descendant H (model._descendant), as masks
    of 0-based pair indices, when its class has index 3, else None.

    The index is at most 3 iff H is complete bipartite plus isolated
    vertices: in a 3-colouring of the normalised pattern with pair 1
    coloured (1, 2), every other pair is coloured (2, 1), (2, 3) or
    (3, 1), and two are parallel iff one is (2, 3) and the other (3, 1);
    conversely such an H has that colouring. It is exactly 3 iff both
    sides are non-empty. The first pair with an H-neighbour lies on one
    side, its neighbourhood the other. H is read once, in pair order,
    and as it is symmetric, no pair of the other side may see that side
    and every pair outside it sees nothing or exactly the other side;
    most patterns fail within a few pairs, before H is read further.
    """
    side = other = 0
    for i, mask in enumerate(h):
        bit = 1 << i
        if other & bit:
            if mask & other:
                return None
        elif not mask:
            continue
        elif mask == other:
            side |= bit
        elif other:
            return None
        else:
            side, other = bit, mask
    return (side, other) if other else None


def _csi_coloring(g: StereotypeGraph) -> Coloring:
    """A checked coloring of g.graph with chi(g.graph) colors: the route
    of csi and of CLI csi.

    Index 3 is decided on the descendant H (_index_three_blocks) and
    certified on g.graph: pair 1 gets colors (1, 2), the pairs of the
    two sides of H (2, 3) and (3, 1), the other pairs (2, 1), each
    swapped back on a pair that normalising switched; u1 of pair 1 and
    of one pair from each side is a triangle, and _certify checks the
    two. Any other pattern goes to optimal_coloring, the exact search."""
    blocks = _index_three_blocks(_descendant(_normalised_rows(g)))
    if blocks is None:
        graph = g.graph
        return optimal_coloring(graph, _pair_rooted_clique(graph))
    side, other = blocks
    if not side or not other:
        raise InternalInvariant(f"index-3 blocks {blocks} leave a side empty")
    switched = g.rows[0]
    colors: list[int] = []
    for i in range(g.n):
        bit = 1 << i
        pair = (2, 3) if side & bit else (3, 1) if other & bit else (2, 1) if i else (1, 2)
        colors += pair[::-1] if switched & bit else pair
    triangle = tuple(
        2 * i + (switched >> i & 1)
        for i in (0, (side & -side).bit_length() - 1, (other & -other).bit_length() - 1)
    )
    claim = f"index-3 certificate on {g.n} pairs, blocks {side:#x} and {other:#x}"
    return _certify(g.graph, Coloring(tuple(colors)), triangle, claim)


def _pair_rooted_clique(graph: Graph) -> tuple[int, ...]:
    """max_clique(graph) for the graph of a stereotype graph: the same
    search, rooted only at the side-1 vertices 2r, each with its
    neighbours above pair r, and (0, 1) as the clique to beat.

    Swapping the two sides of every pair is an automorphism, and it maps
    a clique whose lowest vertex is odd to a lexicographically smaller
    one, so the smallest maximum clique starts at an even vertex. A
    vertex of another pair meets exactly one vertex of a pair, so a
    clique of three or more vertices holds at most one vertex per pair:
    never the root's partner, and no more vertices than there are pairs
    from the root's on, which is the roots left. (0, 1) is the smallest
    clique of two.
    """
    return _clique_search(graph.masks, ((1 << graph.vertex_count) - 1) // 3, 2, (0, 1))


def csi(g: StereotypeGraph) -> int:
    """The chromatic stability index, chi(g.graph), off _csi_coloring."""
    return _csi_coloring(g).colors_used


def constructive_pair_coloring(g: StereotypeGraph) -> Coloring:
    """Proper coloring with at most n colors by the sequential pair walk,
    read off the pattern rows; only the final check builds g.graph.

    With pairs numbered from 0, u2 of pair 0 takes color 1 and each pair
    p >= 1 the colors p and p + 1, the higher one on the side the previous
    pair's higher color (on side s) does not meet: u1 of pair p meets it
    iff s is bit(p - 1, p). Last, the pivot u1 of pair 0 takes the
    smallest color absent from its partner and vertex 2j + bit(0, j) of
    each pair j >= 1, its neighbours."""
    if g.n < 2:
        raise DomainError("the pair-walk coloring needs at least two pairs")
    rows = g.rows
    colors = [0] * g.vertex_count
    colors[1] = 1
    side = 1  # the side of the previous pair's higher color
    for p in range(1, g.n):
        side = int(side != rows[p - 1] >> p & 1)
        colors[2 * p + side] = p + 1
        colors[2 * p + 1 - side] = p
    nearby = {colors[1]} | {colors[2 * j + (rows[0] >> j & 1)] for j in range(1, g.n)}
    colors[0] = next(c for c in range(1, g.n + 2) if c not in nearby)
    coloring = _certify(g.graph, Coloring(tuple(colors)), (), "pair-walk coloring")
    if coloring.colors_used > g.n:
        raise InternalInvariant(f"the pair walk used {coloring.colors_used} colors on {g.n} pairs")
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
    return _stability_report_cached(_normalised_rows(g))


# Keyed on the representative's rows, which fix n as their length, rather
# than on the graph, so that an entry does not keep the graph and its
# neighbour masks alive.
@lru_cache(maxsize=4096)
def _stability_report_cached(rows: tuple[int, ...]) -> StabilityReport:
    return _compute_stability_report(StereotypeGraph(len(rows), rows))


def _compute_stability_report(g: StereotypeGraph) -> StabilityReport:
    """Every criterion and the index run on g itself, without the cache."""
    # One c0..c3 pass gives c3 for the characteristic verdict and for
    # the chromatically-bipartite cross-check.
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
