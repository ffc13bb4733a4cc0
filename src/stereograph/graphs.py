"""Minimal immutable simple graphs and the structural algorithms used here.

Vertices are dense integers ``0..vertex_count-1``. A graph is stored as
``Graph.masks``, one neighbour bitmask per vertex; it is the only
neighbour index, every algorithm here reads it, and the edge set is
derived from it on demand. Every algorithm here is exact; nothing in
this module approximates.

Distances come from one multi-root BFS kernel, Graph._max_eccentricity,
which both is_connected (one root) and diameter (every root) read. It
packs the BFS levels of a block of roots into one int, one row of
vertex_count bits per root, and advances every row by one level per
vertex of their union: the row bits where that vertex lies, times its
neighbour mask, lay the mask into exactly those rows, and since the rows
never overlap the product has no carries. Each row therefore follows
its root's BFS exactly, and the block runs until every row is full,
which takes as many steps as the greatest eccentricity of its roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import DomainError, InternalInvariant

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise DomainError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _checked_edge(u: int, v: int, vertex_count: int) -> Edge:
    """normalize_edge, then reject a vertex outside 0..vertex_count-1."""
    e = normalize_edge(u, v)
    if not (0 <= e[0] and e[1] < vertex_count):
        raise DomainError(f"edge {e} references a vertex outside 0..{vertex_count - 1}")
    return e


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0..vertex_count-1``, stored
    as one neighbour bitmask per vertex: bit w of masks[v] is set iff vw
    is an edge. `edges`, `neighbors`, `degree` and `degrees` are views of
    `masks`; two graphs are equal iff they have the same vertex count and
    the same edges.

    The masks must be a tuple of vertex_count ints, symmetric and free of
    self-loops; `from_edges` builds them from an edge list and checks
    every edge."""

    vertex_count: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.masks) is not tuple:
            raise TypeError(
                f"Graph takes a tuple of neighbour masks, got {type(self.masks).__name__}; "
                "build a graph from edges with Graph.from_edges"
            )
        if len(self.masks) != self.vertex_count:
            raise DomainError(
                f"expected {self.vertex_count} neighbour masks, got {len(self.masks)}"
            )

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Edge]) -> "Graph":
        masks = [0] * vertex_count
        for u, v in edges:
            u, v = _checked_edge(u, v, vertex_count)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(vertex_count, tuple(masks))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as (u, v) tuples with u < v."""
        return frozenset(
            (u, v) for u, row in enumerate(self.masks) for v in iter_bits(row >> u + 1 << u + 1)
        )

    @cached_property
    def _local_invariants(self) -> tuple[tuple[int, int], ...]:
        """Each vertex's degree and twice the number of triangles through
        it: find_isomorphism's invariant, computed once per graph."""
        masks = self.masks
        return tuple(
            (row.bit_count(), sum((row & masks[w]).bit_count() for w in iter_bits(row)))
            for row in masks
        )

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False for a vertex outside the graph."""
        u, v = normalize_edge(u, v)
        return 0 <= u and v < self.vertex_count and self.masks[u] >> v & 1 == 1

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def is_connected(self) -> bool:
        return self.vertex_count == 0 or self._max_eccentricity(1) is not None

    def diameter(self) -> int | None:
        """Greatest pairwise distance, or None when disconnected: the
        greatest eccentricity over every root, from the multi-root BFS
        of _max_eccentricity. It is exact because each root's row in a
        block takes exactly the BFS steps of that root alone, and the
        block stops only when every row holds every vertex."""
        if self.vertex_count == 0:
            return None
        return self._max_eccentricity(self.vertex_count)

    def _max_eccentricity(self, root_count: int) -> int | None:
        """Greatest distance from a root, one of the vertices
        0..root_count-1, to any vertex, or None when some vertex is out
        of a root's reach: a BFS over level bitmasks that advances a
        block of roots at once (Then et al., "The More the Merrier:
        Efficient Multi-Source Graph Traversal", PVLDB 2014).

        With n vertices, a block of max(1, 1024 // n) roots keeps its
        levels in one int of about 1024 bits, the block's r-th root on
        row r, bits r*n .. r*n+n-1. For each vertex w in the union of
        the rows, the product of (level >> w & ones), which has bit r*n
        set iff w lies in row r's level, with masks[w] < 2^n copies
        masks[w] into exactly those rows; the rows never overlap, so
        nothing carries and the product is an OR. One step of the block
        is thus one BFS step of each of its roots. The block stops when
        every row is full, after max-eccentricity steps, so it never
        expands the last level; an empty level while some row is
        unfilled means a vertex out of reach.
        """
        n, masks = self.vertex_count, self.masks
        block = max(1, 1024 // n)
        row = (1 << n) - 1
        best = 0
        for start in range(0, root_count, block):
            k = min(block, root_count - start)
            width = k * n
            # ones: the low bit of each of the k rows; level: root
            # start + r on row r, which is every (n + 1)-th bit from bit
            # start on.
            full = (1 << width) - 1
            ones = full // row
            level = seen = ((1 << k * (n + 1)) - 1) // ((1 << n + 1) - 1) << start
            d = 0
            while seen != full:
                # Fold the rows in halves: afterwards the low row of
                # union holds every row's level.
                union, shift = level, n
                while shift < width:
                    union |= union >> shift
                    shift <<= 1
                union &= row
                reached = 0
                while union:
                    w = (union & -union).bit_length() - 1
                    reached |= (level >> w & ones) * masks[w]
                    union &= union - 1
                level = reached & ~seen
                if not level:
                    return None
                seen |= level
                d += 1
            best = max(best, d)
        return best

    def girth(self) -> int | None:
        """Length of a shortest cycle, or None for a forest.

        Computed exactly by a BFS from every root over level bitmasks.
        With L_d the vertices at distance d from the root, an edge inside
        L_d closes an odd cycle of length at most 2d+1, and a vertex of
        L_(d+1) with two neighbours in L_d an even one of length at most
        2d+2; from a root on a shortest cycle the first of these tests to
        fire gives its length exactly, so the girth is the minimum over
        the roots. A root with fewer than two neighbours lies on no
        cycle, so it is skipped; that leaves the minimum as it is, and
        on a graph with no edges costs one popcount per vertex. Once the
        odd test at level d has failed, no later test from that root can
        find less than 2d+2, so the root is left there when that is no
        shorter than the best cycle so far; on a triangle-free graph of
        girth 4, every root after the first stops at level 1. A triangle
        ends the search, since no simple graph has a shorter cycle.
        """
        masks = self.masks
        best: int | None = None
        for root in range(self.vertex_count):
            if masks[root].bit_count() < 2:
                continue
            level, seen, d = 1 << root, 1 << root, 0
            while level and (best is None or 2 * d + 1 < best):
                neighbourhoods = [masks[v] for v in iter_bits(level)]
                if any(mask & level for mask in neighbourhoods):
                    best = 2 * d + 1
                    break
                if best is not None and 2 * d + 2 >= best:
                    break
                reached = twice = 0
                for mask in neighbourhoods:
                    fresh = mask & ~seen
                    twice |= reached & fresh
                    reached |= fresh
                if twice:
                    best = 2 * d + 2
                    break
                seen |= reached
                level, d = reached, d + 1
            if best == 3:
                return 3
        return best

    def _common_neighbours(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, mask of the common neighbours above v) for each edge uv
        with u < v, in lexicographic order: the one triangle walk."""
        masks = self.masks
        for u, row in enumerate(masks):
            for v in iter_bits(row >> (u + 1) << (u + 1)):
                yield u, v, (row & masks[v]) >> (v + 1) << (v + 1)

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples, in lexicographic order."""
        return [(u, v, w) for u, v, common in self._common_neighbours() for w in iter_bits(common)]

    def triangle_count(self) -> int:
        """The number of triangles: the popcounts of the walk's masks."""
        return sum(common.bit_count() for _, _, common in self._common_neighbours())

    def has_triangle(self) -> bool:
        """Whether any triangle exists; the walk stops at the first."""
        return any(common for _, _, common in self._common_neighbours())

    def delete_edges(self, removed: Iterable[Edge]) -> "Graph":
        """The graph without the listed edges; an absent edge or a vertex
        outside the graph is ignored, a self-loop raises."""
        masks = list(self.masks)
        for u, v in removed:
            u, v = normalize_edge(u, v)
            if 0 <= u and v < self.vertex_count:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
        return Graph(self.vertex_count, tuple(masks))


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """One edge-preserving bijection from g1 onto g2, or None.

    Backtracking pruned by one vertex invariant, refined once (McKay,
    "Practical graph isomorphism", 1981): local[v] is v's degree and twice
    the number of triangles through v (Graph._local_invariants, cached on
    each graph), and v maps only onto vertices with the same local[] and
    the same sorted local[] of their neighbours. A returned mapping is
    always re-verified, mask by mask.
    """
    n = g1.vertex_count
    if n != g2.vertex_count:
        return None
    m1, m2 = g1.masks, g2.masks
    local1, local2 = g1._local_invariants, g2._local_invariants
    if sorted(local1) != sorted(local2):
        return None
    sig1 = [(local1[v], tuple(sorted(local1[w] for w in iter_bits(m1[v])))) for v in range(n)]
    sig2 = [(local2[v], tuple(sorted(local2[w] for w in iter_bits(m2[v])))) for v in range(n)]
    if sorted(sig1) != sorted(sig2):
        return None

    candidates = {v: [w for w in range(n) if sig2[w] == sig1[v]] for v in range(n)}
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        """Whether v -> w keeps adjacency to and from every mapped vertex."""
        row1, row2 = m1[v], m2[w]
        return all(row1 >> x & 1 == row2 >> y & 1 for x, y in mapping.items())

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                if backtrack(idx + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    if not backtrack(0):
        return None
    if not _mapping_preserves_edges(g1, g2, mapping):
        raise InternalInvariant("isomorphism search returned a mapping that breaks an edge")
    return dict(mapping)


def _mapping_preserves_edges(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Whether mapping carries each neighbourhood of g1 onto the
    neighbourhood of the image vertex in g2."""
    m2 = g2.masks
    return all(
        sum(1 << mapping[w] for w in iter_bits(row)) == m2[mapping[v]]
        for v, row in enumerate(g1.masks)
    )


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def max_clique(g: Graph) -> tuple[int, ...]:
    """The lexicographically smallest maximum clique, in ascending order,
    from _clique_search rooted at every vertex; () for no vertices."""
    n = g.vertex_count
    if n == 0:
        return ()
    return _clique_search(g.masks, (1 << n) - 1, 1, (0,))


def _clique_search(
    masks: tuple[int, ...], roots: int, skip: int, best: tuple[int, ...]
) -> tuple[int, ...]:
    """The largest clique rooted at a vertex of the roots mask, the
    lexicographically smallest of that size, or best if none is larger:
    the one clique search body, which max_clique and the CSI route's
    _pair_rooted_clique seed.

    A root v, lowest first, takes its neighbours from v + skip on as its
    candidates. The search adds vertices lowest first and prunes a branch
    only when it cannot beat the best clique so far, so the first maximum
    clique it reaches is the smallest one it can reach. The roots stop
    once no more of them are left than the best size: a seed must make
    that a bound on a clique rooted at the next root, as it is when every
    vertex is a root.
    """
    chosen: list[int] = []
    best_size = len(best)

    def extend(candidates: int, size: int) -> None:
        nonlocal best, best_size
        if candidates == 0:
            if size > best_size:
                best, best_size = tuple(chosen), size
            return
        while candidates:
            if size + candidates.bit_count() <= best_size:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            below = candidates & masks[v]
            if size + 1 + below.bit_count() > best_size:
                chosen.append(v)
                extend(below, size + 1)
                chosen.pop()

    while roots.bit_count() > best_size:
        v = (roots & -roots).bit_length() - 1
        roots &= roots - 1
        candidates = masks[v] >> v + skip << v + skip
        if 1 + candidates.bit_count() > best_size:
            chosen.append(v)
            extend(candidates, 1)
            chosen.pop()
    return best


def max_clique_size(g: Graph) -> int:
    """Exact maximum clique size: the length of max_clique(g)."""
    return len(max_clique(g))


def is_clique(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Whether vertices are distinct vertices of g, pairwise adjacent on
    the masks."""
    members = 0
    for v in vertices:
        if not 0 <= v < g.vertex_count or members >> v & 1:
            return False
        members |= 1 << v
    masks = g.masks
    return all((masks[v] | 1 << v) & members == members for v in vertices)
