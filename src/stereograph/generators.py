"""Canonical, random, exhaustive, and CSI-targeted stereotype graphs.

The two canonical families are the all-crossed pattern (complete
bipartite, index 2) and the all-parallel pattern (complete ladder, index
n). Random generation draws pattern bits from a seeded splitmix64
stream, so identical (n, seed) inputs reproduce byte-identical graphs on
every platform. The expansion operations add one pair at a time, either
preserving the chromatic stability index or incrementing it by building
a clique through the new pair, which together reach every index in
[2, n]. build_with_csi writes down the graph their chain reaches, with a
proper coloring and a clique of equal size, so the index of what it
builds is certified in O(n^2) without a search. enumerate_all and
census are exhaustive, so each raises SizeExceeded past its limit on n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Iterator

from .chromatic import Coloring, _k_coloring, chromatic_number
from .errors import (
    DomainError,
    EdgeAbsent,
    InternalInvariant,
    InvalidColoring,
    RangeError,
)
from .graphs import (
    Edge,
    Graph,
    is_clique,
    max_clique,
    normalize_edge,
)
from .model import (
    StereotypeGraph,
    _check_limit,
    _check_pair_count,
    _all_rows,
    _value_rows,
    from_pattern,
    pattern_length,
    recognize_complete_bipartite,
    recognize_complete_ladder,
    vertex_id,
    vertex_pair_side,
)

DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_CENSUS_BOUND = 7

PRNG_NAME = "splitmix64-v1"
_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int) -> Iterator[int]:
    """The splitmix64 sequence for a 64-bit seed; fully deterministic.

    The seed must be an int in [0, 2^64): reducing it mod 2^64 would give
    -1 the stream of 2^64 - 1 while a caller records -1. It is checked
    here, when the stream is created, not at its first value.
    """
    if type(seed) is not int or not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must be an int in [0, 2^64), got {seed!r}")
    return _splitmix64(seed)


def _splitmix64(state: int) -> Iterator[int]:
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def gen_complete_bipartite(n: int) -> StereotypeGraph:
    """The all-crossed pattern: both sides independent, index 2."""
    _check_pair_count(n)
    return from_pattern(n, (1,) * pattern_length(n))


def gen_complete_ladder(n: int) -> StereotypeGraph:
    """The all-parallel pattern: two n-cliques joined by a matching."""
    _check_pair_count(n)
    return from_pattern(n, (0,) * pattern_length(n))


def gen_random(n: int, seed: int) -> StereotypeGraph:
    """Uniform pattern with independent bits from splitmix64(seed); the
    seed is an int in [0, 2^64)."""
    _check_pair_count(n)
    stream = splitmix64_stream(seed)
    bits = tuple(next(stream) & 1 for _ in range(pattern_length(n)))
    return from_pattern(n, bits)


def enumerate_all(n: int, limit: int | None = DEFAULT_ENUMERATION_BOUND) -> Iterator[StereotypeGraph]:
    """All 2^C(n,2) stereotype graphs on n pairs in lexicographic bit order;
    limit=None lifts the bound. Both arguments are checked at the call."""
    _check_pair_count(n)
    _check_limit("enumeration", n, limit)
    return (StereotypeGraph(n, rows) for rows in _all_rows(n))


@dataclass(frozen=True)
class CensusRow:
    n: int
    k: int
    labeled_count: int
    iso_class_count: int


def census(n: int, limit: int | None = DEFAULT_CENSUS_BOUND) -> list[CensusRow]:
    """Labeled and isomorphism-class counts of the graphs on n pairs,
    grouped by chromatic stability index.

    Works on switching classes. Swapping the two sides of a pair (Seidel
    switching) and relabelling the pairs both map a graph to an
    isomorphic one, so they keep the index. Each labeled switching class
    holds 2^(n-1) patterns, exactly one of them with pair 1 parallel to
    every other pair (a normalised pattern). The census walks the
    normalised patterns and expands each unseen one to its orbit under
    pair relabellings: the closure of its value under the two generators
    tau and rho of _OrbitWalk, two table steps per orbit member. It
    takes one chromatic_number per orbit and counts |orbit| * 2^(n-1)
    labeled graphs for it.

    Each orbit is one isomorphism class, by the pairing lemma: every
    perfect matching of a stereotype graph in which every two edges
    induce a 4-cycle is the image of its pairing under an automorphism.
    (If xy is such an edge, N(y) is the complement of N(x), so y is a
    twin of x's partner; permuting twins maps the pairing onto it.) So
    an isomorphism can be taken to map pairs onto pairs, and two
    stereotype graphs are isomorphic exactly when their patterns differ
    by a relabelling and a switching.

    Verifies the rows while counting: the labeled counts must sum to
    2^C(n,2), every index-2 orbit must be complete bipartite, every
    index-n one a complete ladder, and each index in [2, n] must be
    populated; _check_extreme_rows holds the two extremes to one class
    of 2^(n-1) labeled graphs each, and _check_index_three the index-3
    row to its closed forms.
    """
    _check_pair_count(n)
    _check_limit("census", n, limit)
    labeled: dict[int, int] = {}
    classes: dict[int, int] = {}
    # Normalised patterns are the values below 2^C(n-1,2): their first
    # n-1 bits, pair 1's row, are the leading zeros.
    seen = bytearray(1 << pattern_length(n - 1))
    walk = _OrbitWalk(n)
    value = 0
    while value >= 0:
        g = StereotypeGraph(n, _value_rows(n, value))
        orbit = walk.orbit(value, seen)
        k = chromatic_number(g.graph)
        labeled[k] = labeled.get(k, 0) + (len(orbit) << (n - 1))
        classes[k] = classes.get(k, 0) + 1
        if k == 2 and not recognize_complete_bipartite(g):
            raise InternalInvariant(f"index-2 graph {g.bits} is not complete bipartite")
        if k == n and n >= 2 and not recognize_complete_ladder(g):
            raise InternalInvariant(f"index-{n} graph {g.bits} is not a complete ladder")
        value = seen.find(0, value + 1)

    total = sum(labeled.values())
    if total != 1 << pattern_length(n):
        raise InternalInvariant(
            f"switching orbits on {n} pairs cover {total} labeled graphs, "
            f"not 2^{pattern_length(n)}"
        )
    if n >= 2:
        for k in range(2, n + 1):
            if labeled.get(k, 0) < 1:
                raise InternalInvariant(f"no graph on {n} pairs has index {k}")
        _check_extreme_rows(n, labeled, classes)
    if n >= 3:
        _check_index_three(n, labeled[3], classes[3])

    return [
        CensusRow(n=n, k=k, labeled_count=labeled[k], iso_class_count=classes[k])
        for k in sorted(labeled)
    ]


def _check_extreme_rows(n: int, labeled: dict[int, int], classes: dict[int, int]) -> None:
    """Raise InternalInvariant unless the index-2 and index-n rows on
    n >= 2 pairs each hold one class of 2^(n-1) labeled graphs.

    A triple of pairs has an odd number of crossed bits in every
    complete bipartite pattern and an even number in every complete
    ladder. Switching keeps each triple's parity and the parities fix
    the switching class, so each of the two is the one class with its
    parities, which every relabelling keeps: one orbit of size 1,
    holding 2^(n-1) patterns. For n = 2 the two rows are one.
    """
    for k in (2, n):
        if labeled[k] != 1 << (n - 1) or classes[k] != 1:
            raise InternalInvariant(
                f"index {k} on {n} pairs has {labeled[k]} labeled graphs in "
                f"{classes[k]} classes, not {1 << (n - 1)} in 1"
            )


def _check_index_three(n: int, labeled: int, classes: int) -> None:
    """Raise InternalInvariant unless the index-3 row on n >= 3 pairs has
    2^(n-1) * S(n, 3) labeled graphs and round(n^2 / 12) classes.

    Let H be the class's descendant at pair 1 (model._descendant), read
    on the normalised pattern, where pair 1 is parallel to every other
    pair. The index is at most 3 iff H is a complete bipartite graph
    plus isolated vertices: in a 3-colouring of the normalised pattern
    with pair 1 coloured (1, 2), every other pair is coloured (2, 1),
    (2, 3) or (3, 1), and two pairs are parallel iff
    one is (2, 3) and the other (3, 1); conversely such an H has that
    colouring. The index is exactly 3 iff both sides are non-empty, so
    the index-3 switching classes are the partitions of the n pairs into
    three blocks (pair 1 with the isolated ones, and the two sides),
    S(n, 3) = (3^(n-1) - 2^n + 1) / 2 of them. A triple of pairs has an
    even number of crossed bits iff its pairs lie in three different
    blocks, so the blocks play symmetric roles and the isomorphism
    classes are the partitions of n into three parts.
    """
    stirling = (3 ** (n - 1) - (1 << n) + 1) // 2
    if labeled != stirling << (n - 1) or classes != (n * n + 6) // 12:
        raise InternalInvariant(
            f"index 3 on {n} pairs has {labeled} labeled graphs in {classes} classes, "
            f"not {stirling << (n - 1)} in {(n * n + 6) // 12}"
        )


class _OrbitWalk:
    """The relabelling orbits of the normalised patterns on n pairs, walked
    by two generators of the pair relabellings that act on a normalised
    value's bits. Pairs are 1-based here; the value holds the bits (i, j)
    with 2 <= i < j in lexicographic order, bit(2, 3) most significant.

    - tau swaps pairs 1 and 2. Pair 1's new row is pair 2's old one, so
      normalising switches the pairs crossed to pair 2: every bit(2, j)
      stays, and each bit(i, j) with 3 <= i < j is XORed with
      bit(2, i) ^ bit(2, j). Pair 2's n-2 bits are the value's top bits,
      so tau(v) = v ^ cut[v >> C(n-2, 2)].
    - rho cycles pairs 2 -> 3 -> ... -> n -> 2. It fixes pair 1, so it
      only moves bits: spread[k][b] holds the bits b of the value's byte
      k where rho sends them, and rho(v) sums that over v's bytes.

    They generate every relabelling, since (1 k) = rho^(k-2) tau
    rho^-(k-2), so the closure of one value under them is its orbit.
    cut has 2^(n-2) entries and each spread table at most 256.
    """

    def __init__(self, n: int) -> None:
        inner = list(itertools.combinations(range(2, n + 1), 2))
        position = {pair: len(inner) - 1 - index for index, pair in enumerate(inner)}

        def slot(i: int, j: int) -> int:
            return position[min(i, j), max(i, j)]

        self.shift = len(inner) - max(n - 2, 0)
        # Pair j's bit in pair 2's row r is bit n - j of r; cut[r] flips
        # each bit (i, j) below pair 2's row whose ends differ in r.
        self.cut = [0]
        for j in range(n, 2, -1):
            flip = sum(1 << slot(i, j) for i in range(3, n + 1) if i != j)
            self.cut += [c ^ flip for c in self.cut]
        successor = {i: i + 1 for i in range(2, n)} | {n: 2}
        moved = {slot(i, j): slot(successor[i], successor[j]) for i, j in inner}
        self.spread = []
        for low in range(0, len(inner), 8):
            table = [0]
            for p in range(low, min(low + 8, len(inner))):
                table += [t | 1 << moved[p] for t in table]
            self.spread.append(table)

    def orbit(self, value: int, seen: bytearray) -> list[int]:
        """The orbit of a normalised value, in walk order; each member is
        marked in seen, which holds one byte per normalised value and must
        not yet mark any of them."""
        cut, shift, spread = self.cut, self.shift, self.spread
        width = len(spread)
        seen[value] = 1
        orbit = [value]
        for v in orbit:
            w = v ^ cut[v >> shift]
            if not seen[w]:
                seen[w] = 1
                orbit.append(w)
            w = sum(map(getitem, spread, v.to_bytes(width, "little")))
            if not seen[w]:
                seen[w] = 1
                orbit.append(w)
        return orbit


def _validate_optimal_coloring(g: StereotypeGraph, coloring: Coloring) -> tuple[int, ...] | None:
    """Check that coloring is proper and optimal with colors 1..colors_used;
    return the smallest clique certifying it, or None if only a search
    could (the index exceeds the clique number).

    A proper coloring gives omega <= chi <= colors_used, so a clique as
    large as the palette exists only when omega equals it, and then the
    smallest such clique is max_clique's. Otherwise _k_coloring, with
    that clique pre-colored, must refute one color fewer; the index is
    computed only for the message of a coloring that fails."""
    colors = coloring.colors
    if len(colors) != g.vertex_count:
        raise InvalidColoring("coloring must assign every vertex exactly once")
    if not coloring.is_proper(g.graph):
        raise InvalidColoring("coloring is not proper")
    if set(colors) != set(range(1, coloring.colors_used + 1)):
        raise InvalidColoring("colors must be exactly 1..colors_used")
    clique = max_clique(g.graph)
    if len(clique) == coloring.colors_used:
        return clique
    if _k_coloring(g.graph, coloring.colors_used - 1, clique) is not None:
        raise InvalidColoring(
            f"coloring uses {coloring.colors_used} colors but the index is "
            f"{chromatic_number(g.graph)}"
        )
    return None


def _assemble(g: StereotypeGraph, new_pair_bit: Callable[[int], int]) -> StereotypeGraph:
    """g with pair n+1 added, wired to each pair i by new_pair_bit(i):
    that bit is bit n of rows[i-1] and bit i-1 of the new pair's row."""
    wiring = [new_pair_bit(i) for i in range(1, g.n + 1)]
    rows = tuple(row | bit << g.n for row, bit in zip(g.rows, wiring))
    return StereotypeGraph(g.n + 1, rows + (sum(bit << i for i, bit in enumerate(wiring)),))


def expand_preserving(g: StereotypeGraph, coloring: Coloring) -> StereotypeGraph:
    """Add one pair wired so the given optimal coloring extends unchanged.

    The new pair takes colors 1 and 2; each old pair is matched so that
    color classes stay proper (a color-1 vertex is wired opposite the new
    color-1 vertex, then a color-2 vertex, then either matching). The
    result has one more pair and the same chromatic stability index.
    """
    _validate_optimal_coloring(g, coloring)
    colors = coloring.colors

    def bit_for(i: int) -> int:
        c1, c2 = colors[vertex_id(i, 1)], colors[vertex_id(i, 2)]
        # Crossed (1) when u1^i has color 1 or u2^i color 2, parallel when
        # u1^i has color 2 or u2^i color 1, so no vertex meets the new one
        # of its color; the two clash only if u1^i and u2^i share a color.
        return int(c1 == 1 or c2 == 2)

    expanded = _assemble(g, bit_for)
    if not Coloring(colors + (1, 2)).is_proper(expanded.graph):
        raise InternalInvariant("preserving expansion broke the extended coloring")
    return expanded


def expand_incrementing(g: StereotypeGraph, coloring: Coloring) -> StereotypeGraph:
    """Add one pair that raises the chromatic stability index by one.

    Builds a clique of size colors_used+1 through the new side-1 vertex:
    it is wired to every vertex of a smallest chi-clique (for chi = 2,
    the smallest edge between two pairs), the mirror vertices then force
    the wiring of the new side-2 vertex, and when the mirror subgraph
    already shows all chi colors one mirror vertex swaps onto the new
    color. Remaining pairs are matched so the extended coloring stays
    proper.
    """
    clique = _validate_optimal_coloring(g, coloring)
    if g.n < 2:
        raise DomainError("a cross clique needs at least two pairs")
    t = coloring.colors_used
    if t == 2:
        # The smallest 2-clique is pair 1's own edge (0, 1); the expansion
        # needs the smallest cross edge, vertex 0 and its lowest neighbour
        # outside pair 1. Cliques of 3+ vertices never hold an in-pair edge.
        cross = g.graph.masks[0] & ~3
        clique = (0, (cross & -cross).bit_length() - 1)
    if clique is None:
        # The index can exceed the clique number (first at 5 pairs), and
        # the incrementing wiring is undefined without a clique to grow.
        raise DomainError(
            f"graph has index {t} but no cross clique of that size; "
            "the incrementing expansion does not apply"
        )
    colors = list(coloring.colors)
    new_color = t + 1

    clique_side: dict[int, int] = {}
    for v in clique:
        pair, side = vertex_pair_side(v)
        clique_side[pair] = side

    mirror = [vertex_id(pair, 3 - side) for pair, side in sorted(clique_side.items())]
    mirror_colors = {colors[v] for v in mirror}
    if len(mirror_colors) < t:
        partner = min(c for c in range(1, t + 1) if c not in mirror_colors)
    else:
        first_pair, first_side = vertex_pair_side(min(clique))
        swap_vertex = vertex_id(first_pair, 3 - first_side)
        partner = colors[swap_vertex]
        colors[swap_vertex] = new_color

    def bit_for(i: int) -> int:
        # A clique pair is wired so the new side-1 vertex meets its clique
        # vertex: parallel (0) for side 1, crossed (1) for side 2. Any other
        # pair is crossed exactly when u2^i has the partner color, so no
        # vertex of that color meets the new side-2 vertex (u1^i and u2^i
        # never share a color).
        if i in clique_side:
            return clique_side[i] - 1
        return int(colors[vertex_id(i, 2)] == partner)

    expanded = _assemble(g, bit_for)
    if not Coloring(tuple(colors + [new_color, partner])).is_proper(expanded.graph):
        raise InternalInvariant("incrementing expansion broke the extended coloring")
    return expanded


def build_with_csi(n: int, k: int) -> StereotypeGraph:
    """A stereotype graph on n pairs with chromatic stability index
    exactly k: the graph that n-k preserving and then k-2 incrementing
    expansions grow from the 2-pair 4-cycle, written down directly.

    With m = n-k+2, pairs 1..m are all crossed (K_{m,m}), and the k-2
    added pairs m+1..n are parallel to pair 1 and to each other and
    crossed to pairs 2..m. The certificate is written down with it:
    - the clique u1^1, u2^2, u1^{m+1}, ..., u1^n. u2^2 is crossed to
      pair 1 and to every added pair, and those pairs are pairwise
      parallel, so their side-1 vertices meet each other and u2^2.
    - the coloring u1 = 1, u2 = 2 on pairs 2..m; u1^1 = 1, u2^1 = k; and
      3+e, 2+e on the e-th added pair (e = 0..k-3). Each pair's two
      colors differ. Color 1 is only on side 1 and color 2 only on side
      2, and every crossed edge joins a vertex of pairs 2..m to one on
      the other side. The parallel edges join pair 1 and the added
      pairs, whose side-1 colors 1, 3..k and side-2 colors k, 2..k-1 are
      distinct.
    A k-clique and a proper k-coloring give k <= index <= k, and
    _check_certificate checks both on every call.
    """
    _check_pair_count(n)
    if type(k) is not int or not 2 <= k <= n:
        raise RangeError(f"need 2 <= k <= n, got k={k!r}, n={n}")
    m = n - k + 2
    # Bit j-1 of row i-1 is set when pairs i and j are crossed.
    to_2_m = (1 << m) - 2
    every_pair = (1 << n) - 1
    rows = (to_2_m,) + tuple(every_pair ^ 1 << i for i in range(1, m)) + (to_2_m,) * (k - 2)
    g = StereotypeGraph(n, rows)
    added = range(k - 2)
    coloring = Coloring(
        (1, k) + (1, 2) * (m - 1) + tuple(c for e in added for c in (3 + e, 2 + e))
    )
    clique = (vertex_id(1, 1), vertex_id(2, 2)) + tuple(vertex_id(m + 1 + e, 1) for e in added)
    _check_certificate(g, n, k, coloring, clique)
    return g


def _check_certificate(
    g: StereotypeGraph, n: int, k: int, coloring: Coloring, clique: tuple[int, ...]
) -> None:
    """Raise InternalInvariant unless g has n pairs, coloring is a proper
    k-coloring of it and clique is a k-vertex clique of it: then
    k <= clique number <= index <= k, so the index is exactly k."""
    if not (
        g.n == n
        and coloring.colors_used == k
        and coloring.is_proper(g.graph)
        and len(clique) == k
        and is_clique(g.graph, clique)
    ):
        raise InternalInvariant(
            f"targeted construction reached n={g.n} with a {coloring.colors_used}-coloring "
            f"and a clique of {len(clique)} vertices, wanted n={n}, index {k}"
        )


def delete_edges(g: StereotypeGraph, removed: list[Edge]) -> Graph:
    """Plain graph left after deleting the listed edges; the result is
    generally no longer a stereotype graph but stays usable by every
    coloring operation."""
    graph = g.graph
    gone = []
    for u, v in removed:
        if not graph.has_edge(u, v):
            raise EdgeAbsent(f"edge {normalize_edge(u, v)} is not present")
        gone.append((u, v))
    return graph.delete_edges(gone)


__all__ = [
    "CensusRow",
    "DEFAULT_CENSUS_BOUND",
    "DEFAULT_ENUMERATION_BOUND",
    "PRNG_NAME",
    "build_with_csi",
    "census",
    "delete_edges",
    "enumerate_all",
    "expand_incrementing",
    "expand_preserving",
    "gen_complete_bipartite",
    "gen_complete_ladder",
    "gen_random",
    "splitmix64_stream",
]
