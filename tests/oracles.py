"""Independent brute-force oracles used to freeze expected test values.

Every routine here deliberately takes a different algorithmic route from
the library implementation it checks: proper colorings are enumerated as
raw assignment tuples, first-fit colors come from a set of neighbour
colors per vertex (first_fit_colors), chromatic numbers come from backtracking in a
fixed vertex order with no bounds, chromatic polynomials from deletion
and contraction, independent-set partition counts from a bottom-up DP
over every vertex subset (each walking every subset of its available
vertices), determinants from Laplace expansion or rational
Gaussian elimination, characteristic polynomials from Bareiss
determinants at x = 0..dim and exact interpolation, triangles from
the cube of the adjacency matrix, the quadratic matrix identities
A^2 + aA = iI + jJ from dense products
of the adjacency matrix, the census from every labeled graph with
pairwise isomorphism tests, a switching class's relabelling orbit
from every pair permutation (_switching_orbit, the reference for the
census's two-generator walk), the pairing lemma's matchings from a
backtracking search over every perfect matching in which every two edges
induce a 4-cycle (four_cycle_matchings, each read back as a pattern by
matching_pattern; the census never looks for them), pair merges from frozensets of edge tuples
rebuilt on every merge (setwise_merge_pairs, setwise_reduce_to_k2,
setwise_order_invariance), the girth from one BFS per edge with that
edge removed (edge_bfs_girth), distances, degrees and connectivity from
Floyd-Warshall on the dense adjacency matrix (floyd_warshall_profile),
isomorphism from every vertex permutation (permutation_isomorphic), and
stereotype validation from edge-tuple sets (setwise_validate_stereotype),
a stereotype graph's edges from its pattern bits one pair of pairs
at a time (edge_list), the CSI-targeted construction from the
paper's chain of expansion steps, each on the exact search's coloring
(chained_build_with_csi), the index-3 patterns from three blocks of
pairs, crossed inside a block and parallel across (three_block_graph),
the smallest clique of a given size from a backtracking search that
stops at the first clique of exactly that size (find_clique_of_size,
the fixed-size reference for graphs.max_clique, the library's one
clique search, a branch and bound over all sizes),
the exact coloring from a DSATUR search on per-vertex adjacency
lists and per-vertex color counts, choosing each branching vertex by a
max over the uncolored set, after two clique searches
(list_dsatur_coloring), the bipartition from a queue-based BFS with one
color and one parent pointer per vertex, its odd cycle from the two
parent chains of the first edge it finds inside a color
(parent_pointer_two_coloring), and the row checks of a
StereotypeGraph from a scan of each row and then of its symmetry with
every row before it (rowwise_row_fault). The DSATUR, BFS and row-scan
references differ from the library in their data structures, not their
order, so each returns exactly what the library does.
Keep it that way; the point is that a shared bug cannot hide."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from stereograph import (
    Coloring,
    chromatic_number,
    expand_incrementing,
    expand_preserving,
    from_pattern,
    gen_complete_bipartite,
    greedy_coloring,
    optimal_coloring,
)
from stereograph.graphs import (
    Edge,
    Graph,
    graph_isomorphic,
    iter_bits,
    max_clique_size,
    normalize_edge,
)
from stereograph.merge import MergeOutcome, MergeStep
from stereograph.model import (
    CheckResult,
    StereotypeGraph,
    ValidationReport,
    pattern_length,
    vertex_id,
)
from stereograph.polynomials import interpolate_integer_polynomial
from stereograph.spectral import adjacency_matrix, bareiss_determinant


def enumerate_coloring_count(graph: Graph, x: int) -> int:
    """Count proper colorings by checking every assignment in x^V."""
    if graph.vertex_count == 0:
        return 1
    if x == 0:
        return 0
    total = 0
    for assignment in itertools.product(range(x), repeat=graph.vertex_count):
        if all(assignment[u] != assignment[v] for u, v in graph.edges):
            total += 1
    return total


def first_fit_colors(graph: Graph) -> tuple[int, ...]:
    """Each vertex in id order takes the least color that no earlier
    neighbor holds, found from the set of those neighbors' colors."""
    colors: list[int] = []
    for v in range(graph.vertex_count):
        taken = {colors[w] for w in graph.neighbors(v) if w < v}
        colors.append(next(c for c in itertools.count(1) if c not in taken))
    return tuple(colors)


def backtracking_chromatic_number(graph: Graph) -> int:
    """Least k with a proper k-coloring, trying k = 1, 2, ... by plain
    backtracking in canonical vertex order, new colors introduced in
    increasing order."""
    n = graph.vertex_count
    earlier = [[w for w in graph.neighbors(v) if w < v] for v in range(n)]
    colors = [0] * n

    def place(v: int, used: int, k: int) -> bool:
        if v == n:
            return True
        for c in range(1, min(used + 1, k) + 1):
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                if place(v + 1, max(used, c), k):
                    return True
        colors[v] = 0
        return False

    k = 1
    while not place(0, 0, k):
        k += 1
    return k


def find_clique_of_size(g: Graph, size: int) -> tuple[int, ...] | None:
    """Lexicographically smallest clique with exactly `size` vertices."""
    if size == 0:
        return ()
    masks = g.masks
    chosen: list[int] = []

    def backtrack(candidates: int) -> bool:
        if len(chosen) == size:
            return True
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if len(chosen) + 1 + (candidates & masks[v]).bit_count() < size:
                continue
            chosen.append(v)
            if backtrack(candidates & masks[v]):
                return True
            chosen.pop()
        return False

    if backtrack((1 << g.vertex_count) - 1):
        return tuple(chosen)
    return None


def list_dsatur_coloring(graph: Graph) -> Coloring:
    """chi(graph) colors by DSATUR (Brelaz 1979) between the greedy and
    clique bounds: the clique number from max_clique_size, the smallest
    clique of that size from find_clique_of_size, then k-coloring
    searches for k upward from it with that clique pre-colored.

    Each search keeps per-vertex adjacency lists, per-vertex, per-color
    counts of colored neighbours behind a bitmask of their colors, and
    branches on the max over the uncolored set of (distinct neighbour
    colors, uncolored neighbours, -id)."""
    upper = greedy_coloring(graph)
    lower = max_clique_size(graph)
    if upper.colors_used == lower:
        return upper
    clique = find_clique_of_size(graph, lower)
    for k in range(lower, upper.colors_used):
        attempt = _list_k_coloring(graph, k, clique)
        if attempt is not None:
            return attempt
    return upper


def _list_k_coloring(graph: Graph, k: int, clique: tuple[int, ...]) -> Coloring | None:
    n = graph.vertex_count
    adjacent = [tuple(iter_bits(mask)) for mask in graph.masks]
    palette = (1 << (k + 1)) - 2  # colors 1..k are bits 1..k
    forbidden = [0] * n
    counts = [[0] * (k + 1) for _ in range(n)]
    open_degree = [len(ws) for ws in adjacent]
    colors = [0] * n
    uncolored = set(range(n))

    def assign(v: int, c: int) -> bool:
        """Color v with c; False if an uncolored neighbor has no color left."""
        colors[v] = c
        uncolored.discard(v)
        bit = 1 << c
        alive = True
        for w in adjacent[v]:
            open_degree[w] -= 1
            row = counts[w]
            row[c] += 1
            if row[c] == 1:
                forbidden[w] |= bit
                if forbidden[w] == palette and not colors[w]:
                    alive = False
        return alive

    def unassign(v: int) -> None:
        c = colors[v]
        colors[v] = 0
        uncolored.add(v)
        bit = 1 << c
        for w in adjacent[v]:
            open_degree[w] += 1
            row = counts[w]
            row[c] -= 1
            if row[c] == 0:
                forbidden[w] ^= bit

    def search(used: int) -> bool:
        if not uncolored:
            return True
        v = max(
            uncolored,
            key=lambda u: (forbidden[u].bit_count(), open_degree[u], -u),
        )
        limit = min(used + 1, k)
        free = palette & ~forbidden[v] & ((2 << limit) - 1)
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            if assign(v, c) and search(max(used, c)):
                return True
            unassign(v)
        return False

    for c, v in enumerate(clique, start=1):
        if not assign(v, c):
            return None
    if not search(len(clique)):
        return None
    return Coloring(tuple(colors))


def deletion_contraction_coefficients(graph: Graph) -> tuple[int, ...]:
    """Chromatic polynomial by deletion and contraction, coefficients
    degree-descending. Contraction relabels vertices densely and drops
    parallel edges, so the recursion stays on simple graphs."""
    if not graph.edges:
        # Edgeless graph counts x^V colorings.
        return tuple([1] + [0] * graph.vertex_count)

    u, v = min(graph.edges)
    deleted = Graph.from_edges(graph.vertex_count, graph.edges - {(u, v)})

    relabel = {}
    for w in range(graph.vertex_count):
        if w == v:
            relabel[w] = relabel.get(u, u)
        else:
            relabel[w] = w - 1 if w > v else w
    contracted_edges = {
        normalize_edge(relabel[a], relabel[b])
        for a, b in graph.edges
        if {a, b} != {u, v} and relabel[a] != relabel[b]
    }
    contracted = Graph.from_edges(graph.vertex_count - 1, frozenset(contracted_edges))

    left = deletion_contraction_coefficients(deleted)
    right = deletion_contraction_coefficients(contracted)
    out = [0] * (graph.vertex_count + 1)
    for idx, c in enumerate(left):
        out[idx + (graph.vertex_count - len(left) + 1)] += c
    for idx, c in enumerate(right):
        out[idx + (graph.vertex_count - len(right) + 1)] -= c
    return tuple(out)


def subset_dp_partition_counts(graph: Graph) -> list[int]:
    """Entry i is the number of partitions of the vertex set into exactly
    i nonempty independent sets, by a bottom-up DP over all 2^V vertex
    subsets: a subset's lowest vertex joins every independent subset of
    its non-neighbours in the subset, O(3^V) in all."""
    n = graph.vertex_count
    if n == 0:
        return [1]
    nbr = [0] * n
    for u, v in graph.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    full = (1 << n) - 1
    independent = bytearray(full + 1)
    independent[0] = 1
    for mask in range(1, full + 1):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        independent[mask] = 1 if independent[rest] and not (nbr[v] & rest) else 0

    dp: list[list[int]] = [[] for _ in range(full + 1)]
    dp[0] = [1]
    for mask in range(1, full + 1):
        low = mask & -mask
        v = low.bit_length() - 1
        avail = (mask ^ low) & ~nbr[v]
        counts = [0] * (mask.bit_count() + 1)
        sub = avail
        while True:
            if independent[sub]:
                prev = dp[mask ^ low ^ sub]
                for parts, ways in enumerate(prev):
                    if ways:
                        counts[parts + 1] += ways
            if sub == 0:
                break
            sub = (sub - 1) & avail
        while counts and counts[-1] == 0:
            counts.pop()
        dp[mask] = counts

    result = dp[full]
    return list(result) + [0] * (n + 1 - len(result))


def laplace_determinant(matrix) -> int:
    """Determinant by cofactor expansion along the first row."""
    dim = len(matrix)
    if dim == 0:
        return 1
    if dim == 1:
        return matrix[0][0]
    total = 0
    for col in range(dim):
        if matrix[0][col] == 0:
            continue
        minor = [
            [matrix[r][c] for c in range(dim) if c != col] for r in range(1, dim)
        ]
        total += (-1) ** col * matrix[0][col] * laplace_determinant(minor)
    return total


def rational_gauss_determinant(matrix) -> int:
    """Determinant by exact rational Gaussian elimination."""
    dim = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for k in range(dim):
        pivot = next((r for r in range(k, dim) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for r in range(k + 1, dim):
            factor = a[r][k] / a[k][k]
            for c in range(k, dim):
                a[r][c] -= factor * a[k][c]
    det = Fraction(sign)
    for k in range(dim):
        det *= a[k][k]
    assert det.denominator == 1
    return int(det)


def trace_triangle_count(matrix) -> int:
    """Number of triangles as trace(A^3) / 6."""
    dim = len(matrix)
    a2 = [
        [sum(matrix[i][t] * matrix[t][j] for t in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    trace3 = sum(
        sum(a2[i][t] * matrix[t][i] for t in range(dim)) for i in range(dim)
    )
    assert trace3 % 6 == 0
    return trace3 // 6


def identity_matrix(dim: int):
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def ones_matrix(dim: int):
    return tuple(tuple(1 for _ in range(dim)) for _ in range(dim))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a):
    return tuple(tuple(c * x for x in row) for row in a)


def dense_quadratic_identity_holds(matrix, a: int, i: int, j: int) -> bool:
    """Whether A^2 + aA = iI + jJ, comparing dense tuple matrices."""
    dim = len(matrix)
    lhs = mat_add(mat_mul(matrix, matrix), mat_scale(a, matrix))
    rhs = mat_add(mat_scale(i, identity_matrix(dim)), mat_scale(j, ones_matrix(dim)))
    return lhs == rhs


def srg_identity_holds(matrix, v: int, k: int, p: int, q: int) -> bool:
    """Whether A^2 + (q-p)A = (k-q)I + qJ for strongly-regular parameters."""
    return dense_quadratic_identity_holds(matrix, q - p, k - q, q)


def char_matrix_at(matrix, x: int):
    dim = len(matrix)
    return [
        [(x if i == j else 0) - matrix[i][j] for j in range(dim)] for i in range(dim)
    ]


def interpolated_characteristic_polynomial(matrix) -> tuple[int, ...]:
    """Coefficients of det(xI - matrix) from Bareiss determinants at
    x = 0..dim, interpolated exactly in Newton's forward-difference form."""
    dim = len(matrix)
    points = [
        (x, bareiss_determinant(tuple(map(tuple, char_matrix_at(matrix, x)))))
        for x in range(dim + 1)
    ]
    return interpolate_integer_polynomial(points).coefficients


def edge_list(g: StereotypeGraph) -> list[Edge]:
    """The edges of a stereotype graph written out from the definition
    with bit(i, j): each pair's own edge, then for each two pairs the
    parallel (u1-u1, u2-u2) or crossed (u1-u2, u2-u1) matching."""
    edges = [(vertex_id(i, 1), vertex_id(i, 2)) for i in range(1, g.n + 1)]
    for i, j in itertools.combinations(range(1, g.n + 1), 2):
        crossed = g.bit(i, j)
        edges += [
            (vertex_id(i, 1), vertex_id(j, 1 + crossed)),
            (vertex_id(i, 2), vertex_id(j, 2 - crossed)),
        ]
    return edges


def pairwise_census(n: int) -> list[tuple[int, int, int, int]]:
    """(n, k, labeled count, isomorphism classes) rows over every labeled
    graph on n pairs: the index of each one, and a new class whenever a
    graph is isomorphic to no earlier graph of the same index."""
    labeled: dict[int, int] = {}
    representatives: dict[int, list[Graph]] = {}
    for bits in itertools.product((0, 1), repeat=pattern_length(n)):
        graph = from_pattern(n, bits).graph
        k = chromatic_number(graph)
        labeled[k] = labeled.get(k, 0) + 1
        reps = representatives.setdefault(k, [])
        if not any(graph_isomorphic(graph, known) for known in reps):
            reps.append(graph)
    return [(n, k, labeled[k], len(representatives[k])) for k in sorted(labeled)]


def _switching_orbit(g: StereotypeGraph, permutations: list[tuple[int, ...]]) -> set[int]:
    """Normalised pattern values of every relabelling of g's switching
    class, one per permutation of the pairs (all n! of them).

    Pairs are 0-based here. Relabelling pair i as p[i] gives the bits
    b(p[i], p[j]); switching the pairs crossed to pair 0 then clears row
    0, which XORs each remaining bit with b(p[0], p[i]) ^ b(p[0], p[j]).
    """
    n = g.n
    m = [[row >> j & 1 for j in range(n)] for row in g.rows]
    inner = list(itertools.combinations(range(1, n), 2))
    orbit = set()
    for p in permutations:
        row = m[p[0]]
        key = 0
        for i, j in inner:
            a, b = p[i], p[j]
            key = (key << 1) | (m[a][b] ^ row[a] ^ row[b])
        orbit.add(key)
    return orbit


def four_cycle_matchings(graph: Graph) -> list[tuple[Edge, ...]]:
    """Every perfect matching of graph in which every two edges induce a
    4-cycle. Each edge is (x, y) with x < y, listed by increasing x: the
    search always matches the lowest free vertex next."""
    has = graph.has_edge
    found = []

    def four_cycle(e: Edge, f: Edge) -> bool:
        # xy and ab induce a 4-cycle iff x meets exactly one of a, b and
        # y meets exactly the other.
        (x, y), (a, b) = e, f
        return has(x, a) != has(x, b) and has(y, a) == has(x, b) and has(y, b) == has(x, a)

    def extend(chosen: list[Edge], free: frozenset[int]) -> None:
        if not free:
            found.append(tuple(chosen))
            return
        x = min(free)
        for y in sorted(free - {x}):
            if has(x, y) and all(four_cycle((x, y), f) for f in chosen):
                extend(chosen + [(x, y)], free - {x, y})

    extend([], frozenset(range(graph.vertex_count)))
    return found


def matching_pattern(graph: Graph, matching: tuple[Edge, ...]) -> StereotypeGraph:
    """The pattern that reads edge i of the matching, (x, y), as pair i+1
    with x on side 1: two pairs are crossed when the side-1 vertex of the
    first meets the side-2 vertex of the second."""
    bits = [
        int(graph.has_edge(matching[i][0], matching[j][1]))
        for i, j in itertools.combinations(range(len(matching)), 2)
    ]
    return from_pattern(len(matching), bits)


def chained_build_with_csi(n: int, k: int) -> StereotypeGraph:
    """The graph on n pairs with index k grown from the 2-pair 4-cycle by
    n-k preserving and then k-2 incrementing expansions, each step on the
    exact search's optimal coloring of the graph in hand."""
    g = gen_complete_bipartite(2)
    for _ in range(n - k):
        g = expand_preserving(g, optimal_coloring(g.graph))
    for _ in range(k - 2):
        g = expand_incrementing(g, optimal_coloring(g.graph))
    return g


def three_block_graph(blocks, switched=()) -> StereotypeGraph:
    """The pattern in which pairs i and j (0-based) are crossed iff
    blocks[i] == blocks[j], then the pairs in switched switched. With
    three blocks, all of them non-empty, this is an index-3 switching
    class written in the form where the blocks play symmetric roles,
    not through the parallel graph H that csi reads."""
    n = len(blocks)
    bits = [
        (blocks[i] == blocks[j]) ^ (i in switched) ^ (j in switched)
        for i, j in itertools.combinations(range(n), 2)
    ]
    return from_pattern(n, [int(b) for b in bits])


def parent_pointer_two_coloring(
    graph: Graph,
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(colors, None) for a bipartite graph, else (None, odd cycle), by a
    queue-based BFS from each uncolored vertex in id order: the root takes
    color 1, each newly met neighbour the other color and a parent
    pointer, and the first neighbour met with its own vertex's color
    closes the cycle through the two parent chains."""
    n = graph.vertex_count
    color = [0] * n
    parent: list[int | None] = [None] * n
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(graph.neighbors(u)):
                if not color[w]:
                    color[w] = 3 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    chain_u = [u]
                    while parent[chain_u[-1]] is not None:
                        chain_u.append(parent[chain_u[-1]])
                    chain_w = [w]
                    while chain_w[-1] not in chain_u:
                        chain_w.append(parent[chain_w[-1]])
                    meet = chain_u.index(chain_w[-1])
                    return None, tuple(chain_u[: meet + 1]) + tuple(reversed(chain_w[:-1]))
    return tuple(color), None


def rowwise_row_fault(n: int, rows: tuple[int, ...]) -> str | None:
    """The message of the first fault of a StereotypeGraph's rows, or
    None: each row in order must be an int in [0, 2^n) with its own bit
    clear, and then symmetric with every row before it."""
    for i, row in enumerate(rows):
        if type(row) is not int or not 0 <= row < 1 << n or row >> i & 1:
            return f"row {i} must be an int in [0, 2^{n}) with bit {i} clear, got {row!r}"
        for j in range(i):
            if row >> j & 1 != rows[j] >> i & 1:
                return f"row {i} is not symmetric with row {j}"
    return None


def edge_bfs_girth(graph: Graph) -> int | None:
    """Shortest cycle length, or None for a forest: for every edge uv, a
    BFS from u that may not use uv finds the shortest cycle through it."""
    best: int | None = None
    for u, v in graph.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for w in graph.neighbors(x):
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


@dataclass(frozen=True)
class DenseProfile:
    degrees: tuple[int, ...]
    connected: bool
    diameter: int | None


def floyd_warshall_profile(graph: Graph) -> DenseProfile:
    """Degrees as row sums of the dense adjacency matrix, and
    connectivity and diameter from Floyd-Warshall all-pairs distances
    (None stands for no path). The diameter of the empty graph is None."""
    matrix = adjacency_matrix(graph)
    n = len(matrix)
    dist = [
        [0 if u == v else (1 if matrix[u][v] else None) for v in range(n)] for u in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] is None or dist[k][j] is None:
                    continue
                through = dist[i][k] + dist[k][j]
                if dist[i][j] is None or through < dist[i][j]:
                    dist[i][j] = through
    connected = all(d is not None for row in dist for d in row)
    diameter = max(max(row) for row in dist) if n and connected else None
    return DenseProfile(tuple(sum(row) for row in matrix), connected, diameter)


def permutation_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether some vertex permutation maps the edges of g1 onto those of g2."""
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return False
    return any(
        {normalize_edge(p[u], p[v]) for u, v in g1.edges} == g2.edges
        for p in itertools.permutations(range(g1.vertex_count))
    )


def setwise_validate_stereotype(graph: Graph) -> ValidationReport:
    """validate_stereotype from edge-tuple sets: each pair of pairs must
    induce four edges with every quad vertex in exactly two of them; the
    derived checks come from the edge count, Floyd-Warshall and one BFS
    per edge."""
    checks = []
    even = graph.vertex_count % 2 == 0 and graph.vertex_count > 0
    n = graph.vertex_count // 2
    checks.append(CheckResult("pair-structure", even, None if even else graph.vertex_count))
    if not even:
        return ValidationReport(n, tuple(checks))

    missing = [
        i for i in range(1, n + 1) if (vertex_id(i, 1), vertex_id(i, 2)) not in graph.edges
    ]
    checks.append(CheckResult("in-pair-edges", not missing, missing[0] if missing else None))

    bad_pairpair = None
    for i, j in itertools.combinations(range(1, n + 1), 2):
        quad = [vertex_id(i, 1), vertex_id(i, 2), vertex_id(j, 1), vertex_id(j, 2)]
        induced = {
            normalize_edge(u, v)
            for u, v in itertools.combinations(quad, 2)
            if normalize_edge(u, v) in graph.edges
        }
        degrees = {v: sum(v in e for e in induced) for v in quad}
        if not (len(induced) == 4 and all(d == 2 for d in degrees.values())):
            bad_pairpair = (i, j)
            break
    checks.append(CheckResult("pair-pair-four-cycles", bad_pairpair is None, bad_pairpair))

    size = len(graph.edges)
    checks.append(CheckResult("edge-count", size == n * n, None if size == n * n else size))
    profile = floyd_warshall_profile(graph)
    irregular = [v for v, d in enumerate(profile.degrees) if d != n]
    checks.append(CheckResult("n-regular", not irregular, irregular[0] if irregular else None))
    checks.append(CheckResult("connected", profile.connected))
    diameter_ok = profile.diameter == (1 if n == 1 else 2)
    checks.append(CheckResult("diameter", diameter_ok, None if diameter_ok else profile.diameter))
    girth = edge_bfs_girth(graph)
    girth_ok = girth is None if n == 1 else girth in (3, 4)
    checks.append(CheckResult("girth", girth_ok, None if girth_ok else girth))
    return ValidationReport(n, tuple(checks))


@dataclass(frozen=True)
class SetwisePairedGraph:
    """The merge state as sets: alive pair labels, a frozenset of edge
    tuples, and (vertex, frozenset of original vertex ids) classes."""

    n_original: int
    pairs: tuple[int, ...]
    edges: frozenset[Edge]
    classes: tuple[tuple[int, frozenset[int]], ...]

    @classmethod
    def from_stereotype(cls, g: StereotypeGraph) -> "SetwisePairedGraph":
        classes = tuple((v, frozenset([v])) for v in range(g.vertex_count))
        return cls(g.n, tuple(range(1, g.n + 1)), g.graph.edges, classes)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges


def setwise_merge_pairs(pg: SetwisePairedGraph, i: int, j: int) -> MergeOutcome:
    """merge_pairs on the set state: the first triangle among the quad's
    triples in combinations order blocks; otherwise the non-adjacent
    cross couples become the classes and the edge set is rebuilt."""
    assert i != j and i in pg.pairs and j in pg.pairs
    a1, a2 = vertex_id(i, 1), vertex_id(i, 2)
    b1, b2 = vertex_id(j, 1), vertex_id(j, 2)
    quad = (a1, a2, b1, b2)
    for tri in itertools.combinations(quad, 3):
        if all(pg.has_edge(u, v) for u, v in itertools.combinations(tri, 2)):
            return MergeOutcome(blocking_triangle=tuple(sorted(tri)))

    partner = {a1: b2 if pg.has_edge(a1, b1) else b1}
    partner[a2] = b1 if partner[a1] == b2 else b2
    couple_one = frozenset([a1, partner[a1]])
    couple_two = frozenset([a2, partner[a2]])

    survivor, removed = min(i, j), max(i, j)
    v1, v2 = vertex_id(survivor, 1), vertex_id(survivor, 2)
    side_one = couple_one if v1 in couple_one else couple_two
    side_two = couple_two if side_one is couple_one else couple_one

    old_classes = dict(pg.classes)
    new_classes = {v: members for v, members in old_classes.items() if v not in quad}
    new_classes[v1] = frozenset().union(*(old_classes[m] for m in side_one))
    new_classes[v2] = frozenset().union(*(old_classes[m] for m in side_two))

    new_edges = {(u, v) for u, v in pg.edges if u not in quad and v not in quad}
    for w in old_classes:
        if w in quad:
            continue
        if any(pg.has_edge(w, m) for m in side_one):
            new_edges.add(normalize_edge(w, v1))
        if any(pg.has_edge(w, m) for m in side_two):
            new_edges.add(normalize_edge(w, v2))
    new_edges.add(normalize_edge(v1, v2))

    merged = SetwisePairedGraph(
        n_original=pg.n_original,
        pairs=tuple(p for p in pg.pairs if p != removed),
        edges=frozenset(new_edges),
        classes=tuple(sorted(new_classes.items())),
    )
    return MergeOutcome(graph=merged)


@dataclass(frozen=True)
class SetwiseVerdict:
    """reduce_to_k2's verdict with its steps held as built, not as a log."""

    stable: bool
    final_graph: SetwisePairedGraph
    steps: tuple[MergeStep, ...]
    blocking_witness: tuple[int, int, int] | None = None


def setwise_reduce_to_k2(g: StereotypeGraph, order=None) -> SetwiseVerdict:
    """reduce_to_k2 on the set state; order as there, assumed valid."""
    pg = SetwisePairedGraph.from_stereotype(g)
    steps = []
    for step_index in range(g.n - 1):
        i, j = order[step_index] if order is not None else pg.pairs[:2]
        outcome = setwise_merge_pairs(pg, i, j)
        if not outcome.merged:
            return SetwiseVerdict(False, pg, tuple(steps), outcome.blocking_triangle)
        pg = outcome.graph
        classes = dict(pg.classes)
        survivor = min(i, j)
        steps.append(
            MergeStep((i, j), (classes[vertex_id(survivor, 1)], classes[vertex_id(survivor, 2)]))
        )
    return SetwiseVerdict(True, pg, tuple(steps))


def setwise_order_invariance(g: StereotypeGraph) -> bool:
    """check_order_invariance by walking every merge order on the set state."""
    verdicts = set()
    partitions = set()

    def walk(pg: SetwisePairedGraph) -> None:
        if len(pg.pairs) == 1:
            verdicts.add(True)
            partitions.add(frozenset(members for _, members in pg.classes))
            return
        for i, j in itertools.combinations(pg.pairs, 2):
            outcome = setwise_merge_pairs(pg, i, j)
            if outcome.merged:
                walk(outcome.graph)
            else:
                verdicts.add(False)

    walk(SetwisePairedGraph.from_stereotype(g))
    return len(verdicts) == 1 and (verdicts == {False} or len(partitions) == 1)
