"""The generic graph readers on graphs that are not stereotype graphs.

Stereotype graphs are always connected with diameter 1 or 2, so here
the mask-based readers (triangles, distances, degrees, isomorphism) also
meet disconnected graphs, forests, paths and long cycles, and are held
against dense-matrix and brute-force oracles.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    find_clique_of_size,
    floyd_warshall_profile,
    permutation_isomorphic,
    trace_triangle_count,
)
from stereograph import enumerate_all, gen_random, graphs
from stereograph.errors import DomainError
from stereograph.graphs import (
    Graph,
    find_isomorphism,
    is_clique,
    iter_bits,
    max_clique,
    max_clique_size,
    normalize_edge,
)
from stereograph.spectral import adjacency_matrix
from test_chromatic import GIRTH_GRAPHS, LOOSE_BOUND_GRAPHS, general_graphs, sparse_graphs

any_graphs = st.one_of(sparse_graphs(), general_graphs(min_vertices=0, max_vertices=12))

PATHS = {f"P{n}": Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in range(1, 8)}
NAMED = {**PATHS, **{name: graph for name, (graph, _) in GIRTH_GRAPHS.items()}}


def relabelled(graph, perm):
    return Graph.from_edges(graph.vertex_count, [(perm[u], perm[v]) for u, v in graph.edges])


class TestIterBits:
    @given(mask=st.integers(min_value=0, max_value=(1 << 70) - 1))
    def test_ascending_set_bits(self, mask):
        assert list(iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestMaskStorage:
    def test_edge_set_in_place_of_masks_rejected(self):
        with pytest.raises(TypeError, match="Graph.from_edges"):
            Graph(3, frozenset({(0, 1)}))
        with pytest.raises(TypeError):
            Graph(2, [2, 1])

    def test_mask_count_must_match_vertex_count(self):
        with pytest.raises(DomainError, match="expected 3 neighbour masks, got 2"):
            Graph(3, (2, 1))

    def test_equal_edge_sets_give_equal_graphs(self):
        path = Graph.from_edges(3, [(1, 0), (2, 1), (0, 1)])
        assert path == Graph(3, (0b010, 0b101, 0b010))
        assert hash(path) == hash(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert path.edges == frozenset({(0, 1), (1, 2)})
        assert path != Graph.from_edges(4, [(0, 1), (1, 2)])

    def test_has_edge_bounds(self):
        path = PATHS["P3"]
        assert path.has_edge(1, 0) and path.has_edge(1, 2)
        assert not path.has_edge(0, 2)
        # A negative id must not wrap round to the last vertex's mask.
        assert not path.has_edge(-1, 1) and not path.has_edge(-1, 0)
        assert not path.has_edge(2, 3) and not path.has_edge(3, 4)
        with pytest.raises(DomainError, match="self-loop"):
            path.has_edge(1, 1)

    def test_delete_edges_ignores_absent_and_outside_edges(self):
        path = PATHS["P4"]
        assert path.delete_edges([(2, 1), (0, 3), (3, 9), (-1, 0)]) == Graph.from_edges(
            4, [(0, 1), (2, 3)]
        )
        with pytest.raises(DomainError, match="self-loop"):
            path.delete_edges([(1, 1)])


class TestNeighbourViews:
    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_masks_and_neighbors_agree_with_edges(self, graph):
        for v in range(graph.vertex_count):
            expected = {w for e in graph.edges if v in e for w in e if w != v}
            assert graph.masks[v] == sum(1 << w for w in expected)
            assert graph.neighbors(v) == expected
            assert graph.degree(v) == len(expected)


class TestTriangles:
    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_count_matches_trace_of_cube(self, graph):
        assert graph.triangle_count() == trace_triangle_count(adjacency_matrix(graph))

    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_every_triangle_once_in_lexicographic_order(self, graph):
        expected = [
            t
            for t in itertools.combinations(range(graph.vertex_count), 3)
            if all(e in graph.edges for e in itertools.combinations(t, 2))
        ]
        assert graph.triangles() == expected
        assert graph.triangle_count() == len(expected)

    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_has_triangle_on_drawn_graphs(self, graph):
        assert graph.has_triangle() == (graph.triangle_count() > 0)

    def test_has_triangle_on_stereotype_graphs(self):
        # Every graph with 1..5 pairs and the report benchmark's random
        # pool, gen_random(8..12, 0..7).
        pool = [g for n in range(1, 6) for g in enumerate_all(n)]
        pool += [gen_random(n, s) for n in range(8, 13) for s in range(8)]
        for g in pool:
            assert g.graph.has_triangle() == (g.graph.triangle_count() > 0), (g.n, g.rows)


class TestDistances:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_graphs(self, name):
        graph = NAMED[name]
        profile = floyd_warshall_profile(graph)
        assert graph.degrees() == profile.degrees
        assert graph.is_connected() == profile.connected
        assert graph.diameter() == profile.diameter

    @settings(max_examples=300, deadline=None)
    @given(graph=any_graphs)
    def test_match_floyd_warshall(self, graph):
        profile = floyd_warshall_profile(graph)
        assert graph.degrees() == profile.degrees
        assert graph.is_connected() == profile.connected
        assert graph.diameter() == profile.diameter


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def disjoint_union(vertex_count, *edge_lists):
    """Edge lists on 0..k-1 placed side by side on vertex_count vertices."""
    edges, offset = [], 0
    for part in edge_lists:
        edges += [(offset + u, offset + v) for u, v in part]
        offset += 1 + max(max(e) for e in part)
    return Graph.from_edges(vertex_count, edges)


def random_graph(vertex_count, seed):
    rng = random.Random(seed)
    p = rng.choice([0.04, 0.08, 0.2, 0.5])
    pairs = itertools.combinations(range(vertex_count), 2)
    return Graph.from_edges(vertex_count, [e for e in pairs if rng.random() < p])


# Graphs on 33..80 vertices: past 32 vertices the multi-root BFS of
# Graph.diameter splits its roots into more than one block.
BLOCK_GRAPHS = {
    **{f"P{n}": Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (33, 47, 80)},
    **{f"C{n}": Graph.from_edges(n, cycle(n)) for n in (33, 64, 80)},
    # A path with its ends at the highest ids, so only the last block
    # holds a root of greatest eccentricity.
    "P80 from the middle": Graph.from_edges(
        80, itertools.pairwise([*range(79, 0, -2), *range(0, 80, 2)])
    ),
    "C20+C20": disjoint_union(40, cycle(20), cycle(20)),
    "P33+isolated": Graph.from_edges(34, [(i, i + 1) for i in range(32)]),
    "C40+P30": disjoint_union(70, cycle(40), [(i, i + 1) for i in range(29)]),
    **{f"random{s}": random_graph(33 + 6 * s, s) for s in range(8)},
}


class TestDistancesAcrossBlocks:
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_match_floyd_warshall(self, name):
        graph = BLOCK_GRAPHS[name]
        assert graph.vertex_count ** 2 > 1024
        profile = floyd_warshall_profile(graph)
        assert graph.is_connected() == profile.connected
        assert graph.diameter() == profile.diameter


def assert_is_isomorphism(mapping, g1, g2):
    assert mapping is not None
    assert sorted(mapping) == sorted(mapping.values()) == list(range(g1.vertex_count))
    assert {normalize_edge(mapping[u], mapping[v]) for u, v in g1.edges} == g2.edges


class TestIsomorphism:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=any_graphs)
    def test_found_for_every_relabelling(self, data, graph):
        perm = data.draw(st.permutations(range(graph.vertex_count)))
        image = relabelled(graph, perm)
        assert_is_isomorphism(find_isomorphism(graph, image), graph, image)
        assert_is_isomorphism(find_isomorphism(image, graph), image, graph)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        graph=st.one_of(
            sparse_graphs(max_vertices=6), general_graphs(min_vertices=0, max_vertices=6)
        ),
    )
    def test_matches_permutation_search(self, data, graph):
        """A relabelling with one edge swapped for one non-edge keeps the
        degree sum, so it is isomorphic to the original or not."""
        perm = data.draw(st.permutations(range(graph.vertex_count)))
        image = relabelled(graph, perm)
        non_edges = [
            e for e in itertools.combinations(range(graph.vertex_count), 2) if e not in image.edges
        ]
        if image.edges and non_edges and data.draw(st.booleans()):
            gone = data.draw(st.sampled_from(sorted(image.edges)))
            added = data.draw(st.sampled_from(non_edges))
            image = Graph.from_edges(image.vertex_count, image.edges - {gone} | {added})
        mapping = find_isomorphism(graph, image)
        assert (mapping is not None) == permutation_isomorphic(graph, image)
        if mapping is not None:
            assert_is_isomorphism(mapping, graph, image)

    def test_mapping_check_reads_every_neighbourhood(self):
        """The re-verification of a found mapping rejects a bijection that
        breaks an edge."""
        path = PATHS["P3"]
        assert graphs._mapping_preserves_edges(path, path, {0: 2, 1: 1, 2: 0})
        assert not graphs._mapping_preserves_edges(path, path, {0: 1, 1: 0, 2: 2})

    def test_strongly_regular_twins(self):
        """The Shrikhande graph and the 4x4 rook's graph are both
        srg(16, 6, 2, 2): every vertex has the same degree and the same
        triangles, so only the search can tell them apart. Both are
        Cayley graphs on Z4 x Z4, cell (a, b) being vertex 4a + b."""
        cells = list(itertools.product(range(4), repeat=2))

        def cayley(steps):
            return Graph.from_edges(
                16,
                [
                    (4 * a + b, 4 * c + d)
                    for (a, b), (c, d) in itertools.combinations(cells, 2)
                    if ((c - a) % 4, (d - b) % 4) in steps
                ],
            )

        shrikhande = cayley({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
        rook = cayley({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
        for graph in (shrikhande, rook):
            assert graph.degrees() == (6,) * 16 and graph.triangle_count() == 32
        assert find_isomorphism(shrikhande, rook) is None
        assert find_isomorphism(rook, shrikhande) is None
        for seed, graph in enumerate((shrikhande, rook)):
            perm = list(range(16))
            random.Random(seed).shuffle(perm)
            image = relabelled(graph, perm)
            assert_is_isomorphism(find_isomorphism(graph, image), graph, image)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_exhaustive_small_graphs(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [
            Graph.from_edges(n, frozenset(e for e, keep in zip(pairs, bits) if keep))
            for bits in itertools.product((0, 1), repeat=len(pairs))
        ]
        for g1, g2 in itertools.combinations_with_replacement(graphs, 2):
            if len(g1.edges) == len(g2.edges):
                assert (find_isomorphism(g1, g2) is not None) == permutation_isomorphic(g1, g2)


class TestMaxClique:
    """max_clique, one branch and bound, against the search for the
    smallest clique of a given size and against every vertex subset."""

    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_least_of_the_maximum_cliques_by_brute_force(self, graph):
        n, edges = graph.vertex_count, graph.edges
        cliques = [
            subset
            for size in range(n + 1)
            for subset in itertools.combinations(range(n), size)
            if all(e in edges for e in itertools.combinations(subset, 2))
        ]
        largest = max(map(len, cliques))
        assert max_clique(graph) == min(c for c in cliques if len(c) == largest)

    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs)
    def test_equals_the_smallest_clique_of_maximum_size(self, graph):
        clique = max_clique(graph)
        assert clique == find_clique_of_size(graph, max_clique_size(graph))
        assert len(clique) == max_clique_size(graph) and is_clique(graph, clique)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_stereotype_graphs(self, n):
        for g in enumerate_all(n):
            clique = max_clique(g.graph)
            assert clique == find_clique_of_size(g.graph, max_clique_size(g.graph)), g.bits

    @pytest.mark.parametrize("name", sorted(LOOSE_BOUND_GRAPHS))
    def test_loose_bound_graphs(self, name):
        graph, _, omega, _ = LOOSE_BOUND_GRAPHS[name]
        assert len(max_clique(graph)) == omega
        assert max_clique(graph) == find_clique_of_size(graph, omega)

    def test_no_vertices_and_no_edges(self):
        assert max_clique(Graph(0, ())) == ()
        assert max_clique_size(Graph(0, ())) == 0
        assert max_clique(Graph.from_edges(5, [])) == (0,)
        assert max_clique(Graph.from_edges(4, [(2, 3)])) == (2, 3)


class TestIsClique:
    def test_distinct_adjacent_vertices_in_range(self):
        triangle_and_tail = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert is_clique(triangle_and_tail, ())
        assert is_clique(triangle_and_tail, (3,))
        assert is_clique(triangle_and_tail, (2, 0, 1))
        assert not is_clique(triangle_and_tail, (0, 1, 3))
        assert not is_clique(triangle_and_tail, (0, 0))
        assert not is_clique(triangle_and_tail, (2, 4))
        assert not is_clique(triangle_and_tail, (-1,))
