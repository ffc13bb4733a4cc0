"""Coloring machinery: counts, polynomials, index, criteria, reports."""

import dataclasses
import itertools
import re
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    backtracking_chromatic_number,
    deletion_contraction_coefficients,
    edge_bfs_girth,
    enumerate_coloring_count,
    first_fit_colors,
    list_dsatur_coloring,
    parent_pointer_two_coloring,
    subset_dp_partition_counts,
    three_block_graph,
)
from stereograph import (
    DomainError,
    InternalInvariant,
    SizeExceeded,
    StabilityComparison,
    StereotypeGraph,
    build_with_csi,
    characteristic_criterion,
    chromatic_number,
    chromatic_polynomial,
    chromatically_bipartite_criterion,
    coefficient_identities,
    compare_stability,
    constructive_pair_coloring,
    count_proper_colorings,
    csi,
    delete_edges,
    enumerate_all,
    from_pattern,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    leading_characteristic_coefficients,
    matrix_criterion,
    minor_criterion,
    optimal_coloring,
    reduce_to_k2,
    splitmix64_stream,
    stability_report,
    switching_representative,
    two_coloring,
)
from stereograph import chromatic, generators, graphs, spectral
from stereograph.chromatic import (
    Coloring,
    _compute_stability_report,
    _stability_report_cached,
    greedy_coloring,
    independent_partition_counts,
    leading_chromatic_coefficients,
)
from stereograph.graphs import Graph, max_clique_size
from stereograph.model import _descendant, _value_rows, pattern_length

# b2 = C(16, 2) for the 2-pair 4-cycle would be wrong; the frozen values
# below were recomputed with the deletion-contraction oracle.
CHROMPOLY_K22 = (1, -4, 6, -3, 0)
CHROMPOLY_EDGE = (1, -1, 0)


def random_pattern(n):
    return st.lists(
        st.integers(min_value=0, max_value=1),
        min_size=pattern_length(n),
        max_size=pattern_length(n),
    )


@st.composite
def general_graphs(draw, min_vertices=1, max_vertices=9):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


class TestCountProperColorings:
    def test_examples(self, k22, kl3):
        assert count_proper_colorings(k22.graph, 2) == 2
        assert count_proper_colorings(kl3.graph, 2) == 0
        assert count_proper_colorings(kl3.graph, 3) == 12
        assert count_proper_colorings(k22.graph, 0) == 0
        assert count_proper_colorings(from_pattern(1, []).graph, 1) == 0

    @pytest.mark.parametrize("x", [-1, True, 2.0, "2"])
    def test_palette_must_be_a_non_negative_int(self, k22, x):
        # True and 2.0 compare equal to ints but are not palette sizes.
        message = f"palette size must be a non-negative int, got {x!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            count_proper_colorings(k22.graph, x)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_assignment_enumeration_oracle(self, n):
        for g in enumerate_all(n):
            for x in range(4):
                assert count_proper_colorings(g.graph, x) == enumerate_coloring_count(
                    g.graph, x
                )


class TestChromaticPolynomial:
    def test_four_cycle_frozen(self, k22):
        assert chromatic_polynomial(k22.graph).coefficients == CHROMPOLY_K22

    def test_single_edge(self):
        assert chromatic_polynomial(from_pattern(1, []).graph).coefficients == (
            CHROMPOLY_EDGE
        )

    def test_monic_of_full_degree(self, all_st4):
        for g in all_st4:
            poly = chromatic_polynomial(g.graph)
            assert poly.degree == 8
            assert poly.coefficient(0) == 1

    def test_evaluation_matches_counts_three_pairs(self, all_st3):
        for g in all_st3:
            poly = chromatic_polynomial(g.graph)
            for x in range(7):
                assert poly.evaluate(x) == count_proper_colorings(g.graph, x)

    def test_deletion_contraction_oracle_three_pairs(self, all_st3):
        for g in all_st3:
            assert (
                chromatic_polynomial(g.graph).coefficients
                == deletion_contraction_coefficients(g.graph)
            )

    def test_deletion_contraction_oracle_ladder_four(self, kl4):
        assert (
            chromatic_polynomial(kl4.graph).coefficients
            == deletion_contraction_coefficients(kl4.graph)
        )

    @pytest.mark.parametrize("bits", [(0,) * 6, (1,) * 6])
    def test_full_palette_range_four_pairs(self, bits):
        # The exhaustive x in {0..4} sweep lives in the acceptance suite;
        # the extreme patterns also get the whole palette range here.
        g = from_pattern(4, list(bits))
        poly = chromatic_polynomial(g.graph)
        for x in range(9):
            assert poly.evaluate(x) == count_proper_colorings(g.graph, x)

    def test_size_bound(self):
        with pytest.raises(SizeExceeded):
            chromatic_polynomial(gen_complete_ladder(8).graph)

    def test_partition_counts_bounded(self):
        # Unbounded, the edgeless 15-vertex graph (Bell(15) partitions)
        # takes about a minute; the bound refuses it before any set is
        # listed, for both entries.
        edgeless = Graph.from_edges(15, frozenset())
        message = "^independent partition counts bounded at 14 vertices, got 15$"
        for entry in (independent_partition_counts, chromatic_polynomial):
            with pytest.raises(SizeExceeded, match=message):
                entry(edgeless)

    def test_partition_counts_baseline(self, k22):
        # The 4-cycle splits into independent sets as: 1 way into 2,
        # 2 ways into 3, 1 way into 4.
        assert independent_partition_counts(k22.graph) == [0, 0, 1, 2, 1]


class TestPartitionCountsAgainstOracle:
    """The memoised DP over reached subsets against the bottom-up DP over
    every subset."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_graph(self, n):
        for g in enumerate_all(n):
            assert independent_partition_counts(g.graph) == subset_dp_partition_counts(
                g.graph
            )

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_graphs(self, n):
        for seed in range(4):
            graph = gen_random(n, seed).graph
            assert independent_partition_counts(graph) == subset_dp_partition_counts(graph)

    @pytest.mark.parametrize("family", [gen_complete_bipartite, gen_complete_ladder])
    def test_seven_pair_extremes(self, family):
        graph = family(7).graph
        assert independent_partition_counts(graph) == subset_dp_partition_counts(graph)

    @settings(max_examples=100, deadline=None)
    @given(graph=general_graphs(min_vertices=0, max_vertices=10))
    @example(graph=Graph.from_edges(0, frozenset()))
    @example(graph=Graph.from_edges(10, frozenset()))
    @example(graph=complete_graph(10))
    def test_general_graphs(self, graph):
        assert independent_partition_counts(graph) == subset_dp_partition_counts(graph)


class TestChromaticNumber:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_crossed_is_two(self, n):
        assert chromatic_number(gen_complete_bipartite(n).graph) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ladder_is_n(self, n):
        assert chromatic_number(gen_complete_ladder(n).graph) == n

    def test_single_pair_is_two(self):
        assert chromatic_number(from_pattern(1, []).graph) == 2

    def test_witness_is_proper_and_minimal(self, all_st4):
        for g in all_st4:
            coloring = optimal_coloring(g.graph)
            assert coloring.is_proper(g.graph)
            assert count_proper_colorings(g.graph, coloring.colors_used) > 0
            if coloring.colors_used > 1:
                assert (
                    count_proper_colorings(g.graph, coloring.colors_used - 1) == 0
                )

    def test_greedy_upper_bounds_optimal(self, all_st4):
        for g in all_st4:
            assert greedy_coloring(g.graph).colors_used >= chromatic_number(g.graph)

    def test_greedy_is_first_fit(self, all_st5):
        graphs = [g.graph for g in all_st5]
        graphs += [gen_random(n, s).graph for n in (8, 14, 22) for s in range(4)]
        for graph in graphs:
            assert greedy_coloring(graph).colors == first_fit_colors(graph)

    @settings(max_examples=200, deadline=None)
    @given(graph=general_graphs(min_vertices=0, max_vertices=12))
    def test_greedy_is_first_fit_on_general_graphs(self, graph):
        assert greedy_coloring(graph).colors == first_fit_colors(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            chromatic_number(Graph.from_edges(0, frozenset()))


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def grotzsch_graph():
    # Mycielski's construction on C5: shadows 5..9 copy the rim
    # neighborhoods, and hub 10 joins every shadow.
    rim = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(i + 5, w) for i in range(5) for w in ((i - 1) % 5, (i + 1) % 5)]
    hub = [(10, i + 5) for i in range(5)]
    return Graph.from_edges(11, rim + shadows + hub)


def odd_wheel_graph():
    rim = [(i + 1, (i + 1) % 5 + 1) for i in range(5)]
    return Graph.from_edges(6, rim + [(0, i) for i in range(1, 6)])


def crown_graph(m):
    # Sides interleaved (2i, 2i+1) so that first-fit needs m colors.
    return Graph.from_edges(
        2 * m, [(2 * i, 2 * j + 1) for i in range(m) for j in range(m) if i != j]
    )


# name -> (graph, chromatic number, clique number, girth); on each one
# greedy needs more colors than the clique bound, so the search runs.
LOOSE_BOUND_GRAPHS = {
    "C5": (cycle_graph(5), 3, 2, 5),
    "C7": (cycle_graph(7), 3, 2, 7),
    "petersen": (petersen_graph(), 3, 2, 5),
    "grotzsch": (grotzsch_graph(), 4, 2, 4),
    "odd-wheel-W5": (odd_wheel_graph(), 4, 3, 3),
    "crown-4": (crown_graph(4), 2, 2, 4),
}


@st.composite
def sparse_graphs(draw, max_vertices=12):
    """Graphs with at most n + 3 edges, so long cycles and forests are
    common; general_graphs is dense and nearly always has a triangle."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return Graph.from_edges(n, frozenset())
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=n + 3)
    )
    return Graph.from_edges(n, edges)


GIRTH_GRAPHS = {
    "empty": (Graph.from_edges(0, frozenset()), None),
    "isolated-vertices": (Graph.from_edges(3, frozenset()), None),
    "path": (Graph.from_edges(6, [(i, i + 1) for i in range(5)]), None),
    "two-trees": (Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]), None),
    **{f"C{length}": (cycle_graph(length), length) for length in range(4, 10)},
    "petersen": (petersen_graph(), 5),
    "grotzsch": (grotzsch_graph(), 4),
    # Once a 4-cycle is known, every later root stops at level 1.
    **{f"K{n}{n}": (gen_complete_bipartite(n).graph, 4) for n in (2, 3, 6, 12)},
    "odd-wheel-W5": (odd_wheel_graph(), 3),
    # A cycle on the low ids sets the best before the roots of a shorter
    # one are walked: the early stop must not skip it.
    "C4-then-triangle": (
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]),
        3,
    ),
    "C5-then-C4": (
        Graph.from_edges(
            9, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (7, 8), (8, 5)]
        ),
        4,
    ),
    "C7-and-separate-C4": (
        Graph.from_edges(
            11, [(i, (i + 1) % 7) for i in range(7)] + [(7, 8), (8, 9), (9, 10), (10, 7)]
        ),
        4,
    ),
}


class TestGirth:
    """Graph.girth, a BFS over level bitmasks, against one BFS per edge."""

    @pytest.mark.parametrize("name", sorted(GIRTH_GRAPHS))
    def test_named_graphs(self, name):
        graph, girth = GIRTH_GRAPHS[name]
        assert graph.girth() == girth == edge_bfs_girth(graph)

    @settings(max_examples=300, deadline=None)
    @given(graph=st.one_of(sparse_graphs(), general_graphs(min_vertices=0, max_vertices=12)))
    def test_matches_edge_bfs(self, graph):
        assert graph.girth() == edge_bfs_girth(graph)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_stereotype_graphs(self, n):
        for g in enumerate_all(n):
            assert g.graph.girth() == edge_bfs_girth(g.graph)

    @pytest.mark.parametrize("n", range(6, 15))
    def test_random_stereotype_graphs(self, n):
        for seed in range(3):
            graph = gen_random(n, seed).graph
            assert graph.girth() == edge_bfs_girth(graph)


class TestSearchAgainstOracle:
    """The exact search against fixed-order backtracking with no bounds."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_graph(self, n):
        for g in enumerate_all(n):
            assert chromatic_number(g.graph) == backtracking_chromatic_number(g.graph)

    @pytest.mark.parametrize("n", range(6, 12))
    def test_random_graphs(self, n):
        for seed in range(4):
            g = gen_random(n, seed)
            assert chromatic_number(g.graph) == backtracking_chromatic_number(g.graph)

    @pytest.mark.parametrize("name", sorted(LOOSE_BOUND_GRAPHS))
    def test_loose_clique_bound(self, name):
        graph, chi, omega, girth = LOOSE_BOUND_GRAPHS[name]
        assert max_clique_size(graph) == omega
        assert greedy_coloring(graph).colors_used > omega
        assert graph.girth() == girth
        coloring = optimal_coloring(graph)
        assert coloring.is_proper(graph)
        assert coloring.colors_used == chi == backtracking_chromatic_number(graph)

    def test_deleted_edges(self):
        loose = 0
        for seed in range(12):
            g = gen_random(6 + seed % 4, seed)
            stream = splitmix64_stream(seed + 1000)
            removed = [e for e in g.graph.sorted_edges() if next(stream) % 3 == 0]
            graph = delete_edges(g, removed)
            loose += greedy_coloring(graph).colors_used > max_clique_size(graph)
            assert chromatic_number(graph) == backtracking_chromatic_number(graph)
        assert loose > 0

    @settings(max_examples=150, deadline=None)
    @given(graph=general_graphs())
    def test_uses_the_least_palette_with_a_coloring(self, graph):
        coloring = optimal_coloring(graph)
        assert len(coloring.colors) == graph.vertex_count
        assert coloring.is_proper(graph)
        assert set(coloring.colors) == set(range(1, coloring.colors_used + 1))
        least = next(x for x in itertools.count(1) if count_proper_colorings(graph, x) > 0)
        assert coloring.colors_used == least

    @pytest.mark.parametrize("seed, index", [(0, 7), (1, 8), (2, 8)])
    def test_eighteen_pairs_pinned(self, seed, index):
        # Values confirmed once by the backtracking oracle, which takes
        # minutes at this size.
        assert csi(gen_random(18, seed)) == index


class TestSearchAgainstListDsatur:
    """The exact search on bitmasks and saturation buckets returns the
    very coloring of the DSATUR search on adjacency lists and per-vertex
    color counts: both branch in the same order."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_graph(self, n):
        for g in enumerate_all(n):
            assert optimal_coloring(g.graph) == list_dsatur_coloring(g.graph), g.bits

    @pytest.mark.parametrize("n", range(6, 19))
    def test_random_graphs(self, n):
        for seed in range(4):
            graph = gen_random(n, seed).graph
            assert optimal_coloring(graph) == list_dsatur_coloring(graph), seed

    @pytest.mark.parametrize("name", sorted(LOOSE_BOUND_GRAPHS))
    def test_loose_clique_bound(self, name):
        graph = LOOSE_BOUND_GRAPHS[name][0]
        assert optimal_coloring(graph) == list_dsatur_coloring(graph)

    @settings(max_examples=150, deadline=None)
    @given(graph=general_graphs())
    def test_general_graphs(self, graph):
        assert optimal_coloring(graph) == list_dsatur_coloring(graph)

    def test_one_clique_search_per_call(self, monkeypatch):
        """optimal_coloring finds its lower bound and the clique it
        pre-colors in one max_clique call, and reaches no other clique
        search by any name."""
        names = ("max_clique", "max_clique_size", "find_clique_of_size")
        calls = dict.fromkeys(names, 0)

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (graphs, chromatic):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        searched = [LOOSE_BOUND_GRAPHS[name][0] for name in sorted(LOOSE_BOUND_GRAPHS)]
        for graph in searched + [gen_random(n, 0).graph for n in (8, 14, 18)]:
            calls.update(dict.fromkeys(names, 0))
            optimal_coloring(graph)
            assert calls == {"max_clique": 1, "max_clique_size": 0, "find_clique_of_size": 0}

    @pytest.mark.parametrize("clique", [(0, 2), (0, 0), (0, 5), (-1,)])
    def test_wrong_lower_bound_clique_raises(self, monkeypatch, clique):
        """A clique search that returns a non-clique (vertices not
        adjacent, repeated or outside the graph) raises, before the
        search relies on it."""
        c5 = LOOSE_BOUND_GRAPHS["C5"][0]
        monkeypatch.setattr(chromatic, "max_clique", lambda graph: clique)
        with pytest.raises(InternalInvariant, match="not a clique"):
            optimal_coloring(c5)

    def test_clique_larger_than_the_palette_raises(self, monkeypatch):
        """The lower bound is checked against the coloring found, too."""
        c5 = LOOSE_BOUND_GRAPHS["C5"][0]
        monkeypatch.setattr(chromatic, "max_clique", lambda graph: (0, 1, 2, 3))
        monkeypatch.setattr(chromatic, "is_clique", lambda graph, vertices: True)
        with pytest.raises(InternalInvariant, match="outgrew a 3-coloring"):
            optimal_coloring(c5)

    @pytest.mark.parametrize("clique", [(0, 2), (0, 0), (0, 5), (-1,)])
    def test_given_non_clique_raises(self, clique):
        with pytest.raises(InternalInvariant, match="not a clique"):
            optimal_coloring(LOOSE_BOUND_GRAPHS["C5"][0], clique)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_given_smaller_clique_keeps_chi(self, n):
        """Any clique keeps the search exact: each proper prefix of the
        maximum clique, the empty one included, and each single vertex of
        it gives chi colors."""
        graphs_n = [gen_random(n, seed).graph for seed in range(4)]
        if n == 6:
            graphs_n += [LOOSE_BOUND_GRAPHS[name][0] for name in sorted(LOOSE_BOUND_GRAPHS)]
        for graph in graphs_n:
            chi = chromatic_number(graph)
            top = graphs.max_clique(graph)
            for clique in [top[:size] for size in range(len(top))] + [(v,) for v in top]:
                coloring = optimal_coloring(graph, clique)
                assert coloring.is_proper(graph), clique
                assert coloring.colors_used == chi, clique


class TestPairRootedClique:
    """The CSI route's clique, rooted at the side-1 vertices only, is the
    smallest maximum clique that max_clique finds from every root."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_graph(self, n):
        for g in enumerate_all(n):
            assert chromatic._pair_rooted_clique(g.graph) == graphs.max_clique(g.graph), g.bits

    @pytest.mark.parametrize("n", range(6, 25))
    def test_random_graphs(self, n):
        for seed in range(4):
            graph = gen_random(n, seed).graph
            assert chromatic._pair_rooted_clique(graph) == graphs.max_clique(graph), seed

    @pytest.mark.parametrize("n", range(2, 15))
    def test_built_graphs(self, n):
        for k in range(2, n + 1):
            graph = build_with_csi(n, k).graph
            assert chromatic._pair_rooted_clique(graph) == graphs.max_clique(graph), k


def drawn_three_block_graph(n, seed):
    """A 3-block pattern on n >= 3 pairs: blocks drawn at random, all
    three non-empty, in a random pair order, then random pairs switched."""
    stream = splitmix64_stream(seed)
    blocks = [0, 1, 2] + [next(stream) % 3 for _ in range(n - 3)]
    blocks = [b for _, b in sorted((next(stream), b) for b in blocks)]
    return three_block_graph(blocks, {i for i in range(n) if next(stream) & 1})


def count_calls(monkeypatch, names):
    """Count the calls to each chromatic attribute in names; the calls
    made through the module globals are the ones that count."""
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(chromatic, name, counted(name, getattr(chromatic, name)))
    return calls


SEARCHES = (
    "chromatic_number",
    "optimal_coloring",
    "max_clique",
    "_pair_rooted_clique",
    "_k_coloring",
)


class TestIndexThreeOnThePattern:
    """csi reads index 3 off the normalised pattern, with a coloring and a
    triangle checked on the graph, and leaves every other index to the
    exact search."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_graph(self, n):
        # The search runs once per switching class, on the representative,
        # which is isomorphic to every graph of its class.
        indices = {}
        for g in enumerate_all(n):
            rows = switching_representative(g).rows
            if rows not in indices:
                indices[rows] = chromatic_number(StereotypeGraph(n, rows).graph)
            index = indices[rows]
            assert csi(g) == index, g.bits
            blocks = chromatic._index_three_blocks(_descendant(rows))
            assert (blocks is not None) == (index == 3), g.bits

    def test_every_class_on_seven_pairs(self):
        # One normalised pattern per switching class, the 54 the census
        # walks and takes its index of on the csi route alone.
        walk = generators._OrbitWalk(7)
        seen = bytearray(1 << pattern_length(6))
        value = classes = 0
        while value >= 0:
            walk.orbit(value, seen)
            rows = _value_rows(7, value)
            index = chromatic_number(StereotypeGraph(7, rows).graph)
            assert csi(StereotypeGraph(7, rows)) == index, value
            blocks = chromatic._index_three_blocks(_descendant(rows))
            assert (blocks is not None) == (index == 3), value
            classes += 1
            value = seen.find(0, value + 1)
        assert classes == 54

    def test_certificate_reads_no_bits(self):
        """The index-3 claim names the class by its pair count and block
        masks, not by the C(n, 2) pattern bits only a failure shows."""
        g = StereotypeGraph(40, drawn_three_block_graph(40, 0).rows)
        assert csi(g) == 3
        assert "bits" not in vars(g)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_three_block_patterns_run_no_search(self, monkeypatch, n):
        calls = count_calls(monkeypatch, SEARCHES)
        graphs = [drawn_three_block_graph(n, seed) for seed in range(4)]
        for g in graphs:
            assert csi(g) == 3
        assert calls == dict.fromkeys(SEARCHES, 0)
        # The counters are live: the exact search agrees and reaches them.
        for g in graphs:
            assert chromatic.chromatic_number(g.graph) == 3
        assert calls["max_clique"] == len(graphs)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_one_bit_away_falls_back_to_the_search(self, monkeypatch, n):
        calls = count_calls(monkeypatch, SEARCHES)
        g = drawn_three_block_graph(n, n)
        fallbacks = 0
        for slot in range(pattern_length(n)):
            bits = list(g.bits)
            bits[slot] ^= 1
            near = from_pattern(n, bits)
            calls.update(dict.fromkeys(SEARCHES, 0))
            index = csi(near)
            # csi's one clique search is the pair-rooted one.
            searched = calls["_pair_rooted_clique"]
            assert calls["max_clique"] == 0, bits
            assert index == chromatic.chromatic_number(near.graph), bits
            assert searched == (index != 3), bits
            fallbacks += searched
        assert fallbacks

    @pytest.mark.parametrize("case", ["ladder", "empty-side", "moved-pair", "isolated-pair"])
    def test_wrong_blocks_raise(self, monkeypatch, case):
        g = three_block_graph([0, 0, 1, 1, 2, 2], switched={1, 4})
        side, other = chromatic._index_three_blocks(_descendant(switching_representative(g).rows))
        assert (side, other) == (0b001100, 0b110000)
        wrong = {
            "ladder": (side, other),
            "empty-side": (side, 0),
            "moved-pair": (side | 0b010000, other ^ 0b010000),
            "isolated-pair": (side | 0b000010, other),
        }[case]
        if case == "ladder":
            g = gen_complete_ladder(6)
        monkeypatch.setattr(chromatic, "_index_three_blocks", lambda h: wrong)
        with pytest.raises(InternalInvariant, match="index-3"):
            csi(g)

    def test_triangle_is_checked(self, monkeypatch):
        """A proper coloring alone does not certify index 3: the triangle
        that bounds it from below is checked too."""
        g = drawn_three_block_graph(7, 0)
        assert csi(g) == 3
        monkeypatch.setattr(chromatic, "is_clique", lambda graph, vertices: False)
        with pytest.raises(InternalInvariant, match="index-3 certificate"):
            csi(g)


class TestIsProper:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=general_graphs(min_vertices=0))
    def test_matches_edge_scan(self, data, graph):
        n = graph.vertex_count
        colors = tuple(data.draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n)))
        coloring = Coloring(colors)
        assert coloring.is_proper(graph) == all(colors[u] != colors[v] for u, v in graph.edges)
        assert coloring.colors_used == len(set(colors))
        assert not Coloring(colors + (1,)).is_proper(graph)
        if n:
            assert not Coloring(colors[:-1]).is_proper(graph)


def assert_odd_cycle(graph, cycle):
    """cycle is a simple closed walk of odd length along edges of graph."""
    assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle), cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(a, b), cycle


class TestTwoColoring:
    """two_coloring returns the coloring, or the very odd cycle, of the
    queue-based parent-pointer BFS (parent_pointer_two_coloring)."""

    @staticmethod
    def check(graph):
        result = two_coloring(graph)
        colors = None if result.coloring is None else result.coloring.colors
        assert (colors, result.odd_cycle) == parent_pointer_two_coloring(graph)
        if result.odd_cycle is not None:
            assert_odd_cycle(graph, result.odd_cycle)
        return result

    @settings(max_examples=200, deadline=None)
    @given(graph=general_graphs(min_vertices=0))
    def test_general_graphs(self, graph):
        self.check(graph)

    @settings(max_examples=300, deadline=None)
    @given(graph=sparse_graphs(max_vertices=16))
    def test_sparse_graphs(self, graph):
        """Long odd cycles, far from the root, and forests."""
        self.check(graph)

    @pytest.mark.parametrize("length", range(3, 16, 2))
    def test_odd_cycle_relabelled(self, length):
        """An odd cycle whose conflict lies at the deepest level, the
        cycle's vertices relabelled by a fixed permutation."""
        stream = splitmix64_stream(length)
        labels = [v for _, v in sorted((next(stream), v) for v in range(length))]
        edges = [(labels[i], labels[(i + 1) % length]) for i in range(length)]
        result = self.check(Graph.from_edges(length, edges))
        assert len(result.odd_cycle) == length

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_graph(self, n):
        for g in enumerate_all(n):
            self.check(g.graph)

    def test_all_crossed_separates_sides(self, k33):
        result = two_coloring(k33.graph)
        assert result.odd_cycle is None
        classes = {}
        for v, c in enumerate(result.coloring.colors):
            classes.setdefault(c, set()).add(v)
        assert sorted(classes.values(), key=min) == [{0, 2, 4}, {1, 3, 5}]

    def test_ladder_returns_odd_cycle(self, kl3):
        result = two_coloring(kl3.graph)
        assert result.coloring is None
        cycle = result.odd_cycle
        assert len(cycle) % 2 == 1
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert kl3.graph.has_edge(a, b)

    def test_single_edge(self):
        result = two_coloring(from_pattern(1, []).graph)
        assert result.coloring.colors == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(bits=random_pattern(5))
    def test_agrees_with_two_color_count(self, bits):
        g = from_pattern(5, bits)
        bipartite = two_coloring(g.graph).coloring is not None
        assert bipartite == (count_proper_colorings(g.graph, 2) > 0)


class TestThreeWayEquivalence:
    def test_merge_index_count_agree(self, all_st4):
        for g in all_st4:
            stable = reduce_to_k2(g).stable
            assert stable == (chromatic_number(g.graph) == 2)
            assert stable == (count_proper_colorings(g.graph, 2) > 0)

    def test_colorable_iff_positive_count(self, all_st3):
        for g in all_st3:
            chi = chromatic_number(g.graph)
            for k in range(1, 7):
                assert (count_proper_colorings(g.graph, k) > 0) == (chi <= k)

    def test_colorable_iff_positive_polynomial(self, all_st4):
        for g in all_st4:
            chi = chromatic_number(g.graph)
            poly = chromatic_polynomial(g.graph)
            for k in range(1, 9):
                assert (poly.evaluate(k) > 0) == (chi <= k)


class TestChromaticallyBipartiteCriterion:
    def test_four_cycle(self, k22):
        assert chromatic_polynomial(k22.graph).coefficient(2) == 6
        assert chromatically_bipartite_criterion(k22)

    def test_ladder(self, kl3):
        assert chromatic_polynomial(kl3.graph).coefficient(2) == 34
        assert not chromatically_bipartite_criterion(kl3)

    def test_agreement_exhaustive(self, all_st4):
        for g in all_st4:
            assert chromatically_bipartite_criterion(g) == reduce_to_k2(g).stable

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_labeled_graph_polynomial_exhaustive(self, n):
        # The criterion reads the polynomial of the switching class's
        # normalised pattern; b2 of the labeled graph must give the same verdict.
        edge_pairs = comb(n * n, 2)
        for g in enumerate_all(n):
            b2 = chromatic_polynomial(g.graph).coefficient(2)
            assert chromatically_bipartite_criterion(g) == (b2 == edge_pairs)

    @pytest.mark.parametrize("n", [8, 24, 96])
    def test_named_families_beyond_the_polynomial_bound(self, n):
        for g in (gen_complete_bipartite(n), gen_complete_ladder(n)):
            verdict = chromatically_bipartite_criterion(g)
            assert verdict == characteristic_criterion(g) == reduce_to_k2(g).stable
            assert verdict == (g == gen_complete_bipartite(n))


def _head(poly):
    return tuple(poly.coefficient(i) for i in range(3))


class TestLeadingChromaticCoefficients:
    """b0..b2 from three partition counts against the whole polynomial,
    and against c3 of the characteristic polynomial where the whole
    chromatic polynomial is out of reach."""

    def test_every_graph_up_to_five_pairs_and_every_seventh_on_six(self):
        graphs = [g for n in range(1, 6) for g in enumerate_all(n)]
        graphs += itertools.islice(enumerate_all(6), 0, None, 7)
        for g in graphs:
            head = _head(chromatic_polynomial(g.graph))
            assert leading_chromatic_coefficients(g.graph) == head, (g.n, g.rows)

    def test_seeded_general_graphs(self):
        stream = splitmix64_stream(21)
        for _ in range(400):
            count = 1 + next(stream) % 12
            density = next(stream) % 101
            graph = Graph.from_edges(
                count,
                [e for e in itertools.combinations(range(count), 2) if next(stream) % 100 < density],
            )
            assert leading_chromatic_coefficients(graph) == _head(chromatic_polynomial(graph))

    def test_no_vertices(self):
        assert leading_chromatic_coefficients(Graph.from_edges(0, ())) == (1, 0, 0)

    @pytest.mark.parametrize("n", [24, 96, 200])
    def test_second_coefficient_matches_c3_beyond_the_bound(self, n):
        for s in range(3):
            g = gen_random(n, s)
            b0, b1, b2 = leading_chromatic_coefficients(g.graph)
            c3 = leading_characteristic_coefficients(g)[3]
            assert (b0, b1) == (1, -n * n)
            assert 2 * (b2 - comb(n * n, 2)) == c3


class TestConstructiveColoring:
    def test_ladder_uses_exactly_three(self, kl3):
        coloring = constructive_pair_coloring(kl3)
        assert coloring.colors_used == 3

    def test_four_crossed_within_bound(self):
        g = gen_complete_bipartite(4)
        coloring = constructive_pair_coloring(g)
        assert coloring.is_proper(g.graph)
        assert coloring.colors_used <= 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        for g in enumerate_all(n):
            coloring = constructive_pair_coloring(g)
            assert coloring.is_proper(g.graph)
            assert coloring.colors_used <= n

    def test_single_pair_rejected(self):
        with pytest.raises(DomainError):
            constructive_pair_coloring(from_pattern(1, []))


class TestCompareStability:
    def test_examples(self, k33, kl3, kl4):
        assert compare_stability(k33, kl3) is StabilityComparison.MORE_STABLE
        assert compare_stability(kl3, kl3) is StabilityComparison.SAME_STABLE
        assert (
            compare_stability(kl4, gen_complete_bipartite(5))
            is StabilityComparison.MORE_UNSTABLE
        )


class TestStabilityReport:
    def test_stable_three_pairs(self, k33):
        report = stability_report(k33)
        assert report.agreement
        assert report.csi == 2
        assert all(v is True for v in report.criteria().values())

    def test_unstable_three_pairs(self, kl3):
        report = stability_report(kl3)
        assert report.agreement
        assert report.csi == 3
        assert all(v is False for v in report.criteria().values())

    def test_single_pair_skips_polynomial_criteria(self):
        # No criterion is skipped at one pair: K2 is stable on all eight.
        report = stability_report(from_pattern(1, []))
        assert list(report.criteria().values()) == [True] * 8
        assert report.csi == 2
        assert report.agreement

    def test_public_criteria_match_the_report(self):
        # Every public criterion answers on every graph, one pair included,
        # and gives the report's verdict.
        for n in range(1, 6):
            for g in enumerate_all(n):
                report = stability_report(g)
                assert matrix_criterion(g) == report.matrix, (n, g.bits)
                assert characteristic_criterion(g) == report.characteristic, (n, g.bits)
                assert (
                    chromatically_bipartite_criterion(g) == report.chromatically_bipartite
                ), (n, g.bits)
                assert minor_criterion(g) == report.minor, (n, g.bits)
                assert coefficient_identities(g).all_hold == report.agreement, (n, g.bits)

    def test_agreement_is_derived_from_the_verdicts(self, k33):
        report = stability_report(k33)
        assert report.agreement
        assert not dataclasses.replace(report, csi=3).agreement
        assert not dataclasses.replace(report, girth=False).agreement
        with pytest.raises(TypeError):
            dataclasses.replace(report, agreement=True)

    def test_one_leading_coefficients_pass(self, monkeypatch):
        # The characteristic and chromatically-bipartite criteria share
        # one c0..c3 pass per computed report, and no report looks the
        # full polynomial up; a graph past the chromatic bound still
        # makes one pass.
        lookups, passes = [], []
        lookup = spectral.characteristic_polynomial
        leading = spectral._leading_shifted_seidel_coefficients
        monkeypatch.setattr(
            spectral, "characteristic_polynomial", lambda m: lookups.append(m) or lookup(m)
        )
        monkeypatch.setattr(
            spectral,
            "_leading_shifted_seidel_coefficients",
            lambda rows: passes.append(rows) or leading(rows),
        )
        graphs = [g for n in range(1, 5) for g in enumerate_all(n)] + [gen_random(9, 0)]
        for g in graphs:
            passes.clear()
            _stability_report_cached.cache_clear()
            stability_report(g)
            assert passes == [switching_representative(g).rows]
        assert lookups == []

    def test_cached_report_equals_the_report_computed_on_the_graph_itself(self):
        # The cache answers for the whole switching class from its
        # normalised pattern; every labeled pattern must still get the
        # report of its own criteria, and they must agree.
        graphs = [g for n in range(1, 6) for g in enumerate_all(n)]
        graphs += [gen_random(n, s) for n in range(8, 11) for s in range(4)]
        for g in graphs:
            report = stability_report(g)
            assert report == _compute_stability_report(g), (g.n, g.bits)
            assert report.agreement, (g.n, g.bits)

    def test_pattern_given_as_a_list(self):
        # The constructor takes only a tuple of rows, so no list can reach
        # the report cache as a key; a list of bits goes through from_pattern.
        with pytest.raises(TypeError, match="from_pattern"):
            StereotypeGraph(3, [0, 0, 0])
        assert stability_report(StereotypeGraph(3, (0, 0, 0))) == stability_report(
            from_pattern(3, [0, 0, 0])
        )

    def test_no_criterion_skipped_past_the_polynomial_bound(self):
        report = stability_report(gen_complete_ladder(8))
        assert report.chromatically_bipartite is False
        assert report.agreement
        assert report.csi == 8
        report = stability_report(gen_complete_bipartite(24))
        assert all(v is True for v in report.criteria().values())
        assert report.agreement
        assert report.csi == 2
