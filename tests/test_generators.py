"""Generators: canonical families, seeded randomness, census, expansion."""

import itertools
import re

import pytest

from stereograph import (
    DomainError,
    EdgeAbsent,
    InternalInvariant,
    InvalidColoring,
    RangeError,
    SizeExceeded,
    StereotypeGraph,
    build_with_csi,
    census,
    check_order_invariance,
    chromatic_number,
    delete_edges,
    enumerate_all,
    expand_incrementing,
    expand_preserving,
    from_edge_list,
    from_pattern,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    optimal_coloring,
    recognize_complete_bipartite,
    recognize_complete_ladder,
    restrict_pairs,
    splitmix64_stream,
    two_coloring,
    validate_stereotype,
)
from stereograph import chromatic, generators, graphs
from stereograph.chromatic import Coloring
from stereograph.graphs import max_clique_size
from stereograph.model import _value_rows, pattern_length, vertex_id

from oracles import (
    _switching_orbit,
    chained_build_with_csi,
    find_clique_of_size,
    four_cycle_matchings,
    matching_pattern,
    pairwise_census,
)

# Reference outputs of splitmix64 for seed 0, from the published test
# vectors of the original implementation.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# A 5-pair pattern whose index (4) exceeds its largest clique (3); the
# incrementing expansion has nothing to grow there. Verified in-test.
INDEX_ABOVE_CLIQUE = (0, 0, 0, 0, 0, 0, 1, 1, 0, 1)

# build_with_csi(n, k) for 2 <= k <= n <= 14, each pattern written as the
# hex value of its bits read as one big-endian binary number. Recorded
# before colorings became one color per vertex (n <= 10), and before the
# construction carried its coloring between steps (n = 11..14, the sizes
# the csi_files benchmark builds), so any change to which graph a build
# returns fails here.
BUILT_PATTERNS = {
    (2, 2): "1",
    (3, 2): "7", (3, 3): "5",
    (4, 2): "3f", (4, 3): "37", (4, 4): "26",
    (5, 2): "3ff", (5, 3): "3bf", (5, 4): "33e", (5, 5): "238",
    (6, 2): "7fff", (6, 3): "7bff", (6, 4): "73fe", (6, 5): "63f8", (6, 6): "43c0",
    (7, 2): "1fffff", (7, 3): "1f7fff", (7, 4): "1e7ffe", (7, 5): "1c7ff8",
    (7, 6): "187fc0", (7, 7): "107c00",
    (8, 2): "fffffff", (8, 3): "fdfffff", (8, 4): "f9ffffe", (8, 5): "f1ffff8",
    (8, 6): "e1fffc0", (8, 7): "c1ffc00", (8, 8): "81f8000",
    (9, 2): "fffffffff", (9, 3): "fefffffff", (9, 4): "fcffffffe", (9, 5): "f8ffffff8",
    (9, 6): "f0fffffc0", (9, 7): "e0ffffc00", (9, 8): "c0fff8000", (9, 9): "80fe00000",
    (10, 2): "1fffffffffff", (10, 3): "1fefffffffff", (10, 4): "1fcffffffffe",
    (10, 5): "1f8ffffffff8", (10, 6): "1f0fffffffc0", (10, 7): "1e0ffffffc00",
    (10, 8): "1c0fffff8000", (10, 9): "180fffe00000", (10, 10): "100ff0000000",
    (11, 2): "7fffffffffffff", (11, 3): "7fdfffffffffff", (11, 4): "7f9ffffffffffe",
    (11, 5): "7f1ffffffffff8", (11, 6): "7e1fffffffffc0", (11, 7): "7c1ffffffffc00",
    (11, 8): "781fffffff8000", (11, 9): "701fffffe00000", (11, 10): "601ffff0000000",
    (11, 11): "401ff000000000",
    (12, 2): "3ffffffffffffffff", (12, 3): "3ff7fffffffffffff", (12, 4): "3fe7ffffffffffffe",
    (12, 5): "3fc7ffffffffffff8", (12, 6): "3f87fffffffffffc0", (12, 7): "3f07ffffffffffc00",
    (12, 8): "3e07fffffffff8000", (12, 9): "3c07fffffffe00000", (12, 10): "3807ffffff0000000",
    (12, 11): "3007ffff000000000", (12, 12): "2007fe00000000000",
    (13, 2): "3fffffffffffffffffff", (13, 3): "3ffbffffffffffffffff",
    (13, 4): "3ff3fffffffffffffffe", (13, 5): "3fe3fffffffffffffff8",
    (13, 6): "3fc3ffffffffffffffc0", (13, 7): "3f83fffffffffffffc00",
    (13, 8): "3f03ffffffffffff8000", (13, 9): "3e03ffffffffffe00000",
    (13, 10): "3c03fffffffff0000000", (13, 11): "3803fffffff000000000",
    (13, 12): "3003ffffe00000000000", (13, 13): "2003ff80000000000000",
    (14, 2): "7ffffffffffffffffffffff", (14, 3): "7ffbfffffffffffffffffff",
    (14, 4): "7ff3ffffffffffffffffffe", (14, 5): "7fe3ffffffffffffffffff8",
    (14, 6): "7fc3fffffffffffffffffc0", (14, 7): "7f83ffffffffffffffffc00",
    (14, 8): "7f03fffffffffffffff8000", (14, 9): "7e03fffffffffffffe00000",
    (14, 10): "7c03ffffffffffff0000000", (14, 11): "7803ffffffffff000000000",
    (14, 12): "7003fffffffe00000000000", (14, 13): "6003fffff80000000000000",
    (14, 14): "4003ffc0000000000000000",
}

# census(6) as (k, labeled, isomorphism classes); the labeled counts agree
# with the index of each of the 32768 labeled graphs computed one by one.
SIX_PAIR_CENSUS = [(2, 32, 1), (3, 2880, 3), (4, 27424, 9), (5, 2400, 2), (6, 32, 1)]
# census(7, limit=None) in the same form.
SEVEN_PAIR_CENSUS = [
    (2, 64, 1),
    (3, 19264, 4),
    (4, 1566848, 30),
    (5, 498368, 15),
    (6, 12544, 3),
    (7, 64, 1),
]
# census(8, limit=None) in the same form.
EIGHT_PAIR_CENSUS = [
    (2, 128, 1),
    (3, 123648, 5),
    (4, 117729024, 107),
    (5, 141217536, 100),
    (6, 9304064, 26),
    (7, 60928, 3),
    (8, 128, 1),
]


@pytest.mark.parametrize("n", [0, 2.0, True, -1, "2", None])
@pytest.mark.parametrize(
    "make",
    [
        gen_complete_bipartite,
        gen_complete_ladder,
        lambda n: gen_random(n, 0),
        lambda n: list(enumerate_all(n)),
        census,
        lambda n: StereotypeGraph(n, ()),
        lambda n: from_pattern(n, ()),
        lambda n: from_edge_list(n, [(0, 1)]),
        lambda n: build_with_csi(n, 2),
    ],
    ids=[
        "bipartite",
        "ladder",
        "random",
        "enumerate",
        "census",
        "StereotypeGraph",
        "from_pattern",
        "from_edge_list",
        "build_with_csi",
    ],
)
def test_generators_reject_bad_pair_count(make, n):
    """The generators and the model constructors share one pair-count
    check, so each reports the same error."""
    message = f"pair count must be a positive int, got {n!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make(n)


class TestCanonicalFamilies:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_crossed_pattern(self, n):
        g = gen_complete_bipartite(n)
        assert g.bits == (1,) * pattern_length(n)
        assert recognize_complete_bipartite(g)
        assert chromatic_number(g.graph) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_parallel_pattern(self, n):
        g = gen_complete_ladder(n)
        assert g.bits == (0,) * pattern_length(n)
        assert recognize_complete_ladder(g)
        assert chromatic_number(g.graph) == n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_both_families_validate(self, n):
        assert validate_stereotype(gen_complete_bipartite(n).graph).valid
        assert validate_stereotype(gen_complete_ladder(n).graph).valid


class TestRandomGeneration:
    def test_splitmix64_reference_vectors(self):
        stream = splitmix64_stream(0)
        assert tuple(next(stream) for _ in range(3)) == SPLITMIX64_SEED0

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, 0.0, "0"])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError):
            gen_random(3, seed)
        with pytest.raises(DomainError):
            splitmix64_stream(seed)

    def test_largest_seed_accepted(self):
        assert len(gen_random(3, 2**64 - 1).bits) == 3

    def test_same_seed_same_graph(self):
        assert gen_random(5, 42).bits == gen_random(5, 42).bits

    def test_different_seeds_vary(self):
        patterns = {gen_random(5, seed).bits for seed in range(50)}
        assert len(patterns) > 1

    def test_outputs_validate(self):
        for seed in range(100):
            assert validate_stereotype(gen_random(3, seed).graph).valid

    def test_stable_fraction_near_one_half(self):
        # Exactly 4 of the 8 three-pair patterns are stable, so the
        # stable count over 10000 seeds is Binomial(10000, 1/2); allow
        # three standard deviations (sigma = 50).
        stable = sum(
            1
            for seed in range(10_000)
            if two_coloring(gen_random(3, seed).graph).coloring is not None
        )
        assert abs(stable - 5_000) <= 150


class TestEnumeration:
    @pytest.mark.parametrize("n, count", [(2, 2), (3, 8), (4, 64)])
    def test_counts_and_distinctness(self, n, count):
        patterns = [g.bits for g in enumerate_all(n)]
        assert len(patterns) == count
        assert len(set(patterns)) == count

    def test_lexicographic_order(self):
        patterns = [g.bits for g in enumerate_all(3)]
        assert patterns == sorted(patterns)
        assert patterns[0] == (0, 0, 0)
        assert patterns[-1] == (1, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pattern_number_order(self, n):
        # Graph number v has the bits of v, most significant first.
        length = pattern_length(n)
        expected = [
            from_pattern(n, [v >> length - 1 - s & 1 for s in range(length)])
            for v in range(1 << length)
        ]
        assert list(enumerate_all(n)) == expected

    def test_three_pairs_stable_count(self):
        stable = [
            g for g in enumerate_all(3) if two_coloring(g.graph).coloring is not None
        ]
        assert len(stable) == 4
        # Exactly the patterns whose bit triple XORs to one.
        assert all(g.bits[0] ^ g.bits[1] ^ g.bits[2] == 1 for g in stable)

    def test_bound_and_none(self):
        # limit=None lifts the bound.
        with pytest.raises(SizeExceeded, match=r"^enumeration bounded at n <= 6, got n=7$"):
            list(enumerate_all(7))
        lifted = itertools.islice(enumerate_all(7, limit=None), 3)
        assert [g.n for g in lifted] == [7, 7, 7]

    def test_arguments_checked_at_call(self):
        # Both raise before any graph is asked for.
        with pytest.raises(DomainError, match="pair count must be a positive int, got 2.0"):
            enumerate_all(2.0)
        with pytest.raises(SizeExceeded, match=r"^enumeration bounded at n <= 6, got n=9$"):
            enumerate_all(9)


class TestCensus:
    def test_two_pairs(self):
        rows = census(2)
        assert [(r.k, r.labeled_count, r.iso_class_count) for r in rows] == [(2, 2, 1)]

    def test_three_pairs(self):
        rows = census(3)
        assert [(r.n, r.k, r.labeled_count, r.iso_class_count) for r in rows] == [
            (3, 2, 4, 1),
            (3, 3, 4, 1),
        ]

    def test_four_pairs_structure(self):
        rows = census(4)
        assert sum(r.labeled_count for r in rows) == 64
        by_k = {r.k: r for r in rows}
        assert set(by_k) == {2, 3, 4}
        assert by_k[2].labeled_count == 8
        assert by_k[4].labeled_count == 8
        assert by_k[2].iso_class_count == 1
        assert by_k[4].iso_class_count == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_pairwise_oracle(self, n):
        rows = [(r.n, r.k, r.labeled_count, r.iso_class_count) for r in census(n)]
        assert rows == pairwise_census(n)

    def test_six_pairs_exhaustive(self):
        rows = [(r.k, r.labeled_count, r.iso_class_count) for r in census(6)]
        assert rows == SIX_PAIR_CENSUS
        # The two-graph count on 6 points (OEIS A002854): each switching
        # orbit is one isomorphism class by the pairing lemma (census
        # docstring; test_pairing_lemma checks it through 7 pairs).
        assert sum(classes for _, _, classes in rows) == 16

    def test_seven_pairs_exhaustive(self):
        rows = [(r.k, r.labeled_count, r.iso_class_count) for r in census(7, limit=None)]
        assert rows == SEVEN_PAIR_CENSUS
        assert sum(labeled for _, labeled, _ in rows) == 1 << 21
        # A002854 on 7 points.
        assert sum(classes for _, _, classes in rows) == 54

    def test_eight_pairs_exhaustive(self):
        rows = [(r.k, r.labeled_count, r.iso_class_count) for r in census(8, limit=None)]
        assert rows == EIGHT_PAIR_CENSUS
        assert sum(labeled for _, labeled, _ in rows) == 1 << 28
        # A002854 on 8 points.
        assert sum(classes for _, _, classes in rows) == 243

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orbit_walk_matches_every_relabelling(self, n):
        # The walk's orbit of each class's first normalised value is the
        # set of normalised values of its n! relabellings, and the walk
        # visits each member once.
        walk = generators._OrbitWalk(n)
        seen = bytearray(1 << pattern_length(n - 1))
        permutations = list(itertools.permutations(range(n)))
        value = 0
        while value >= 0:
            orbit = walk.orbit(value, seen)
            assert orbit[0] == value
            assert len(set(orbit)) == len(orbit)
            g = StereotypeGraph(n, _value_rows(n, value))
            assert set(orbit) == _switching_orbit(g, permutations)
            value = seen.find(0, value + 1)

    @pytest.mark.parametrize(
        "n, rows", [(6, SIX_PAIR_CENSUS), (7, SEVEN_PAIR_CENSUS), (8, EIGHT_PAIR_CENSUS)]
    )
    def test_index_three_closed_forms(self, n, rows):
        # 2^(n-1) * S(n, 3) labeled graphs, S(n, 3) = (3^(n-1) - 2^n + 1) / 2,
        # in round(n^2 / 12) classes.
        (labeled, classes), = [(lab, cls) for k, lab, cls in rows if k == 3]
        assert labeled == 2 ** (n - 1) * (3 ** (n - 1) - 2**n + 1) // 2
        assert classes == round(n * n / 12)
        generators._check_index_three(n, labeled, classes)

    @pytest.mark.parametrize("labeled, classes", [(2880, 4), (2881, 3), (2848, 3)])
    def test_index_three_check_rejects_a_wrong_row(self, labeled, classes):
        with pytest.raises(InternalInvariant, match="^index 3 on 6 pairs"):
            generators._check_index_three(6, labeled, classes)

    @pytest.mark.parametrize("k, labeled, classes", [(2, 64, 1), (2, 32, 2), (6, 16, 1)])
    def test_extreme_rows_check_rejects_a_wrong_row(self, k, labeled, classes):
        # The pinned census rows pass the check through census itself.
        labeled_by_k = {j: lab for j, lab, _ in SIX_PAIR_CENSUS}
        classes_by_k = {j: cls for j, _, cls in SIX_PAIR_CENSUS}
        labeled_by_k[k], classes_by_k[k] = labeled, classes
        with pytest.raises(InternalInvariant, match=f"^index {k} on 6 pairs"):
            generators._check_extreme_rows(6, labeled_by_k, classes_by_k)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pairing_lemma(self, n):
        # Every perfect matching whose every two edges induce a 4-cycle
        # reads as a pattern in the class's own orbit, so no isomorphism
        # joins two orbits and the census counts orbits as classes.
        walk = generators._OrbitWalk(n)
        seen = bytearray(1 << pattern_length(n - 1))
        identity = [tuple(range(n))]
        pairing = tuple((vertex_id(i, 1), vertex_id(i, 2)) for i in range(1, n + 1))
        value = 0
        while value >= 0:
            orbit = set(walk.orbit(value, seen))
            graph = StereotypeGraph(n, _value_rows(n, value)).graph
            matchings = four_cycle_matchings(graph)
            assert pairing in matchings
            for matching in matchings:
                assert _switching_orbit(matching_pattern(graph, matching), identity) <= orbit
            value = seen.find(0, value + 1)

    def test_default_bound(self):
        assert census.__defaults__ == (generators.DEFAULT_CENSUS_BOUND,) == (7,)
        rows = [(r.k, r.labeled_count, r.iso_class_count) for r in census(7)]
        assert rows == SEVEN_PAIR_CENSUS
        with pytest.raises(SizeExceeded, match=r"^census bounded at n <= 7, got n=8$"):
            census(8)

    def test_bound_and_none(self):
        # limit=None lifts the bound.
        with pytest.raises(SizeExceeded, match=r"^census bounded at n <= 2, got n=3$"):
            census(3, limit=2)
        rows = census(3, limit=None)
        assert [(r.k, r.labeled_count, r.iso_class_count) for r in rows] == [
            (2, 4, 1),
            (3, 4, 1),
        ]

    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_bad_pair_count(self, n):
        with pytest.raises(DomainError):
            census(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_csi_route_per_class(self, monkeypatch, n):
        """The census takes each class's index on the csi route, one
        _csi_coloring per class, and never reaches the generic
        chromatic_number or max_clique."""
        names = ("_csi_coloring", "chromatic_number", "max_clique")
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
        rows = census(n)
        classes = sum(r.iso_class_count for r in rows)
        assert calls == {"_csi_coloring": classes, "chromatic_number": 0, "max_clique": 0}
        assert not any(hasattr(generators, name) for name in names)


# The exhaustive walks as (call with n and limit, the name their bound
# message gives); all three check limit with the one rule.
EXHAUSTIVE_WALKS = {
    "enumerate_all": (lambda n, limit: list(enumerate_all(n, limit)), "enumeration"),
    "census": (census, "census"),
    "check_order_invariance": (
        lambda n, limit: check_order_invariance(gen_random(n, 0), limit),
        "order enumeration",
    ),
}


class TestLimit:
    @pytest.mark.parametrize("limit", ["6", 2.5, True, 0, -1])
    @pytest.mark.parametrize("walk", EXHAUSTIVE_WALKS)
    def test_bad_limit(self, walk, limit):
        call, _ = EXHAUSTIVE_WALKS[walk]
        message = f"limit must be None or a positive int, got {limit!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(3, limit)

    @pytest.mark.parametrize("walk", EXHAUSTIVE_WALKS)
    def test_bound_and_lift(self, walk):
        call, what = EXHAUSTIVE_WALKS[walk]
        with pytest.raises(SizeExceeded, match=f"^{what} bounded at n <= 2, got n=3$"):
            call(3, 2)
        assert call(3, None) == call(3, 3) == call(3, 4)


class TestExpansion:
    def test_preserving_from_four_cycle(self):
        g = from_pattern(2, [1])
        expanded = expand_preserving(g, optimal_coloring(g.graph))
        assert expanded.n == 3
        assert chromatic_number(expanded.graph) == 2

    def test_preserving_iterated_to_six_pairs(self):
        g = from_pattern(2, [1])
        for _ in range(4):
            g = expand_preserving(g, optimal_coloring(g.graph))
        assert g.n == 6
        assert chromatic_number(g.graph) == 2

    def test_preserving_from_ladder(self, kl3):
        expanded = expand_preserving(kl3, optimal_coloring(kl3.graph))
        assert expanded.n == 4
        assert chromatic_number(expanded.graph) == 3

    def test_incrementing_from_four_cycle_gives_ladder(self):
        g = from_pattern(2, [1])
        expanded = expand_incrementing(g, optimal_coloring(g.graph))
        assert chromatic_number(expanded.graph) == 3
        assert recognize_complete_ladder(expanded)

    def test_incrementing_from_ladder(self, kl3):
        expanded = expand_incrementing(kl3, optimal_coloring(kl3.graph))
        assert chromatic_number(expanded.graph) == 4
        assert recognize_complete_ladder(expanded)

    def test_incrementing_leaves_clique_witness(self, all_st3):
        for g in all_st3:
            chi = chromatic_number(g.graph)
            expanded = expand_incrementing(g, optimal_coloring(g.graph))
            assert max_clique_size(expanded.graph) >= chi + 1

    def test_preserved_graph_keeps_old_wiring(self, all_st3):
        for g in all_st3:
            expanded = expand_preserving(g, optimal_coloring(g.graph))
            assert restrict_pairs(expanded, g.n).bits == g.bits

    def test_improper_coloring_rejected(self, kl3):
        bad = Coloring((1,) * 6)
        with pytest.raises(InvalidColoring):
            expand_preserving(kl3, bad)

    @pytest.mark.parametrize("expand", [expand_preserving, expand_incrementing])
    @pytest.mark.parametrize("colors", [(1, 2, 1, 2, 1), (1, 2, 1, 2, 1, 2, 1)])
    def test_coloring_of_wrong_length_rejected(self, k33, expand, colors):
        with pytest.raises(InvalidColoring, match="must assign every vertex exactly once"):
            expand(k33, Coloring(colors))

    @pytest.mark.parametrize("expand", [expand_preserving, expand_incrementing])
    def test_palette_with_a_gap_rejected(self, k33, expand):
        # Proper, on two colors, but numbered {1, 3}.
        gapped = Coloring((1, 3, 1, 3, 1, 3))
        assert gapped.is_proper(k33.graph) and gapped.colors_used == 2
        with pytest.raises(InvalidColoring, match=r"colors must be exactly 1\.\.colors_used"):
            expand(k33, gapped)

    @pytest.mark.parametrize("expand", [expand_preserving, expand_incrementing])
    @pytest.mark.parametrize("colors", [(1.0, 2, 1, 2), (True, 2, True, 2), (1, 2.0, 1, 2)])
    def test_non_int_colors_rejected(self, expand, colors):
        # Each equals a proper 2-coloring as a set, {1.0, 2} == {1, 2}.
        with pytest.raises(InvalidColoring, match="colors must be ints"):
            expand(gen_complete_bipartite(2), Coloring(colors))

    def test_non_optimal_coloring_rejected(self, k33):
        wasteful = Coloring(tuple(range(1, 7)))
        with pytest.raises(InvalidColoring, match="uses 6 colors but the index is 2"):
            expand_incrementing(k33, wasteful)

    def test_index_above_clique_case_rejected(self):
        g = from_pattern(5, list(INDEX_ABOVE_CLIQUE))
        coloring = optimal_coloring(g.graph)
        assert coloring.colors_used == 4
        assert max_clique_size(g.graph) == 3
        with pytest.raises(DomainError):
            expand_incrementing(g, coloring)


    @pytest.mark.parametrize("expand", [expand_preserving, expand_incrementing])
    def test_one_clique_search_per_step(self, monkeypatch, expand):
        """The clique that certifies the coloring is the only clique
        search an expansion runs, including the one it grows and the one
        that the refutation of a smaller palette pre-colors when the index
        exceeds the clique number (192 of the 1024 graphs on 5 pairs): one
        _pair_rooted_clique call, the csi route's, and no max_clique or
        other clique search by any name."""
        samples = [g for n in (2, 3, 4, 5) for g in enumerate_all(n)]
        colorings = [optimal_coloring(g.graph) for g in samples]
        # Where the index exceeds the clique number, the incrementing step
        # has no clique to grow and must refuse; nowhere else.
        gaps = [c.colors_used > max_clique_size(g.graph) for g, c in zip(samples, colorings)]
        assert sum(gaps) == sum(gaps[-1024:]) == 192
        calls = {"max_clique_size": 0, "max_clique": 0, "_pair_rooted_clique": 0}

        def counted(name):
            original = getattr(chromatic if name == "_pair_rooted_clique" else graphs, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            wrapper = counted(name)
            for module in (graphs, chromatic, generators):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        for g, coloring, gap in zip(samples, colorings, gaps):
            calls.update(max_clique_size=0, max_clique=0, _pair_rooted_clique=0)
            if gap and expand is expand_incrementing:
                with pytest.raises(DomainError, match="no cross clique"):
                    expand(g, coloring)
            else:
                expand(g, coloring)
            assert calls == dict(max_clique_size=0, max_clique=0, _pair_rooted_clique=1), g.bits
        # find_clique_of_size is a test oracle, out of the library's reach.
        assert not any(
            hasattr(module, "find_clique_of_size") for module in (graphs, chromatic, generators)
        )


class TestBuildWithCsi:
    def test_range_errors(self):
        for k in (1, 4, 2.0, 3.0, True, "3", None):
            message = f"need 2 <= k <= n, got k={k!r}, n=3"
            with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
                build_with_csi(3, k)

    def test_examples(self):
        g = build_with_csi(4, 3)
        assert g.n == 4
        assert chromatic_number(g.graph) == 3
        assert chromatic_number(build_with_csi(6, 2).graph) == 2
        assert recognize_complete_ladder(build_with_csi(5, 5))

    def test_every_target_up_to_six(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                g = build_with_csi(n, k)
                assert validate_stereotype(g.graph).valid
                assert chromatic_number(g.graph) == k

    def test_pinned_patterns(self):
        for (n, k), pattern in BUILT_PATTERNS.items():
            g = build_with_csi(n, k)
            assert g.n == n
            assert int("".join(map(str, g.bits)), 2) == int(pattern, 16), (n, k)

    def test_equals_the_expansion_chain(self):
        """The closed form is the graph the chain of expansion steps
        builds, each step on the exact search's coloring."""
        for n in range(2, 17):
            for k in range(2, n + 1):
                assert build_with_csi(n, k) == chained_build_with_csi(n, k), (n, k)

    def test_runs_no_search(self, monkeypatch):
        """A build writes its certificate down: no coloring or clique
        search runs, under any name the package gives one."""
        names = (
            "optimal_coloring",
            "chromatic_number",
            "find_clique_of_size",
            "max_clique_size",
            "max_clique",
            "_k_coloring",
        )
        calls = dict.fromkeys(names, 0)

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (graphs, chromatic, generators):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        g = build_with_csi(10, 5)
        assert calls == dict.fromkeys(names, 0)
        # The counters are live: the exact search on the result reaches them.
        assert chromatic.chromatic_number(g.graph) == 5
        assert calls["chromatic_number"] == 1 and calls["_k_coloring"] >= 1
        assert calls["max_clique"] == 1

    def test_certificate_holds_up_to_forty_pairs(self, monkeypatch):
        """Every build up to 40 pairs is a stereotype graph whose written
        certificate is a proper k-coloring and a k-clique."""
        certificates = []

        def recorded(g, n, k, coloring, clique):
            certificates.append((g, coloring, clique))
            check_certificate(g, n, k, coloring, clique)

        check_certificate = generators._check_certificate
        monkeypatch.setattr(generators, "_check_certificate", recorded)
        for n in range(2, 41):
            for k in range(2, n + 1):
                g = build_with_csi(n, k)
                assert validate_stereotype(g.graph).valid, (n, k)
                assert certificates[-1][0] is g
                _, coloring, clique = certificates[-1]
                assert coloring.colors_used == k and coloring.is_proper(g.graph), (n, k)
                assert len(set(clique)) == k, (n, k)
                assert all(g.graph.has_edge(u, v) for u, v in itertools.combinations(clique, 2))

    @pytest.mark.parametrize(
        "case",
        ["pair-count", "coloring-too-small", "improper-coloring", "short-clique", "not-a-clique"],
    )
    def test_final_check_rejects_a_bad_certificate(self, case):
        """The final check accepts exactly a proper k-coloring and a
        k-clique of a graph on n pairs; anything less raises."""
        g = build_with_csi(6, 4)
        coloring = optimal_coloring(g.graph)
        clique = find_clique_of_size(g.graph, 4)
        generators._check_certificate(g, 6, 4, coloring, clique)
        n, k = 6, 4
        if case == "pair-count":
            n = 7
        elif case == "coloring-too-small":
            k = 3
        elif case == "improper-coloring":
            # Four colors, but u1^1 and its partner u2^1 share one.
            coloring = Coloring((coloring.colors[1],) + coloring.colors[1:])
            assert coloring.colors_used == 4
        elif case == "short-clique":
            clique = clique[:3]
        else:
            first = clique[0]
            outsider = next(v for v in range(12) if v != first and not g.graph.has_edge(first, v))
            clique = (first, outsider) + clique[2:]
        with pytest.raises(InternalInvariant, match="targeted construction reached"):
            generators._check_certificate(g, n, k, coloring, clique)


class TestOneCertificateCheck:
    def test_every_written_coloring_passes_it(self, monkeypatch, k33):
        """The search, the index-3 certificate, the pair walk, the targeted
        construction and both expansions each hand their coloring to
        chromatic._certify; every one but the pair walk's proves its index
        with a clique as large as the palette."""
        certified = []
        certify = chromatic._certify

        def recording(graph, coloring, clique, claim):
            certified.append((claim.split(" on ")[0].split(" reached")[0], len(clique)))
            return certify(graph, coloring, clique, claim)

        monkeypatch.setattr(chromatic, "_certify", recording)
        monkeypatch.setattr(generators, "_certify", recording)
        three = build_with_csi(5, 3)
        coloring = optimal_coloring(k33.graph)
        assert chromatic.csi(three) == 3
        chromatic.constructive_pair_coloring(three)
        expand_preserving(k33, coloring)
        expand_incrementing(k33, coloring)
        assert certified == [
            ("targeted construction", 3),
            ("optimal coloring", 2),
            ("index-3 certificate", 3),
            ("pair-walk coloring", 0),
            ("preserving expansion", 2),
            ("incrementing expansion", 3),
        ]


class TestDeleteEdges:
    def test_absent_edge(self, kl3):
        with pytest.raises(EdgeAbsent):
            delete_edges(kl3, [(0, 3)])

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((0.0, 1), "edge ends must be ints"),
            ((0, 1.5), "edge ends must be ints"),
            (("a", 1), "edge ends must be ints"),
            ((True, 2), "edge ends must be ints"),
            ((0, 1, 2), "an edge is two vertex ids"),
            (5, "an edge is two vertex ids"),
        ],
    )
    def test_malformed_entry_rejected(self, entry, message):
        with pytest.raises(DomainError, match=message):
            delete_edges(gen_random(3, 0), [entry])

    def test_identity(self, kl3):
        assert delete_edges(kl3, []) == kl3.graph

    def test_clique_edge_removal_keeps_index_bounded(self, kl3):
        smaller = delete_edges(kl3, [(0, 2)])
        assert chromatic_number(smaller) <= 3

    def test_removing_all_cross_edges_leaves_matching(self, kl4):
        cross = [
            (u, v) for u, v in kl4.graph.sorted_edges() if u // 2 != v // 2
        ]
        remaining = delete_edges(kl4, cross)
        assert remaining.edges == frozenset({(2 * i, 2 * i + 1) for i in range(4)})
        assert chromatic_number(remaining) == 2
