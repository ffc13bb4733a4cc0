"""Exact matrix algebra: characteristic polynomials and matrix criteria."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    char_matrix_at,
    dense_quadratic_identity_holds,
    interpolated_characteristic_polynomial,
    laplace_determinant,
    mat_mul,
    ones_matrix,
    rational_gauss_determinant,
    srg_identity_holds,
)
from test_chromatic import cycle_graph, general_graphs, petersen_graph
from stereograph import (
    DomainError,
    InternalInvariant,
    adjacency_matrix,
    characteristic_criterion,
    characteristic_polynomial,
    coefficient_identities,
    enumerate_all,
    from_pattern,
    gen_random,
    leading_characteristic_coefficients,
    matrix_criterion,
    minor_criterion,
    reduce_to_k2,
    srg_check,
    stereotype_characteristic_polynomial,
    switching_representative,
    triangle_pair_triples,
)
from stereograph.graphs import Graph
from stereograph.polynomials import interpolate_integer_polynomial
from stereograph.spectral import (
    IntMatrix,
    _berkowitz,
    _quadratic_identity_holds,
    bareiss_determinant,
)

# Frozen from the independent determinant oracles below (eigenvalues
# +-2 and 0,0 for the 4-cycle; +-3 and four 0s for the crossed 3-pair
# graph; 3, 1, 0, 0, -2, -2 for the 3-pair ladder).
CHARPOLY_K22 = (1, 0, -4, 0, 0)
CHARPOLY_K33 = (1, 0, -9, 0, 0, 0, 0)
CHARPOLY_KL3 = (1, 0, -9, -4, 12, 0, 0)

TRIANGLE_MINOR = ((0, 1, 1), (1, 0, 1), (1, 1, 0))

# characteristic_polynomial(adjacency_matrix(gen_random(24, 0))), recorded
# from the Bareiss-and-interpolation route.
CHARPOLY_RANDOM_24 = (
    1, 0, -576, -3984, 75456, 732800, -3999424, -54316416, 80731648,
    2094648832, 578454528, -45412399104, -54197129216, 561501609984,
    957697572864, -3874217000960, -7783379304448, 14225139302400,
    31370808655872, -26024973172736, -60572248834048, 23053142589440,
    51656863514624, -10170264453120, -14545091297280, 3074257059840,
) + (0,) * 23


def square_int_matrices(max_dim: int):
    """Square int matrices, not symmetric, entries in -3..3."""
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.integers(min_value=-3, max_value=3)] * dim),
            min_size=dim,
            max_size=dim,
        ).map(tuple)
    )


# A zero leading entry, a singular matrix and a nilpotent one, pinned as
# examples of the properties on square_int_matrices.
HAND_MATRICES = (
    ((0, 1), (1, 0)),
    ((0, 0, 2), (1, 2, 3), (2, 4, 6)),
    ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
)


def principal_submatrix(matrix: IntMatrix, indices: tuple[int, ...]) -> IntMatrix:
    return tuple(tuple(matrix[i][j] for j in indices) for i in indices)


class TestAdjacencyMatrix:
    def test_symmetric_zero_diagonal_row_sums(self, k22, kl3):
        for g, degree in ((k22, 2), (kl3, 3)):
            a = adjacency_matrix(g)
            dim = len(a)
            assert all(a[i][i] == 0 for i in range(dim))
            assert all(a[i][j] == a[j][i] for i in range(dim) for j in range(dim))
            assert all(sum(row) == degree for row in a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_ones_identity_exhaustive(self, n):
        # A J = J A = n J, entry by entry.
        j = ones_matrix(2 * n)
        target = tuple(tuple(n for _ in range(2 * n)) for _ in range(2 * n))
        for g in enumerate_all(n):
            a = adjacency_matrix(g)
            assert mat_mul(a, j) == target
            assert mat_mul(j, a) == target


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize(
        "bits, n, frozen",
        [
            ((0,), 2, CHARPOLY_K22),
            ((1, 1, 1), 3, CHARPOLY_K33),
            ((0, 0, 0), 3, CHARPOLY_KL3),
        ],
    )
    def test_fixed_points_against_oracle(self, bits, n, frozen):
        a = adjacency_matrix(from_pattern(n, list(bits)))
        poly = characteristic_polynomial(a)
        assert poly.coefficients == frozen
        # Independent recomputation: Laplace-expansion determinants of
        # xI - A at points outside the interpolation set.
        for x in (-3, -1, 2 * n + 2, 2 * n + 5):
            assert poly.evaluate(x) == laplace_determinant(char_matrix_at(a, x))

    def test_monic_full_degree_and_constant_term(self, all_st4):
        for g in all_st4:
            a = adjacency_matrix(g)
            poly = characteristic_polynomial(a)
            assert poly.degree == 8
            assert poly.coefficient(0) == 1
            det = rational_gauss_determinant(a)
            assert poly.evaluate(0) == det  # (-1)^dim det(A) with even dim

    def test_spot_check_at_extra_points(self, all_st3):
        for g in all_st3:
            a = adjacency_matrix(g)
            poly = characteristic_polynomial(a)
            for x in (-2, 9, 17):
                assert poly.evaluate(x) == rational_gauss_determinant(
                    char_matrix_at(a, x)
                )


class TestCharacteristicPolynomialOnIntMatrices:
    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(9))
    @example(HAND_MATRICES[0])
    @example(HAND_MATRICES[1])
    @example(HAND_MATRICES[2])
    @example(())
    def test_matches_interpolation_oracle(self, m):
        poly = characteristic_polynomial(m)
        assert poly.coefficients == interpolated_characteristic_polynomial(m)

    @settings(max_examples=80, deadline=None)
    @given(square_int_matrices(6))
    @example(HAND_MATRICES[1])
    def test_values_match_laplace(self, m):
        poly = characteristic_polynomial(m)
        for x in (-2, len(m) + 3):
            assert poly.evaluate(x) == laplace_determinant(char_matrix_at(m, x))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_unchanged_under_transpose_and_permutation(self, data):
        m = data.draw(square_int_matrices(9))
        order = tuple(data.draw(st.permutations(range(len(m)))))
        poly = characteristic_polynomial(m)
        assert characteristic_polynomial(tuple(zip(*m))) == poly
        assert characteristic_polynomial(principal_submatrix(m, order)) == poly

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_pass_is_a_prefix(self, data):
        m = data.draw(square_int_matrices(9))
        terms = data.draw(st.integers(min_value=1, max_value=len(m) + 1))
        assert _berkowitz(m, terms) == list(interpolated_characteristic_polynomial(m)[:terms])

    def test_pinned_random_adjacency_at_24_pairs(self):
        poly = characteristic_polynomial(adjacency_matrix(gen_random(24, 0)))
        assert poly.coefficients == CHARPOLY_RANDOM_24

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            characteristic_polynomial(((1, 2),))


# (an int matrix, a matrix with a non-int entry); all but the last pair
# compare equal and so share one cache key.
NON_INT_MATRICES = (
    (((1, 2), (3, 4)), ((1, 2), (3, 4.0))),
    (((1,),), ((True,),)),
    (((0,),), ((0.0,),)),
    (((0,),), ((0.5,),)),
)


class TestNonIntEntriesRejected:
    """Equal tuples share one cache key, so the type check runs first."""

    @pytest.mark.parametrize("exact, other", NON_INT_MATRICES)
    @pytest.mark.parametrize("int_first", [True, False])
    def test_outcome_independent_of_cache_state(self, exact, other, int_first):
        characteristic_polynomial.cache_clear()
        if int_first:
            expected = characteristic_polynomial(exact).coefficients
        with pytest.raises(DomainError):
            characteristic_polynomial(other)
        coefficients = characteristic_polynomial(exact).coefficients
        if int_first:
            assert coefficients == expected
        assert all(type(c) is int for c in coefficients)
        with pytest.raises(DomainError):
            characteristic_polynomial(other)

    @pytest.mark.parametrize("m", [((0.5,),), ((1, 2), (3, 4.0)), ((True, 0), (0, 1))])
    def test_bareiss_rejects(self, m):
        with pytest.raises(DomainError):
            bareiss_determinant(m)


class TestStereotypeCharacteristicPolynomial:
    """The Seidel route against the generic 2n x 2n determinant route."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_adjacency_route_exhaustive(self, n):
        for g in enumerate_all(n):
            assert stereotype_characteristic_polynomial(g) == characteristic_polynomial(
                adjacency_matrix(g)
            )

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_matches_adjacency_route_random(self, n):
        for seed in range(3):
            g = gen_random(n, seed)
            assert stereotype_characteristic_polynomial(g) == characteristic_polynomial(
                adjacency_matrix(g)
            )


def first_four(coefficients: tuple[int, ...]) -> tuple[int, ...]:
    """c0..c3 of a coefficient tuple, 0 past its degree."""
    return (coefficients + (0, 0, 0))[:4]


class TestLeadingCharacteristicCoefficients:
    """c0..c3 from one truncated Berkowitz pass on g's own Seidel matrix,
    against the full polynomial and the Bareiss-and-interpolation oracle
    on the 2n x 2n adjacency matrix."""

    def test_every_graph_with_up_to_six_pairs(self):
        # The oracles run once per switching class, on the adjacency
        # matrix of its normalised pattern, which is isomorphic to g.
        expected = {}
        for n in range(1, 7):
            for g in enumerate_all(n):
                rep = switching_representative(g)
                if rep not in expected:
                    a = adjacency_matrix(rep)
                    full = first_four(characteristic_polynomial(a).coefficients)
                    assert full == first_four(interpolated_characteristic_polynomial(a))
                    expected[rep] = full
                assert leading_characteristic_coefficients(g) == expected[rep], g.bits

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_graphs(self, n):
        # The interpolation oracle takes about 12 s over n <= 24 on a
        # 2-vCPU x86-64 host and 1.3 s over n <= 16; past 16 pairs the
        # full polynomial stands in, and the 24-pair head is pinned to
        # the oracle's recorded value in the next test.
        for seed in range(3):
            g = gen_random(n, seed)
            a = adjacency_matrix(g)
            head = leading_characteristic_coefficients(g)
            assert head == first_four(characteristic_polynomial(a).coefficients)
            if n <= 16:
                assert head == first_four(interpolated_characteristic_polynomial(a))

    def test_pinned_random_graph_at_24_pairs(self):
        assert leading_characteristic_coefficients(gen_random(24, 0)) == CHARPOLY_RANDOM_24[:4]

    def test_identities_at_96_pairs(self):
        # Out of the full polynomial's reach here (seconds), in reach of
        # c0..c3 (milliseconds): each XOR-0 pair triple holds two triangles.
        g = gen_random(96, 0)
        c0, c1, c2, c3 = leading_characteristic_coefficients(g)
        assert (c0, c1, c2) == (1, 0, -96 * 96)
        assert c3 == -4 * len(triangle_pair_triples(g))
        assert c3 < 0


class TestInterpolation:
    def test_recovers_integer_polynomial(self):
        # 3x^3 - 7x + 2 from its values at 0..3, plus a zero leading term.
        poly = (0, 3, 0, -7, 2)
        points = [(x, 3 * x**3 - 7 * x + 2) for x in range(len(poly))]
        assert interpolate_integer_polynomial(points).coefficients == poly

    def test_non_integral_coefficients_raise(self):
        # Values of x(x-1)/2: integer-valued, but not an integer polynomial.
        with pytest.raises(InternalInvariant):
            interpolate_integer_polynomial([(0, 0), (1, 0), (2, 1)])

    def test_nodes_must_be_zero_to_d(self):
        with pytest.raises(ValueError):
            interpolate_integer_polynomial([(1, 1), (2, 4)])


class TestBareiss:
    def test_zero_pivot_handled(self):
        m = ((0, 1), (1, 0))
        assert bareiss_determinant(m) == -1

    def test_singular(self):
        m = ((1, 2), (2, 4))
        assert bareiss_determinant(m) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_matches_laplace_oracle(self, rows):
        m = tuple(tuple(r) for r in rows)
        assert bareiss_determinant(m) == laplace_determinant(m)


class TestCoefficientIdentities:
    def test_crossed_three_pairs(self, k33):
        report = coefficient_identities(k33)
        assert report.c3 == 0
        assert report.triangle_count == 0
        assert report.all_hold

    def test_ladder_three_pairs(self, kl3):
        report = coefficient_identities(kl3)
        assert report.c3 == -4
        assert report.triangle_count == 2
        assert report.c3 // 4 == -1
        assert report.all_hold

    def test_exhaustive_four_pairs(self, all_st4):
        for g in all_st4:
            assert coefficient_identities(g).all_hold

    def test_single_pair_rejected(self):
        # Not rejected: K2 has c0..c3 = (1, 0, -1, 0) and no triangle.
        report = coefficient_identities(from_pattern(1, []))
        assert (report.c0, report.c1, report.c2, report.c3) == (1, 0, -1, 0)
        assert report.triangle_count == 0
        assert report.all_hold


class TestMatrixCriterion:
    def test_four_cycle_identity_by_hand(self, k22):
        a = adjacency_matrix(k22)
        lhs = tuple(
            tuple(
                sum(a[i][t] * a[t][j] for t in range(4)) + 2 * a[i][j]
                for j in range(4)
            )
            for i in range(4)
        )
        assert lhs == tuple(tuple(2 for _ in range(4)) for _ in range(4))
        assert matrix_criterion(k22)

    def test_ladder_fails(self, kl3):
        assert not matrix_criterion(kl3)

    def test_agreement_with_merge_verdict(self, all_st4):
        for g in all_st4:
            assert matrix_criterion(g) == reduce_to_k2(g).stable


def k33_graph():
    return Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _mask_and_oracle_graphs():
    yield from (g for n in (2, 3, 4, 5) for g in enumerate_all(n))
    yield from (gen_random(n, s) for n in range(6, 13) for s in range(4))


class TestQuadraticIdentityOnMasks:
    """The bitmask identity check against dense products of A."""

    def test_criteria_match_dense_oracle(self):
        checked = 0
        for g in _mask_and_oracle_graphs():
            a = adjacency_matrix(g)
            dense = dense_quadratic_identity_holds(a, g.n, 0, g.n)
            assert matrix_criterion(g) == dense, g.bits
            params = srg_check(g)
            assert (params is not None) == dense, g.bits
            if params is not None:
                assert srg_identity_holds(a, *params)
            checked += 1
        assert checked == 2 + 8 + 64 + 1024 + 7 * 4

    @pytest.mark.parametrize(
        "graph, coeffs",
        [
            (cycle_graph(5), (1, 1, 1)),
            (petersen_graph(), (1, 2, 1)),
            (k33_graph(), (3, 0, 3)),
        ],
        ids=["C5", "Petersen", "K33"],
    )
    def test_strongly_regular_identities_hold(self, graph, coeffs):
        assert _quadratic_identity_holds(graph, *coeffs)
        assert dense_quadratic_identity_holds(adjacency_matrix(graph), *coeffs)

    @pytest.mark.parametrize(
        "graph, coeffs",
        [
            # Off only on adjacent entries: 0 + 2 != 1.
            (cycle_graph(5), (2, 1, 1)),
            # Off only on the diagonal: 2 != 0 + 1.
            (cycle_graph(5), (1, 0, 1)),
            # Off only on the antipodal non-adjacent entries: 0 != 1.
            (cycle_graph(6), (1, 1, 1)),
        ],
        ids=["C5-adjacent", "C5-diagonal", "C6-antipodal"],
    )
    def test_single_kind_of_entry_mismatch_detected(self, graph, coeffs):
        assert not _quadratic_identity_holds(graph, *coeffs)
        assert not dense_quadratic_identity_holds(adjacency_matrix(graph), *coeffs)

    @settings(max_examples=150, deadline=None)
    @given(
        graph=general_graphs(min_vertices=0, max_vertices=10),
        a=st.integers(min_value=-3, max_value=3),
        i=st.integers(min_value=-3, max_value=3),
        j=st.integers(min_value=-3, max_value=3),
    )
    def test_matches_dense_oracle_on_general_graphs(self, graph, a, i, j):
        assert _quadratic_identity_holds(graph, a, i, j) == dense_quadratic_identity_holds(
            adjacency_matrix(graph), a, i, j
        )


class TestCharacteristicCriterion:
    def test_examples(self, k33, kl3):
        assert characteristic_criterion(k33)
        assert not characteristic_criterion(kl3)
        assert characteristic_criterion(from_pattern(2, [1]))

    def test_triangle_count_from_coefficient(self, all_st4):
        for g in all_st4:
            poly = characteristic_polynomial(adjacency_matrix(g))
            assert -poly.coefficient(3) // 2 == g.graph.triangle_count()


class TestSrg:
    def test_crossed_three_pairs(self, k33):
        assert srg_check(k33) == (6, 3, 0, 3)

    def test_ladder_absent(self, kl3):
        assert srg_check(kl3) is None

    def test_two_pairs(self, k22):
        assert srg_check(k22) == (4, 2, 0, 2)

    def test_identity_holds_when_present(self, all_st4):
        for g in all_st4:
            params = srg_check(g)
            assert (params is not None) == reduce_to_k2(g).stable
            if params is not None:
                assert srg_identity_holds(adjacency_matrix(g), *params)


class TestMinorCriterion:
    def test_examples(self, k33, kl3):
        assert minor_criterion(k33)
        assert not minor_criterion(kl3)

    def test_equivalent_to_girth_four(self, all_st4):
        for g in all_st4:
            assert minor_criterion(g) == (g.graph.girth() == 4)

    def test_stops_at_the_first_triangle(self, monkeypatch):
        # The criterion asks only whether a triangle exists; it never
        # lists them all.
        listings = []
        triangles = Graph.triangles
        monkeypatch.setattr(
            Graph, "triangles", lambda graph: listings.append(graph) or triangles(graph)
        )
        graphs = [g for n in range(1, 5) for g in enumerate_all(n)] + [gen_random(12, 0)]
        for g in graphs:
            assert minor_criterion(g) == (g.graph.girth() != 3)
        assert listings == []

    def test_matches_principal_submatrix_extraction(self, all_st3):
        # The criterion is implemented as a triangle search; confirm the
        # minor reading by extracting every 3x3 principal submatrix.
        for g in all_st3:
            a = adjacency_matrix(g)
            has_minor = any(
                principal_submatrix(a, idx) == TRIANGLE_MINOR
                for idx in itertools.combinations(range(len(a)), 3)
            )
            assert minor_criterion(g) == (not has_minor)
            assert laplace_determinant(TRIANGLE_MINOR) == 2
