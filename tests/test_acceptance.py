"""Acceptance suite: every release criterion, exact tolerances.

Each test prints one "criterion N PASS" line (run with -s to see them);
a failing assertion is the corresponding FAIL. Everything here is
property-based and exhaustive at desk scale; nothing is approximate.
"""

import time
from math import comb

import pytest

from oracles import (
    char_matrix_at,
    deletion_contraction_coefficients,
    enumerate_coloring_count,
    laplace_determinant,
    mat_mul,
    ones_matrix,
)
from stereograph import (
    adjacency_matrix,
    build_with_csi,
    characteristic_polynomial,
    check_order_invariance,
    chromatic_number,
    chromatic_polynomial,
    constructive_pair_coloring,
    count_proper_colorings,
    delete_edges,
    enumerate_all,
    from_pattern,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    graph_isomorphic,
    restrict_pairs,
    splitmix64_stream,
    srg_check,
    stability_report,
    validate_stereotype,
)

CRITERIA_SWEEP_SECONDS = 300
CHI_SWEEP_SECONDS = 600


@pytest.fixture(scope="module")
def sweep():
    """Stability reports for every graph on 2..5 pairs, with elapsed time."""
    started = time.monotonic()
    reports = {
        n: [(g, stability_report(g)) for g in enumerate_all(n)] for n in (2, 3, 4, 5)
    }
    return reports, time.monotonic() - started


def test_criterion_01_all_criteria_agree(sweep):
    reports, elapsed = sweep
    total = 0
    for n, rows in reports.items():
        for g, report in rows:
            total += 1
            verdicts = set(report.criteria().values())
            assert len(verdicts) == 1, (n, g.bits, report.criteria())
            assert (report.csi == 2) == verdicts.pop(), (n, g.bits)
            assert report.agreement, (n, g.bits)
    assert total == 2 + 8 + 64 + 1024
    assert elapsed < CRITERIA_SWEEP_SECONDS
    print(
        f"\ncriterion 1 PASS: eight criteria plus csi==2 agree on all {total} "
        f"graphs with 2..5 pairs ({elapsed:.1f}s)"
    )


def test_criterion_02_coefficient_identities(sweep):
    reports, _ = sweep
    checked = 0
    for n in (3, 4, 5):
        for g, _report in reports[n]:
            char = characteristic_polynomial(adjacency_matrix(g))
            c3 = char.coefficient(3)
            triangles = g.graph.triangle_count()
            assert char.coefficient(0) == 1
            assert char.coefficient(1) == 0
            assert char.coefficient(2) == -n * n
            assert c3 <= 0 and c3 % 4 == 0
            assert c3 == -2 * triangles
            chrom = chromatic_polynomial(g.graph)
            assert chrom.coefficient(0) == 1
            assert chrom.coefficient(1) == -n * n
            assert chrom.coefficient(2) == comb(n * n, 2) + c3 // 2
            checked += 1
    assert checked == 8 + 64 + 1024
    print(f"\ncriterion 2 PASS: coefficient identities exact on {checked} graphs")


def test_criterion_03_fixed_point_values():
    frozen_char = {
        (2, (0,)): (1, 0, -4, 0, 0),
        (3, (1, 1, 1)): (1, 0, -9, 0, 0, 0, 0),
        (3, (0, 0, 0)): (1, 0, -9, -4, 12, 0, 0),
    }
    for (n, bits), coefficients in frozen_char.items():
        g = from_pattern(n, list(bits))
        a = adjacency_matrix(g)
        poly = characteristic_polynomial(a)
        assert poly.coefficients == coefficients
        # Oracle recomputation: a degree-2n polynomial is pinned by 2n+1
        # Laplace-expansion determinant values.
        for x in range(2 * n + 1):
            assert poly.evaluate(x) == laplace_determinant(char_matrix_at(a, x))

    k22 = from_pattern(2, [0])
    chrom = chromatic_polynomial(k22.graph)
    assert chrom.coefficients == (1, -4, 6, -3, 0)
    assert chrom.coefficients == deletion_contraction_coefficients(k22.graph)

    kl3 = gen_complete_ladder(3)
    assert count_proper_colorings(kl3.graph, 3) == 12
    assert enumerate_coloring_count(kl3.graph, 3) == 12
    print("\ncriterion 3 PASS: frozen polynomial and count values match the oracles")


def test_criterion_04_csi_range_and_extremes(sweep):
    reports, _ = sweep
    for n in (2, 3, 4, 5):
        knn = gen_complete_bipartite(n)
        ladder = gen_complete_ladder(n)
        for g, report in reports[n]:
            assert 2 <= report.csi <= n, (n, g.bits, report.csi)
            if report.csi == 2:
                assert graph_isomorphic(g.graph, knn.graph), (n, g.bits)
            if report.csi == n:
                assert graph_isomorphic(g.graph, ladder.graph), (n, g.bits)

    started = time.monotonic()
    knn6 = gen_complete_bipartite(6)
    ladder6 = gen_complete_ladder(6)
    for g in enumerate_all(6):
        chi = chromatic_number(g.graph)
        assert 2 <= chi <= 6
        if chi == 2:
            assert graph_isomorphic(g.graph, knn6.graph)
        if chi == 6:
            assert graph_isomorphic(g.graph, ladder6.graph)
    elapsed = time.monotonic() - started
    assert elapsed < CHI_SWEEP_SECONDS

    for n in range(1, 9):
        assert chromatic_number(gen_complete_bipartite(n).graph) == 2
        if n >= 2:
            assert chromatic_number(gen_complete_ladder(n).graph) == n
    print(
        f"\ncriterion 4 PASS: index in [2, n] with unique extremes through "
        f"6 pairs ({elapsed:.1f}s for the 6-pair sweep); generators hit both "
        "extremes through 8 pairs"
    )


def test_criterion_05_constructive_completeness(sweep):
    reports, _ = sweep
    for n in range(2, 8):
        for k in range(2, n + 1):
            g = build_with_csi(n, k)
            assert validate_stereotype(g.graph).valid, (n, k)
            assert chromatic_number(g.graph) == k, (n, k)

    chi4 = {g.bits: report.csi for g, report in reports[4]}
    for g, report in reports[5]:
        base = restrict_pairs(g, 4)
        assert report.csi - chi4[base.bits] in (0, 1), g.bits
    print(
        "\ncriterion 5 PASS: every target index 2<=k<=n<=7 constructed "
        "exactly; single-pair extensions never raise the index by more than 1"
    )


def test_criterion_06_merge_order_invariance():
    checked = 0
    for n in (3, 4):
        for g in enumerate_all(n):
            assert check_order_invariance(g), (n, g.bits)
            checked += 1
    print(f"\ncriterion 6 PASS: all merge orders agree on {checked} graphs")


def test_criterion_07_regularity_and_srg_identities(sweep):
    reports, _ = sweep
    for n, rows in reports.items():
        j = ones_matrix(2 * n)
        target = tuple(tuple(n for _ in range(2 * n)) for _ in range(2 * n))
        for g, report in rows:
            a = adjacency_matrix(g)
            assert mat_mul(a, j) == target, (n, g.bits)
            assert mat_mul(j, a) == target, (n, g.bits)
            params = srg_check(g)  # verifies the quadratic identity internally
            assert (params is not None) == report.merge, (n, g.bits)
            if params is not None:
                assert params == (2 * n, n, 0, n)
    print(
        "\ncriterion 7 PASS: all-ones identity on every graph with 2..5 "
        "pairs; srg parameters and their identity exactly on the stable ones"
    )


def test_criterion_08_polynomial_matches_brute_counts():
    checked = 0
    for n in (3, 4):
        for g in enumerate_all(n):
            poly = chromatic_polynomial(g.graph)
            for x in range(5):
                assert poly.evaluate(x) == count_proper_colorings(g.graph, x), (
                    n,
                    g.bits,
                    x,
                )
            checked += 1
    print(
        f"\ncriterion 8 PASS: chromatic polynomial equals brute-force counts "
        f"for x in 0..4 on {checked} graphs"
    )


def test_criterion_09_edge_deletion_never_raises_index():
    trials = 0
    seed = 0
    while trials < 1000:
        for n in (3, 4, 5):
            g = gen_random(n, seed)
            stream = splitmix64_stream(seed ^ 0x5DEECE66D)
            removed = [e for e in g.graph.sorted_edges() if next(stream) & 1]
            smaller = delete_edges(g, removed)
            assert chromatic_number(smaller) <= chromatic_number(g.graph), (
                n,
                seed,
                removed,
            )
            trials += 1
            if trials == 1000:
                break
        seed += 1
    print("\ncriterion 9 PASS: 1000 seeded deletion trials never raised the index")


def test_criterion_10_constructive_coloring_all_five_pair_graphs(sweep):
    reports, _ = sweep
    for g, _report in reports[5]:
        coloring = constructive_pair_coloring(g)
        assert coloring.is_proper(g.graph), g.bits
        assert coloring.colors_used <= 5, g.bits
    print(
        "\ncriterion 10 PASS: the sequential pair coloring is proper with "
        "at most 5 colors on all 1024 five-pair graphs"
    )
