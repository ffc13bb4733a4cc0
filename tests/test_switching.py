"""Metamorphic properties: relabelling pairs and Seidel switching (swapping
the two sides of a pair) are graph isomorphisms, so every verdict,
index and polynomial must come out unchanged. The census counts a
whole switching orbit by one representative on exactly this premise."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import patterns
from stereograph import (
    chromatic_number,
    chromatic_polynomial,
    chromatically_bipartite_criterion,
    enumerate_all,
    from_pattern,
    leading_characteristic_coefficients,
    leading_chromatic_coefficients,
    recognize_complete_bipartite,
    recognize_complete_ladder,
    stability_report,
    stereotype_characteristic_polynomial,
    switching_representative,
)
from stereograph.chromatic import (
    _chromatic_polynomial_cached,
    _compute_stability_report,
    _stability_report_cached,
)
from stereograph.graphs import normalize_edge
from stereograph.model import pattern_length, pattern_slot
from stereograph.spectral import characteristic_polynomial


def _pair_pairs(n):
    return itertools.combinations(range(1, n + 1), 2)


def permute_pairs(g, perm):
    """Relabel pair i as pair perm[i - 1]."""
    bits = [0] * pattern_length(g.n)
    for i, j in _pair_pairs(g.n):
        a, b = sorted((perm[i - 1], perm[j - 1]))
        bits[pattern_slot(g.n, a, b)] = g.bit(i, j)
    return from_pattern(g.n, bits)


def switch_pairs(g, pairs):
    """Swap the two sides of every pair in pairs: a bit flips when exactly
    one of its two pairs is switched."""
    return from_pattern(
        g.n, [g.bit(i, j) ^ (i in pairs) ^ (j in pairs) for i, j in _pair_pairs(g.n)]
    )


def _patterns(draw, min_n, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=pattern_length(n),
            max_size=pattern_length(n),
        )
    )
    return from_pattern(n, bits)


@st.composite
def graph_and_moves(draw):
    g = _patterns(draw, 1)
    perm = draw(st.permutations(range(1, g.n + 1)))
    pair = draw(st.integers(min_value=1, max_value=g.n))
    return g, perm, pair


@st.composite
def graph_relabelling_and_switching(draw, max_n=6):
    g = _patterns(draw, 1, max_n)
    perm = draw(st.permutations(range(1, g.n + 1)))
    switched = draw(st.frozensets(st.integers(min_value=1, max_value=g.n)))
    return g, perm, switched


@st.composite
def graph_and_switched_pairs(draw):
    g = _patterns(draw, 1, max_n=7)
    switched = draw(st.frozensets(st.integers(min_value=1, max_value=g.n)))
    return g, switched


def invariants(g):
    # The report computed on g itself: stability_report would answer
    # every member of a switching class from one cache entry.
    return (
        _compute_stability_report(g),
        stereotype_characteristic_polynomial(g),
        recognize_complete_bipartite(g),
        recognize_complete_ladder(g),
    )


def test_moves_by_hand():
    g = from_pattern(3, [0, 0, 0])
    assert switch_pairs(g, {2}).bits == (1, 0, 1)
    assert switch_pairs(g, {1, 3}).bits == (1, 0, 1)
    assert permute_pairs(from_pattern(3, [1, 0, 0]), [3, 1, 2]).bits == (0, 1, 0)


@settings(max_examples=40, deadline=None)
@given(graph_and_moves())
def test_invariant_under_relabelling_and_switching(case):
    g, perm, pair = case
    expected = invariants(g)
    assert invariants(permute_pairs(g, perm)) == expected
    assert invariants(switch_pairs(g, {pair})) == expected


@settings(max_examples=30, deadline=None)
@given(graph_relabelling_and_switching())
def test_index_and_chromatic_polynomial_constant_on_switching_orbits(case):
    g, perm, switched = case
    moved = switch_pairs(permute_pairs(g, perm), switched)
    assert chromatic_number(moved.graph) == chromatic_number(g.graph)
    assert chromatic_polynomial(moved.graph) == chromatic_polynomial(g.graph)


@settings(max_examples=100, deadline=None)
@given(graph_relabelling_and_switching(max_n=24))
def test_leading_characteristic_coefficients_constant_on_switching_orbits(case):
    # c0..c3 are read from g's own rows, not from its normalised pattern.
    g, perm, switched = case
    head = leading_characteristic_coefficients(g)
    assert leading_characteristic_coefficients(permute_pairs(g, perm)) == head
    assert leading_characteristic_coefficients(switch_pairs(g, switched)) == head


@settings(max_examples=100, deadline=None)
@given(graph_relabelling_and_switching(max_n=24))
def test_leading_chromatic_coefficients_constant_on_switching_orbits(case):
    # b0..b2 are counted on g's own graph, not on its normalised pattern.
    g, perm, switched = case
    head = leading_chromatic_coefficients(g.graph)
    assert leading_chromatic_coefficients(permute_pairs(g, perm).graph) == head
    assert leading_chromatic_coefficients(switch_pairs(g, switched).graph) == head


@settings(max_examples=200, deadline=None)
@given(graph_and_switched_pairs())
def test_switching_representative_is_the_normalised_pattern(case):
    g, switched = case
    rep = switching_representative(g)
    assert rep.rows[0] == 0
    assert switching_representative(rep) == rep
    assert switching_representative(switch_pairs(g, switched)) == rep


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_switching_representative_is_g_with_the_pairs_crossed_to_pair_one_swapped(g):
    crossed = {i for i in range(2, g.n + 1) if g.bit(1, i)}

    def swap(v):
        # Pair v // 2 + 1 holds the vertices v and v ^ 1.
        return v ^ 1 if v // 2 + 1 in crossed else v

    swapped = {normalize_edge(swap(u), swap(v)) for u, v in g.graph.edges}
    assert swapped == set(switching_representative(g).graph.edges)


def test_polynomial_caches_hold_one_entry_per_switching_class():
    # The 1024 graphs on 5 pairs fall into 2^C(4,2) = 64 switching classes.
    # The characteristic polynomial is keyed on each class's normalised
    # pattern, and the report itself is computed once per class. No
    # criterion, nor the uncached report body, reads the whole chromatic
    # polynomial: they count b0..b2 directly.
    graphs = list(enumerate_all(5))
    characteristic_polynomial.cache_clear()
    _chromatic_polynomial_cached.cache_clear()
    for g in graphs:
        stereotype_characteristic_polynomial(g)
        chromatically_bipartite_criterion(g)
        _compute_stability_report(g)
    assert characteristic_polynomial.cache_info().misses == 64
    assert _chromatic_polynomial_cached.cache_info().misses == 0
    _stability_report_cached.cache_clear()
    for g in graphs:
        stability_report(g)
    report_cache = _stability_report_cached.cache_info()
    assert (report_cache.misses, report_cache.hits) == (64, 960)
