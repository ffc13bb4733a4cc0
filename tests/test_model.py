"""Core model: construction, validation, profiles, recognizers."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    edge_list,
    rowwise_row_fault,
    setwise_validate_stereotype,
    trace_triangle_count,
)
from test_chromatic import general_graphs
from stereograph.spectral import adjacency_matrix
from stereograph import (
    DomainError,
    InternalInvariant,
    LengthMismatch,
    NotAStereotypeGraph,
    StereotypeGraph,
    basic_profile,
    enumerate_all,
    find_isomorphism,
    from_edge_list,
    from_pattern,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    graph_isomorphic,
    pattern_of,
    recognize_complete_bipartite,
    recognize_complete_ladder,
    splitmix64_stream,
    triangle_pair_triples,
    validate_stereotype,
)
from stereograph import graphs, model
from stereograph.graphs import Graph, normalize_edge
from stereograph.model import (
    parse_vertex_name,
    pattern_length,
    pattern_slot,
    restrict_pairs,
    vertex_id,
    vertex_name,
    vertex_pair_side,
)


def pattern_bits(n, max_n=6):
    return st.lists(
        st.integers(min_value=0, max_value=1),
        min_size=pattern_length(n),
        max_size=pattern_length(n),
    )


@st.composite
def patterns(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return from_pattern(n, draw(pattern_bits(n)))


class TestVertexEncoding:
    def test_dense_ids_cover_range_once(self):
        n = 5
        ids = [vertex_id(i, p) for i in range(1, n + 1) for p in (1, 2)]
        assert sorted(ids) == list(range(2 * n))

    def test_round_trip(self):
        for v in range(20):
            pair, side = vertex_pair_side(v)
            assert vertex_id(pair, side) == v
            assert parse_vertex_name(vertex_name(v)) == v

    @pytest.mark.parametrize(
        "pair, side, message",
        [
            (1.0, 1, "pair index must be a positive int, got 1.0"),
            (True, 1, "pair index must be a positive int, got True"),
            (0, 1, "pair index must be a positive int, got 0"),
            (1, 1.0, "side must be the int 1 or 2, got 1.0"),
            (1, True, "side must be the int 1 or 2, got True"),
            (1, 3, "side must be the int 1 or 2, got 3"),
        ],
    )
    def test_non_int_vertex_id_rejected(self, pair, side, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            vertex_id(pair, side)

    @pytest.mark.parametrize("v", [1.5, 1.0, True, False, -1, "1", None])
    def test_non_int_vertex_rejected(self, v):
        message = f"vertex id must be a non-negative int, got {v!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            vertex_pair_side(v)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            vertex_name(v)

    @pytest.mark.parametrize(
        "bad",
        ["u3.1", "u1", "v1.1", "u1.0", "u1.x", "", 5, None, ["u1.1"], "u1.\u00b2",
         "u1.01", "u01.1", "u1.\u0661", "u1.1\n", " u1.1", "u1.+1", "u1." + "9" * 5000],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(DomainError):
            parse_vertex_name(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_written_name_parses_back(self, v):
        assert parse_vertex_name(vertex_name(v)) == v

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="u.0129\u00b2\u0661\uff11 +-_\n", max_size=8),
            st.from_regex(r"u[0-9]{1,2}\.[0-9]{1,3}", fullmatch=True),
        )
    )
    def test_only_written_names_parse(self, name):
        # Canonical or rejected: a name that parses is the one vertex_name
        # writes for that vertex.
        try:
            v = parse_vertex_name(name)
        except DomainError:
            return
        assert vertex_name(v) == name


class TestFromPattern:
    def test_two_pairs_parallel_is_a_four_cycle(self, k22):
        # u1.1-u2.1-u2.2-u1.2-u1.1
        expected = {(0, 1), (2, 3), (0, 2), (1, 3)}
        assert set(k22.graph.edges) == expected

    def test_single_pair_is_one_edge(self):
        g = from_pattern(1, [])
        assert set(g.graph.edges) == {(0, 1)}

    def test_all_zero_three_pairs_matches_ladder_construction(self):
        g = from_pattern(3, [0, 0, 0])
        side1 = [vertex_id(i, 1) for i in range(1, 4)]
        side2 = [vertex_id(i, 2) for i in range(1, 4)]
        expected = {normalize_edge(u, v) for u, v in itertools.combinations(side1, 2)}
        expected |= {normalize_edge(u, v) for u, v in itertools.combinations(side2, 2)}
        expected |= {normalize_edge(a, b) for a, b in zip(side1, side2)}
        assert set(g.graph.edges) == expected
        assert g.bits == gen_complete_ladder(3).bits

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            from_pattern(3, [0, 1])

    def test_non_bit_rejected(self):
        with pytest.raises(DomainError):
            from_pattern(2, [2])

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0])
    def test_non_int_bit_rejected(self, bit):
        # Equal to 0/1 but not the canonical int, so it would serialize back
        # as itself.
        with pytest.raises(DomainError):
            from_pattern(2, [bit])
        with pytest.raises(DomainError):
            StereotypeGraph(3, (0, bit, 0))

    def test_bits_stored_as_tuple(self):
        # The constructor takes a tuple of rows and nothing else, so a
        # stale call with a list of bits fails loudly; from_pattern takes
        # any sequence of bits and derives them back as a tuple.
        with pytest.raises(TypeError, match="from_pattern"):
            StereotypeGraph(3, [0, 1, 0])
        g = from_pattern(3, [0, 1, 0])
        assert type(g.rows) is tuple and type(g.bits) is tuple
        assert g.bits == (0, 1, 0)
        assert g == StereotypeGraph(3, g.rows)
        assert hash(g) == hash(StereotypeGraph(3, g.rows))

    @pytest.mark.parametrize("n, bits", [(2.0, [1]), (True, [])])
    def test_non_int_pair_count_rejected(self, n, bits):
        # 2.0 and True compare equal to 2 and 1, but .graph and the JSON
        # writer need the int.
        with pytest.raises(DomainError):
            from_pattern(n, bits)

    @pytest.mark.parametrize(
        "i, j", [(1.0, 2.0), (1.0, 2), (True, 2), (1, 2.0), (2, True), ("1", 2), (None, 2)]
    )
    def test_non_int_pair_indices_rejected(self, i, j):
        # 1.0 and True compare equal to 1: pattern_slot(3, 1.0, 2.0) was
        # 0.0 and bit(True, 2) read pair 1.
        message = f"pair indices must be ints, got ({i!r}, {j!r})"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            pattern_slot(3, i, j)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gen_complete_ladder(3).bit(i, j)


class TestFromEdgeList:
    def test_forced_two_pair_graph(self):
        edges = [(0, 1), (2, 3), (0, 2), (1, 3)]
        assert from_edge_list(2, edges).bits == (0,)

    def test_shared_cross_vertex_is_rejected(self):
        # Both cross edges leave u1.1, closing a triangle with the in-pair
        # edge of pair 2: the classic inconsistent wiring.
        edges = [(0, 1), (2, 3), (0, 2), (0, 3)]
        with pytest.raises(NotAStereotypeGraph) as err:
            from_edge_list(2, edges)
        assert err.value.clause == "pair-pair-four-cycle"
        assert err.value.witness[0:2] == (1, 2)

    def test_full_ladder_edge_set(self, kl3):
        rebuilt = from_edge_list(3, kl3.graph.sorted_edges())
        assert rebuilt.bits == (0, 0, 0)

    def test_missing_in_pair_edge(self):
        edges = [(0, 1), (0, 2), (1, 3)]
        with pytest.raises(NotAStereotypeGraph) as err:
            from_edge_list(2, edges)
        assert err.value.clause == "in-pair-edge"
        assert err.value.witness == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DomainError):
            from_edge_list(2, [(0, 1), (1, 0), (2, 3), (0, 2), (1, 3)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_accepts_exactly_the_pattern_family(self, n):
        for g in enumerate_all(n):
            assert from_edge_list(n, g.graph.sorted_edges()).bits == g.bits

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_int_pair_count_rejected(self, n):
        with pytest.raises(DomainError):
            from_edge_list(n, [(0, 1), (2, 3), (0, 2), (1, 3)])
        with pytest.raises(DomainError):
            from_edge_list(n, [(0, 1)])

    def test_extra_edge_rejected(self, k33):
        edges = k33.graph.sorted_edges() + [(0, 2)]
        with pytest.raises(NotAStereotypeGraph):
            from_edge_list(3, edges)


def assert_agrees_with_validator(n, edges, source=None):
    """from_edge_list accepts exactly what validate_stereotype calls
    valid, names the first clause it fails, and reads back the pattern."""
    report = validate_stereotype(Graph.from_edges(2 * n, frozenset(edges)))
    checks = {c.name: c for c in report.checks}
    try:
        g = from_edge_list(n, sorted(edges))
    except NotAStereotypeGraph as err:
        assert not report.valid
        if not checks["in-pair-edges"].passed:
            assert err.clause == "in-pair-edge"
            assert err.witness == checks["in-pair-edges"].witness
        else:
            assert err.clause == "pair-pair-four-cycle"
            assert err.witness[:2] == checks["pair-pair-four-cycles"].witness
            i, j, cross = err.witness
            expected = [(a, b) for a, b in sorted(edges) if a // 2 == i - 1 and b // 2 == j - 1]
            assert cross == expected
        return
    assert report.valid
    assert g.graph.edges == frozenset(edges)
    if source is not None:
        assert g.bits == source.bits


class TestAgreementWithValidator:
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_edge_subset(self, n):
        pairs = list(itertools.combinations(range(2 * n), 2))
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                assert_agrees_with_validator(n, set(edges))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=3, max_value=6))
    def test_one_edge_toggled(self, data, n):
        g = from_pattern(n, data.draw(pattern_bits(n)))
        toggled = data.draw(st.sampled_from(list(itertools.combinations(range(2 * n), 2))))
        assert_agrees_with_validator(n, set(g.graph.edges), source=g)
        assert_agrees_with_validator(n, set(g.graph.edges ^ {toggled}))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pattern_round_trip_exhaustive(self, n):
        for g in enumerate_all(n):
            assert pattern_of(from_pattern(n, pattern_of(g))) == g.bits

    @settings(max_examples=60, deadline=None)
    @given(bits=pattern_bits(6))
    def test_pattern_round_trip_six_pairs(self, bits):
        g = from_pattern(6, bits)
        assert pattern_of(g) == tuple(bits)
        assert from_edge_list(6, g.graph.sorted_edges()).bits == tuple(bits)

    @settings(max_examples=80, deadline=None)
    @given(g=patterns())
    def test_edge_list_round_trip(self, g):
        assert from_edge_list(g.n, edge_list(g)) == g

    @settings(max_examples=40, deadline=None)
    @given(g=patterns())
    def test_validation_accepts_graph_and_rejects_each_edge_deletion(self, g):
        assert validate_stereotype(g.graph).valid
        for e in edge_list(g):
            assert not validate_stereotype(g.graph.delete_edges([e])).valid


class TestBitmasks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_agree_with_bit(self, n):
        for g in enumerate_all(n):
            assert len(g.rows) == n
            for i in range(1, n + 1):
                row = g.rows[i - 1]
                assert row >> n == 0
                assert row >> (i - 1) & 1 == 0
                for j in range(1, n + 1):
                    if j != i:
                        assert row >> (j - 1) & 1 == g.bit(i, j), (g.bits, i, j)

    @settings(max_examples=150, deadline=None)
    @given(g=patterns(max_n=24))
    def test_graph_masks_agree_with_edge_list(self, g):
        """The masks built from the rows, and the edge set derived from
        them, are those of the edges written out from the definition."""
        oracle = Graph.from_edges(g.vertex_count, edge_list(g))
        assert g.graph.masks == oracle.masks
        assert g.graph.edges == frozenset(edge_list(g))
        assert Graph.from_edges(g.vertex_count, g.graph.edges) == g.graph

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_graph_masks_agree_with_neighbors(self, n):
        """neighbors is a view of masks, so both are checked against the
        edge set itself (general graphs: test_graphs.TestNeighbourViews)."""
        for g in enumerate_all(n):
            graph = g.graph
            for v in range(graph.vertex_count):
                expected = {w for e in graph.edges if v in e for w in e if w != v}
                assert graph.masks[v] == sum(1 << w for w in expected)
                assert graph.neighbors(v) == expected


class TestRows:
    """The rows are the stored form; the bits are derived from them."""

    @settings(max_examples=200, deadline=None)
    @given(g=patterns(max_n=12))
    def test_rows_and_bits_build_the_same_graph(self, g):
        by_rows = StereotypeGraph(g.n, g.rows)
        by_bits = from_pattern(g.n, g.bits)
        assert by_rows == by_bits == g
        assert hash(by_rows) == hash(by_bits) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(g=patterns(max_n=12))
    def test_rows_are_symmetric_with_a_zero_diagonal(self, g):
        for i, row in enumerate(g.rows):
            assert row >> i & 1 == 0
            assert row >> g.n == 0
            for j, other in enumerate(g.rows):
                assert row >> j & 1 == other >> i & 1

    @settings(max_examples=200, deadline=None)
    @given(g=patterns(max_n=12), data=st.data())
    def test_each_broken_row_is_rejected(self, g, data):
        n, rows = g.n, g.rows
        i = data.draw(st.integers(min_value=0, max_value=n - 1), label="row")

        def with_row(row):
            return rows[:i] + (row,) + rows[i + 1 :]

        broken = [rows[i] | 1 << i, rows[i] | 1 << n, True, False]
        if n >= 2:
            j = data.draw(st.sampled_from([j for j in range(n) if j != i]), label="column")
            broken.append(rows[i] ^ 1 << j)
        for row in broken:
            with pytest.raises(DomainError):
                StereotypeGraph(n, with_row(row))

    @pytest.mark.parametrize(
        "n, rows, error",
        [
            (3, [0, 1, 0], TypeError),
            (3, (0, 1, 0), DomainError),
            (2, (0,), LengthMismatch),
            (2, (0, 1, 0), LengthMismatch),
            (2, (-1, 0), DomainError),
            (2, (2.0, 1), DomainError),
        ],
    )
    def test_constructor_rejects(self, n, rows, error):
        with pytest.raises(error):
            StereotypeGraph(n, rows)

    @pytest.mark.parametrize("n", [*range(2, 41), 300])
    def test_one_flipped_bit_names_its_pair(self, n):
        """The packed symmetry test rejects one flipped off-diagonal bit
        of random rows with the row scan's message, which names the pair."""
        rows = gen_random(n, n).rows
        stream = splitmix64_stream(n)
        for _ in range(12 if n < 100 else 3):
            i = next(stream) % n
            j = (i + 1 + next(stream) % (n - 1)) % n
            broken = rows[:i] + (rows[i] ^ 1 << j,) + rows[i + 1 :]
            message = rowwise_row_fault(n, broken)
            assert message == f"row {max(i, j)} is not symmetric with row {min(i, j)}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                StereotypeGraph(n, broken)

    @settings(max_examples=300, deadline=None)
    @given(g=patterns(max_n=20), data=st.data())
    def test_first_fault_matches_the_row_scan(self, g, data):
        """Several flipped bits and at most one bad row: the constructor
        raises the row scan's first fault, or accepts what it accepts."""
        n, rows = g.n, list(g.rows)
        for i, j in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4),
            label="flips",
        ):
            rows[i] ^= 1 << j
        if data.draw(st.booleans(), label="bad row"):
            i = data.draw(st.integers(0, n - 1), label="row")
            rows[i] = data.draw(st.sampled_from([-1, 1 << n, True, 1.0, rows[i] | 1 << i]))
        rows = tuple(rows)
        message = rowwise_row_fault(n, rows)
        if message is None:
            assert StereotypeGraph(n, rows).rows == rows
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                StereotypeGraph(n, rows)

    def test_packed_test_failing_symmetric_rows_raises(self, monkeypatch):
        monkeypatch.setattr(model, "_is_symmetric", lambda rows: False)
        with pytest.raises(InternalInvariant, match="packed symmetry test"):
            StereotypeGraph(3, gen_complete_bipartite(3).rows)

    def test_extreme_classes_at_larger_sizes(self):
        for n in (7, 8, 9, 17):
            for g in (gen_complete_bipartite(n), gen_complete_ladder(n)):
                assert StereotypeGraph(n, g.rows) == from_pattern(n, g.bits) == g
            full = (1 << n) - 1
            assert gen_complete_bipartite(n).rows == tuple(full ^ 1 << i for i in range(n))


class TestValidation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_setwise_oracle_after_one_edge_change(self, n):
        """Whole reports, checks and witnesses, on every graph with one
        vertex pair toggled: one edge deleted or one added."""
        for g in enumerate_all(n):
            edges = g.graph.edges
            assert validate_stereotype(g.graph) == setwise_validate_stereotype(g.graph)
            for e in itertools.combinations(range(2 * n), 2):
                perturbed = Graph.from_edges(2 * n, edges ^ {e})
                assert validate_stereotype(perturbed) == setwise_validate_stereotype(perturbed), e

    @settings(max_examples=300, deadline=None)
    @given(graph=general_graphs(min_vertices=1, max_vertices=10))
    def test_matches_setwise_oracle_on_general_graphs(self, graph):
        assert validate_stereotype(graph) == setwise_validate_stereotype(graph)

    def test_valid_patterns_pass_all_checks(self, k22, k33, kl4):
        for g in (k22, k33, kl4):
            report = validate_stereotype(g.graph)
            assert report.valid
            assert not report.failed()

    def test_missing_in_pair_edge_detected(self):
        g = from_pattern(2, [0])
        broken = Graph.from_edges(4, g.graph.edges - {(2, 3)})
        report = validate_stereotype(broken)
        assert not report.valid
        names = {c.name for c in report.failed()}
        assert "in-pair-edges" in names
        witness = next(c.witness for c in report.failed() if c.name == "in-pair-edges")
        assert witness == 2

    def test_odd_vertex_count_fails_pair_structure(self):
        report = validate_stereotype(Graph.from_edges(3, frozenset({(0, 1)})))
        assert not report.valid
        assert report.checks[0].name == "pair-structure"
        assert not report.checks[0].passed

    @pytest.mark.parametrize(
        "removed, added, witness, cross",
        [
            # Both vertices of pair 2 pass toward pair 5, but u1.5 has
            # three quad neighbours; pair (3, 4) also fails, later.
            ([(3, 9), (4, 6)], [(3, 8)], (2, 5), [(2, 8), (3, 8)]),
            # u1.4 meets both vertices of pair 2, so pair 4's side fails
            # toward pair 2; u1.2 meets both of pair 5, so pair 2's side
            # fails toward pair 5.
            ([(3, 7), (3, 9)], [(3, 6), (2, 9)], (2, 4), [(2, 6), (3, 6)]),
            # The same two failures with the sides swapped.
            ([(3, 7), (3, 9)], [(2, 7), (3, 8)], (2, 4), [(2, 6), (2, 7)]),
        ],
    )
    def test_first_failing_pair_seen_from_either_side(self, removed, added, witness, cross):
        """The lexicographically first failing pair of pairs, whether a
        vertex of the first pair or of the second breaks the 4-cycle."""
        edges = gen_complete_ladder(5).graph.edges - set(removed) | set(added)
        graph = Graph.from_edges(10, edges)
        report = validate_stereotype(graph)
        assert report == setwise_validate_stereotype(graph)
        checks = {c.name: c for c in report.checks}
        assert checks["in-pair-edges"].passed
        assert checks["pair-pair-four-cycles"].witness == witness
        with pytest.raises(NotAStereotypeGraph) as err:
            from_edge_list(5, sorted(edges))
        assert err.value.clause == "pair-pair-four-cycle"
        assert err.value.witness == (*witness, cross)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_derived_properties_exhaustive(self, n):
        for g in enumerate_all(n):
            profile = basic_profile(g)
            assert profile.order == 2 * n
            assert profile.size == n * n
            assert set(g.graph.degrees()) == {n}
            assert profile.connected
            assert profile.diameter == 2
            assert profile.girth in (3, 4)


class TestTriangleStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_xor_rule_matches_explicit_enumeration(self, n):
        for g in enumerate_all(n):
            explicit = g.graph.triangle_count()
            assert explicit % 2 == 0
            assert explicit == 2 * len(triangle_pair_triples(g))

    def test_triangle_count_matches_trace_oracle(self, all_st4):
        for g in all_st4:
            assert g.graph.triangle_count() == trace_triangle_count(
                adjacency_matrix(g)
            )


class TestProfiles:
    def test_all_crossed_three_pairs(self, k33):
        profile = basic_profile(k33)
        assert profile.girth == 4
        assert profile.triangle_count == 0

    def test_ladder_three_pairs(self, kl3):
        profile = basic_profile(kl3)
        assert profile.girth == 3
        assert profile.triangle_count == 2

    def test_single_pair(self):
        profile = basic_profile(from_pattern(1, []))
        assert profile.girth is None
        assert profile.diameter == 1


class TestIsomorphism:
    def test_both_two_pair_graphs_are_four_cycles(self, k22, k22_crossed):
        assert graph_isomorphic(k22.graph, k22_crossed.graph)

    def test_ladder_and_bipartite_differ(self, kl3, k33):
        assert not graph_isomorphic(kl3.graph, k33.graph)

    def test_self_isomorphism_witness(self, kl4):
        mapping = find_isomorphism(kl4.graph, kl4.graph)
        assert mapping is not None
        image = {
            normalize_edge(mapping[u], mapping[v]) for u, v in kl4.graph.edges
        }
        assert image == set(kl4.graph.edges)

    def test_failed_self_check_raises(self, kl4, monkeypatch):
        monkeypatch.setattr(graphs, "_mapping_preserves_edges", lambda *args: False)
        with pytest.raises(InternalInvariant):
            find_isomorphism(kl4.graph, kl4.graph)

    def test_symmetry_on_family(self, all_st3):
        for g1, g2 in itertools.combinations(all_st3, 2):
            assert graph_isomorphic(g1.graph, g2.graph) == graph_isomorphic(
                g2.graph, g1.graph
            )


class TestRecognizers:
    def test_all_crossed_is_complete_bipartite(self, k33):
        assert recognize_complete_bipartite(k33)

    def test_ladder_is_not_complete_bipartite(self, kl3):
        assert not recognize_complete_bipartite(kl3)

    @pytest.mark.parametrize("bits", [(0,), (1,)])
    def test_two_pairs_always_both(self, bits):
        g = from_pattern(2, list(bits))
        assert recognize_complete_bipartite(g)
        assert recognize_complete_ladder(g)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_all_zero_pattern_is_a_ladder(self, n):
        assert recognize_complete_ladder(gen_complete_ladder(n))

    def test_all_crossed_is_not_a_ladder(self, k33):
        assert not recognize_complete_ladder(k33)

    def test_recognizers_agree_with_isomorphism(self):
        # Every graph on 1..6 pairs; the recognizers read the switching
        # representative, isomorphism reads the graph.
        for n in range(1, 7):
            knn = gen_complete_bipartite(n).graph
            ladder = gen_complete_ladder(n).graph
            for g in enumerate_all(n):
                assert recognize_complete_bipartite(g) == graph_isomorphic(g.graph, knn), g
                assert recognize_complete_ladder(g) == graph_isomorphic(g.graph, ladder), g


class TestRestrictPairs:
    def test_prefix_of_ladder_is_ladder(self, kl4):
        assert restrict_pairs(kl4, 3).bits == (0, 0, 0)

    def test_bad_prefix_rejected(self, kl4):
        with pytest.raises(DomainError):
            restrict_pairs(kl4, 5)

    @pytest.mark.parametrize("m", [2.0, True, 0, 5, "2", None])
    def test_prefix_length_must_be_an_int_in_range(self, kl4, m):
        message = f"need 1 <= m <= 4, got {m!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            restrict_pairs(kl4, m)
