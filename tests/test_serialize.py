"""JSON formats, DOT export, census CSV."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereograph import (
    NotAStereotypeGraph,
    ParseError,
    census,
    from_pattern,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    reduce_to_k2,
    to_dot,
)
from stereograph.model import pattern_length, vertex_name
from stereograph.serialize import (
    census_to_csv,
    merge_steps_to_jsonable,
    raw_graph_from_dict,
)
from oracles import edge_list
from test_model import patterns


class TestJsonRoundTrip:
    def test_bit_form(self, kl3):
        doc = graph_to_dict(kl3)
        assert doc == {"format": "stereograph-v1", "n": 3, "pattern": [0, 0, 0]}
        assert graph_from_dict(doc).bits == kl3.bits

    def test_meta_block_preserved(self, kl3):
        doc = graph_to_dict(kl3, meta={"generator": "ladder", "seed": 7})
        assert doc["meta"] == {"generator": "ladder", "seed": 7}
        assert graph_from_dict(doc).bits == kl3.bits

    def test_edge_form(self):
        doc = {
            "format": "stereograph-edges-v1",
            "n": 2,
            "edges": [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u2.1", "u2.2"]],
        }
        assert graph_from_dict(doc).bits == (0,)

    def test_edge_form_full_ladder(self, kl3):
        edges = [
            [vertex_name(u), vertex_name(v)] for u, v in kl3.graph.sorted_edges()
        ]
        doc = {"format": "stereograph-edges-v1", "n": 3, "edges": edges}
        assert graph_from_dict(doc).bits == (0, 0, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_json_round_trip_random_patterns(self, n, data):
        bits = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1),
                min_size=pattern_length(n),
                max_size=pattern_length(n),
            )
        )
        g = from_pattern(n, bits)
        assert graph_from_json(graph_to_json(g)).bits == g.bits

    @settings(max_examples=80, deadline=None)
    @given(g=patterns())
    def test_bit_and_edge_forms_round_trip(self, g):
        assert graph_from_json(graph_to_json(g)) == g
        edges = [[vertex_name(u), vertex_name(v)] for u, v in edge_list(g)]
        doc = {"format": "stereograph-edges-v1", "n": g.n, "edges": edges}
        assert graph_from_json(json.dumps(doc)) == g


class TestParseErrors:
    @pytest.mark.parametrize("repeat", [["u1.1", "u1.2"], ["u1.2", "u1.1"]])
    def test_duplicate_edge_rejected_by_both_parsers(self, repeat):
        edges = [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u2.1", "u2.2"]]
        doc = {"format": "stereograph-edges-v1", "n": 2, "edges": edges + [repeat]}
        with pytest.raises(ParseError, match=r"duplicate edge \(0, 2\)"):
            graph_from_dict(doc)
        with pytest.raises(ParseError, match=r"duplicate edge \(0, 2\)"):
            raw_graph_from_dict(doc)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["u1.1", "u1.1"], r"self-loop at vertex 0"),
            (["u1.1", "u1.3"], r"edge \(0, 4\) references a vertex outside 0\.\.3"),
            (["u1.2", "u1.1"], r"duplicate edge \(0, 2\)"),
        ],
    )
    def test_malformed_edges_raise_parse_error_from_both_parsers(self, extra, message):
        edges = [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u2.1", "u2.2"]]
        doc = {"format": "stereograph-edges-v1", "n": 2, "edges": edges + [extra]}
        with pytest.raises(ParseError, match=message):
            graph_from_dict(doc)
        with pytest.raises(ParseError, match=message):
            raw_graph_from_dict(doc)

    def test_wrong_pattern_length(self):
        with pytest.raises(ParseError):
            graph_from_dict({"format": "stereograph-v1", "n": 3, "pattern": [0, 1]})

    def test_bad_bits(self):
        with pytest.raises(ParseError):
            graph_from_dict({"format": "stereograph-v1", "n": 2, "pattern": [2]})

    @pytest.mark.parametrize("pattern", ["[1.0, true, 0]", "[1, 0, false]", "[1, 0, 0.0]"])
    def test_non_int_bits(self, pattern):
        with pytest.raises(ParseError):
            graph_from_json(f'{{"format": "stereograph-v1", "n": 3, "pattern": {pattern}}}')

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            graph_from_dict({"format": "graphml", "n": 2, "pattern": [0]})

    def test_bad_n(self):
        with pytest.raises(ParseError):
            graph_from_dict({"format": "stereograph-v1", "n": 0, "pattern": []})
        with pytest.raises(ParseError):
            graph_from_dict({"format": "stereograph-v1", "n": True, "pattern": []})

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, "2", "missing"])
    @pytest.mark.parametrize("fmt", ["stereograph-v1", "stereograph-edges-v1"])
    def test_pair_count_rule(self, fmt, n):
        # The rule and message of model._check_pair_count, as ParseError.
        doc = {"format": fmt, "pattern": [0], "edges": []}
        if n != "missing":
            doc["n"] = n
        for parse in (graph_from_dict, raw_graph_from_dict):
            with pytest.raises(ParseError, match="pair count must be a positive int"):
                parse(doc)

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            graph_from_dict([1, 2, 3])

    def test_invalid_json_text(self):
        with pytest.raises(ParseError):
            graph_from_json("{not json")

    def test_bad_vertex_name(self):
        doc = {"format": "stereograph-edges-v1", "n": 1, "edges": [["u1.1", "x"]]}
        with pytest.raises(ParseError):
            graph_from_dict(doc)

    def test_edge_form_definition_violation_keeps_clause(self):
        doc = {
            "format": "stereograph-edges-v1",
            "n": 2,
            "edges": [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u1.1", "u2.2"]],
        }
        with pytest.raises(NotAStereotypeGraph) as err:
            graph_from_dict(doc)
        assert err.value.clause == "pair-pair-four-cycle"

    def test_raw_parse_permits_invalid_structures(self):
        doc = {
            "format": "stereograph-edges-v1",
            "n": 2,
            "edges": [["u1.1", "u2.1"]],
        }
        n, graph = raw_graph_from_dict(doc)
        assert n == 2
        assert len(graph.edges) == 1


class TestDot:
    def test_four_cycle_structure(self, k22):
        text = to_dot(k22)
        assert text.count('" -- "') == 4
        assert text.count("kind=pair") == 2
        assert text.count("kind=cross") == 2
        assert '"u1.1"' in text

    def test_ladder_four_counts(self, kl4):
        text = to_dot(kl4)
        assert text.count('" -- "') == 16
        assert text.count("kind=pair") == 4
        assert text.count("kind=cross") == 12

    def test_deterministic_bytes(self, kl3):
        assert to_dot(kl3) == to_dot(kl3)


class TestCsvAndTrace:
    def test_census_csv(self):
        text = census_to_csv(census(3))
        assert text == "n,k,labeled_count,iso_class_count\n3,2,4,1\n3,3,4,1\n"

    def test_merge_trace_jsonable(self, k33):
        verdict = reduce_to_k2(k33)
        trace = merge_steps_to_jsonable(verdict.steps)
        assert trace[0]["merged"] == [1, 2]
        assert trace[0]["classes"] == [["u1.1", "u1.2"], ["u2.1", "u2.2"]]
        json.dumps(trace)
