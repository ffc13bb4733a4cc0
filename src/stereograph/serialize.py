"""Serialization: the two JSON graph formats, DOT export, census CSV.

The bit form ("stereograph-v1") is the canonical output everywhere; the
edge form ("stereograph-edges-v1") is accepted on input and validated
structurally. Vertex names are "u<side>.<pair>".
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import DomainError, LengthMismatch, ParseError
from .generators import CensusRow
from .graphs import Graph
from .merge import MergeStep
from .model import (
    StereotypeGraph,
    _check_pair_count,
    _from_masks,
    from_pattern,
    parse_vertex_name,
    vertex_name,
    vertex_pair_side,
)

FORMAT_BITS = "stereograph-v1"
FORMAT_EDGES = "stereograph-edges-v1"


def graph_to_dict(g: StereotypeGraph, meta: Mapping[str, object] | None = None) -> dict:
    doc: dict = {"format": FORMAT_BITS, "n": g.n, "pattern": list(g.bits)}
    if meta:
        doc["meta"] = dict(meta)
    return doc


def graph_to_json(g: StereotypeGraph, meta: Mapping[str, object] | None = None) -> str:
    return json.dumps(graph_to_dict(g, meta))


def _parse(doc: object) -> tuple[int, StereotypeGraph | Graph]:
    """The header check and format dispatch of both parsers: (n, the
    stereotype graph of a bit-form document or the plain graph of an
    edge-form one). Malformed documents raise ParseError."""
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    n, fmt = doc.get("n"), doc.get("format")
    try:
        _check_pair_count(n)
        if fmt == FORMAT_BITS:
            pattern = doc.get("pattern")
            if not isinstance(pattern, list):
                raise ParseError("'pattern' must be a list of 0/1 bits")
            # Bits that are not the plain ints 0/1 (true, 1.0) fail here.
            return n, from_pattern(n, pattern)
    except (LengthMismatch, DomainError) as exc:
        raise ParseError(str(exc)) from exc
    if fmt == FORMAT_EDGES:
        return n, _edge_graph(doc, n)
    raise ParseError(f"unknown format {fmt!r}")


def _edge_graph(doc: dict, n: int) -> Graph:
    """The named edges of an edge-form document as a graph on 2n vertices.
    A bad entry or a repeated edge, then a self-loop or a vertex past
    pair n, raises ParseError."""
    raw = doc.get("edges")
    if not isinstance(raw, list):
        raise ParseError("'edges' must be a list of name pairs")
    edges = []
    seen = set()
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError(f"bad edge entry {item!r}")
        try:
            u, v = parse_vertex_name(item[0]), parse_vertex_name(item[1])
        except DomainError as exc:
            raise ParseError(f"bad edge entry {item!r}: {exc}") from exc
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
    try:
        return Graph.from_edges(2 * n, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def graph_from_dict(doc: object) -> StereotypeGraph:
    """Parse either JSON form into a validated stereotype graph.

    Malformed documents raise ParseError, exactly as in
    raw_graph_from_dict; edge sets that break the definition raise
    NotAStereotypeGraph with the violated clause.
    """
    n, g = _parse(doc)
    return g if isinstance(g, StereotypeGraph) else _from_masks(n, g.masks)


def graph_from_json(text: str) -> StereotypeGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(doc)


def raw_graph_from_dict(doc: object) -> tuple[int, Graph]:
    """Parse either form into (n, plain labeled graph) without requiring
    structural validity; used to produce full validation reports.
    Malformed documents raise ParseError, exactly as in graph_from_dict."""
    n, g = _parse(doc)
    return n, g.graph if isinstance(g, StereotypeGraph) else g


def to_dot(g: StereotypeGraph) -> str:
    """Graphviz text with in-pair edges tagged kind=pair (black) and cross
    edges kind=cross (blue); output is byte-deterministic."""
    lines = ["graph stereograph {"]
    for v in range(g.vertex_count):
        lines.append(f'  "{vertex_name(v)}";')
    for u, v in sorted(g.graph.edges):
        same_pair = vertex_pair_side(u)[0] == vertex_pair_side(v)[0]
        kind = "pair" if same_pair else "cross"
        color = "black" if same_pair else "blue"
        lines.append(
            f'  "{vertex_name(u)}" -- "{vertex_name(v)}" [kind={kind}, color={color}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def census_to_csv(rows: list[CensusRow]) -> str:
    out = ["n,k,labeled_count,iso_class_count"]
    for row in sorted(rows, key=lambda r: (r.n, r.k)):
        out.append(f"{row.n},{row.k},{row.labeled_count},{row.iso_class_count}")
    return "\n".join(out) + "\n"


def merge_steps_to_jsonable(steps: tuple[MergeStep, ...]) -> list[dict]:
    return [
        {
            "merged": list(step.merged_pair),
            "classes": [
                [vertex_name(v) for v in sorted(side)] for side in step.classes
            ],
        }
        for step in steps
    ]


__all__ = [
    "FORMAT_BITS",
    "FORMAT_EDGES",
    "census_to_csv",
    "graph_from_dict",
    "graph_from_json",
    "graph_to_dict",
    "graph_to_json",
    "merge_steps_to_jsonable",
    "raw_graph_from_dict",
    "to_dot",
]
