"""Command-line interface.

Exit codes: 0 success, 1 bad input (parse errors, definition violations,
size bounds), 2 internal invariant violation (always a bug, never a
property of the input). "-" means standard input or output for any path
argument. STEREOGRAPH_MAX_N sets the limit on n of enumerate and census
(default 6); past it, or when it is not a positive integer, they exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import __version__
from .chromatic import (
    chromatic_polynomial,
    optimal_coloring,
    stability_report,
)
from .errors import (
    InternalInvariant,
    NotAStereotypeGraph,
    ParseError,
    StereographError,
)
from .generators import (
    DEFAULT_ENUMERATION_BOUND,
    PRNG_NAME,
    build_with_csi,
    census,
    enumerate_all,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
)
from .merge import merge_pairs, reduce_to_k2, PairedGraph
from .model import StereotypeGraph, validate_stereotype, vertex_name
from .serialize import (
    census_to_csv,
    graph_from_dict,
    graph_to_json,
    merge_steps_to_jsonable,
    raw_graph_from_dict,
    to_dot,
)
from .spectral import stereotype_characteristic_polynomial


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # internal invariant violations here, so downgrade to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        # The raw bytes, decoded strictly as a file is: sys.stdin's own
        # error handler can be surrogateescape, which would hand bad bytes
        # on to the JSON parser.
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_document(path: str) -> object:
    try:
        return json.loads(_read_text(path))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _load_graph(path: str) -> StereotypeGraph:
    return graph_from_dict(_load_document(path))


def _enumeration_limit() -> int:
    raw = os.environ.get("STEREOGRAPH_MAX_N", str(DEFAULT_ENUMERATION_BOUND))
    try:
        limit = int(raw)
        if limit >= 1:
            return limit
    except ValueError:
        pass
    raise ParseError(f"STEREOGRAPH_MAX_N must be a positive integer, got {raw!r}")


def _cmd_validate(args) -> int:
    n, graph = raw_graph_from_dict(_load_document(args.file))
    report = validate_stereotype(graph)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        witness = "" if check.witness is None else f"  (witness: {check.witness})"
        print(f"{status}  {check.name}{witness}")
    print(f"valid: {'yes' if report.valid else 'no'}")
    return 0 if report.valid else 1


def _cmd_report(args) -> int:
    """Print all eight verdicts, the index and their agreement; a graph
    on one pair gets a verdict on every criterion too. Exit 2 when the
    verdicts disagree."""
    g = _load_graph(args.file)
    report = stability_report(g)
    profile_girth = g.graph.girth()
    if args.json:
        doc = {
            "criteria": report.criteria(),
            "csi": report.csi,
            "triangles": g.graph.triangle_count(),
            "girth": profile_girth,
            "agreement": report.agreement,
        }
        print(json.dumps(doc))
    else:
        for name, verdict in report.criteria().items():
            print(f"{name}: {'stable' if verdict else 'unstable'}")
        print(f"csi: {report.csi}")
        print(f"triangles: {g.graph.triangle_count()}")
        print(f"girth: {'acyclic' if profile_girth is None else profile_girth}")
        print(f"agreement: {'yes' if report.agreement else 'NO'}")
    return 0 if report.agreement else 2


def _cmd_csi(args) -> int:
    g = _load_graph(args.file)
    coloring = optimal_coloring(g.graph)
    print(coloring.colors_used)
    if args.witness:
        witness = {vertex_name(v): c for v, c in enumerate(coloring.colors)}
        print(json.dumps(witness))
    return 0


def _print_polynomial(poly, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"degree": poly.degree, "coefficients": list(poly.coefficients)}))
    else:
        print(str(poly))


def _cmd_charpoly(args) -> int:
    g = _load_graph(args.file)
    _print_polynomial(stereotype_characteristic_polynomial(g), args.json)
    return 0


def _cmd_chrompoly(args) -> int:
    g = _load_graph(args.file)
    _print_polynomial(chromatic_polynomial(g.graph), args.json)
    return 0


def _cmd_generate(args) -> int:
    if args.type == "knn":
        g = gen_complete_bipartite(args.n)
        meta = {"generator": "knn", "n": args.n}
    elif args.type == "ladder":
        g = gen_complete_ladder(args.n)
        meta = {"generator": "ladder", "n": args.n}
    else:
        g = gen_random(args.n, args.seed)
        meta = {"generator": "random", "n": args.n, "seed": args.seed, "prng": PRNG_NAME}
    _write_text(args.output, graph_to_json(g, meta) + "\n")
    return 0


def _cmd_build(args) -> int:
    g = build_with_csi(args.n, args.csi)
    meta = {"generator": "build-with-csi", "n": args.n, "csi": args.csi}
    _write_text(args.output, graph_to_json(g, meta) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    lines = [graph_to_json(g) for g in enumerate_all(args.n, limit=_enumeration_limit())]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_census(args) -> int:
    rows = census(args.n, limit=_enumeration_limit())
    _write_text(args.output, census_to_csv(rows))
    return 0


def _cmd_merge(args) -> int:
    g = _load_graph(args.file)
    if args.pairs is not None:
        try:
            i_str, j_str = args.pairs.split(",")
            i, j = int(i_str), int(j_str)
        except ValueError as exc:
            raise ParseError(f"--pairs expects 'i,j', got {args.pairs!r}") from exc
        outcome = merge_pairs(PairedGraph.from_stereotype(g), i, j)
        if outcome.merged:
            classes = {
                vertex_name(v): [vertex_name(m) for m in sorted(members)]
                for v, members in outcome.graph.classes
            }
            print(json.dumps({"status": "merged", "classes": classes}))
        else:
            witness = [vertex_name(v) for v in outcome.blocking_triangle]
            print(json.dumps({"status": "blocked", "triangle": witness}))
        return 0

    verdict = reduce_to_k2(g)
    summary: dict = {"status": "stable" if verdict.stable else "unstable"}
    if verdict.stable:
        summary["classes"] = [
            [vertex_name(v) for v in sorted(members)]
            for members in sorted(verdict.final_graph.class_partition(), key=min)
        ]
    else:
        summary["triangle"] = [vertex_name(v) for v in verdict.blocking_witness]
    if args.trace:
        summary["trace"] = merge_steps_to_jsonable(verdict.steps)
    print(json.dumps(summary))
    return 0


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.file)
    _write_text(args.output, to_dot(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stereograph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a graph file against the definition")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("report", help="run every stability criterion")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("csi", help="print the chromatic stability index")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true", help="also print a color map")
    p.set_defaults(handler=_cmd_csi)

    p = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_charpoly)

    p = sub.add_parser("chrompoly", help="chromatic polynomial coefficients")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_chrompoly)

    p = sub.add_parser("generate", help="emit a canonical or random graph")
    p.add_argument("--type", required=True, choices=["knn", "ladder", "random"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("build", help="construct a graph with a target index")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--csi", required=True, type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("enumerate", help="list every graph on n pairs")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("census", help="CSV of index counts over all graphs on n pairs")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("merge", help="merge two pairs or reduce to K2")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="merge one pair of pair indices, e.g. 1,2")
    group.add_argument("--to-k2", action="store_true", dest="to_k2")
    p.add_argument("--trace", action="store_true", help="include the step log")
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("export-dot", help="write Graphviz DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


# Built on the first main() call, since building costs milliseconds; parse_args keeps no state.
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except NotAStereotypeGraph as exc:
        print(f"stereograph: not a stereotype graph ({exc.clause}): {exc}", file=sys.stderr)
        return 1
    except InternalInvariant as exc:
        print(f"stereograph: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except StereographError as exc:
        print(f"stereograph: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"stereograph: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
