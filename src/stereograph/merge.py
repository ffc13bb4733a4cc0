"""Pair merging and the reduction that decides bipartite stability.

Merging two pairs collapses the two non-adjacent cross couples of their
induced 4-cycle into equivalence classes; a class is adjacent to a vertex
exactly when any of its members was. A graph is bipartitely stable when
n-1 successive merges shrink it to a single pair (K_2); a merge is
blocked exactly when the two pairs induce a triangle, and once any
triangle exists no continuation can ever reach K_2, because adjacent
vertices are never absorbed into one class.

Surviving merged pairs are relabeled with the smaller pair index, and the
class containing that pair's side-1 vertex keeps side 1, so reductions
are fully deterministic.

The state mid-reduction is two bitmasks per original vertex id: its
neighbours and the original vertices its class holds, both 0 once the
vertex has been merged away. The triangle test reads six bits of the
four vertices involved, and a merge rewrites each vertex's neighbour
mask with a few int operations, so one merge costs O(V) int operations
and no edge set is ever rebuilt. check_order_invariance walks every
merge order, so it raises SizeExceeded past its limit on n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvalidOrder, PairAbsent
from .graphs import Edge, iter_bits, normalize_edge
from .model import StereotypeGraph, _check_limit, vertex_id

Triangle = tuple[int, int, int]
ClassPartition = frozenset[frozenset[int]]

ORDER_ENUMERATION_BOUND = 5


@dataclass(frozen=True)
class PairedGraph:
    """A graph on surviving pairs mid-reduction.

    Vertex ids are those of the original 2n-vertex graph. Bit w of
    `masks[v]` is set iff vw is an edge, and `class_masks[v]` has one bit
    per original vertex id that v represents; both are 0 for a vertex
    whose pair has been merged away. `pairs` (the alive pair labels),
    `edges` and `classes` (each current vertex with the frozenset of
    original ids it represents) are read-only views of the masks.
    Unlike a stereotype graph, two alive pairs may induce more than a
    4-cycle here.
    """

    masks: tuple[int, ...]
    class_masks: tuple[int, ...]

    @classmethod
    def from_stereotype(cls, g: StereotypeGraph) -> "PairedGraph":
        return cls(g.graph.masks, tuple(1 << v for v in range(g.vertex_count)))

    @property
    def n_original(self) -> int:
        return len(self.masks) // 2

    @property
    def pairs(self) -> tuple[int, ...]:
        return tuple(p for p, mask in enumerate(self.class_masks[::2], 1) if mask)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(
            (u, v) for u, mask in enumerate(self.masks) for v in iter_bits(mask) if u < v
        )

    @cached_property
    def classes(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple(
            (v, frozenset(iter_bits(mask))) for v, mask in enumerate(self.class_masks) if mask
        )

    @property
    def class_map(self) -> dict[int, frozenset[int]]:
        return dict(self.classes)

    def pair_vertices(self, label: int) -> tuple[int, int]:
        return vertex_id(label, 1), vertex_id(label, 2)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        return 0 <= u and v < len(self.masks) and self.masks[u] >> v & 1 == 1

    def class_partition(self) -> ClassPartition:
        return frozenset(members for _, members in self.classes)


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one merge attempt: a new graph, or a blocking triangle."""

    graph: PairedGraph | None = None
    blocking_triangle: Triangle | None = None

    @property
    def merged(self) -> bool:
        return self.graph is not None


@dataclass(frozen=True)
class MergeStep:
    merged_pair: tuple[int, int]
    classes: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    final_graph: PairedGraph
    steps: tuple[MergeStep, ...] = ()
    blocking_witness: Triangle | None = None


def merge_pairs(pg: PairedGraph, i: int, j: int) -> MergeOutcome:
    """Merge pairs i and j, or report the triangle blocking the merge."""
    if type(i) is not int or type(j) is not int:
        raise PairAbsent(f"pair labels must be ints, got ({i!r}, {j!r})")
    if i == j:
        raise PairAbsent(f"cannot merge pair {i} with itself")
    masks, class_masks = pg.masks, pg.class_masks
    for label in (i, j):
        if not (0 < label <= len(masks) // 2 and class_masks[2 * label - 2]):
            raise PairAbsent(f"pair {label} is not alive")

    # pair_vertices inlined: u_side^p has id 2(p-1) + side-1.
    a1, b1 = 2 * i - 2, 2 * j - 2
    a2, b2 = a1 + 1, b1 + 1
    a1a2, b1b2 = masks[a1] >> a2 & 1, masks[b1] >> b2 & 1
    a1b1, a1b2 = masks[a1] >> b1 & 1, masks[a1] >> b2 & 1
    a2b1, a2b2 = masks[a2] >> b1 & 1, masks[a2] >> b2 & 1
    # The four triples of the quad in a fixed order, so the witness is
    # deterministic.
    for tri, closed in (
        ((a1, a2, b1), a1a2 and a1b1 and a2b1),
        ((a1, a2, b2), a1a2 and a1b2 and a2b2),
        ((a1, b1, b2), b1b2 and a1b1 and a1b2),
        ((a2, b1, b2), b1b2 and a2b1 and a2b2),
    ):
        if closed:
            return MergeOutcome(blocking_triangle=tuple(sorted(tri)))

    # The induced subgraph is a 4-cycle: each vertex of pair i misses
    # exactly one vertex of pair j. The two non-adjacent couples become
    # the new classes.
    partner = b2 if a1b1 else b1
    one, two = (a1, partner), (a2, b1 + b2 - partner)
    v1, r1 = (a1, b1) if i < j else (b1, a1)
    v2, r2 = v1 + 1, r1 + 1
    if v1 not in one:
        one, two = two, one
    side_one = 1 << one[0] | 1 << one[1]
    side_two = 1 << two[0] | 1 << two[1]
    keep = ~(side_one | side_two)
    bit1, bit2 = 1 << v1, 1 << v2

    new_masks = [
        mask & keep | (bit1 if mask & side_one else 0) | (bit2 if mask & side_two else 0)
        for mask in masks
    ]
    new_masks[v1] = (masks[one[0]] | masks[one[1]]) & keep | bit2
    new_masks[v2] = (masks[two[0]] | masks[two[1]]) & keep | bit1
    new_masks[r1] = new_masks[r2] = 0

    new_classes = list(class_masks)
    new_classes[v1] = class_masks[one[0]] | class_masks[one[1]]
    new_classes[v2] = class_masks[two[0]] | class_masks[two[1]]
    new_classes[r1] = new_classes[r2] = 0
    return MergeOutcome(graph=PairedGraph(tuple(new_masks), tuple(new_classes)))


def reduce_to_k2(
    g: StereotypeGraph, order: Sequence[tuple[int, int]] | None = None
) -> StabilityVerdict:
    """Apply n-1 merges (given order, else lexicographic) until one pair
    remains or a merge blocks; stable exactly when K_2 is reached."""
    pg = PairedGraph.from_stereotype(g)
    steps: list[MergeStep] = []

    if order is not None:
        try:
            order = list(order)
        except TypeError:
            raise InvalidOrder(f"order must be an iterable of merges, got {order!r}") from None
        if len(order) != g.n - 1:
            raise InvalidOrder(f"expected {g.n - 1} merges for n={g.n}, got {len(order)}")

    step_index = 0
    pairs = pg.pairs
    while len(pairs) > 1:
        step = pairs[:2] if order is None else order[step_index]
        try:
            i, j = step
        except (TypeError, ValueError):
            raise InvalidOrder(f"step {step_index}: {step!r} is not a pair of labels") from None
        try:
            outcome = merge_pairs(pg, i, j)
        except PairAbsent:
            # merge_pairs alone decides which labels can merge.
            raise InvalidOrder(
                f"step {step_index}: pair ({i!r}, {j!r}) is not alive in {pairs}"
            ) from None
        if not outcome.merged:
            return StabilityVerdict(
                stable=False,
                final_graph=pg,
                steps=tuple(steps),
                blocking_witness=outcome.blocking_triangle,
            )
        pg = outcome.graph
        pairs = pg.pairs
        v1, v2 = pg.pair_vertices(min(i, j))
        classes = (
            frozenset(iter_bits(pg.class_masks[v1])),
            frozenset(iter_bits(pg.class_masks[v2])),
        )
        steps.append(MergeStep((i, j), classes))
        step_index += 1

    return StabilityVerdict(stable=True, final_graph=pg, steps=tuple(steps))


def check_order_invariance(g: StereotypeGraph, limit: int | None = ORDER_ENUMERATION_BOUND) -> bool:
    """True iff every complete merge order yields the same verdict and,
    for stable graphs, the same final class partition. g.n past limit
    raises SizeExceeded, and limit=None lifts the bound."""
    _check_limit("order enumeration", g.n, limit)

    verdicts: set[bool] = set()
    partitions: set[ClassPartition] = set()

    def walk(pg: PairedGraph) -> None:
        if len(pg.pairs) == 1:
            verdicts.add(True)
            partitions.add(pg.class_partition())
            return
        for i, j in itertools.combinations(pg.pairs, 2):
            outcome = merge_pairs(pg, i, j)
            if outcome.merged:
                walk(outcome.graph)
            else:
                verdicts.add(False)

    walk(PairedGraph.from_stereotype(g))
    if len(verdicts) != 1:
        return False
    if verdicts == {True} and len(partitions) != 1:
        return False
    return True


__all__ = [
    "MergeOutcome",
    "MergeStep",
    "ORDER_ENUMERATION_BOUND",
    "PairedGraph",
    "StabilityVerdict",
    "check_order_invariance",
    "merge_pairs",
    "reduce_to_k2",
]
