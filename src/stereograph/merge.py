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

The state mid-reduction is two ints per original vertex id v: the
original ids in v's class, and the OR of those ids' original neighbour
masks (v's reach), both 0 once v has been merged away. Class v is
adjacent to class w iff v's reach meets w's class mask, so _merge reads
the triangle test's six bits and merges with two ORs per list: O(1) int
operations per merge, and no neighbour mask is rewritten. reduce_to_k2
logs each step as ints and builds the MergeStep objects only when
StabilityVerdict.steps is read. check_order_invariance walks every
merge order, so it raises SizeExceeded past its limit on n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvalidOrder, PairAbsent
from .graphs import Edge, iter_bits, normalize_edge
from .model import StereotypeGraph, _check_limit

Triangle = tuple[int, int, int]
ClassPartition = frozenset[frozenset[int]]

ORDER_ENUMERATION_BOUND = 5


@dataclass(frozen=True)
class PairedGraph:
    """A graph on surviving pairs mid-reduction.

    Vertex ids are those of the original 2n-vertex graph. `class_masks[v]`
    has one bit per original vertex id that v represents, and `reach[v]`
    is the OR of those ids' original neighbour masks; both are 0 for a
    vertex whose pair has been merged away. `masks` (bit w of `masks[v]`
    set iff vw is an edge), `pairs` (the alive pair labels), `edges` and
    `classes` (each current vertex with the frozenset of original ids it
    represents) are read-only views of the two. Unlike a stereotype
    graph, two alive pairs may induce more than a 4-cycle here.
    """

    class_masks: tuple[int, ...]
    reach: tuple[int, ...]

    @classmethod
    def from_stereotype(cls, g: StereotypeGraph) -> "PairedGraph":
        return cls(tuple(1 << v for v in range(g.vertex_count)), g.graph.masks)

    @property
    def n_original(self) -> int:
        return len(self.class_masks) // 2

    @property
    def pairs(self) -> tuple[int, ...]:
        return tuple(p for p, mask in enumerate(self.class_masks[::2], 1) if mask)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        alive = [(w, mask) for w, mask in enumerate(self.class_masks) if mask]
        return tuple(sum(1 << w for w, mask in alive if reach & mask) for reach in self.reach)

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

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        return 0 <= u and v < len(self.reach) and self.reach[u] & self.class_masks[v] != 0

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
    """A reduction's result. `step_log` has one (pair as given, side-1
    class mask, side-2 class mask) per merge, the masks of the survivor's
    two vertices after it; `steps` is built from it when first read."""

    stable: bool
    final_graph: PairedGraph
    step_log: tuple[tuple[tuple[int, int], int, int], ...] = ()
    blocking_witness: Triangle | None = None

    @cached_property
    def steps(self) -> tuple[MergeStep, ...]:
        return tuple(
            MergeStep(pair, (frozenset(iter_bits(one)), frozenset(iter_bits(two))))
            for pair, one, two in self.step_log
        )


def _merge(class_masks: list[int], reach: list[int], i: int, j: int) -> Triangle | None:
    """Merge pairs i and j in place, or return the triangle blocking the
    merge and leave the state as it was. Raises PairAbsent unless i and j
    are two distinct alive labels."""
    if type(i) is not int or type(j) is not int:
        raise PairAbsent(f"pair labels must be ints, got ({i!r}, {j!r})")
    if i == j:
        raise PairAbsent(f"cannot merge pair {i} with itself")
    for label in (i, j):
        if not (0 < label <= len(class_masks) // 2 and class_masks[2 * label - 2]):
            raise PairAbsent(f"pair {label} is not alive")

    # u_side^p has id 2(p-1) + side-1, as in model.vertex_id.
    a1, b1 = 2 * i - 2, 2 * j - 2
    a2, b2 = a1 + 1, b1 + 1
    reach_a1, reach_a2 = reach[a1], reach[a2]
    a1a2, b1b2 = reach_a1 & class_masks[a2], reach[b1] & class_masks[b2]
    a1b1, a1b2 = reach_a1 & class_masks[b1], reach_a1 & class_masks[b2]
    a2b1, a2b2 = reach_a2 & class_masks[b1], reach_a2 & class_masks[b2]
    # The four triples of the quad in a fixed order, so the witness is
    # deterministic.
    closed = (
        a1a2 and a1b1 and a2b1,
        a1a2 and a1b2 and a2b2,
        b1b2 and a1b1 and a1b2,
        b1b2 and a2b1 and a2b2,
    )
    if any(closed):
        triples = ((a1, a2, b1), (a1, a2, b2), (a1, b1, b2), (a2, b1, b2))
        return tuple(sorted(next(tri for tri, c in zip(triples, closed) if c)))

    # The induced subgraph is a 4-cycle: each vertex of pair i misses
    # exactly one vertex of pair j. The two non-adjacent couples become
    # the new classes, kept at the survivor's two ids.
    partner = b2 if a1b1 else b1
    one, two = (a1, partner), (a2, b1 + b2 - partner)
    v1, r1 = (a1, b1) if i < j else (b1, a1)
    if v1 not in one:
        one, two = two, one
    for state in (class_masks, reach):
        merged = state[one[0]] | state[one[1]], state[two[0]] | state[two[1]]
        state[r1] = state[r1 + 1] = 0
        state[v1], state[v1 + 1] = merged
    return None


def merge_pairs(pg: PairedGraph, i: int, j: int) -> MergeOutcome:
    """Merge pairs i and j, or report the triangle blocking the merge."""
    class_masks, reach = list(pg.class_masks), list(pg.reach)
    witness = _merge(class_masks, reach, i, j)
    if witness is not None:
        return MergeOutcome(blocking_triangle=witness)
    return MergeOutcome(graph=PairedGraph(tuple(class_masks), tuple(reach)))


def reduce_to_k2(
    g: StereotypeGraph, order: Sequence[tuple[int, int]] | None = None
) -> StabilityVerdict:
    """Apply n-1 merges (given order, else lexicographic) until one pair
    remains or a merge blocks; stable exactly when K_2 is reached."""
    if order is None:
        # The lexicographic order always merges the two lowest alive
        # labels, and pair 1 survives each merge.
        order = [(1, k) for k in range(2, g.n + 1)]
    else:
        try:
            order = list(order)
        except TypeError:
            raise InvalidOrder(f"order must be an iterable of merges, got {order!r}") from None
        if len(order) != g.n - 1:
            raise InvalidOrder(f"expected {g.n - 1} merges for n={g.n}, got {len(order)}")

    class_masks, reach = [1 << v for v in range(g.vertex_count)], list(g.graph.masks)
    log: list[tuple[tuple[int, int], int, int]] = []
    for step_index, step in enumerate(order):
        try:
            i, j = step
        except (TypeError, ValueError):
            raise InvalidOrder(f"step {step_index}: {step!r} is not a pair of labels") from None
        try:
            witness = _merge(class_masks, reach, i, j)
        except PairAbsent:
            # _merge alone decides which labels can merge.
            pairs = tuple(p for p, mask in enumerate(class_masks[::2], 1) if mask)
            raise InvalidOrder(
                f"step {step_index}: pair ({i!r}, {j!r}) is not alive in {pairs}"
            ) from None
        if witness is not None:
            final = PairedGraph(tuple(class_masks), tuple(reach))
            return StabilityVerdict(False, final, tuple(log), witness)
        v1 = 2 * min(i, j) - 2
        log.append(((i, j), class_masks[v1], class_masks[v1 + 1]))

    return StabilityVerdict(True, PairedGraph(tuple(class_masks), tuple(reach)), tuple(log))


def check_order_invariance(g: StereotypeGraph, limit: int | None = ORDER_ENUMERATION_BOUND) -> bool:
    """True iff every complete merge order yields the same verdict and,
    for stable graphs, the same final class partition. g.n past limit
    raises SizeExceeded, and limit=None lifts the bound."""
    _check_limit("order enumeration", g.n, limit)

    verdicts: set[bool] = set()
    partitions: set[frozenset[int]] = set()

    def walk(class_masks: list[int], reach: list[int], pairs: list[int]) -> None:
        if len(pairs) == 1:
            verdicts.add(True)
            partitions.add(frozenset(mask for mask in class_masks if mask))
            return
        for i, j in itertools.combinations(pairs, 2):
            merged_masks, merged_reach = class_masks.copy(), reach.copy()
            if _merge(merged_masks, merged_reach, i, j) is None:
                walk(merged_masks, merged_reach, [p for p in pairs if p != j])
            else:
                verdicts.add(False)

    walk([1 << v for v in range(g.vertex_count)], list(g.graph.masks), list(range(1, g.n + 1)))
    return len(verdicts) == 1 and (verdicts == {False} or len(partitions) == 1)


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
