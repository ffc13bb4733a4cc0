"""Merge engine: single merges, full reductions, order invariance."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SetwisePairedGraph,
    setwise_merge_pairs,
    setwise_order_invariance,
    setwise_reduce_to_k2,
)
from stereograph import (
    InvalidOrder,
    PairAbsent,
    SizeExceeded,
    check_order_invariance,
    enumerate_all,
    from_pattern,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    merge_pairs,
    reduce_to_k2,
    two_coloring,
)
from stereograph.merge import PairedGraph
from stereograph.serialize import merge_steps_to_jsonable
from test_model import patterns
from test_switching import switch_pairs


def start(g):
    return PairedGraph.from_stereotype(g)


class TestMergePairs:
    def test_all_crossed_merge_gives_four_cycle(self, k33):
        outcome = merge_pairs(start(k33), 1, 2)
        assert outcome.merged
        pg = outcome.graph
        assert pg.pairs == (1, 3)
        # Crossed wiring pairs u1.1 with u1.2 and u2.1 with u2.2.
        assert pg.class_map[0] == frozenset({0, 2})
        assert pg.class_map[1] == frozenset({1, 3})
        # The surviving two pairs induce a 4-cycle again: every vertex
        # has exactly two of the four as neighbors.
        current = sorted(pg.class_map)
        degrees = {
            v: sum(pg.has_edge(v, w) for w in current if w != v) for v in current
        }
        assert set(degrees.values()) == {2}

    def test_ladder_merge_succeeds_then_blocks(self, kl3):
        first = merge_pairs(start(kl3), 1, 2)
        assert first.merged
        pg = first.graph
        # The merged classes absorb one vertex of each side, so both are
        # now adjacent to both vertices of pair 3.
        assert pg.class_map[0] == frozenset({0, 3})
        assert all(pg.has_edge(0, w) for w in (4, 5))
        assert all(pg.has_edge(1, w) for w in (4, 5))
        second = merge_pairs(pg, 1, 3)
        assert not second.merged
        tri = second.blocking_triangle
        assert len(tri) == 3
        assert all(pg.has_edge(u, v) for u, v in itertools.combinations(tri, 2))

    def test_absent_pair_raises(self, k33):
        with pytest.raises(PairAbsent):
            merge_pairs(start(k33), 1, 4)
        with pytest.raises(PairAbsent):
            merge_pairs(start(k33), 2, 2)

    @pytest.mark.parametrize("label", [1.0, True, "1"])
    def test_non_int_label_rejected(self, k33, label):
        with pytest.raises(PairAbsent):
            merge_pairs(start(k33), label, 2)
        with pytest.raises(PairAbsent):
            merge_pairs(start(k33), 2, label)

    def test_each_merge_drops_one_pair_and_partitions(self, all_st4):
        for g in all_st4:
            outcome = merge_pairs(start(g), 2, 4)
            if not outcome.merged:
                continue
            pg = outcome.graph
            assert len(pg.pairs) == 3
            members = [m for _, m in pg.classes]
            assert sorted(v for s in members for v in s) == list(range(8))


class TestReduceToK2:
    def test_all_crossed_reduces_to_sides(self, k33):
        verdict = reduce_to_k2(k33)
        assert verdict.stable
        partition = {frozenset(s) for s in verdict.final_graph.class_partition()}
        assert partition == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}
        assert len(verdict.steps) == 2

    def test_ladder_blocks_with_triangle_witness(self, kl3):
        verdict = reduce_to_k2(kl3)
        assert not verdict.stable
        assert verdict.blocking_witness is not None

    def test_single_pair_trivially_stable(self):
        verdict = reduce_to_k2(from_pattern(1, []))
        assert verdict.stable
        assert verdict.steps == ()

    def test_explicit_order(self, k33):
        verdict = reduce_to_k2(k33, order=[(2, 3), (1, 2)])
        assert verdict.stable

    def test_order_wrong_length(self, k33):
        with pytest.raises(InvalidOrder):
            reduce_to_k2(k33, order=[(1, 2)])

    def test_order_with_dead_pair(self, k33):
        # After merging (1, 2) the label 2 is gone.
        message = "step 1: pair (2, 3) is not alive in (1, 3)"
        with pytest.raises(InvalidOrder, match=f"^{re.escape(message)}$"):
            reduce_to_k2(k33, order=[(1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "order, message",
        [
            ([(2, 2), (1, 3)], "step 0: pair (2, 2) is not alive in (1, 2, 3)"),
            ([(0, 1), (1, 2)], "step 0: pair (0, 1) is not alive in (1, 2, 3)"),
            ([(1, 4), (1, 2)], "step 0: pair (1, 4) is not alive in (1, 2, 3)"),
        ],
        ids=["repeated", "label-0", "label-n+1"],
    )
    def test_order_with_illegal_pair(self, k33, order, message):
        # merge_pairs decides legality; reduce_to_k2 reports the step.
        with pytest.raises(InvalidOrder, match=f"^{re.escape(message)}$"):
            reduce_to_k2(k33, order=order)

    @pytest.mark.parametrize(
        "order, message",
        [
            ([(1, 2, 3), (1, 3)], "step 0: (1, 2, 3) is not a pair of labels"),
            ([5, 6], "step 0: 5 is not a pair of labels"),
            ([(1, 2), None], "step 1: None is not a pair of labels"),
            (5, "order must be an iterable of merges, got 5"),
        ],
        ids=["three-labels", "bare-label", "none", "not-iterable"],
    )
    def test_order_with_malformed_step(self, order, message):
        with pytest.raises(InvalidOrder, match=f"^{re.escape(message)}$"):
            reduce_to_k2(gen_random(3, 0), order)

    @pytest.mark.parametrize("label", [1.0, True, "1"])
    def test_order_with_non_int_label(self, k33, label):
        with pytest.raises(InvalidOrder):
            reduce_to_k2(k33, order=[(label, 2), (1, 3)])
        with pytest.raises(InvalidOrder):
            reduce_to_k2(k33, order=[(1, 2), (1, label)])

    def test_stable_classes_are_proper_transversals(self, all_st4):
        for g in all_st4:
            verdict = reduce_to_k2(g)
            if not verdict.stable:
                continue
            sides = list(verdict.final_graph.class_partition())
            assert [len(s) for s in sides] == [4, 4]
            for side in sides:
                assert {v // 2 for v in side} == {0, 1, 2, 3}
                assert not any(
                    g.graph.has_edge(u, v) for u, v in itertools.combinations(side, 2)
                )


class TestCommutation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_adjacent_merges_commute(self, n):
        for g in enumerate_all(n):
            pg = PairedGraph.from_stereotype(g)
            moves = list(itertools.combinations(pg.pairs, 2))
            for first, second in itertools.permutations(moves, 2):
                one = merge_pairs(pg, *first)
                if not one.merged:
                    continue
                survivor = min(first)
                second_alive = tuple(
                    survivor if p == max(first) else p for p in second
                )
                if second_alive[0] == second_alive[1]:
                    continue
                two = merge_pairs(one.graph, *sorted(second_alive))
                swap_one = merge_pairs(pg, *second)
                if not (two.merged and swap_one.merged):
                    continue
                swap_survivor = min(second)
                first_alive = tuple(
                    swap_survivor if p == max(second) else p for p in first
                )
                if first_alive[0] == first_alive[1]:
                    continue
                swap_two = merge_pairs(swap_one.graph, *sorted(first_alive))
                if not swap_two.merged:
                    continue
                a, b = two.graph, swap_two.graph
                assert a.pairs == b.pairs
                assert a.edges == b.edges
                assert a.classes == b.classes


class TestOrderInvariance:
    @pytest.mark.parametrize("bits", [(1, 1, 1), (0, 0, 0)])
    def test_examples(self, bits):
        assert check_order_invariance(from_pattern(3, list(bits)))

    def test_exhaustive_four_pairs(self, all_st4):
        for g in all_st4:
            assert check_order_invariance(g)

    def test_bound_enforced(self):
        ladder = from_pattern(6, [0] * 15)
        message = "order enumeration bounded at n <= 5, got n=6"
        with pytest.raises(SizeExceeded, match=f"^{re.escape(message)}$"):
            check_order_invariance(ladder)
        assert check_order_invariance(ladder, limit=None)

    def test_verdict_matches_two_colorability(self, all_st4):
        for g in all_st4:
            stable = reduce_to_k2(g).stable
            assert stable == (two_coloring(g.graph).coloring is not None)


def assert_same_state(pg, expected):
    assert pg.n_original == expected.n_original
    assert pg.pairs == expected.pairs
    assert pg.edges == expected.edges
    assert pg.classes == expected.classes


def assert_same_outcome(outcome, expected):
    assert outcome.blocking_triangle == expected.blocking_triangle
    assert outcome.merged == expected.merged
    if outcome.merged:
        assert_same_state(outcome.graph, expected.graph)


def assert_same_verdict(verdict, expected):
    assert verdict.stable == expected.stable
    assert verdict.steps == expected.steps
    assert verdict.blocking_witness == expected.blocking_witness
    assert_same_state(verdict.final_graph, expected.final_graph)


def descending_order(n):
    """Merge pair k into pair k-1, from the top: the survivor is always
    the second argument."""
    return [(k, k - 1) for k in range(n, 1, -1)]


class TestAgainstSetwiseOracle:
    """The bitmask engine against the frozenset-of-edges merge."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reductions_every_graph(self, n):
        for g in enumerate_all(n):
            assert_same_verdict(reduce_to_k2(g), setwise_reduce_to_k2(g))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_descending_order_every_graph(self, n):
        order = descending_order(n)
        for g in enumerate_all(n):
            assert_same_verdict(reduce_to_k2(g, order), setwise_reduce_to_k2(g, order))

    @pytest.mark.parametrize("n", range(7, 15))
    def test_reductions_random_graphs(self, n):
        for seed in range(4):
            g = gen_random(n, seed)
            assert_same_verdict(reduce_to_k2(g), setwise_reduce_to_k2(g))
            order = descending_order(n)
            assert_same_verdict(reduce_to_k2(g, order), setwise_reduce_to_k2(g, order))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_single_merge(self, n):
        # Every ordered merge from every state any merge order reaches.
        for g in enumerate_all(n):
            states = [(start(g), SetwisePairedGraph.from_stereotype(g))]
            while states:
                pg, expected = states.pop()
                assert_same_state(pg, expected)
                for i, j in itertools.permutations(pg.pairs, 2):
                    outcome = merge_pairs(pg, i, j)
                    oracle = setwise_merge_pairs(expected, i, j)
                    assert_same_outcome(outcome, oracle)
                    if outcome.merged and i < j:
                        states.append((outcome.graph, oracle.graph))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_order_invariance_agrees(self, n):
        for g in enumerate_all(n):
            assert check_order_invariance(g) == setwise_order_invariance(g)

    @settings(max_examples=150, deadline=None)
    @given(g=patterns(), data=st.data())
    def test_random_merge_sequences(self, g, data):
        # Blocked merges leave the state as it was, and the walk goes on.
        pg, expected = start(g), SetwisePairedGraph.from_stereotype(g)
        for _ in range(2 * g.n):
            if len(pg.pairs) == 1:
                break
            i, j = data.draw(st.permutations(pg.pairs))[:2]
            outcome = merge_pairs(pg, i, j)
            oracle = setwise_merge_pairs(expected, i, j)
            assert_same_outcome(outcome, oracle)
            if outcome.merged:
                pg, expected = outcome.graph, oracle.graph


def random_order(n, seed):
    """A legal merge order drawn from a seeded generator: each step two
    alive labels in either order, the larger one merged away."""
    rng = random.Random(seed)
    alive, order = list(range(1, n + 1)), []
    while len(alive) > 1:
        i, j = rng.sample(alive, 2)
        order.append((i, j))
        alive.remove(max(i, j))
    return order


class TestLargeReductions:
    """Sizes at which O(n) work per merge makes a reduction quadratic;
    checked by outcome only, with no timing."""

    def test_complete_bipartite_400(self):
        verdict = reduce_to_k2(gen_complete_bipartite(400))
        assert verdict.stable
        assert len(verdict.steps) == 399
        assert verdict.final_graph.pairs == (1,)
        side_one, side_two = frozenset(range(0, 800, 2)), frozenset(range(1, 800, 2))
        assert verdict.final_graph.class_partition() == {side_one, side_two}
        assert verdict.steps[-1].classes == (side_one, side_two)

    @pytest.mark.parametrize("n", [3, 5, 24, 400])
    def test_complete_ladder_blocks_after_one_step(self, n):
        verdict = reduce_to_k2(gen_complete_ladder(n))
        assert not verdict.stable
        assert len(verdict.steps) == 1
        assert verdict.blocking_witness == (0, 1, 4)
        assert verdict.final_graph.pairs == (1,) + tuple(range(3, n + 1))


def order_independence_graphs():
    """(id, graph): gen_random on 8..12 pairs, K_{12,12} and a switched K_{12,12}."""
    k12 = gen_complete_bipartite(12)
    cases = [(f"random-{n}-{s}", gen_random(n, s)) for n in range(8, 13) for s in range(8)]
    return cases + [("k12", k12), ("k12-switched", switch_pairs(k12, {2, 5, 11}))]


class TestOrderIndependenceLarge:
    """Past check_order_invariance's bound: three orders per graph."""

    @pytest.mark.parametrize(
        "seed, g",
        [pytest.param(seed, g, id=name) for seed, (name, g) in enumerate(order_independence_graphs())],
    )
    def test_three_orders_agree(self, seed, g):
        orders = [None, descending_order(g.n), random_order(g.n, seed)]
        verdicts = [reduce_to_k2(g, order) for order in orders]
        assert len({v.stable for v in verdicts}) == 1
        if verdicts[0].stable:
            assert len({v.final_graph.class_partition() for v in verdicts}) == 1

    def test_both_verdicts_occur(self):
        stable = {reduce_to_k2(g).stable for _, g in order_independence_graphs()}
        assert stable == {True, False}


class TestReadOnDemand:
    """steps and final_graph's views are built when read, the same each time."""

    def test_views_stable_and_match_oracle(self, all_st4):
        for g in all_st4:
            verdict, expected = reduce_to_k2(g), setwise_reduce_to_k2(g)
            for _ in range(2):
                assert verdict.steps == expected.steps
                assert_same_state(verdict.final_graph, expected.final_graph)
            assert verdict.steps is verdict.steps
            assert verdict == reduce_to_k2(g)

    def test_jsonable_steps_text(self, k33, kl3):
        assert merge_steps_to_jsonable(reduce_to_k2(k33).steps) == [
            {"merged": [1, 2], "classes": [["u1.1", "u1.2"], ["u2.1", "u2.2"]]},
            {"merged": [1, 3], "classes": [["u1.1", "u1.2", "u1.3"], ["u2.1", "u2.2", "u2.3"]]},
        ]
        assert merge_steps_to_jsonable(reduce_to_k2(kl3).steps) == [
            {"merged": [1, 2], "classes": [["u1.1", "u2.2"], ["u2.1", "u1.2"]]},
        ]
