"""Unit tests for the DP engine: table combination rules and decide()."""

import random

import pytest

from isrecon import (Graph, InputError, InternalError, UnsupportedGraphClassError,
                     decide, gen_cograph, gen_composed, tj_decide)
from isrecon import engine
from isrecon.cotree import UNION, build_maximal_cotree
from isrecon.engine import (FREEDOM_MISMATCH, RisTable, SIZE_BELOW_THRESHOLD,
                            compute_freedom, compute_ris_tables, ris_join,
                            ris_union, union_split)
from isrecon.graph import mask_of
from isrecon.oracle import get_oracle
from isrecon.witness import build_su_sequence, sequence_to_max

from helpers import (c4, complete, edgeless, flat_nodes, full_ris_tables, p3, p4,
                     two_k2)


def table(base, values):
    return RisTable(base=base, values=values)


def test_ris_union_regression_table():
    # two components with per-threshold maxima [6,5,5,4] and [4,3,3,3]
    v, w = table(3, [6, 5, 5, 4]), table(3, [4, 3, 3, 3])
    assert ris_union(v, w).values == [10, 10, 10, 10, 10, 9, 7]
    assert union_split(v, w, 6) == (3, 2)
    assert union_split(v, w, 5) == (1, 0)
    assert union_split(v, w, 4) == (0, 0)


def test_ris_union_empty_sides():
    v, w = table(0, [3]), table(0, [2])
    u = ris_union(v, w)
    assert u.base == 0
    assert u.values == [5]
    assert union_split(v, w, 0) == (0, 0)


def test_ris_union_single_tokens():
    v = w = table(1, [1, 1])
    assert ris_union(v, w).values == [2, 2, 2]
    assert union_split(v, w, 2) == (1, 1)
    assert union_split(v, w, 1) == (0, 0)


def test_ris_join_carries_occupied_child():
    j = ris_join(table(2, [2, 2, 2]), table(0, [1]))
    assert j.base == 2
    assert j.values == [2, 2, 2]
    # threshold 0 takes the larger independence number
    j2 = ris_join(table(1, [1, 1]), table(0, [4]))
    assert j2.values == [4, 1]


def test_ris_join_rejects_two_occupied_children():
    with pytest.raises(InternalError):
        ris_join(table(1, [1, 1]), table(1, [1, 1]))


@pytest.mark.parametrize("g", [Graph.from_edges(3, [(0, 1), (1, 2)]), c4()])
def test_dependent_set_is_an_input_error(g):
    # 0 and 1 are adjacent, so the set meets both sides of a join node
    t = build_maximal_cotree(g)
    with pytest.raises(InputError, match="independent"):
        compute_ris_tables(t, mask_of([0, 1]))
    with pytest.raises(InputError, match="independent"):
        build_su_sequence(t, t.root, mask_of([0, 1]))
    with pytest.raises(InputError, match="independent"):
        sequence_to_max(t, mask_of([0, 1]), 1)


def test_compute_ris_tables_c4():
    t = build_maximal_cotree(c4())
    tabs = compute_ris_tables(t, mask_of([0, 2]))
    assert tabs[t.root].values == [2, 2, 2]


def test_compute_ris_tables_two_k2():
    t = build_maximal_cotree(two_k2())
    tabs = compute_ris_tables(t, mask_of([0, 2]))
    assert tabs[t.root].values == [2, 2, 2]
    tabs1 = compute_ris_tables(t, mask_of([0]))
    assert tabs1[t.root].values == [2, 2]


@pytest.mark.parametrize("g", [gen_cograph(14, 5)[0], gen_composed([4, 5, 3], 0.5, 2)])
def test_compute_ris_tables_builds_only_the_footprint(g):
    # Stored: the root and the nodes that meet the set, save the flat nodes.
    # Every other node reads as its whole-tree table.
    t = build_maximal_cotree(g)
    flat = flat_nodes(t)
    assert flat and set(t.preorder()) - flat  # both kinds occur
    sets = get_oracle(g).sets
    for imask in sets[:: max(1, len(sets) // 12)]:
        tabs = compute_ris_tables(t, imask)
        footprint = {u for u in t.preorder() if t.nodes[u].vmask & imask}
        stored = (footprint | {t.root}) - flat
        assert set(tabs) == stored
        ref = full_ris_tables(t, imask)
        for u in t.preorder():
            if u not in stored:
                assert tabs[u] == (ref[u].base, ref[u].values)
        assert set(tabs) == stored  # a read does not store


def test_a_dependent_set_inside_a_flat_subtree_is_rejected():
    # every node of a perfect matching is flat, so the pass stores nothing
    t = build_maximal_cotree(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
    assert compute_ris_tables(t, mask_of([0, 2, 5])) == {}
    with pytest.raises(InputError, match="compute_ris_tables requires an independent set"):
        compute_ris_tables(t, mask_of([2, 3]))


@pytest.mark.parametrize("leaf_first", [True, False])
def test_table_pass_errors_come_in_a_fixed_order(leaf_first):
    # A 5-vertex prime leaf beside a matching of one or two edges, each a
    # flat join; the set is the two ends of the last edge.
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    p5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    for matching in (1, 2):
        n = 5 + 2 * matching
        leaf_at, edge_at = (0, 5) if leaf_first else (2 * matching, 0)
        pairs = [(edge_at + 2 * i, edge_at + 2 * i + 1) for i in range(matching)]
        edge = list(pairs[-1])

        def tree(leaf_edges):
            g = Graph.from_edges(n, [(u + leaf_at, v + leaf_at) for u, v in leaf_edges]
                                 + pairs)
            return build_maximal_cotree(g)

        with pytest.raises(InputError, match="out of range"):
            compute_ris_tables(tree(c5), mask_of(edge + [n]))
        # C5 is not chordal: reported before the dependent set, wherever it sits
        with pytest.raises(UnsupportedGraphClassError):
            compute_ris_tables(tree(c5), mask_of(edge))
        # P5 is chordal, so the dependent set is reported
        with pytest.raises(InputError,
                           match="compute_ris_tables requires an independent set"):
            compute_ris_tables(tree(p5), mask_of(edge))
        # dependent in the leaf too: the right subtree, which a postorder pass
        # reaches first, reports; the edge is on the right when the leaf is first
        first = "compute_ris_tables" if leaf_first else "leaf_ris_table"
        with pytest.raises(InputError, match=f"{first} requires an independent set"):
            compute_ris_tables(tree(p5), mask_of(edge + [leaf_at, leaf_at + 1]))


def test_compute_freedom_blocks_empty_join_side():
    g = c4()
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of([0, 2]))
    vals = compute_freedom(t, 1, tabs)
    root = t.nodes[t.root]
    occupied = root.left if t.nodes[root.left].vmask & 1 else root.right
    empty = root.right if occupied == root.left else root.left
    assert vals.freedom[t.root] == 1
    assert vals.freedom[occupied] == 1
    assert vals.freedom[empty] == 0
    # the empty side lies inside the blocked mask, the occupied side does not
    assert t.nodes[empty].vmask & ~vals.blocked == 0
    assert t.nodes[occupied].vmask & ~vals.blocked


def test_compute_freedom_reads_tables_only_below_unions_that_are_not_flat(monkeypatch):
    reads = []
    real = engine._Tables.__missing__

    def counting(self, u):
        reads.append(u)
        return real(self, u)

    monkeypatch.setattr(engine._Tables, "__missing__", counting)
    # every node of a perfect matching is flat, so no table is read at all
    n = 40
    t = build_maximal_cotree(Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)]))
    a = mask_of(range(0, n, 2))
    tabs = compute_ris_tables(t, a)
    reads.clear()
    vals = compute_freedom(t, n // 2, tabs)
    assert reads == []
    assert all(vals.freedom[u] for u, node in enumerate(t.nodes) if not node.is_leaf)
    # with prime leaves, the reads are the children of the unions visited
    for seed in range(20):
        g = gen_composed([5, 4, 6, 3], 0.5, seed)
        t = build_maximal_cotree(g)
        flat = flat_nodes(t)
        below_split = {x for u, node in enumerate(t.nodes)
                       if node.kind == UNION and u not in flat
                       for x in (node.left, node.right)}
        for imask in get_oracle(g).sets[::97]:
            tabs = compute_ris_tables(t, imask)
            reads.clear()
            compute_freedom(t, imask.bit_count(), tabs)
            assert set(reads) <= below_split, seed


def test_compute_freedom_at_zero_blocks_nothing():
    t = build_maximal_cotree(c4())
    tabs = compute_ris_tables(t, mask_of([0, 2]))
    vals = compute_freedom(t, 0, tabs)
    assert vals.blocked == 0


def test_decide_c4():
    g = c4()
    assert not decide(g, [0, 2], [1, 3], 1).reachable
    assert decide(g, [0, 2], [1, 3], 1).failure_witness[1] == FREEDOM_MISMATCH
    assert decide(g, [0, 2], [1, 3], 0).reachable
    assert decide(g, [0, 2], [0, 2], 2).reachable
    assert decide(g, [0, 2], [0], 1).reachable


def test_decide_size_below_threshold():
    v = decide(edgeless(3), [0], [0, 1, 2], 2)
    assert not v.reachable
    assert v.failure_witness == (None, SIZE_BELOW_THRESHOLD)


def test_decide_rejects_dependent_sets():
    with pytest.raises(InputError):
        decide(c4(), [0, 1], [0, 2], 1)


def test_decide_handles_chordal_leaves():
    # P4 is indecomposable; the decision falls through to the leaf solver
    g = p4()
    assert decide(g, [0, 2], [1, 3], 1).reachable
    # {0,3} dominates P4 at exactly k=2 tokens, so it is frozen
    assert not decide(g, [0, 3], [1, 3], 2).reachable
    # K3: singletons both dominate, stuck at k=1
    assert not decide(complete(3), [0], [1], 1).reachable
    assert decide(complete(3), [0], [1], 0).reachable


def test_decide_large_cograph_is_fast():
    # end-to-end decide on n=10,000 should stay in seconds territory
    import time

    from isrecon import gen_cograph
    from helpers import greedy_independent_set

    g, _ = gen_cograph(10_000, seed=7)
    rng = random.Random(7)
    a = greedy_independent_set(g, rng)
    b = greedy_independent_set(g, rng)
    k = min(len(a), len(b)) // 2
    start = time.perf_counter()
    verdict = decide(g, a, b, k)
    assert time.perf_counter() - start < 10.0
    assert isinstance(verdict.reachable, bool)


def test_tj_decide():
    assert not tj_decide(c4(), [0, 2], [1, 3])
    assert tj_decide(two_k2(), [0, 2], [1, 3])
    assert tj_decide(p3(), [0], [1])
    assert tj_decide(edgeless(4), [], [])
    with pytest.raises(InputError):
        tj_decide(c4(), [0, 2], [1])
