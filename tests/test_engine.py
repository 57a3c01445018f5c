"""Unit tests for the DP engine: table combination rules and decide()."""

import random

import pytest

from isrecon import (Graph, InputError, InternalError, build_maximal_cotree,
                     compute_freedom, compute_ris_tables, decide, ris_join,
                     ris_union, tj_decide)
from isrecon.engine import FREEDOM_MISMATCH, RisTable, SIZE_BELOW_THRESHOLD

from helpers import c4, complete, edgeless, p3, p4, two_k2


def table(base, values):
    return RisTable(node=-1, base=base, values=values)


def test_ris_union_regression_table():
    # two components with per-threshold maxima [6,5,5,4] and [4,3,3,3]
    u = ris_union(table(3, [6, 5, 5, 4]), table(3, [4, 3, 3, 3]))
    assert u.values == [10, 10, 10, 10, 10, 9, 7]
    assert u.tuples[6] == (3, 2)
    assert u.tuples[5] == (1, 0)
    assert u.tuples[4] == (0, 0)


def test_ris_union_empty_sides():
    u = ris_union(table(0, [3]), table(0, [2]))
    assert u.base == 0
    assert u.values == [5]
    assert u.tuples == [(0, 0)]


def test_ris_union_single_tokens():
    u = ris_union(table(1, [1, 1]), table(1, [1, 1]))
    assert u.values == [2, 2, 2]
    assert u.tuples[2] == (1, 1)
    assert u.tuples[1] == (0, 0)


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


def test_compute_ris_tables_c4():
    t = build_maximal_cotree(c4())
    tabs = compute_ris_tables(t, [0, 2])
    assert tabs[t.root].values == [2, 2, 2]


def test_compute_ris_tables_two_k2():
    t = build_maximal_cotree(two_k2())
    tabs = compute_ris_tables(t, [0, 2])
    assert tabs[t.root].values == [2, 2, 2]
    tabs1 = compute_ris_tables(t, [0])
    assert tabs1[t.root].values == [2, 2]


def test_compute_freedom_blocks_empty_join_side():
    g = c4()
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, [0, 2])
    vals = compute_freedom(t, [0, 2], 1, tabs)
    root = t.nodes[t.root]
    occupied = root.left if 0 in t.vertices(root.left) else root.right
    empty = root.right if occupied == root.left else root.left
    assert vals.freedom[t.root] == 1
    assert vals.freedom[occupied] == 1
    assert vals.freedom[empty] == 0
    assert vals.blocked[empty]
    assert not vals.blocked[occupied]


def test_compute_freedom_at_zero_blocks_nothing():
    t = build_maximal_cotree(c4())
    tabs = compute_ris_tables(t, [0, 2])
    vals = compute_freedom(t, [0, 2], 0, tabs)
    assert not any(vals.blocked.values())


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
