"""Witness construction: SU climbs, bridging, and the full pipeline."""

import random

import pytest

import isrecon.cotree
import isrecon.engine
import isrecon.witness
from isrecon import (Graph, InputError, InternalError, UnsupportedGraphClassError,
                     build_witness, decide, gen_cograph, validate_tar_sequence)
from isrecon.cotree import build_maximal_cotree, realize, restrict
from isrecon.engine import compute_freedom, compute_ris_tables
from isrecon.graph import mask_of, vertex_set
from isrecon.witness import (TarSequence, _su_sequence, accessible_subgraph,
                             bridge_max_sets, build_su_sequence, sequence_to_max)

from helpers import (alternating_threshold, c4, cotree_depth, edgeless,
                     greedy_independent_set, p3, p4, sample_triples, two_k2)


def freedom_values(g, a, k):
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    return t, compute_freedom(t, k, tabs)


def test_accessible_subgraph_c4():
    t, vals = freedom_values(c4(), [0, 2], 1)
    assert accessible_subgraph(t, vals) == mask_of({0, 2})
    t0, vals0 = freedom_values(c4(), [0, 2], 0)
    assert accessible_subgraph(t0, vals0) == mask_of({0, 1, 2, 3})


def test_accessible_subgraph_two_k2():
    # at k=2 the start set {0,2} is frozen: nothing can be removed or added
    t, vals = freedom_values(two_k2(), [0, 2], 2)
    assert accessible_subgraph(t, vals) == mask_of({0, 2})
    # at k=1 tokens can hop within each edge pair
    t1, vals1 = freedom_values(two_k2(), [0, 2], 1)
    assert accessible_subgraph(t1, vals1) == mask_of({0, 1, 2, 3})


def test_accessible_subgraph_rejects_nontrivial_leaves():
    t, vals = freedom_values(p4(), [0, 2], 1)
    with pytest.raises(UnsupportedGraphClassError):
        accessible_subgraph(t, vals)


def test_climb_and_bridge_reject_a_prime_leaf():
    t = build_maximal_cotree(p4())  # P4 is one prime leaf
    with pytest.raises(UnsupportedGraphClassError):
        bridge_max_sets(t, mask_of([0, 2]), mask_of([1, 3]), 0)
    with pytest.raises(UnsupportedGraphClassError):
        build_su_sequence(t, t.root, mask_of([0]))


def test_su_sequence_trivial_cases():
    t = build_maximal_cotree(edgeless(1))
    su = build_su_sequence(t, t.root, mask_of([0]))
    assert su.sets == [frozenset({0})]
    assert su.steps == []
    su_empty = build_su_sequence(t, t.root, 0)
    assert su_empty.sets == [frozenset(), frozenset({0})]


def test_su_sequence_union_left_preference():
    t = build_maximal_cotree(two_k2())
    su = build_su_sequence(t, t.root, mask_of([0]))
    assert [sorted(s) for s in su.sets] == [[0], [0, 2]]


def test_su_sequence_starts_full():
    t = build_maximal_cotree(two_k2())
    su = build_su_sequence(t, t.root, mask_of([0, 2]))
    assert su.sets == [frozenset({0, 2})]


def test_su_sequence_join_switch():
    # star = join(K1, 3K1): starting on the small side must switch at the end
    from isrecon import Graph
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t = build_maximal_cotree(g)
    su = build_su_sequence(t, t.root, mask_of([0]))
    assert su.sets[0] == frozenset({0})
    assert su.sets[-1] == frozenset({1, 2, 3})
    # the switch removes the old side before adding the new one
    removals, additions = su.steps[-1]
    assert removals == (0,)
    assert set(additions) == {1, 2, 3}


def test_sequence_to_max_lengths():
    t = build_maximal_cotree(edgeless(2))
    seq = sequence_to_max(t, mask_of([0]), 1)
    assert [sorted(s) for s in seq.sets] == [[0], [0, 1]]
    t2 = build_maximal_cotree(two_k2())
    seq2 = sequence_to_max(t2, mask_of([0, 2]), 2)
    assert seq2.sets == [frozenset({0, 2})]
    assert seq2.length == 0


def test_sequence_to_max_respects_length_bound():
    for g, a, k in [(two_k2(), [0], 1), (edgeless(5), [2], 1), (c4(), [1], 1)]:
        t = build_maximal_cotree(g)
        tabs = compute_ris_tables(t, mask_of(a))
        alpha = tabs[t.root].values[0]
        if tabs[t.root].values[min(k, tabs[t.root].base)] != alpha:
            continue
        seq = sequence_to_max(t, mask_of(a), k)
        validate_tar_sequence(g, seq)
        assert len(seq.sets[-1]) == alpha
        assert seq.length <= 2 * g.n - len(a) - alpha


def test_bridge_max_sets():
    t = build_maximal_cotree(c4())
    seq = bridge_max_sets(t, mask_of([0, 2]), mask_of([1, 3]), 0)
    assert seq.length == 4
    validate_tar_sequence(c4(), seq)
    assert seq.sets[0] == frozenset({0, 2})
    assert seq.sets[-1] == frozenset({1, 3})
    t2 = build_maximal_cotree(two_k2())
    seq2 = bridge_max_sets(t2, mask_of([0, 2]), mask_of([0, 3]), 1)
    assert [sorted(s) for s in seq2.sets] == [[0, 2], [0], [0, 3]]


def test_bridge_identical_sets_is_empty():
    t = build_maximal_cotree(c4())
    seq = bridge_max_sets(t, mask_of([0, 2]), mask_of([0, 2]), 1)
    assert seq.length == 0


def test_bridge_rejects_non_maximum_sets():
    t = build_maximal_cotree(c4())
    with pytest.raises(InputError):
        bridge_max_sets(t, mask_of([0]), mask_of([1, 3]), 0)


def test_sets_outside_a_restricted_tree_are_rejected():
    # the tree of 2K2 pruned to the edge {0, 1}: vertex 2 is in the graph
    # but not in the tree, so no climb or bridge may drop or keep it
    r = restrict(build_maximal_cotree(two_k2()), 0b0011)
    with pytest.raises(InputError):
        sequence_to_max(r, mask_of([0, 2]), 1)
    with pytest.raises(InputError):
        build_su_sequence(r, r.root, mask_of([2]))
    with pytest.raises(InputError):
        bridge_max_sets(r, mask_of([2]), mask_of([0]), 0)
    with pytest.raises(InputError):
        bridge_max_sets(r, mask_of([0]), mask_of([2]), 0)
    with pytest.raises(InputError):
        compute_ris_tables(r, mask_of([2]))
    assert sequence_to_max(r, mask_of([0]), 1).sets == [frozenset({0})]


def test_build_witness_p3():
    g = p3()
    seq = build_witness(g, [0], [1], 1)
    assert [sorted(s) for s in seq.sets] == [[0], [0, 1], [1]]


def test_build_witness_same_endpoints():
    seq = build_witness(c4(), [0, 2], [0, 2], 2)
    assert seq.sets == [frozenset({0, 2})]


def test_build_witness_empty_graph():
    g = Graph(0, [])
    assert build_witness(g, [], [], 0).sets == [frozenset()]
    with pytest.raises(InputError):
        build_witness(g, [], [], 1)


def test_build_witness_rejects_unreachable():
    with pytest.raises(InputError):
        build_witness(c4(), [0, 2], [1, 3], 1)


def test_build_witness_rejects_non_cograph():
    with pytest.raises(UnsupportedGraphClassError):
        build_witness(p4(), [0, 2], [1, 3], 1)


def test_validate_accepts_moves_and_returns_the_last_set():
    seq = TarSequence(frozenset({0, 2}), [("remove", 0), ("remove", 2),
                                          ("add", 1), ("add", 3)], 0)
    assert validate_tar_sequence(c4(), seq) == 0b1010
    assert seq.length == 4
    assert seq.sets == [{0, 2}, {2}, set(), {1}, {1, 3}]


def test_validate_rejects_bad_sequences():
    for start, steps, k in [
        ({0, 1}, [], 0),                     # start set not independent
        ({0}, [], 2),                        # start set below k
        ({0}, [("add", 0)], 0),              # adding a vertex already in
        ({0}, [("add", 1)], 0),              # adding a neighbour
        ({0}, [("remove", 2)], 0),           # removing an absent vertex
        ({0, 2}, [("remove", 0)], 2),        # removal drops below k
        ({0}, [("jump", 2)], 0),             # unknown op
        ({0}, [("add", 4)], 0),              # vertex id n
        ({0}, [("add", -1)], 0),             # vertex id -1
        ({4}, [], 0),                        # start vertex id n
        ({-1}, [], 0),                       # start vertex id -1
    ]:
        with pytest.raises(InternalError):
            validate_tar_sequence(c4(), TarSequence(frozenset(start), steps, k))


def test_restrict_realizes_the_accessible_subgraph():
    pruned = 0
    for seed in range(150):
        g, _ = gen_cograph(1 + seed % 14, seed)
        for a, _, k in sample_triples(g, 4, seed):
            if k < 1:
                continue
            t, vals = freedom_values(g, a, k)
            keep = accessible_subgraph(t, vals)
            pruned += keep != g.full_mask
            r = restrict(t, keep)
            induced = [row & keep if keep >> v & 1 else 0
                       for v, row in enumerate(g.adj)]
            assert realize(r) == Graph(g.n, induced)
            assert r.nodes[r.root].vmask == keep
            assert len(r.nodes) == 2 * keep.bit_count() - 1
            for u in r.postorder():
                node = r.nodes[u]
                assert node.vmask
                if not node.is_leaf:
                    left, right = r.nodes[node.left], r.nodes[node.right]
                    assert node.vmask == left.vmask | right.vmask
    assert pruned > 50


def test_restrict_deep_union_chain():
    n = 1500  # a chain deeper than Python's default recursion limit
    g = alternating_threshold(n)
    t = build_maximal_cotree(g)
    assert cotree_depth(t) == n - 1
    evens = frozenset(range(0, n, 2))
    r = restrict(t, mask_of(evens))
    assert r.nodes[r.root].vmask == mask_of(evens)
    assert sum(r.nodes[u].is_leaf for u in r.postorder()) == n // 2
    # n - 1 is adjacent to every other vertex, so one token cannot stay
    assert not decide(g, evens, {n - 1}, 1).reachable
    b = (evens - {0}) | {1}
    seq = build_witness(g, evens, b, 1)
    assert seq.sets[0] == evens and seq.sets[-1] == b


def _pruned_instance():
    """A 30-vertex cograph and A != B, reachable at k = 1, with G[S] != G."""
    rng = random.Random(8)
    for seed in range(100):
        g, _ = gen_cograph(30, seed)
        a = greedy_independent_set(g, rng)
        t, vals = freedom_values(g, a, 1)
        access = vertex_set(accessible_subgraph(t, vals))
        inner = greedy_independent_set(g.induced(mask_of(access)), rng)
        b = frozenset(sorted(access)[v] for v in inner)
        if access != frozenset(range(g.n)) and a != b and decide(g, a, b, 1).reachable:
            return g, a, b
    raise AssertionError("no pruned reachable instance")


def test_build_witness_factors_once(monkeypatch):
    found, a, b = _pruned_instance()
    g = Graph(found.n, found.adj)  # a graph no query has factored yet
    calls = {"build_maximal_cotree": 0, "induced": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(isrecon.cotree, "build_maximal_cotree",
                        counted("build_maximal_cotree", build_maximal_cotree))
    monkeypatch.setattr(Graph, "induced", counted("induced", Graph.induced))
    assert decide(g, a, b, 1).reachable
    seq = build_witness(g, a, b, 1)
    assert calls == {"build_maximal_cotree": 1, "induced": 0}
    assert seq.sets[0] == a and seq.sets[-1] == b and seq.length > 0


def test_build_witness_checks_each_set_for_independence_once(monkeypatch):
    # Every node of a perfect matching is flat, so each table pass would
    # test the set's part of the whole tree, had the sets not been checked.
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    a, b = mask_of([0, 2]), mask_of([1, 3])
    real = isrecon.engine.is_independent
    calls = []

    def counting(g, m):
        calls.append(m)
        return real(g, m)

    monkeypatch.setattr(isrecon.engine, "is_independent", counting)
    assert build_witness(g, vertex_set(a), vertex_set(b), 1).length > 0
    assert calls == [a, b]
    with pytest.raises(InputError, match="compute_ris_tables"):
        sequence_to_max(build_maximal_cotree(g), mask_of([2, 3]), 1)


def p3_p3_k1():
    """Two P3s (centres 2 and 5) and an isolated vertex 6: alpha 5."""
    return Graph.from_edges(7, [(0, 2), (1, 2), (3, 5), (4, 5)])


def test_a_climb_builds_each_unstored_table_at_most_once(monkeypatch):
    # A = {6} misses the union of the two P3s, which is not flat, so its
    # table is not stored; the climb reads only its children's tables and
    # takes its base from the sizes of the two starts.
    g = p3_p3_k1()
    t = build_maximal_cotree(g)
    tables = compute_ris_tables(t, mask_of([6]))
    reads = []
    real = isrecon.engine._Tables.__missing__

    def counting(self, u):
        reads.append(u)
        return real(self, u)

    monkeypatch.setattr(isrecon.engine._Tables, "__missing__", counting)
    climb = _su_sequence(t, t.root, tables)
    assert reads and len(reads) == len(set(reads))
    assert len(climb.sets[-1]) == 5


def test_build_witness_with_equal_endpoints_runs_no_climb(monkeypatch):
    passes = []
    real = compute_ris_tables

    def counting(t, imask, **kwargs):
        passes.append(imask)
        return real(t, imask, **kwargs)

    monkeypatch.setattr(isrecon.engine, "compute_ris_tables", counting)
    monkeypatch.setattr(isrecon.witness, "compute_ris_tables", counting)
    seq = build_witness(p3_p3_k1(), [0, 3], [0, 3], 1)
    assert passes == [mask_of([0, 3])] * 2      # the verdict's two passes only
    assert seq.length == 0 and seq.alpha_accessible == 5


def test_sequence_to_max_refuses_an_unreachable_maximum():
    # at k = 1 the centre of K1,3 is stuck: no maximum set is reachable
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InternalError,
                       match="restrict to the accessible subgraph first"):
        sequence_to_max(build_maximal_cotree(star), mask_of([0]), 1)
