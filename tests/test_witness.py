"""Witness construction: SU climbs, bridging, and the full pipeline."""

import random

import pytest

import isrecon.cotree
import isrecon.engine
import isrecon.witness
from isrecon import (Graph, InputError, UnsupportedGraphClassError,
                     accessible_subgraph, bridge_max_sets, build_maximal_cotree,
                     build_su_sequence, build_witness, compute_freedom,
                     compute_ris_tables, decide, gen_cograph, realize,
                     sequence_to_max, validate_tar_sequence)
from isrecon.cotree import restrict
from isrecon.graph import mask_of
from isrecon.witness import TarSequence

from helpers import (c4, complete, edgeless, greedy_independent_set, p3, p4,
                     sample_triples, two_k2)


def freedom_values(g, a, k):
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, a)
    return t, compute_freedom(t, a, k, tabs)


def test_accessible_subgraph_c4():
    t, vals = freedom_values(c4(), [0, 2], 1)
    assert accessible_subgraph(t, vals, 1) == frozenset({0, 2})
    t0, vals0 = freedom_values(c4(), [0, 2], 0)
    assert accessible_subgraph(t0, vals0, 0) == frozenset({0, 1, 2, 3})


def test_accessible_subgraph_two_k2():
    # at k=2 the start set {0,2} is frozen: nothing can be removed or added
    t, vals = freedom_values(two_k2(), [0, 2], 2)
    assert accessible_subgraph(t, vals, 2) == frozenset({0, 2})
    # at k=1 tokens can hop within each edge pair
    t1, vals1 = freedom_values(two_k2(), [0, 2], 1)
    assert accessible_subgraph(t1, vals1, 1) == frozenset({0, 1, 2, 3})


def test_accessible_subgraph_rejects_nontrivial_leaves():
    t, vals = freedom_values(p4(), [0, 2], 1)
    with pytest.raises(UnsupportedGraphClassError):
        accessible_subgraph(t, vals, 1)


def test_su_sequence_trivial_cases():
    t = build_maximal_cotree(edgeless(1))
    su = build_su_sequence(t, t.root, [0])
    assert su.sets == [frozenset({0})]
    assert su.steps == []
    su_empty = build_su_sequence(t, t.root, [])
    assert su_empty.sets == [frozenset(), frozenset({0})]


def test_su_sequence_union_left_preference():
    t = build_maximal_cotree(two_k2())
    su = build_su_sequence(t, t.root, [0])
    assert [sorted(s) for s in su.sets] == [[0], [0, 2]]


def test_su_sequence_starts_full():
    t = build_maximal_cotree(two_k2())
    su = build_su_sequence(t, t.root, [0, 2])
    assert su.sets == [frozenset({0, 2})]


def test_su_sequence_join_switch():
    # star = join(K1, 3K1): starting on the small side must switch at the end
    from isrecon import Graph
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t = build_maximal_cotree(g)
    su = build_su_sequence(t, t.root, [0])
    assert su.sets[0] == frozenset({0})
    assert su.sets[-1] == frozenset({1, 2, 3})
    # the switch removes the old side before adding the new one
    removals, additions = su.steps[-1]
    assert removals == (0,)
    assert set(additions) == {1, 2, 3}


def test_sequence_to_max_lengths():
    t = build_maximal_cotree(edgeless(2))
    seq = sequence_to_max(t, [0], 1)
    assert [sorted(s) for s in seq.sets] == [[0], [0, 1]]
    t2 = build_maximal_cotree(two_k2())
    seq2 = sequence_to_max(t2, [0, 2], 2)
    assert seq2.sets == [frozenset({0, 2})]
    assert seq2.length == 0


def test_sequence_to_max_respects_length_bound():
    for g, a, k in [(two_k2(), [0], 1), (edgeless(5), [2], 1), (c4(), [1], 1)]:
        t = build_maximal_cotree(g)
        tabs = compute_ris_tables(t, a)
        alpha = tabs[t.root].values[0]
        if tabs[t.root].values[min(k, tabs[t.root].base)] != alpha:
            continue
        seq = sequence_to_max(t, a, k)
        validate_tar_sequence(g, seq)
        assert len(seq.sets[-1]) == alpha
        assert seq.length <= 2 * g.n - len(a) - alpha


def test_bridge_max_sets():
    t = build_maximal_cotree(c4())
    seq = bridge_max_sets(t, [0, 2], [1, 3], 0)
    assert seq.length == 4
    validate_tar_sequence(c4(), seq)
    assert seq.sets[0] == frozenset({0, 2})
    assert seq.sets[-1] == frozenset({1, 3})
    t2 = build_maximal_cotree(two_k2())
    seq2 = bridge_max_sets(t2, [0, 2], [0, 3], 1)
    assert [sorted(s) for s in seq2.sets] == [[0, 2], [0], [0, 3]]


def test_bridge_identical_sets_is_empty():
    t = build_maximal_cotree(c4())
    seq = bridge_max_sets(t, [0, 2], [0, 2], 1)
    assert seq.length == 0


def test_bridge_rejects_non_maximum_sets():
    t = build_maximal_cotree(c4())
    with pytest.raises(InputError):
        bridge_max_sets(t, [0], [1, 3], 0)


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


def test_validate_rejects_bad_sequences():
    g = c4()
    with pytest.raises(Exception):
        validate_tar_sequence(g, TarSequence([frozenset({0, 1})], 0, 4))
    with pytest.raises(Exception):
        validate_tar_sequence(
            g, TarSequence([frozenset({0}), frozenset({1, 3})], 0, 4))
    with pytest.raises(Exception):
        validate_tar_sequence(g, TarSequence([frozenset({0}), frozenset()], 1, 4))


def test_restrict_realizes_the_accessible_subgraph():
    pruned = 0
    for seed in range(150):
        g, _ = gen_cograph(1 + seed % 14, seed)
        for a, _, k in sample_triples(g, 4, seed):
            if k < 1:
                continue
            t, vals = freedom_values(g, a, k)
            keep = mask_of(accessible_subgraph(t, vals, k))
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
                    assert left.parent == right.parent == u
    assert pruned > 50


def test_restrict_deep_union_chain():
    n = 3000
    t = build_maximal_cotree(edgeless(n))
    keep = mask_of(range(0, n, 2))
    r = restrict(t, keep)
    assert r.nodes[r.root].vmask == keep
    assert sum(r.nodes[u].is_leaf for u in r.postorder()) == n // 2


def _pruned_instance():
    """A 30-vertex cograph and A != B, reachable at k = 1, with G[S] != G."""
    rng = random.Random(8)
    for seed in range(100):
        g, _ = gen_cograph(30, seed)
        a = greedy_independent_set(g, rng)
        t, vals = freedom_values(g, a, 1)
        access = accessible_subgraph(t, vals, 1)
        inner = greedy_independent_set(g.induced(sorted(access)), rng)
        b = frozenset(sorted(access)[v] for v in inner)
        if access != frozenset(range(g.n)) and a != b and decide(g, a, b, 1).reachable:
            return g, a, b
    raise AssertionError("no pruned reachable instance")


def test_build_witness_factors_once(monkeypatch):
    g, a, b = _pruned_instance()
    calls = {"build_maximal_cotree": 0, "induced": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    build = counted("build_maximal_cotree", build_maximal_cotree)
    for module in (isrecon.cotree, isrecon.engine, isrecon.witness):
        monkeypatch.setattr(module, "build_maximal_cotree", build)
    monkeypatch.setattr(Graph, "induced", counted("induced", Graph.induced))
    seq = build_witness(g, a, b, 1)
    assert calls == {"build_maximal_cotree": 1, "induced": 0}
    assert seq.sets[0] == a and seq.sets[-1] == b and seq.length > 0
