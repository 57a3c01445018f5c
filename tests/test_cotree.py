import math
from functools import reduce
from operator import or_

import pytest

import isrecon.cotree
from isrecon import Graph, InputError, gen_cograph, gen_composed, is_cograph
from isrecon.cotree import JOIN, UNION, build_maximal_cotree, realize

from helpers import c4, complete, cotree_depth, edgeless, p3, p4, two_k2


def test_single_vertex():
    t = build_maximal_cotree(Graph.from_edges(1, []))
    assert t.nodes[t.root].is_trivial_leaf
    assert t.all_leaves_trivial()


def test_c4_decomposes_as_join_of_two_pairs():
    t = build_maximal_cotree(c4())
    root = t.nodes[t.root]
    assert root.kind == JOIN
    assert {t.nodes[root.left].vmask, t.nodes[root.right].vmask} == {0b0101, 0b1010}
    assert t.all_leaves_trivial()


def test_two_k2_decomposes_as_union_of_joins():
    t = build_maximal_cotree(two_k2())
    root = t.nodes[t.root]
    assert root.kind == UNION
    for child in (root.left, root.right):
        assert t.nodes[child].kind == JOIN


def test_p4_is_an_indecomposable_leaf():
    t = build_maximal_cotree(p4())
    assert t.nodes[t.root].is_leaf
    assert not t.all_leaves_trivial()
    assert not is_cograph(p4())


def test_prime_root_keeps_the_graph_itself():
    # no induced copy when the prime leaf is the whole graph
    g = p4()
    t = build_maximal_cotree(g)
    assert t.nodes[t.root].leaf_graph is g
    # a prime leaf below the root still gets its own induced graph
    h = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)] + [(v, 4) for v in range(4)])
    t = build_maximal_cotree(h)
    (leaf,) = [x for x in t.nodes if x.leaf_graph is not None]
    assert leaf.leaf_graph.adj == g.adj and leaf.leaf_graph.origin == (0, 1, 2, 3)


def test_multiway_split_folds_balanced():
    for make, kind in ((edgeless, UNION), (complete, JOIN)):
        for k in range(2, 34):
            t = build_maximal_cotree(make(k))
            internal = [u for u in t.preorder() if not t.nodes[u].is_leaf]
            assert len(internal) == k - 1
            assert all(t.nodes[u].kind == kind for u in internal)
            assert cotree_depth(t) == math.ceil(math.log2(k))
            leaves = [t.nodes[u].vmask for u in t.leaves()]
            assert sorted(leaves) == [1 << v for v in range(k)]


def test_realize_round_trip():
    for g in (c4(), p3(), p4(), two_k2(), complete(5), edgeless(6)):
        t = build_maximal_cotree(g)
        assert realize(t) == g


def test_is_cograph_known_cases():
    assert is_cograph(c4())
    assert is_cograph(complete(4))
    assert is_cograph(edgeless(7))
    assert is_cograph(p3())
    assert not is_cograph(p4())
    assert not is_cograph(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))


def test_cotree_rejects_empty_graph():
    with pytest.raises(InputError):
        build_maximal_cotree(Graph(0, ()))


def test_vmasks_partition_at_every_internal_node():
    graphs = [two_k2()] + [gen_cograph(n, seed)[0] for n, seed in
                           ((9, 1), (40, 2), (120, 3))]
    graphs += [gen_composed(parts, 0.5, seed) for parts, seed in
               (([6], 1), ([5, 7], 2), ([4, 6, 5], 3), ([3, 8, 4, 6], 4))]
    for g in graphs:
        t = build_maximal_cotree(g)
        for u in t.preorder():
            node = t.nodes[u]
            if not node.is_leaf:
                lm = t.nodes[node.left].vmask
                rm = t.nodes[node.right].vmask
                assert lm & rm == 0
                assert lm | rm == node.vmask
        assert t.nodes[t.root].vmask == g.full_mask


def test_one_search_per_examined_vertex_set(monkeypatch):
    calls = []
    components = isrecon.cotree._components

    def counted(adj, mask, flip):
        calls.append(mask)
        return components(adj, mask, flip)

    monkeypatch.setattr(isrecon.cotree, "_components", counted)
    build_maximal_cotree(two_k2())      # root, then each K2's complement
    assert len(calls) == 3
    calls.clear()
    build_maximal_cotree(complete(5))   # the connected root gets both
    assert len(calls) == 2
    for n, seed in ((2, 0), (30, 1), (60, 2), (150, 3), (300, 4)):
        g = gen_cograph(n, seed)[0]
        calls.clear()
        t = build_maximal_cotree(g)
        # a split part is a node whose kind differs from its parent's (the
        # nodes that fold a split share its kind); trivial leaves get none
        parts = 0
        for node in t.nodes:
            if not node.is_leaf:
                for child in (t.nodes[node.left], t.nodes[node.right]):
                    if child.kind != node.kind and child.vmask.bit_count() > 1:
                        parts += 1
        connected = t.nodes[t.root].kind == JOIN
        assert len(calls) == parts + 1 + connected
        assert len(set(calls)) == parts + 1  # only the root searched twice


def test_preorder_postorder_cover_all_nodes():
    t = build_maximal_cotree(c4())
    assert sorted(t.preorder()) == sorted(t.postorder()) == sorted(range(len(t.nodes)))
    # a random cograph, and a folded 7-way split
    for t in (build_maximal_cotree(gen_cograph(40, 3)[0]),
              build_maximal_cotree(edgeless(7))):
        pre = {u: i for i, u in enumerate(t.preorder())}
        post = {u: i for i, u in enumerate(t.postorder())}
        assert sorted(pre) == sorted(post) == list(range(len(t.nodes)))
        for u, node in enumerate(t.nodes):
            if not node.is_leaf:
                for child in (node.left, node.right):
                    assert pre[u] < pre[child] and post[child] < post[u]
            if u == t.root:
                continue
            # the subtree of u: the nodes whose vertex sets lie inside u's
            subtree = {x for x, other in enumerate(t.nodes)
                       if other.vmask & ~node.vmask == 0}
            for order in (list(t.preorder(u)), list(t.postorder(u))):
                assert len(order) == len(set(order)) and set(order) == subtree
                assert reduce(or_, (t.nodes[x].vmask for x in order
                                    if t.nodes[x].is_leaf)) == node.vmask
