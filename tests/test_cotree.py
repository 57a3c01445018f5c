import gc
import math
import random
import sys
import threading
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isrecon.chordal
import isrecon.cotree
from isrecon import (Graph, InputError, InternalError, UnsupportedGraphClassError,
                     build_witness, decide, gen_cograph, gen_composed, is_cograph,
                     tj_decide)
from isrecon.cli import main
from isrecon.cotree import (Cotree, JOIN, UNION, build_maximal_cotree, cotree_of, realize,
                            restrict)
from isrecon.engine import _decide_tree
from isrecon.graph import bits
from isrecon.oracle import get_oracle

import helpers
from helpers import (alternating_threshold, c4, complete, compose, cotree_depth,
                     edgeless, leaf_graphs, p3, p4, reference_cotree, two_k2,
                     with_twin)


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
            leaves = [t.nodes[u].vmask for u in t.preorder() if t.nodes[u].is_leaf]
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


C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@st.composite
def leaf_check_trees(draw):
    """The cotree of a cograph, a composition, C5 (a prime root) or C5 joined
    to a cograph (a prime leaf below a join), or that tree restricted to a
    union of its leaves."""
    shape = draw(st.sampled_from(["cograph", "composed", "c5", "c5 join"]))
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    g = {"cograph": lambda: gen_cograph(n, seed)[0],
         "composed": lambda: gen_composed([n, 1 + seed % 20], 0.5, seed),
         "c5": lambda: C5,
         "c5 join": lambda: compose(C5, gen_cograph(n, seed)[0], join=True)}[shape]()
    t = build_maximal_cotree(g)
    if draw(st.booleans()):
        leaves = [t.nodes[u].vmask for u in t.preorder() if t.nodes[u].is_leaf]
        t = restrict(t, reduce(or_, draw(st.lists(st.sampled_from(leaves), min_size=1))))
    return t


@settings(max_examples=200, deadline=None)
@given(leaf_check_trees())
def test_all_leaves_trivial_agrees_with_a_walk_over_the_leaves(t):
    walked = all(t.nodes[u].is_trivial_leaf for u in t.preorder() if t.nodes[u].is_leaf)
    assert t.all_leaves_trivial() == walked


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


def count_searches(monkeypatch) -> list[int]:
    """Record the vertex mask of every component search from now on, made
    by the factorization or by the reference."""
    calls = []
    for module, name in ((isrecon.cotree, "_components"),
                         (helpers, "reference_components")):
        def counted(adj, mask, flip, search=getattr(module, name)):
            calls.append(mask)
            return search(adj, mask, flip)

        monkeypatch.setattr(module, name, counted)
    return calls


def round_one_merged(g: Graph) -> int:
    """The vertices with an earlier twin, by row or closed row."""
    seen = set()
    merged = 0
    for v, row in enumerate(g.adj):
        if row in seen or row | 1 << v in seen:
            merged |= 1 << v
        seen.update((row, row | 1 << v))
    return merged


def test_searches_only_the_stalled_quotient(monkeypatch):
    calls = count_searches(monkeypatch)
    # the twin rounds reduce a cograph to one vertex, with no search
    graphs = [two_k2(), complete(5)]
    graphs += [gen_cograph(n, seed)[0] for n, seed in
               ((2, 0), (30, 1), (60, 2), (150, 3), (300, 4))]
    for g in graphs:
        build_maximal_cotree(g)
        assert calls == []
    # a chain merges only its bottom pair {0, 1} (true twins) in round 1 and
    # stalls; every other part is searched as often as by the reference
    for n in (10, 11, 100):
        g = alternating_threshold(n)
        reference_cotree(g)
        expected = len(calls) - 1
        calls.clear()
        build_maximal_cotree(g)
        assert len(calls) == expected
        calls.clear()
    # prime leaves stall the rounds; no search visits a merged vertex
    for parts, seed in (([5, 7], 2), ([3, 8, 4, 6], 4), ([12, 12, 12], 5)):
        g = gen_composed(parts, 0.5, seed)
        merged = round_one_merged(g)
        assert merged
        build_maximal_cotree(g)
        searched = list(calls)
        assert searched and all(mask & merged == 0 for mask in searched)
        calls.clear()
        reference_cotree(g)
        assert len(searched) <= len(calls)
        calls.clear()


def twin_heavy_primes():
    """P4 and C5 with duplicated vertices, alone, under a join and under a union."""
    rng = random.Random(7)
    bases = [p4(), Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])]
    for base in bases:
        for v in range(base.n):
            for true_twin in (False, True):
                yield with_twin(base, v, true_twin)
    for _ in range(60):
        g = rng.choice(bases)
        for _ in range(rng.randint(1, 6)):
            g = with_twin(g, rng.randrange(g.n), rng.random() < 0.5)
        yield g
        other = rng.choice([edgeless(1), edgeless(3), complete(3), two_k2(), g])
        yield compose(g, other, join=True)
        yield compose(other, g, join=False)


def assert_same_as_reference(g: Graph) -> None:
    t, r = build_maximal_cotree(g), reference_cotree(g)
    assert t.root == r.root
    assert t.dump() == r.dump()
    assert leaf_graphs(t) == leaf_graphs(r)


def test_matches_the_reference_factorization():
    rng = random.Random(11)
    graphs = [gen_cograph(rng.randint(1, 120), seed)[0] for seed in range(400)]
    for seed in range(250):
        parts = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
        graphs.append(gen_composed(parts, rng.random(), seed))
    for _ in range(400):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(Graph.from_edges(n, [(u, v) for u in range(n)
                                           for v in range(u + 1, n) if rng.random() < p]))
    graphs += twin_heavy_primes()
    graphs += [edgeless(4000), Graph.from_edges(4000, [(v, v + 1) for v in range(0, 4000, 2)])]
    assert len(graphs) >= 1000
    for g in graphs:
        assert_same_as_reference(g)


def test_deep_chain_over_a_prime_leaf_with_twins(monkeypatch):
    # P4 0-1-2-3 with a false twin 4 of the end 0 and a true twin 5 of the
    # middle 2; above it a chain deeper than the recursion limit, each new
    # vertex isolated from or dominating all earlier ones
    base = with_twin(with_twin(p4(), 0, False), 2, True)
    levels = sys.getrecursionlimit() + 100
    g = base
    for i in range(levels):
        g = compose(g, edgeless(1), join=i % 2 == 1)
    calls = count_searches(monkeypatch)
    t = build_maximal_cotree(g)
    searched = len(calls)
    calls.clear()
    r = reference_cotree(g)
    assert searched <= len(calls)
    assert t.dump() == r.dump() and leaf_graphs(t) == leaf_graphs(r)
    assert cotree_depth(t) == levels
    (leaf,) = [x for x in t.nodes if x.leaf_graph is not None]
    assert leaf.vmask == base.full_mask and leaf.leaf_graph.adj == base.adj


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


# -- the factorization memo: consecutive queries on one Graph share a tree --

def _count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record the first argument of every call."""
    real = getattr(owner, name)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_consecutive_queries_on_one_graph_factor_it_once(monkeypatch):
    builds = _count_calls(monkeypatch, isrecon.cotree, "build_maximal_cotree")
    g = two_k2()
    assert not decide(g, [0, 2], [1, 3], 2).reachable
    assert tj_decide(g, [0, 2], [1, 3])
    assert build_witness(g, [0, 2], [1, 3], 1).length == 4
    assert is_cograph(g)
    assert builds == [g]
    # a repeat query also skips the prime leaves' copies and their analysis
    induced = _count_calls(monkeypatch, Graph, "induced")
    chordality = _count_calls(monkeypatch, isrecon.chordal, "chordality")
    h = gen_composed([6, 7, 6], 0.5, 5)
    for _ in range(3):
        assert decide(h, [0], [6], 1).reachable
        assert not is_cograph(h)
    assert builds == [g, h] and len(induced) == len(chordality) == 3


def test_a_generated_graph_is_factored_once(monkeypatch):
    builds = _count_calls(monkeypatch, isrecon.cotree, "build_maximal_cotree")
    graphs = []
    for seed in range(4):
        g, t = gen_cograph(9, seed)
        assert decide(g, [0], [0], 1).reachable
        assert build_witness(g, [0], [0], 1).length == 0
        assert cotree_of(g) is t
        graphs.append(g)
    assert builds == graphs
    # the fuzz command factors each graph it generates at most once
    builds.clear()
    assert main(["fuzz", "--count", "40", "--size", "10", "--seed", "0"]) == 0
    assert builds and len(set(map(id, builds))) == len(builds)


def test_an_equal_graph_is_factored_again(monkeypatch):
    builds = _count_calls(monkeypatch, isrecon.cotree, "build_maximal_cotree")
    g = gen_cograph(12, 3)[0]
    h = Graph(g.n, g.adj)
    assert h == g
    t = cotree_of(g)
    assert cotree_of(g) is t
    u = cotree_of(h)
    assert builds == [g, h] and u is not t and u.graph is h


def test_the_last_tree_is_freed_once_another_graph_is_factored():
    def trees_of(graph):
        gc.collect()
        return [x for x in gc.get_objects() if isinstance(x, Cotree) and x.graph is graph]

    g, h = gen_cograph(20, 1)[0], gen_cograph(20, 2)[0]
    assert is_cograph(g) and len(trees_of(g)) == 1
    assert is_cograph(h) and trees_of(g) == []


def test_a_non_chordal_prime_leaf_raises_on_every_call():
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = Graph.from_edges(6, c5 + [(v, 5) for v in range(5)])  # C5 joined to a vertex
    for _ in range(2):
        with pytest.raises(UnsupportedGraphClassError):
            decide(g, [0, 2], [1, 3], 1)
    assert cotree_of(g)._alpha is None


@st.composite
def interleaved_queries(draw):
    """3-4 small graphs and a sequence of queries that hop between them."""
    graphs = []
    for _ in range(draw(st.integers(min_value=3, max_value=4))):
        n = draw(st.integers(min_value=2, max_value=10))
        seed = draw(st.integers(min_value=0, max_value=10 ** 6))
        if draw(st.booleans()):
            graphs.append(gen_cograph(n, seed)[0])
        else:
            first = draw(st.integers(min_value=1, max_value=n - 1))
            graphs.append(gen_composed([first, n - first], 0.5, seed))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        g = draw(st.sampled_from(graphs))
        sets = [m for m in get_oracle(g).sets if m]
        amask, bmask = draw(st.sampled_from(sets)), draw(st.sampled_from(sets))
        k = draw(st.integers(min_value=1,
                             max_value=min(amask.bit_count(), bmask.bit_count())))
        queries.append((g, amask, bmask, k))
    return queries


@settings(max_examples=80, deadline=None)
@given(interleaved_queries())
def test_interleaved_queries_match_a_fresh_factorization(queries):
    for g, amask, bmask, k in queries:
        fresh = build_maximal_cotree(g)
        a, b = (sorted(bits(m)) for m in (amask, bmask))
        assert decide(g, a, b, k) == _decide_tree(fresh, amask, bmask, k)[0]
        assert is_cograph(g) == fresh.all_leaves_trivial()
        assert cotree_of(g).graph is g


def test_threads_hopping_between_graphs_never_get_another_graphs_tree():
    graphs = [gen_cograph(30, seed)[0] for seed in range(6)]
    expected = [build_maximal_cotree(g).all_leaves_trivial() for g in graphs]
    errors = []

    def hop(offset):
        try:
            for i in range(300):
                j = (i + offset) % len(graphs)
                t = cotree_of(graphs[j])
                if t.graph is not graphs[j] or t.all_leaves_trivial() != expected[j]:
                    errors.append((offset, i))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hop, args=(w,)) for w in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


def test_the_empty_graph_is_a_cograph():
    assert is_cograph(Graph(0, []))


def test_restrict_rejects_a_split_leaf_and_an_empty_mask():
    t = build_maximal_cotree(p4())  # one prime leaf
    with pytest.raises(InternalError, match="restriction splits leaf"):
        restrict(t, 0b0011)
    with pytest.raises(InputError, match="cannot restrict a cotree to no vertices"):
        restrict(t, 0)
