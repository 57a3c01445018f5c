"""Property-based tests: randomized structural invariants via hypothesis."""

from __future__ import annotations

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isrecon import (Graph, build_witness, decide, gen_chordal, gen_cograph,
                     gen_composed, is_cograph, validate_tar_sequence)
from isrecon.chordal import alpha_chordal, chordality, leaf_reachable, pinned
from isrecon.cotree import UNION, build_maximal_cotree, realize
from isrecon.engine import (FREEDOM_MISMATCH, LEAF_UNREACHABLE, RisTable, _decide_tree,
                            compute_freedom, compute_ris_tables, ris_union,
                            subtree_alpha, union_split)
from isrecon.graph import bits, is_independent, mask_of, vertex_set
from isrecon.oracle import get_oracle, oracle_accessible, oracle_reach
from isrecon.witness import _su_sequence, accessible_subgraph, bridge_max_sets

from helpers import (c4, compose, connected_chordal, flat_nodes, full_freedom,
                     full_ris_tables, leaf_graphs, maximal_sets, p4, reference_cotree,
                     reference_ris_union, with_twin)

SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def small_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs),
                          unique=True)) if all_pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def twin_expanded_graphs(draw):
    """A small graph with vertices duplicated as true or false twins."""
    g = draw(small_graphs(max_n=7))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        g = with_twin(g, draw(st.integers(min_value=0, max_value=g.n - 1)),
                      draw(st.booleans()))
    return g


@st.composite
def cograph_instances(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    g, t = gen_cograph(n, seed)
    sets = get_oracle(g).sets
    amask = draw(st.sampled_from(sets))
    bmask = draw(st.sampled_from(sets))
    a = frozenset(v for v in range(n) if amask & (1 << v))
    b = frozenset(v for v in range(n) if bmask & (1 << v))
    k = draw(st.integers(min_value=0, max_value=min(len(a), len(b))))
    return g, a, b, k


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@SETTINGS
@given(small_graphs())
def test_realize_round_trips_every_graph(g):
    t = build_maximal_cotree(g)
    # maximality: exactly the leaves of two or more vertices carry a graph,
    # built by the factorization, and each is connected and co-connected,
    # so no split was missed
    for node in t.nodes:
        if node.is_leaf and node.vmask.bit_count() > 1:
            assert node.leaf_graph == g.induced(node.vmask)
            h = to_nx(node.leaf_graph)
            assert nx.is_connected(h) and nx.is_connected(nx.complement(h))
        else:
            assert node.leaf_graph is None
    assert realize(t) == g


@SETTINGS
@given(twin_expanded_graphs())
def test_factorization_matches_the_reference(g):
    t, r = build_maximal_cotree(g), reference_cotree(g)
    assert t.dump() == r.dump()
    assert leaf_graphs(t) == leaf_graphs(r)


@SETTINGS
@given(small_graphs())
def test_chordality_matches_networkx(g):
    assert chordality(g).is_perfect == nx.is_chordal(to_nx(g))


@SETTINGS
@given(small_graphs(max_n=10))
def test_perfect_ordering_meets_the_definition(g):
    peo = chordality(g)
    assert sorted(peo.order) == list(range(g.n))
    if not peo.is_perfect:
        return
    pos = {v: i for i, v in enumerate(peo.order)}
    for v in range(g.n):
        later = [w for w in bits(g.adj[v]) if pos[w] > pos[v]]
        for i, x in enumerate(later):
            for y in later[i + 1:]:
                assert g.adj[x] >> y & 1, (v, x, y)


@SETTINGS
@given(st.integers(min_value=1, max_value=10),
       st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_alpha_chordal_matches_the_oracle(n, density, seed):
    g = gen_chordal(n, density, seed)
    witness = alpha_chordal(g, chordality(g))
    assert witness.bit_count() == max(s.bit_count() for s in get_oracle(g).sets)
    assert is_independent(g, witness)


@SETTINGS
@given(st.integers(min_value=1, max_value=10),
       st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_leaf_reachable_matches_the_oracle(n, density, seed, data):
    g = gen_chordal(n, density, seed)
    sets, maximal = get_oracle(g).sets, maximal_sets(g)
    # maximal sets are dominating, so they are the ones that can be pinned
    a, b = (vertex_set(data.draw(st.sampled_from(
        maximal if data.draw(st.booleans()) else sets))) for _ in "ab")
    ell = data.draw(st.integers(min_value=0, max_value=min(len(a), len(b))))
    assert leaf_reachable(g, mask_of(a), mask_of(b), ell) == oracle_reach(g, a, b, ell)[0]


@SETTINGS
@given(small_graphs())
def test_cograph_means_p4_free(g):
    def edge(u, v):
        return g.adj[u] >> v & 1

    has_p4 = False
    quads = [(a, b, c, d)
             for a in range(g.n) for b in range(g.n)
             for c in range(g.n) for d in range(g.n)
             if len({a, b, c, d}) == 4]
    for a, b, c, d in quads:
        if (edge(a, b) and edge(b, c) and edge(c, d)
                and not edge(a, c) and not edge(a, d) and not edge(b, d)):
            has_p4 = True
            break
    assert is_cograph(g) == (not has_p4)


@SETTINGS
@given(cograph_instances())
def test_ris_tables_monotone_and_bounded(inst):
    g, a, _, _ = inst
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    for u in t.preorder():
        tab = tabs[u]
        base = (t.nodes[u].vmask & g.check_vertex_set(a)).bit_count()
        assert tab.base == base
        assert len(tab.values) == base + 1
        for ell in range(base):
            assert tab.values[ell] >= tab.values[ell + 1]
        assert all(v >= base for v in tab.values)


@st.composite
def mixed_graphs(draw):
    """A cograph or a composition of chordal parts."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    if draw(st.booleans()):
        return gen_cograph(draw(st.integers(min_value=1, max_value=12)), seed)[0]
    parts = draw(st.lists(st.integers(min_value=1, max_value=5),
                          min_size=1, max_size=3))
    return gen_composed(parts, draw(st.sampled_from([0.3, 0.6, 0.9])), seed)


@st.composite
def footprint_instances(draw):
    """A cograph or a composition of chordal parts, a set and a token bound."""
    g = draw(mixed_graphs())
    a = frozenset(bits(draw(st.sampled_from(get_oracle(g).sets))))
    return g, a, draw(st.integers(min_value=0, max_value=len(a)))


@SETTINGS
@given(footprint_instances())
def test_footprint_passes_match_the_full_passes(inst):
    g, a, k = inst
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    vals = compute_freedom(t, k, tabs)
    ref = full_ris_tables(t, mask_of(a))
    ref_freedom, ref_blocked = full_freedom(t, k, ref)
    for u in t.preorder():
        node = t.nodes[u]
        assert tabs[u].base == ref[u].base
        assert tabs[u].values == ref[u].values
        if node.kind == UNION:
            assert [union_split(tabs[node.left], tabs[node.right], ell)
                    for ell in range(tabs[u].base + 1)] == ref[u].tuples
        assert vals.freedom[u] == ref_freedom[u]
        assert (t.nodes[u].vmask & ~vals.blocked == 0) == ref_blocked[u]


@SETTINGS
@given(mixed_graphs())
def test_flat_flags_match_their_definition_and_every_sets_tables(g):
    t = build_maximal_cotree(g)
    flat = {u for u, f in enumerate(subtree_alpha(t)[1]) if f}
    assert flat == flat_nodes(t)
    alpha = full_ris_tables(t, 0)
    for imask in get_oracle(g).sets:
        ref = full_ris_tables(t, imask)
        for u in flat:
            assert ref[u].values == alpha[u].values * (ref[u].base + 1)


@st.composite
def decision_instances(draw):
    """A graph, two independent sets A and B and 0 <= k <= min(|A|, |B|).

    Half the time a connected chordal graph H, nearly always a prime leaf,
    is composed with the graph, within the oracle's cap, and A and B are
    maximal sets meeting H; otherwise they are maximal half the time.  With
    maximal sets k is the smaller size, so that pinned leaves occur.
    """
    g = draw(mixed_graphs())
    hmask = 0
    if draw(st.booleans()):
        h = connected_chordal(draw(st.integers(min_value=4, max_value=5)), 0.5,
                              draw(st.integers(min_value=0, max_value=10 ** 6)))
        hmask = h.full_mask << g.n
        g = compose(g, h, draw(st.booleans()))
    pool = get_oracle(g).sets
    maximal = bool(hmask) or draw(st.booleans())
    if maximal:
        pool = [m for m in maximal_sets(g) if m & hmask] or maximal_sets(g)
    amask, bmask = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    low = min(amask.bit_count(), bmask.bit_count())
    return g, amask, bmask, low if maximal else draw(st.integers(0, low))


@SETTINGS
@given(decision_instances())
@example((p4(), mask_of([0, 3]), mask_of([1, 3]), 2))
@example((compose(p4(), p4(), False), mask_of([0, 3, 4, 7]), mask_of([1, 3, 5, 7]), 4))
@example((c4(), mask_of([0, 2]), mask_of([1, 3]), 1))
def test_the_reported_failure_node_is_the_first_in_preorder(inst):
    g, amask, bmask, k = inst
    t = build_maximal_cotree(g)
    verdict, _ = _decide_tree(t, amask, bmask, k)
    ra, rb = full_ris_tables(t, amask), full_ris_tables(t, bmask)
    fa, fb = full_freedom(t, k, ra)[0], full_freedom(t, k, rb)[0]
    order = list(t.preorder())
    mismatch = [u for u in order if fa[u] != fb[u]]
    stuck = [u for u in order if t.nodes[u].is_leaf
             and (amask ^ bmask) & t.nodes[u].vmask
             and (pinned(ra[u].values, fa[u]) or pinned(rb[u].values, fb[u]))]
    if mismatch:
        assert verdict.failure_witness == (mismatch[0], FREEDOM_MISMATCH)
    elif stuck:
        assert verdict.failure_witness == (stuck[0], LEAF_UNREACHABLE)
    else:
        assert verdict == (True, None)


# At ell = 2 the root union of this graph has the fixpoints (0, 0) and
# (1, 1) for A = {0, 2}; the greatest one, (1, 1), is the children's freedom.
_TWO_FIXPOINTS = (gen_cograph(8, 69)[0], frozenset({0, 2}), frozenset({0, 2}), 0)


@SETTINGS
@given(cograph_instances())
@example(_TWO_FIXPOINTS)
def test_union_tuples_are_maximal_fixpoints(inst):
    g, a, _, _ = inst
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    for u in t.preorder():
        node = t.nodes[u]
        if node.kind != UNION:
            continue
        tv, tw = tabs[node.left], tabs[node.right]
        for ell in range(tabs[u].base + 1):
            x, y = union_split(tv, tw, ell)
            # the split is itself a fixpoint ...
            assert x == max(0, ell - tw.values[y])
            assert y == max(0, ell - tv.values[x])
            # ... and dominates every other fixpoint componentwise
            for xx in range(tv.base + 1):
                for yy in range(tw.base + 1):
                    if xx == max(0, ell - tw.values[yy]) \
                            and yy == max(0, ell - tv.values[xx]):
                        assert x >= xx and y >= yy


def test_the_root_split_is_the_greater_of_two_fixpoints():
    g, a, _, _ = _TWO_FIXPOINTS
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    root = t.nodes[t.root]
    assert root.kind == UNION
    assert union_split(tabs[root.left], tabs[root.right], 2) == (1, 1)


@st.composite
def child_tables(draw):
    """A valid table: non-increasing, every entry at least its base; often flat."""
    base = draw(st.integers(min_value=0, max_value=8))
    low = draw(st.integers(min_value=base, max_value=base + 6))
    if draw(st.booleans()):
        return RisTable(base, [low] * (base + 1))
    steps = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=base, max_size=base))
    return RisTable(base, [low + sum(steps[ell:]) for ell in range(base + 1)])


@settings(max_examples=500, deadline=None)
@given(child_tables(), child_tables())
def test_union_tables_and_splits_match_the_stored_pair_sweep(v, w):
    ref = reference_ris_union(v, w)
    assert ris_union(v, w) == (ref.base, ref.values)
    assert [union_split(v, w, ell) for ell in range(ref.base + 1)] == ref.tuples


@SETTINGS
@given(cograph_instances())
def test_decide_is_an_equivalence(inst):
    g, a, b, k = inst
    assert decide(g, a, a, k).reachable or len(a) < k
    assert decide(g, a, b, k).reachable == decide(g, b, a, k).reachable


@SETTINGS
@given(cograph_instances())
def test_decide_matches_oracle(inst):
    g, a, b, k = inst
    assert decide(g, a, b, k).reachable == oracle_reach(g, a, b, k)[0]


@SETTINGS
@given(cograph_instances())
def test_accessible_matches_oracle(inst):
    g, a, _, k = inst
    if len(a) < k:
        return
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    vals = compute_freedom(t, k, tabs)
    assert accessible_subgraph(t, vals) == mask_of(oracle_accessible(g, a, k))


@SETTINGS
@given(cograph_instances())
def test_witness_valid_whenever_reachable(inst):
    g, a, b, k = inst
    if not decide(g, a, b, k).reachable:
        return
    seq = build_witness(g, a, b, k)
    validate_tar_sequence(g, seq)
    assert seq.sets[0] == a and seq.sets[-1] == b
    assert seq.length <= 4 * g.n - len(a) - len(b)


@SETTINGS
@given(cograph_instances())
def test_a_flat_union_climbs_as_the_interleaving_does(inst):
    g, a, _, _ = inst
    t = build_maximal_cotree(g)
    tabs = compute_ris_tables(t, mask_of(a))
    su = _su_sequence(t, t.root, tabs)
    t._flat = [False] * len(t.nodes)  # every union interleaves from its tables
    assert _su_sequence(t, t.root, tabs) == su


@SETTINGS
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_bridge_moves_between_any_two_maximum_sets(n, seed, data):
    g, _ = gen_cograph(n, seed)
    sets = get_oracle(g).sets
    alpha = max(s.bit_count() for s in sets)
    maxima = [s for s in sets if s.bit_count() == alpha]
    amask = data.draw(st.sampled_from(maxima))
    bmask = data.draw(st.sampled_from(maxima))
    seq = bridge_max_sets(build_maximal_cotree(g), amask, bmask, 0)
    assert validate_tar_sequence(g, seq) == bmask
    assert seq.length == (amask ^ bmask).bit_count()
    assert seq.sets[0] == vertex_set(amask) and seq.sets[-1] == vertex_set(bmask)
