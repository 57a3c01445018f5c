"""The brute-force oracle itself, tested against hand-countable instances."""

import pytest

from isrecon import (Graph, InputError, OracleCapacityError, gen_chordal,
                     gen_cograph, gen_composed, is_cograph, oracle_diameter,
                     oracle_reach)
from isrecon.chordal import chordality
from isrecon.cotree import build_maximal_cotree
from isrecon.graph import mask_of
from isrecon.oracle import (ORACLE_CACHE_SIZE, get_oracle, oracle_accessible,
                            oracle_freedom, oracle_ris, solution_graph)

from helpers import c4, complete, edgeless, two_k2


def test_independent_set_enumeration_counts():
    # C4: {}, 4 singletons, {0,2}, {1,3}
    assert len(get_oracle(c4()).sets) == 7
    assert len(get_oracle(complete(3)).sets) == 4
    assert len(get_oracle(edgeless(4)).sets) == 16


def test_oracle_cache_is_bounded():
    # 300 distinct 12-vertex graphs more than the cache holds
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    get_oracle.cache_clear()
    for i in range(ORACLE_CACHE_SIZE + 300):
        g = Graph.from_edges(12, [e for j, e in enumerate(edges) if not i >> j & 1])
        get_oracle(g)
    assert get_oracle.cache_info().currsize == ORACLE_CACHE_SIZE
    get_oracle.cache_clear()


def test_oracle_reach_c4():
    g = c4()
    assert oracle_reach(g, [0, 2], [1, 3], 1) == (False, None)
    assert oracle_reach(g, [0, 2], [1, 3], 0) == (True, 4)
    assert oracle_reach(g, [0, 2], [0, 2], 2) == (True, 0)


def test_oracle_reach_tj():
    assert oracle_reach(c4(), [0, 2], [1, 3], 2, "tj") == (False, None)
    ok, dist = oracle_reach(two_k2(), [0, 2], [1, 3], 2, "tj")
    assert ok and dist == 2
    with pytest.raises(InputError):
        oracle_reach(c4(), [0, 2], [1], 2, "tj")


def test_oracle_reach_validates():
    with pytest.raises(InputError):
        oracle_reach(c4(), [0, 1], [1, 3], 1)
    with pytest.raises(InputError):
        oracle_reach(c4(), [0], [1, 3], 2)
    with pytest.raises(InputError):
        oracle_reach(c4(), [0, 2], [1, 3], 1, model="nonsense")


def test_capacity_cap(monkeypatch):
    import isrecon.oracle
    from isrecon.oracle import SolutionOracle
    monkeypatch.setattr(isrecon.oracle, "ORACLE_CAP", 3)
    with pytest.raises(OracleCapacityError):
        SolutionOracle(c4())


def test_oracle_freedom_two_k2():
    g = two_k2()
    t = build_maximal_cotree(g)
    root = t.nodes[t.root]
    # at k=2 each edge-pair keeps exactly one token on its side
    assert oracle_freedom(g, t, [0, 2], 2, root.left) == 1
    assert oracle_freedom(g, t, [0, 2], 2, root.right) == 1
    assert oracle_freedom(g, t, [0, 2], 1, root.left) == 0


def test_oracle_ris():
    assert oracle_ris(Graph.from_edges(1, []), [0], 1) == 1
    assert oracle_ris(c4(), [0, 2], 2) == 2
    assert oracle_ris(complete(3), [0], 1) == 1
    assert oracle_ris(complete(3), [0], 0) == 1
    assert oracle_ris(edgeless(4), [1], 1) == 4


def test_oracle_accessible():
    assert oracle_accessible(c4(), [0, 2], 1) == frozenset({0, 2})
    assert oracle_accessible(c4(), [0, 2], 0) == frozenset({0, 1, 2, 3})
    # {0,2} is frozen at k=2: no removal allowed, no independent addition
    assert oracle_accessible(two_k2(), [0, 2], 2) == frozenset({0, 2})
    assert oracle_accessible(two_k2(), [0, 2], 1) == frozenset({0, 1, 2, 3})


def test_oracle_diameter():
    assert oracle_diameter(Graph.from_edges(1, []), 1) == 0
    assert oracle_diameter(c4(), 1) == 2
    assert oracle_diameter(edgeless(2), 0) == 2


def test_tar0_solution_graph_is_connected():
    for g in (c4(), two_k2(), complete(4), edgeless(3)):
        sg = solution_graph(g, 0)
        assert len(set(sg.component.values())) == 1


def test_gen_cograph_deterministic_and_correct():
    for seed in range(10):
        g1, t1 = gen_cograph(8, seed)
        g2, _ = gen_cograph(8, seed)
        assert g1 == g2
        assert is_cograph(g1)
        assert t1.all_leaves_trivial()
    g, _ = gen_cograph(1, 3)
    assert g.n == 1


def test_gen_chordal_always_chordal():
    for seed in range(10):
        for density in (0.1, 0.5, 0.9):
            g = gen_chordal(9, density, seed)
            assert chordality(g).is_perfect
            assert g == gen_chordal(9, density, seed)


def test_gen_composed():
    g = gen_composed([3, 4, 2], 0.5, 11)
    assert g.n == 9
    assert g == gen_composed([3, 4, 2], 0.5, 11)
    # every part occupies a contiguous id range and stays chordal
    assert chordality(g.induced(mask_of(range(3)))).is_perfect
    assert chordality(g.induced(mask_of(range(3, 7)))).is_perfect
    with pytest.raises(InputError):
        gen_composed([], 0.5, 1)
