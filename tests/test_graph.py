import pytest

from isrecon import Graph, InputError, is_independent, is_module

from helpers import c4, complete, edgeless, p3


def test_from_edges_basic():
    g = c4()
    assert g.n == 4
    assert g.edge_count() == 4
    assert g.has_edge(0, 1)
    assert not g.has_edge(0, 2)
    assert sorted(g.neighbors(1)) == [0, 2]
    assert g.degree(2) == 2


def test_edges_iterates_each_pair_once():
    g = complete(4)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_rejects_self_loop_and_bad_ids():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(-1, 0)])


def test_check_vertex_set_rejects_out_of_range():
    g = p3()
    with pytest.raises(InputError):
        g.check_vertex_set([0, 5])
    with pytest.raises(InputError):
        g.check_vertex_set([-1])


def test_is_independent():
    g = c4()
    assert is_independent(g, [0, 2])
    assert is_independent(g, [1, 3])
    assert is_independent(g, [])
    assert not is_independent(g, [0, 1])


def test_is_module():
    g = c4()
    # opposite corners of a 4-cycle form a module
    assert is_module(g, [0, 2])
    assert is_module(g, [1, 3])
    assert not is_module(g, [0, 1])
    assert is_module(g, [0, 1, 2, 3])  # trivial module
    with pytest.raises(InputError):
        is_module(g, [])


def test_induced_subgraph_renumbers_and_tracks_origin():
    g = c4()
    h = g.induced([1, 2, 3])
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    assert h.origin == (1, 2, 3)
    # extraction composes: take a further subgraph
    hh = h.induced([0, 2])
    assert hh.origin == (1, 3)
    assert hh.edge_count() == 0


def test_induced_of_edgeless():
    g = edgeless(5)
    h = g.induced([1, 3])
    assert h.n == 2 and h.edge_count() == 0


def test_graph_equality_and_hash():
    assert c4() == c4()
    assert hash(c4()) == hash(c4())
    assert c4() != edgeless(4)
