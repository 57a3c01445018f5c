import pytest

from isrecon import Graph, InputError
from isrecon.graph import is_independent, mask_of

from helpers import c4, complete, edgeless, p3


def test_from_edges_basic():
    g = c4()
    assert g.n == 4
    assert g.edge_count() == 4
    assert g.adj == (0b1010, 0b0101, 0b1010, 0b0101)


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
    assert is_independent(g, mask_of([0, 2]))
    assert is_independent(g, mask_of([1, 3]))
    assert is_independent(g, 0)
    assert not is_independent(g, mask_of([0, 1]))


def test_induced_subgraph_renumbers_and_tracks_origin():
    g = c4()
    h = g.induced(mask_of([1, 2, 3]))
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    assert h.origin == (1, 2, 3)
    # extraction composes: take a further subgraph
    hh = h.induced(mask_of([0, 2]))
    assert hh.origin == (1, 3)
    assert hh.edge_count() == 0


def test_induced_of_edgeless():
    g = edgeless(5)
    h = g.induced(mask_of([1, 3]))
    assert h.n == 2 and h.edge_count() == 0


def test_graph_equality_and_hash():
    assert c4() == c4()
    assert hash(c4()) == hash(c4())
    assert c4() != edgeless(4)
    assert (Graph(1, [0]) == 1) is False


@pytest.mark.parametrize("n, adj, message", [
    (-1, [], "vertex count must be nonnegative"),
    (2, [0], "adjacency length does not match vertex count"),
    (2, [0b01, 0b00], "self-loop at vertex 0"),
    (2, [0b100, 0b00], "adjacency row of vertex 0 out of range"),
], ids=["negative-n", "row-count", "self-loop", "bit-n"])
def test_constructor_rejects_malformed_rows(n, adj, message):
    with pytest.raises(InputError, match=message):
        Graph(n, adj)


def test_a_graph_stores_no_analysis():
    # what is computed from a graph (each prime leaf's alpha) lives on its cotree
    assert Graph.__slots__ == ("n", "adj", "origin", "full_mask")
