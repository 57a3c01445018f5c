import pytest

from isrecon import (Graph, InputError, UnsupportedGraphClassError, chordal,
                     decide, gen_composed)
from isrecon.chordal import (alpha_chordal, chordality, is_dominating, leaf_alpha,
                             leaf_reachable, leaf_ris_table, pinned)
from isrecon.cotree import build_maximal_cotree
from isrecon.graph import mask_of

from helpers import c4, complete, edgeless, p4


def chordless_cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_chordality_accepts_known_chordal_graphs():
    for g in (p4(), complete(5), edgeless(4), Graph.from_edges(1, [])):
        assert chordality(g).is_perfect


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_chordless_cycles_rejected(n):
    assert not chordality(chordless_cycle(n)).is_perfect


def test_long_chordless_cycles_rejected():
    for n in range(4, 61):
        assert not chordality(chordless_cycle(n)).is_perfect, n


def test_chordality_order_is_a_permutation():
    g = p4()
    order = chordality(g).order
    assert sorted(order) == list(range(4))


def test_alpha_chordal_values():
    peo = chordality(p4())
    assert alpha_chordal(p4(), peo).bit_count() == 2
    assert alpha_chordal(complete(6), chordality(complete(6))).bit_count() == 1
    assert alpha_chordal(edgeless(5), chordality(edgeless(5))) == 0b11111


def test_leaf_alpha_values():
    assert leaf_alpha(p4()) == 2
    assert leaf_alpha(complete(6)) == 1
    assert leaf_alpha(edgeless(5)) == 5
    assert leaf_alpha(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 3


def test_alpha_chordal_requires_perfect_ordering():
    g = chordless_cycle(4)
    with pytest.raises(InputError):
        alpha_chordal(g, chordality(g))


def test_is_dominating():
    g = p4()
    assert is_dominating(g, mask_of([1, 2]))
    assert is_dominating(g, mask_of([1, 3]))
    assert not is_dominating(g, mask_of([0]))
    assert not is_dominating(g, 0)
    assert is_dominating(complete(3), mask_of([0]))


def test_leaf_reachable_basic():
    g = p4()
    # {0,2} and {1,3} at threshold 1: {1,3} dominates at size... it does not
    # pin anything because neither has size exactly 1
    assert leaf_reachable(g, mask_of([0, 2]), mask_of([1, 3]), 1)
    assert leaf_reachable(g, mask_of([0, 2]), mask_of([0, 2]), 2)
    assert leaf_reachable(g, mask_of([0]), mask_of([3]), 0)


def test_leaf_reachable_dominating_pin():
    # in K3 every single vertex dominates, so distinct singletons are stuck at ell=1
    g = complete(3)
    assert not leaf_reachable(g, mask_of([0]), mask_of([1]), 1)
    assert leaf_reachable(g, mask_of([0]), mask_of([1]), 0)
    assert leaf_reachable(g, mask_of([0]), mask_of([0]), 1)


def test_leaf_reachable_validates_inputs():
    g = p4()
    with pytest.raises(InputError):
        leaf_reachable(g, mask_of([0, 1]), mask_of([0, 2]), 1)  # A not independent
    with pytest.raises(InputError):
        leaf_reachable(g, mask_of([0]), mask_of([0, 2]), 2)  # |A| < ell
    with pytest.raises(UnsupportedGraphClassError):
        leaf_reachable(c4(), mask_of([0, 2]), mask_of([1, 3]), 1)


def test_leaf_ris_table():
    g = p4()
    assert leaf_ris_table(g, 0, 2) == [2]
    assert leaf_ris_table(g, mask_of([0]), 2) == [2, 2]        # {0} does not dominate
    assert leaf_ris_table(g, mask_of([1]), 2) == [2, 2]        # {1} misses vertex 3
    assert leaf_ris_table(g, mask_of([1, 3]), 2) == [2, 2, 2]  # dominating but already max
    assert leaf_ris_table(complete(3), mask_of([0]), 1) == [1, 1]
    # a dominating set strictly smaller than alpha pins its own entry
    star_plus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert leaf_ris_table(star_plus, mask_of([0]), 3) == [3, 1]


def test_pinned_reads_the_last_entry_at_the_base():
    assert pinned([3, 1], 1)             # the star's center
    assert not pinned([3, 1], 0)         # bound 0 pins nothing
    assert pinned([2, 2, 2], 2)          # a maximum set at its own size
    assert not pinned([3, 3, 2], 1)      # below the base
    assert not pinned([3, 1], 2)         # above the base
    assert not pinned([3, 3], 1)         # not dominating
    assert pinned([1, 1], 1)             # a trivial leaf's table
    assert not pinned([1], 0)
    assert pinned(leaf_ris_table(complete(3), mask_of([0]), 1), 1)


def test_leaf_ris_table_rejects_non_chordal():
    with pytest.raises(UnsupportedGraphClassError):
        leaf_ris_table(c4(), mask_of([0]), leaf_alpha(c4()))


def test_decide_analyses_each_prime_leaf_once(monkeypatch):
    calls = []
    real = chordal.chordality

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(chordal, "chordality", counting)
    g = gen_composed([6, 7, 6], 0.5, 5)
    t = build_maximal_cotree(g)
    prime = [u for u in t.preorder()
             if t.nodes[u].is_leaf and not t.nodes[u].is_trivial_leaf]
    assert len(prime) == 3
    decide(g, [0], [6], 1)
    assert len(calls) == len(prime)


def c5_join_k1():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    return Graph.from_edges(6, c5 + [(i, 5) for i in range(5)])


def c6_beside_k2():
    return Graph.from_edges(8, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7)])


@pytest.mark.parametrize("g, a, b", [(c5_join_k1(), [0, 2], [1, 3]),
                                     (c6_beside_k2(), [0, 2, 6], [1, 3, 7])])
def test_non_chordal_prime_leaf_raises_on_every_call(g, a, b):
    for _ in range(2):
        with pytest.raises(UnsupportedGraphClassError):
            decide(g, a, b, 1)


def test_leaf_analysis_failure_is_not_stored():
    g = c4()
    for _ in range(2):
        with pytest.raises(UnsupportedGraphClassError):
            leaf_alpha(g)
        with pytest.raises(UnsupportedGraphClassError):
            leaf_reachable(g, mask_of([0, 2]), mask_of([1, 3]), 1)
