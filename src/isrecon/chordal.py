"""Base-case solver for nontrivial cotree leaves: chordal graphs.

Chordality is recognized by maximum-cardinality search (Tarjan and
Yannakakis, *SIAM J. Comput.* 13(3), 1984): the reverse of its visit order
is a perfect elimination ordering exactly when the graph is chordal, and a
maximum independent set follows greedily along that ordering.  Reachability
and maximum-reachable-size inside a chordal leaf reduce to a dominating-set
test, because chordal graphs are even-hole-free; a set's leaf table records
the test's answer, and ``pinned`` reads it.  Each leaf graph is analysed
once: its independence number is stored on the immutable ``Graph``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, UnsupportedGraphClassError
from .graph import Graph, bits, is_independent


class EliminationOrdering(NamedTuple):
    """A candidate perfect elimination ordering (simplicial vertex first)."""

    order: tuple[int, ...]
    is_perfect: bool


def chordality(g: Graph) -> EliminationOrdering:
    """Maximum-cardinality search ordering, flagged perfect iff ``g`` is chordal.

    Each step visits the lowest-id unvisited vertex with the most visited
    neighbours; unvisited vertices sit in one bitmask per weight.  The
    reverse of the visit order is a perfect elimination ordering iff ``g``
    is chordal (Tarjan and Yannakakis 1984).  It is checked as the search
    goes: every earlier-visited neighbour of a vertex must be adjacent to
    the last one visited.  Both parts cost O(n + m) bitmask operations.
    """
    adj = g.adj
    weight = [0] * g.n
    last = [-1] * g.n          # the most recently visited neighbour
    buckets = [g.full_mask] + [0] * g.n   # the unvisited vertices per weight
    top = 0
    visited = 0
    sigma = []
    perfect = True
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        p = last[v]
        if p >= 0 and adj[v] & visited & ~(adj[p] | 1 << p):
            perfect = False
        visited |= low
        sigma.append(v)
        for w in bits(adj[v] & ~visited):
            bit = 1 << w
            buckets[weight[w]] ^= bit
            weight[w] += 1
            buckets[weight[w]] |= bit
            last[w] = v
        top += 1
    return EliminationOrdering(tuple(reversed(sigma)), perfect)


def alpha_chordal(g: Graph, peo: EliminationOrdering) -> tuple[int, frozenset]:
    """Maximum independent set size of a chordal graph, with a witness set.

    Greedy over the elimination ordering: take each vertex unless a chosen
    vertex already dominates it.
    """
    if not peo.is_perfect:
        raise InputError("alpha_chordal requires a perfect elimination ordering")
    if sorted(peo.order) != list(range(g.n)):
        raise InputError("ordering is not a permutation of the vertex set")
    chosen = 0
    excluded = 0
    for v in peo.order:
        b = 1 << v
        if not (excluded & b):
            chosen |= b
            excluded |= b | g.adj[v]
    return chosen.bit_count(), frozenset(bits(chosen))


def is_dominating(g: Graph, smask: int) -> bool:
    """True iff every vertex is in the mask ``smask`` or adjacent to a member."""
    if smask & ~g.full_mask:
        raise InputError(f"vertex mask out of range for n={g.n}")
    covered = smask
    for v in bits(smask):
        covered |= g.adj[v]
    return covered == g.full_mask


def _leaf_alpha(g: Graph) -> int:
    """The independence number of a chordal leaf, from one search per graph.

    Raises UnsupportedGraphClassError on every call for a graph that is not
    chordal: only a successful analysis is stored.
    """
    if g._chordal_alpha is None:
        peo = chordality(g)
        if not peo.is_perfect:
            raise UnsupportedGraphClassError("leaf graph is not chordal")
        g._chordal_alpha = alpha_chordal(g, peo)[0]
    return g._chordal_alpha


def pinned(values: list[int], ell: int) -> bool:
    """True iff a set with leaf table ``values`` is stuck at bound ``ell``.

    It is then a dominating set of exactly ``ell`` > 0 tokens.
    """
    return 0 < ell == len(values) - 1 == values[ell]


def leaf_reachable(g: Graph, amask: int, bmask: int, ell: int) -> bool:
    """TAR reachability between independent sets of a chordal graph, as masks.

    Distinct sets are mutually reachable at threshold ``ell`` unless one of
    them is pinned there: a dominating set of size exactly ``ell`` is
    isolated in the solution graph.
    """
    if (amask | bmask) & ~g.full_mask:
        raise InputError(f"vertex mask out of range for n={g.n}")
    if amask.bit_count() < ell or bmask.bit_count() < ell:
        raise InputError("both sets must have size at least the threshold")
    ta, tb = leaf_ris_table(g, amask), leaf_ris_table(g, bmask)
    return amask == bmask or not (pinned(ta, ell) or pinned(tb, ell))


def leaf_ris_table(g: Graph, imask: int) -> list[int]:
    """Maximum reachable independent-set size per threshold, for a chordal leaf.

    Entry ``ell`` is the starting size when the start mask ``imask`` is a
    dominating set of exactly ``ell`` tokens, which ``pinned`` reads back,
    and the graph's independence number otherwise.  Index range ``0..|imask|``.
    """
    if not is_independent(g, imask):
        raise InputError("leaf_ris_table requires an independent set")
    alpha = _leaf_alpha(g)
    size = imask.bit_count()
    values = [alpha] * (size + 1)
    if size > 0 and is_dominating(g, imask):
        values[size] = size
    return values
