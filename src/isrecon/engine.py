"""Two-pass dynamic program over the cotree and the reachability decision.

Bottom-up: per-node tables of the maximum reachable independent-set size for
every token lower bound, with the maximum stable tuple recorded at union
nodes.  Top-down: minimum-occupancy (freedom) values, plus the blocked flags
that mark the vertices a witness may not use.  The decision compares
the freedom maps of the two input sets and checks leaf-level reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import chordal
from .cotree import Cotree, JOIN, LEAF, UNION, build_maximal_cotree
from .errors import InputError, InternalError
from .graph import Graph, bits, is_independent

FREEDOM_MISMATCH = "freedom-mismatch"
LEAF_UNREACHABLE = "leaf-unreachable"
SIZE_BELOW_THRESHOLD = "size-below-threshold"


@dataclass
class RisTable:
    """Per-node DP row: values[ell] is the best reachable size at bound ell.

    ``tuples`` is populated at union nodes only and stores, for every ell,
    the maximum ell-stable tuple (minimum child occupancies).
    """

    node: int
    base: int                      # |I intersect V_u|
    values: list[int]              # index 0..base, non-increasing
    tuples: Optional[list[tuple[int, int]]] = None


@dataclass
class NodeValues:
    """Top-down results: freedom and blocked flag per node."""

    freedom: dict[int, int]
    blocked: dict[int, bool]


@dataclass
class Decision:
    reachable: bool
    failure_witness: Optional[tuple[Optional[int], str]] = None


def ris_union(ris_v: RisTable, ris_w: RisTable, node: int = -1) -> RisTable:
    """Combine child tables at a union node via the stable-tuple fixpoint.

    For each bound ell (descending), iterate a := max(0, ell - W[b]),
    b := max(0, ell - V[a]) to the fixpoint; the pair only ever decreases,
    so the whole table costs O(base) amortized.
    """
    vv, wv = ris_v.values, ris_w.values
    base = ris_v.base + ris_w.base
    a, b = ris_v.base, ris_w.base
    values = [0] * (base + 1)
    tuples: list[tuple[int, int]] = [(0, 0)] * (base + 1)
    for ell in range(base, -1, -1):
        while True:
            na = ell - wv[b]
            if na < 0:
                na = 0
            nb = ell - vv[a]
            if nb < 0:
                nb = 0
            if na == a and nb == b:
                break
            a, b = na, nb
        values[ell] = vv[a] + wv[b]
        tuples[ell] = (a, b)
    return RisTable(node=node, base=base, values=values, tuples=tuples)


def ris_join(ris_v: RisTable, ris_w: RisTable, node: int = -1) -> RisTable:
    """Combine child tables at a join node.

    Tokens cannot straddle a join, so the occupied child's table carries
    over for every positive bound; at bound 0 the value is the larger of
    the two independence numbers.
    """
    if ris_v.base > 0 and ris_w.base > 0:
        raise InternalError("independent set straddles a join node")
    occ = ris_v if ris_v.base > 0 or ris_w.base == 0 else ris_w
    values = list(occ.values)
    values[0] = max(ris_v.values[0], ris_w.values[0])
    return RisTable(node=node, base=occ.base, values=values)


def _leaf_local_ids(t: Cotree, u: int, mask: int) -> list[int]:
    """Leaf-graph ids of ``mask`` in leaf ``u``: ranks within its vertex mask."""
    vmask = t.nodes[u].vmask
    return [(vmask & ((1 << v) - 1)).bit_count() for v in bits(mask & vmask)]


def compute_ris_tables(t: Cotree, i: Iterable[int]) -> dict[int, RisTable]:
    """Bottom-up pass: one table per cotree node for start set ``i``."""
    imask = t.graph.check_vertex_set(i)
    tables: dict[int, RisTable] = {}
    for u in t.postorder():
        node = t.nodes[u]
        base = (imask & node.vmask).bit_count()
        if node.kind == LEAF:
            if node.is_trivial_leaf:
                tables[u] = RisTable(node=u, base=base, values=[1] * (base + 1))
            else:
                values = chordal.leaf_ris_table(t.leaf_graph(u),
                                                _leaf_local_ids(t, u, imask))
                tables[u] = RisTable(node=u, base=base, values=values)
        elif node.kind == UNION:
            tables[u] = ris_union(tables[node.left], tables[node.right], node=u)
        elif node.kind == JOIN:
            tables[u] = ris_join(tables[node.left], tables[node.right], node=u)
        else:
            raise InternalError(f"unknown node kind {node.kind!r}")
    return tables


def compute_freedom(t: Cotree, i: Iterable[int], k: int,
                    ris: dict[int, RisTable]) -> NodeValues:
    """Top-down pass: freedom values and blocked flags, for 0 <= k <= |i|."""
    imask = t.graph.check_vertex_set(i)
    if not 0 <= k <= ris[t.root].base:
        raise InputError(f"token bound k={k} is outside 0..{ris[t.root].base}, "
                         "the size of the set")
    freedom: dict[int, int] = {t.root: k}
    blocked: dict[int, bool] = {t.root: False}
    for u in t.preorder():
        node = t.nodes[u]
        if node.is_leaf:
            continue
        f = freedom[u]
        blk = blocked[u]
        if node.kind == JOIN:
            left_occ = bool(imask & t.nodes[node.left].vmask)
            right_occ = bool(imask & t.nodes[node.right].vmask)
            if left_occ and right_occ:
                raise InternalError("independent set straddles a join node")
            occ, emp = (node.right, node.left) if right_occ else (node.left, node.right)
            freedom[occ], freedom[emp] = f, 0
            blocked[occ] = blk
            blocked[emp] = blk or f >= 1
        else:  # union
            x, y = ris[u].tuples[f]
            freedom[node.left], freedom[node.right] = x, y
            blocked[node.left] = blocked[node.right] = blk
    return NodeValues(freedom=freedom, blocked=blocked)


def _independent_masks(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[int, int]:
    masks = g.check_vertex_set(a), g.check_vertex_set(b)
    for name, m in zip("AB", masks):
        if not is_independent(g, bits(m)):
            raise InputError(f"set {name} is not independent")
    return masks


def _decide_tree(t: Cotree, amask: int, bmask: int,
                 k: int) -> tuple[Decision, NodeValues]:
    """The verdict on the graph's cotree ``t``, with A's top-down values.

    Requires independent sets and 0 <= k <= min(|A|, |B|).
    """
    ris_a = compute_ris_tables(t, bits(amask))
    ris_b = compute_ris_tables(t, bits(bmask))
    vals_a = compute_freedom(t, bits(amask), k, ris_a)
    vals_b = compute_freedom(t, bits(bmask), k, ris_b)
    for u in t.preorder():
        if vals_a.freedom[u] != vals_b.freedom[u]:
            return Decision(False, (u, FREEDOM_MISMATCH)), vals_a
    for u in t.leaves():
        if t.nodes[u].is_trivial_leaf:
            continue
        la, lb = _leaf_local_ids(t, u, amask), _leaf_local_ids(t, u, bmask)
        if not chordal.leaf_reachable(t.leaf_graph(u), la, lb, vals_a.freedom[u]):
            return Decision(False, (u, LEAF_UNREACHABLE)), vals_a
    return Decision(True), vals_a


def decide(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> Decision:
    """Decide whether ``b`` is TAR-reachable from ``a`` at token bound ``k``."""
    amask, bmask = _independent_masks(g, a, b)
    if k <= 0:
        return Decision(True)
    if amask.bit_count() < k or bmask.bit_count() < k:
        return Decision(False, (None, SIZE_BELOW_THRESHOLD))
    return _decide_tree(build_maximal_cotree(g), amask, bmask, k)[0]


def tj_decide(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Token-jumping reachability between equal-size independent sets."""
    amask = g.check_vertex_set(a)
    bmask = g.check_vertex_set(b)
    if amask.bit_count() != bmask.bit_count():
        raise InputError("token jumping requires equal-size sets")
    return decide(g, bits(amask), bits(bmask), amask.bit_count() - 1).reachable
