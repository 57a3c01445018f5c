"""Two-pass dynamic program over the cotree and the reachability decision.

Bottom-up: per-node tables of the maximum reachable independent-set size
for every token lower bound.  Top-down: minimum-occupancy (freedom) values,
each union's split derived from its children's tables at its own freedom,
plus the mask of the vertices a witness may not use.  The decision compares
the freedoms of the two input sets, then reads from each prime leaf's two
tables whether either set is pinned there.

A node is flat when every independent set's table there is its subtree's
independence number alpha at every bound: a trivial leaf, a union of two
flat children, or a join of two flat children with equal alpha.  A prime
leaf is never flat, and a flat node's children are flat.  Each tree
computes alpha and the flags once, at its first pass.  A set's table pass
builds only the nodes that meet it (and the root) and are not flat; every
other node reads as ``[alpha] * (base + 1)``, which one popcount gives, so
a subtree the set misses reads as ``[alpha]``.  At a flat union the
freedom split needs no table either.  The comparison visits only the nodes
where either set's freedom is positive.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import chordal
from .cotree import Cotree, JOIN, LEAF, UNION, cotree_of
from .errors import InputError, InternalError
from .graph import Graph, bits, is_independent, mask_of

FREEDOM_MISMATCH = "freedom-mismatch"
LEAF_UNREACHABLE = "leaf-unreachable"
SIZE_BELOW_THRESHOLD = "size-below-threshold"


class RisTable(NamedTuple):
    """Per-node DP row: values[ell] is the best reachable size at bound ell."""

    base: int                      # |I intersect V_u|
    values: list[int]              # index 0..base, non-increasing


class NodeValues(NamedTuple):
    """Top-down results: freedom per node id, and the blocked vertices.

    ``blocked`` is the union of the empty sides of the joins whose freedom
    is at least 1; a node is blocked exactly when its vertex set lies
    inside this mask.
    """

    freedom: list[int]
    blocked: int


class _Tables(dict):
    """The tables of the set ``imask``, keyed by node.

    Stored are the nodes that meet the set (and the root) and are not
    flat.  Any other node ``u`` reads as ``RisTable(b, [alpha_u] * (b + 1))``,
    b the number of the set's vertices below ``u``: the table a whole-tree
    pass builds there, as ``u`` is flat or the set misses it.  It is made
    again on each read and never stored.
    """

    def __init__(self, t: Cotree, imask: int):
        super().__init__()
        self.imask = imask
        self._nodes = t.nodes
        self._alpha = subtree_alpha(t)[0]

    def __missing__(self, u: int) -> RisTable:
        base = (self.imask & self._nodes[u].vmask).bit_count()
        return RisTable(base, [self._alpha[u]] * (base + 1))


class Decision(NamedTuple):
    reachable: bool
    failure_witness: Optional[tuple[Optional[int], str]] = None


def _stable_pair(vv: list[int], wv: list[int], ell: int,
                 a: int, b: int) -> tuple[int, int]:
    """Iterate a := max(0, ell - W[b]), b := max(0, ell - V[a]) to the fixpoint:
    from at or above the greatest ell-stable pair, the iterates fall to it."""
    while True:
        na = ell - wv[b]
        if na < 0:
            na = 0
        nb = ell - vv[a]
        if nb < 0:
            nb = 0
        if na == a and nb == b:
            return a, b
        a, b = na, nb


def union_split(ris_v: RisTable, ris_w: RisTable, ell: int) -> tuple[int, int]:
    """The children's freedoms at a union of freedom ``ell``: the greatest
    ell-stable pair, reached from the children's bases."""
    return _stable_pair(ris_v.values, ris_w.values, ell, ris_v.base, ris_w.base)


def ris_union(ris_v: RisTable, ris_w: RisTable) -> RisTable:
    """Combine child tables at a union node via the stable-pair fixpoint.

    If both children are flat (every entry their alpha), so is the union,
    at the sum.  Otherwise the bounds are swept in descending order, each
    starting from the previous bound's pair; the pair only ever decreases,
    so the whole table costs O(base) amortized.
    """
    vv, wv = ris_v.values, ris_w.values
    base = ris_v.base + ris_w.base
    if vv[0] == vv[-1] and wv[0] == wv[-1]:
        return RisTable(base, [vv[0] + wv[0]] * (base + 1))
    a, b = ris_v.base, ris_w.base
    values = [0] * (base + 1)
    for ell in range(base, -1, -1):
        a, b = _stable_pair(vv, wv, ell, a, b)
        values[ell] = vv[a] + wv[b]
    return RisTable(base, values)


def ris_join(ris_v: RisTable, ris_w: RisTable) -> RisTable:
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
    return RisTable(occ.base, values)


def _leaf_local_mask(t: Cotree, u: int, mask: int) -> int:
    """``mask`` in leaf ``u``'s graph ids: ranks within the leaf's vertex mask."""
    vmask = t.nodes[u].vmask
    return mask_of((vmask & ((1 << v) - 1)).bit_count() for v in bits(mask & vmask))


def subtree_alpha(t: Cotree) -> tuple[list[int], list[bool]]:
    """The independence number of every node's subtree, and whether the
    node is flat, by node id.

    Computed once per tree, in one postorder pass: alpha is 1 at a trivial
    leaf, the sum at a union, the larger child at a join, and
    ``chordal.leaf_alpha`` at a prime leaf.  Raises UnsupportedGraphClassError
    if any prime leaf is not chordal.
    """
    if t._alpha is None:
        nodes = t.nodes
        alpha = [1] * len(nodes)
        flat = [True] * len(nodes)
        for u in t.postorder():
            node = nodes[u]
            if node.kind == UNION:
                alpha[u] = alpha[node.left] + alpha[node.right]
                flat[u] = flat[node.left] and flat[node.right]
            elif node.kind == JOIN:
                a, b = alpha[node.left], alpha[node.right]
                alpha[u] = max(a, b)
                flat[u] = flat[node.left] and flat[node.right] and a == b
            elif node.leaf_graph is not None:
                # Through the empty set's table: the benchmark's trace counts
                # prime leaves by their leaf_ris_table calls (ROADMAP item 1).
                leaf = node.leaf_graph
                alpha[u] = chordal.leaf_ris_table(leaf, 0, chordal.leaf_alpha(leaf))[0]
                flat[u] = False
        t._flat = flat  # before _alpha, which marks the pass as done
        t._alpha = alpha
    return t._alpha, t._flat


def compute_ris_tables(t: Cotree, imask: int, *, checked: bool = False) -> _Tables:
    """Bottom-up pass: the table of every cotree node for the start set ``imask``.

    Only the nodes that meet the mask (and the root) and are not flat are
    built and stored; any other node reads as its flat table (see
    ``_Tables``).  The pass finds a dependent set at a join it builds, in a
    prime leaf's table, or with ``is_independent`` on the set's part of a
    flat node's subtree; ``checked=True`` says the caller has already run
    ``is_independent`` on the whole set, and skips that last test.  Errors
    come in a fixed order: a vertex outside the tree (InputError), then a
    prime leaf anywhere in the tree that is not chordal
    (UnsupportedGraphClassError), then a dependent ``imask`` (InputError).
    """
    t.check_vertex_set(imask)
    alpha, flat = subtree_alpha(t)
    nodes = t.nodes
    order = []
    stack = [t.root]
    while stack:
        u = stack.pop()
        order.append(u)
        node = nodes[u]
        if node.kind != LEAF and not flat[u]:
            if nodes[node.right].vmask & imask:
                stack.append(node.right)
            if nodes[node.left].vmask & imask:
                stack.append(node.left)
    tables = _Tables(t, imask)
    for u in reversed(order):
        node = nodes[u]
        if flat[u]:
            # its leaves are trivial, so only its joins could find the set
            # dependent, and a whole-tree pass visits them just before u
            if not (checked or is_independent(t.graph, imask & node.vmask)):
                raise InputError("compute_ris_tables requires an independent set")
        elif node.kind == LEAF:
            values = chordal.leaf_ris_table(
                node.leaf_graph, _leaf_local_mask(t, u, imask), alpha[u])
            tables[u] = RisTable(len(values) - 1, values)
        elif node.kind == UNION:
            tables[u] = ris_union(tables[node.left], tables[node.right])
        elif node.kind == JOIN:
            if imask & nodes[node.left].vmask and imask & nodes[node.right].vmask:
                raise InputError("compute_ris_tables requires an independent set")
            tables[u] = ris_join(tables[node.left], tables[node.right])
        else:
            raise InternalError(f"unknown node kind {node.kind!r}")
    return tables


def check_token_bound(k: int, size: int) -> None:
    """Raise InputError unless 0 <= k <= ``size``, the size of the set."""
    if not 0 <= k <= size:
        raise InputError(f"token bound k={k} is outside 0..{size}, the size of the set")


def compute_freedom(t: Cotree, k: int, ris: _Tables) -> NodeValues:
    """Top-down pass over the set's tables ``ris``, for 0 <= k <= its size.

    A join's occupied child is the one that the set ``ris.imask`` meets, so
    only the tables of the unions that are not flat are read.  Only the
    nodes of positive freedom are visited, and they are all occupied: below
    a node of freedom 0 every freedom is 0 and no join blocks its empty side.
    """
    check_token_bound(k, ris.imask.bit_count())
    alpha, flat = subtree_alpha(t)
    nodes = t.nodes
    freedom = [0] * len(nodes)
    freedom[t.root] = k
    blocked = 0
    stack = [t.root] if k else []
    while stack:
        u = stack.pop()
        node = nodes[u]
        if node.kind == JOIN:
            occ, emp = node.left, node.right
            if ris.imask & nodes[emp].vmask:
                occ, emp = emp, occ
            freedom[occ] = freedom[u]
            blocked |= nodes[emp].vmask
            stack.append(occ)
        elif node.kind == UNION:
            f = freedom[u]
            if flat[u]:  # union_split's fixpoint on flat tables, in one step
                x, y = max(0, f - alpha[node.right]), max(0, f - alpha[node.left])
            else:
                x, y = union_split(ris[node.left], ris[node.right], f)
            freedom[node.left], freedom[node.right] = x, y
            if x:
                stack.append(node.left)
            if y:
                stack.append(node.right)
    return NodeValues(freedom=freedom, blocked=blocked)


def _check_independent(g: Graph, amask: int, bmask: int) -> None:
    for name, m in (("A", amask), ("B", bmask)):
        if not is_independent(g, m):
            raise InputError(f"set {name} is not independent")


def _decide_tree(t: Cotree, amask: int, bmask: int,
                 k: int) -> tuple[Decision, NodeValues]:
    """The verdict on the graph's cotree ``t``, with A's top-down values.

    Requires sets that ``_check_independent`` has passed, so the table
    passes do not test them again, and 0 <= k <= min(|A|, |B|).  The first
    node in preorder whose freedoms differ fails; failing that, the first
    leaf where A and B differ and either set's table is pinned at its
    freedom.  Both checks visit only the nodes where either freedom is
    positive, in preorder: they form a subtree holding the root, the
    freedoms elsewhere are both 0, and a table is pinned only at a positive
    freedom.
    """
    ris_a = compute_ris_tables(t, amask, checked=True)
    ris_b = compute_ris_tables(t, bmask, checked=True)
    vals_a = compute_freedom(t, k, ris_a)
    vals_b = compute_freedom(t, k, ris_b)
    fa, fb = vals_a.freedom, vals_b.freedom
    diff = amask ^ bmask
    nodes = t.nodes
    stuck = None
    stack = [t.root]
    while stack:
        u = stack.pop()
        f = fa[u]
        if f != fb[u]:
            return Decision(False, (u, FREEDOM_MISMATCH)), vals_a
        node = nodes[u]
        if node.kind != LEAF:
            if fa[node.right] or fb[node.right]:
                stack.append(node.right)
            if fa[node.left] or fb[node.left]:
                stack.append(node.left)
        elif stuck is None and diff & node.vmask and (
                chordal.pinned(ris_a[u].values, f)
                or chordal.pinned(ris_b[u].values, f)):
            stuck = u
    if stuck is not None:
        return Decision(False, (stuck, LEAF_UNREACHABLE)), vals_a
    return Decision(True), vals_a


def _decide_masks(g: Graph, amask: int, bmask: int, k: int) -> Decision:
    """``decide`` on the two sets' vertex masks."""
    _check_independent(g, amask, bmask)
    if k <= 0:
        return Decision(True)
    if amask.bit_count() < k or bmask.bit_count() < k:
        return Decision(False, (None, SIZE_BELOW_THRESHOLD))
    return _decide_tree(cotree_of(g), amask, bmask, k)[0]


def decide(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> Decision:
    """Decide whether ``b`` is TAR-reachable from ``a`` at token bound ``k``."""
    return _decide_masks(g, g.check_vertex_set(a), g.check_vertex_set(b), k)


def tj_decide(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Token-jumping reachability between equal-size independent sets."""
    amask, bmask = g.check_vertex_set(a), g.check_vertex_set(b)
    if amask.bit_count() != bmask.bit_count():
        raise InputError("token jumping requires equal-size sets")
    return _decide_masks(g, amask, bmask, amask.bit_count() - 1).reachable
