"""Generalized cotrees: recursive union/join factorization of a graph.

A graph is split as long as it or its complement is disconnected; the
remaining prime (indecomposable) pieces become leaf graphs.  Union and join
alternate along every path of this maximal tree (Corneil, Lerchs and Stewart
Burlingham 1981).  A graph with only single-vertex leaves is a cograph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import InputError, InternalError
from .graph import Graph, bits, mask_of

UNION = "union"
JOIN = "join"
LEAF = "leaf"


@dataclass
class CotreeNode:
    kind: str               # "union" | "join" | "leaf"
    vmask: int              # vertex set V_u as a bitmask in root-graph ids
    left: int = -1
    right: int = -1
    leaf_graph: Optional[Graph] = None  # set on prime leaves only

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    @property
    def is_trivial_leaf(self) -> bool:
        return self.kind == LEAF and self.vmask.bit_count() == 1


@dataclass
class Cotree:
    """A factorization of ``graph``; nodes are indexed by their id.

    ``_alpha`` holds the independence number of every node's subtree, which
    the engine fills on the tree's first table pass; the tree is not changed
    after it is built, so the list cannot go stale.
    """

    graph: Graph
    nodes: list[CotreeNode] = field(default_factory=list)
    root: int = -1
    _alpha: Optional[list[int]] = field(default=None, init=False, repr=False,
                                        compare=False)

    def preorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Parents before children, in the subtree of ``start`` (default: root).

        The left subtree comes before the right one.
        """
        stack = [self.root if start is None else start]
        while stack:
            u = stack.pop()
            yield u
            node = self.nodes[u]
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def postorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Children before parents, in the subtree of ``start`` (default: root).

        The reverse of ``preorder``, so the right subtree comes first.
        """
        return reversed(list(self.preorder(start)))

    def leaves(self) -> Iterator[int]:
        return (u for u in self.preorder() if self.nodes[u].is_leaf)

    def check_vertex_set(self, s: Iterable[int]) -> int:
        """Validate a vertex set against this tree's vertices; return its mask."""
        m = self.graph.check_vertex_set(s)
        if m & ~self.nodes[self.root].vmask:
            raise InputError("the set has vertices outside the cotree")
        return m

    def all_leaves_trivial(self) -> bool:
        return all(self.nodes[u].is_trivial_leaf for u in self.leaves())

    def dump(self) -> str:
        """Indented text rendering, one line per node."""
        lines = []
        stack = [(self.root, 0)]
        while stack:
            u, depth = stack.pop()
            node = self.nodes[u]
            vs = sorted(bits(node.vmask))
            label = "leaf(trivial)" if node.is_trivial_leaf else node.kind
            lines.append("  " * depth + f"{label} #{u} |V|={len(vs)} V={vs}")
            if not node.is_leaf:
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))
        return "\n".join(lines)


def _components(adj, mask: int, flip: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``, as masks.

    With ``flip`` = ``mask`` every row is complemented within ``mask``, which
    gives the components of the complement.  Ordered by smallest vertex id.
    """
    comps = []
    remaining = mask
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v] ^ flip
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def build_maximal_cotree(g: Graph) -> Cotree:
    """Factor ``g`` by union/join splits until every piece is indecomposable.

    The root is searched for components, then co-components; a union part
    only for co-components, a join part only for components.  A part kept
    whole is a prime leaf, and its induced graph is built here; a prime
    root keeps ``g`` itself.  A k-way split is folded into a balanced
    binary tree of depth ceil(log2 k) by pairing neighbouring parts,
    ordered by their smallest vertex.
    """
    if g.n < 1:
        raise InputError("cotree construction needs at least one vertex")
    t = Cotree(graph=g)
    nodes = t.nodes

    def new_node(kind: str, vmask: int, left: int = -1, right: int = -1) -> int:
        nodes.append(CotreeNode(kind, vmask, left, right))
        return len(nodes) - 1

    t.root = new_node(LEAF, g.full_mask)
    pending = [(t.root, None)]  # (node, kind of the split that made it)
    while pending:
        u, made_by = pending.pop()
        mask = nodes[u].vmask
        if mask.bit_count() == 1:
            continue  # trivial leaf
        for kind, flip in ((UNION, 0), (JOIN, mask)):
            if kind != made_by:  # a union part is connected, a join part co-connected
                parts = _components(g.adj, mask, flip)
                if len(parts) > 1:
                    break
        else:
            # prime leaf; a prime root is the graph itself
            nodes[u].leaf_graph = g if mask == g.full_mask else g.induced(bits(mask))
            continue
        # Pair neighbouring parts level by level, carrying an odd last part
        # up, so the split has depth ceil(log2 k); u takes the last two.
        level = [new_node(LEAF, p) for p in parts]
        pending.extend((p, kind) for p in level)
        while len(level) > 2:
            paired = []
            for a, b in zip(level[::2], level[1::2]):
                paired.append(new_node(kind, nodes[a].vmask | nodes[b].vmask, a, b))
            level = paired + level[2 * len(paired):]
        nodes[u].kind = kind
        nodes[u].left, nodes[u].right = level
    return t


def restrict(t: Cotree, keep: int) -> Cotree:
    """The cotree of the subgraph induced by the vertex mask ``keep``.

    Drops the subtrees outside ``keep`` and contracts each node left with
    one child (Corneil, Lerchs and Stewart Burlingham 1981); ids stay those
    of ``t.graph``.  Every leaf must lie wholly inside or outside ``keep``.
    """
    r = Cotree(graph=t.graph)
    copy = [-1] * len(t.nodes)  # node of t -> its node in r, -1 when pruned
    for u in t.postorder():
        node = t.nodes[u]
        vmask = node.vmask & keep
        if not vmask:
            continue
        if node.is_leaf:
            if vmask != node.vmask:
                raise InternalError(f"restriction splits leaf {u}")
            r.nodes.append(CotreeNode(LEAF, vmask, leaf_graph=node.leaf_graph))
        else:
            left, right = copy[node.left], copy[node.right]
            if left < 0 or right < 0:
                copy[u] = max(left, right)
                continue
            r.nodes.append(CotreeNode(node.kind, vmask, left, right))
        copy[u] = len(r.nodes) - 1
    if copy[t.root] < 0:
        raise InputError("cannot restrict a cotree to no vertices")
    r.root = copy[t.root]
    return r


def realize(t: Cotree) -> Graph:
    """Rebuild the root graph from the tree; used for validation only."""
    n = t.graph.n
    adj = [0] * n
    for u in t.postorder():
        node = t.nodes[u]
        if node.leaf_graph is not None:
            ids = list(bits(node.vmask))  # leaf-graph id -> root-graph id
            for a, row in enumerate(node.leaf_graph.adj):
                adj[ids[a]] |= mask_of(ids[b] for b in bits(row))
        elif node.kind == JOIN:
            lm = t.nodes[node.left].vmask
            rm = t.nodes[node.right].vmask
            for v in bits(lm):
                adj[v] |= rm
            for v in bits(rm):
                adj[v] |= lm
        elif node.kind not in (UNION, LEAF):
            raise InternalError(f"malformed cotree node kind {node.kind!r}")
    return Graph(n, adj, origin=t.graph.origin)


def is_cograph(g: Graph) -> bool:
    """True iff the maximal decomposition of ``g`` has only trivial leaves."""
    if g.n == 0:
        return True
    return build_maximal_cotree(g).all_leaves_trivial()

