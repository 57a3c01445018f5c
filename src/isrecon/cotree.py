"""Generalized cotrees: recursive union/join factorization of a graph.

A graph is split as long as it or its complement is disconnected; the
remaining pieces (indecomposable graphs) become leaf graphs.  A graph whose
maximal decomposition has only single-vertex leaves is a cograph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .errors import InputError, InternalError
from .graph import Graph, bits, vertex_set

UNION = "union"
JOIN = "join"
LEAF = "leaf"


@dataclass
class CotreeNode:
    kind: str               # "union" | "join" | "leaf"
    vmask: int              # vertex set V_u as a bitmask in root-graph ids
    left: int = -1
    right: int = -1
    parent: int = -1
    leaf_graph: Optional[Graph] = None  # only for leaves, built on first access

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    @property
    def is_trivial_leaf(self) -> bool:
        return self.kind == LEAF and self.vmask.bit_count() == 1


@dataclass
class Cotree:
    graph: Graph
    nodes: list[CotreeNode] = field(default_factory=list)
    root: int = -1

    def vertices(self, u: int) -> frozenset:
        return vertex_set(self.nodes[u].vmask)

    def preorder(self) -> Iterator[int]:
        stack = [self.root]
        while stack:
            u = stack.pop()
            yield u
            node = self.nodes[u]
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def postorder(self, start: Optional[int] = None) -> Iterator[int]:
        """Children before parents, in the subtree of ``start`` (default: root)."""
        out = []
        stack = [self.root if start is None else start]
        while stack:
            u = stack.pop()
            out.append(u)
            node = self.nodes[u]
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return iter(reversed(out))

    def leaves(self) -> Iterator[int]:
        return (u for u in self.preorder() if self.nodes[u].is_leaf)

    def leaf_graph(self, u: int) -> Graph:
        """The induced graph of a leaf, materialized on first access."""
        node = self.nodes[u]
        if not node.is_leaf:
            raise InternalError(f"node {u} is not a leaf")
        if node.leaf_graph is None:
            node.leaf_graph = self.graph.induced(bits(node.vmask))
        return node.leaf_graph

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


def _components(adj, mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``, as masks.

    Ordered by their smallest vertex id.
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
                nxt |= adj[v]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def _co_components(adj, mask: int) -> list[int]:
    """Components of the complement of the subgraph induced by ``mask``."""
    comps = []
    remaining = mask
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= mask & ~adj[v]
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def build_maximal_cotree(g: Graph) -> Cotree:
    """Factor ``g`` by union/join splits until every piece is indecomposable.

    Disconnectedness is tested before complement-disconnectedness, and
    multiway splits are folded into left-deep binary chains, so the result
    is deterministic.
    """
    if g.n < 1:
        raise InputError("cotree construction needs at least one vertex")
    t = Cotree(graph=g)
    nodes = t.nodes

    def new_node(kind: str, vmask: int) -> int:
        nodes.append(CotreeNode(kind=kind, vmask=vmask))
        return len(nodes) - 1

    t.root = new_node(LEAF, g.full_mask)
    pending = [t.root]
    while pending:
        u = pending.pop()
        mask = nodes[u].vmask
        if mask.bit_count() == 1:
            continue  # trivial leaf
        parts = _components(g.adj, mask)
        kind = UNION
        if len(parts) == 1:
            parts = _co_components(g.adj, mask)
            kind = JOIN
        if len(parts) == 1:
            continue  # indecomposable leaf; graph materialized lazily
        # Fold the parts into a left-deep chain rooted at u.
        child_ids = [new_node(LEAF, p) for p in parts]
        pending.extend(child_ids)
        acc = child_ids[0]
        for c in child_ids[1:-1]:
            inner = new_node(kind, nodes[acc].vmask | nodes[c].vmask)
            nodes[inner].left, nodes[inner].right = acc, c
            nodes[acc].parent = nodes[c].parent = inner
            acc = inner
        nodes[u].kind = kind
        nodes[u].left, nodes[u].right = acc, child_ids[-1]
        nodes[acc].parent = nodes[child_ids[-1]].parent = u
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
            r.nodes[left].parent = r.nodes[right].parent = len(r.nodes) - 1
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
        if node.is_leaf:
            if node.vmask.bit_count() > 1:
                ids = list(bits(node.vmask))  # leaf-graph id -> root-graph id
                for a, b in t.leaf_graph(u).edges():
                    adj[ids[a]] |= 1 << ids[b]
                    adj[ids[b]] |= 1 << ids[a]
        elif node.kind == JOIN:
            lm = t.nodes[node.left].vmask
            rm = t.nodes[node.right].vmask
            for v in bits(lm):
                adj[v] |= rm
            for v in bits(rm):
                adj[v] |= lm
        elif node.kind != UNION:
            raise InternalError(f"malformed cotree node kind {node.kind!r}")
    return Graph(n, adj, origin=t.graph.origin)


def is_cograph(g: Graph) -> bool:
    """True iff the maximal decomposition of ``g`` has only trivial leaves."""
    if g.n == 0:
        return True
    return build_maximal_cotree(g).all_leaves_trivial()


def classify_leaves(t: Cotree, class_test: Callable[[Graph], bool]) -> bool:
    """True iff every nontrivial leaf graph satisfies ``class_test``."""
    for u in t.leaves():
        if not t.nodes[u].is_trivial_leaf and not class_test(t.leaf_graph(u)):
            return False
    return True
