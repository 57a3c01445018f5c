"""Generalized cotrees: recursive union/join factorization of a graph.

A graph is split as long as it or its complement is disconnected; the
remaining prime (indecomposable) pieces become leaf graphs.  Union and join
alternate along every path of this maximal tree (Corneil, Lerchs and Stewart
Burlingham 1981).  A graph with only single-vertex leaves is a cograph.

The factorization merges twins before it searches.  Vertices with equal rows
(false twins) or equal closed rows (true twins) collapse into their smallest
member, round by round, and each merge records a union or join part; a graph
is a cograph exactly when the rounds leave one vertex (the same paper).  The
rounds stop early once one merges fewer than a quarter of the live vertices,
and the connectivity search then factors only the quotient left, in which
every prime piece is a union of twin classes.

A tree depends only on its graph, so ``cotree_of`` keeps the last graph
factored with its tree; consecutive queries on one ``Graph`` object then
share a single factorization.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import InputError, InternalError
from .graph import Graph, bits, mask_of

UNION = "union"
JOIN = "join"
LEAF = "leaf"


class CotreeNode:
    __slots__ = ("kind", "vmask", "left", "right", "leaf_graph")

    def __init__(self, kind: str, vmask: int, left: int = -1, right: int = -1,
                 leaf_graph: Optional[Graph] = None):
        self.kind = kind            # "union" | "join" | "leaf"
        self.vmask = vmask          # vertex set V_u as a bitmask in root-graph ids
        self.left = left
        self.right = right
        self.leaf_graph = leaf_graph  # set on prime leaves only

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    @property
    def is_trivial_leaf(self) -> bool:
        return self.kind == LEAF and self.vmask.bit_count() == 1


class Cotree:
    """A factorization of ``graph``; nodes are indexed by their id.

    ``_alpha`` holds the independence number of every node's subtree and
    ``_flat`` marks the nodes whose tables are flat (see ``engine``); the
    engine fills both on the tree's first table pass.  The tree is not
    changed after it is built, so the lists cannot go stale.
    """

    __slots__ = ("graph", "nodes", "root", "_alpha", "_flat")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.nodes: list[CotreeNode] = []
        self.root = -1
        self._alpha: Optional[list[int]] = None
        self._flat: Optional[list[bool]] = None

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

    def check_vertex_set(self, m: int) -> None:
        """Raise InputError unless the vertex mask ``m`` lies in this tree."""
        if m & ~self.nodes[self.root].vmask:
            raise InputError("vertex mask out of range for the cotree")

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

    With a nonzero ``flip`` the search runs in the complement within
    ``mask``, which gives the co-components.  Ordered by smallest vertex id.
    """
    comps = []
    remaining = mask
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            if flip:
                # the frontier's non-neighbours: all but its common neighbours
                common = -1
                for v in bits(frontier):
                    common &= adj[v]
                    if not common:
                        break
                frontier = remaining & ~(common | comp)
            else:
                nbrs = 0
                for v in bits(frontier):
                    nbrs |= adj[v]
                frontier = nbrs & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def build_maximal_cotree(g: Graph) -> Cotree:
    """Factor ``g`` by union/join splits until every piece is indecomposable.

    Twin rounds come first.  Each round groups the live vertices by their
    row within the live set (false twins) and by their closed row (true
    twins); a vertex has twins of at most one kind.  Every class merges
    into its smallest vertex, which records a union part for false twins or
    a join part for true ones.  A merge part keeps its children in one
    list; a part merged into a part of the same kind is flattened into it,
    its list appended to the other's, and emitting a part pops its list.  A
    class is a module, so the rows of the live vertices span the quotient
    graph.  The rounds stop when one vertex is left (``g`` is a cograph) or
    when a round merges fewer than a quarter of the live vertices, rounded
    down, as on chains or graphs with prime pieces.  Two or three live
    vertices always hold twins, so the rounds end.

    The stalled quotient is then searched as the graph was before: the root
    for components, then co-components; a union part only for
    co-components, a join part only for components.  Deleting a twin keeps
    a part connected and co-connected, so a quotient part kept whole is a
    prime leaf over its classes' vertices, and its induced graph is built
    here; a prime root keeps ``g`` itself.  A single-vertex quotient part
    stands for its class's merge part, whose children need no search.

    A k-way split is folded into a balanced binary tree of depth
    ceil(log2 k) by pairing neighbouring parts, ordered by their smallest
    vertex.
    """
    n = g.n
    if n < 1:
        raise InputError("cotree construction needs at least one vertex")
    adj = g.adj
    # Items 0..n-1 are vertices; items from n on are merge parts and, once
    # the rounds stop, quotient parts.  An item keeps its smallest vertex; a
    # part keeps its vertex mask, and a merge part its kind and its list of
    # children, which emission pops.
    low = list(range(n))
    kinds: dict[int, str] = {}
    masks: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    top = list(range(n))  # live vertex -> the item of its class
    live = list(range(n))
    alive = g.full_mask
    grown = 0  # vertices that have held a class of two or more
    raw = True  # round 1 groups by the raw rows, as every vertex is live
    while len(live) > 1:
        first: dict[int, int] = {}  # row or closed row -> its first vertex
        kept = []
        dead = 0
        for v in live:
            row = adj[v] if raw else adj[v] & alive
            # A row lacks its own vertex and a closed row holds it, so the
            # two kinds of key never collide in one dict.
            kind = UNION
            r = first.setdefault(row, v)
            if r == v:
                kind = JOIN
                r = first.setdefault(row | 1 << v, v)
                if r == v:
                    kept.append(v)
                    continue
            part = top[r]
            if kinds.get(part) != kind:  # r's class opens a part of this kind
                child = part
                part = top[r] = len(low)
                low.append(r)
                kinds[part] = kind
                if child < n:
                    masks[part] = 1 << child
                    grown |= masks[part]
                else:
                    masks[part] = masks[child]
                kids[part] = [child]
            x = top[v]
            bit = 1 << v
            if kinds.get(x) == kind:  # flatten x's children into the part
                kids[part] += kids.pop(x)
                masks[part] |= masks.pop(x)
            else:
                kids[part].append(x)
                masks[part] |= masks[x] if x >= n else bit
            dead |= bit
        alive ^= dead
        raw = False
        stalled = len(live) - len(kept) < len(live) // 4
        live = kept
        if stalled:
            break

    grown &= alive  # the live vertices whose class holds two or more
    quotient: dict[int, int] = {}  # quotient part item -> its live vertices

    def add_quotient_part(reps: int, vmask: int) -> int:
        x = len(low)
        low.append((reps & -reps).bit_length() - 1)
        quotient[x] = reps
        masks[x] = vmask
        return x

    t = Cotree(graph=g)
    nodes = t.nodes

    def new_node(kind: str, vmask: int, left: int = -1, right: int = -1) -> int:
        nodes.append(CotreeNode(kind, vmask, left, right))
        return len(nodes) - 1

    t.root = new_node(LEAF, g.full_mask)
    root = top[live[0]] if len(live) == 1 else add_quotient_part(alive, g.full_mask)
    pending = [(t.root, None, root)]  # (node, kind of the split that made it, item)
    while pending:
        u, made_by, item = pending.pop()
        if item < n:
            continue  # trivial leaf
        if item in kinds:
            kind = kinds[item]
            parts = kids.pop(item)
        else:
            parts = []
            reps = quotient[item]
            for kind, flip in ((UNION, 0), (JOIN, reps)):
                if kind != made_by:  # a union part is connected, a join part co-connected
                    found = _components(adj, reps, flip)
                    if len(found) > 1:
                        break
            else:
                # prime leaf; a prime root is the graph itself
                mask = nodes[u].vmask
                nodes[u].leaf_graph = g if mask == g.full_mask else g.induced(mask)
                continue
            # The largest quotient part takes the vertices the others leave,
            # so only the smaller ones gather their classes.
            largest = max(found, key=int.bit_count)
            rest = 0
            for p in found:
                if p & (p - 1):
                    if p == largest:
                        continue
                    vmask = p
                    for r in bits(p & grown):
                        vmask |= masks[top[r]]
                    x = add_quotient_part(p, vmask)
                    parts.append(x)
                else:
                    x = top[p.bit_length() - 1]
                    if kinds.get(x) == kind:  # its children join the split
                        parts += kids.pop(x)
                    else:
                        parts.append(x)
                rest |= masks[x] if x >= n else 1 << x
            if largest & (largest - 1):
                parts.append(add_quotient_part(largest, nodes[u].vmask & ~rest))
        parts.sort(key=low.__getitem__)
        level = []
        for x in parts:
            level.append(new_node(LEAF, masks[x] if x >= n else 1 << x))
            pending.append((level[-1], kind, x))
        # Pair neighbouring parts level by level, carrying an odd last part
        # up, so the split has depth ceil(log2 k); u takes the last two.
        while len(level) > 2:
            paired = []
            for a, b in zip(level[::2], level[1::2]):
                paired.append(new_node(kind, nodes[a].vmask | nodes[b].vmask, a, b))
            level = paired + level[2 * len(paired):]
        nodes[u].kind = kind
        nodes[u].left, nodes[u].right = level
    return t


# The last graph factored by ``cotree_of`` and its tree.  It is keyed by
# identity: an equal graph may carry another ``origin``, which the tree's
# ``graph`` exposes, and hashing the rows would cost O(n^2/64) per call.
_last: tuple = (None, None)


def cotree_of(g: Graph) -> Cotree:
    """The maximal cotree of ``g``, built once for consecutive calls on ``g``.

    Only the last graph and its tree are kept, and both stay alive until
    another graph is factored.  A build that raises keeps nothing.
    """
    global _last
    last_g, t = _last  # one read, so a concurrent call cannot mix two pairs
    if last_g is g:
        return t
    # Drop the old pair first, so that two trees are never alive at once.
    del last_g, t
    _last = (None, None)
    t = build_maximal_cotree(g)
    _last = (g, t)
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
    return cotree_of(g).all_leaves_trivial()

