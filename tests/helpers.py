"""Shared fixtures-in-spirit: named small graphs and corpus samplers."""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from isrecon import Graph, gen_cograph
from isrecon.chordal import is_dominating, leaf_alpha, leaf_ris_table
from isrecon.cotree import JOIN, LEAF, UNION, Cotree, CotreeNode
from isrecon.engine import RisTable, ris_join
from isrecon.graph import bits, mask_of
from isrecon.oracle import get_oracle


def c4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def p3() -> Graph:
    # path 0 - 2 - 1 (center 2)
    return Graph.from_edges(3, [(0, 2), (1, 2)])


def two_k2() -> Graph:
    return Graph.from_edges(4, [(0, 1), (2, 3)])


def p4() -> Graph:
    # smallest non-cograph
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def alternating_threshold(n: int) -> Graph:
    """Vertex v is isolated among 0..v-1 when v is even, dominating when odd.

    Each vertex splits off the rest with one 2-way union or join, so the
    cotree is a chain of depth n - 1.
    """
    odd = mask_of(range(1, n, 2))
    adj = [odd & ~((2 << v) - 1) for v in range(n)]
    for v in range(1, n, 2):
        adj[v] |= (1 << v) - 1
    return Graph(n, adj)


def with_twin(g: Graph, v: int, true_twin: bool) -> Graph:
    """``g`` plus a new last vertex that is a true or false twin of ``v``."""
    row = g.adj[v] | (1 << v if true_twin else 0)
    adj = [r | (row >> u & 1) << g.n for u, r in enumerate(g.adj)]
    return Graph(g.n + 1, adj + [row])


def compose(g: Graph, h: Graph, join: bool) -> Graph:
    """The union or join of ``g`` and ``h``, with ``h`` renumbered after ``g``."""
    hmask = ((1 << h.n) - 1) << g.n if join else 0
    adj = [row | hmask for row in g.adj]
    adj += [row << g.n | (g.full_mask if join else 0) for row in h.adj]
    return Graph(g.n + h.n, adj)


def cotree_depth(t) -> int:
    """The number of edges on the longest root-to-leaf path of a cotree."""
    depth = {t.root: 0}
    for u in t.preorder():
        node = t.nodes[u]
        if not node.is_leaf:
            depth[node.left] = depth[node.right] = depth[u] + 1
    return max(depth.values())


def reference_components(adj, mask: int, flip: int) -> list[int]:
    """Components of the subgraph induced by ``mask``, by plain search.

    With ``flip`` = ``mask`` every row is complemented within ``mask``, which
    gives the co-components.  Ordered by smallest vertex id.
    """
    comps = []
    remaining = mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v] ^ flip
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def reference_cotree(g: Graph) -> Cotree:
    """Reference factorization: one connectivity search per part, no twins.

    The root is searched for components, then co-components; a union part
    only for co-components, a join part only for components.  A part kept
    whole is a prime leaf.  A k-way split folds into a balanced tree by
    pairing neighbouring parts, ordered by their smallest vertex.  The
    searches go through the module's ``reference_components``, so a test
    can count them.
    """
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
            continue
        for kind, flip in ((UNION, 0), (JOIN, mask)):
            if kind != made_by:
                parts = reference_components(g.adj, mask, flip)
                if len(parts) > 1:
                    break
        else:
            nodes[u].leaf_graph = g if mask == g.full_mask else g.induced(mask)
            continue
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


def leaf_graphs(t: Cotree) -> list:
    """(node, adj, origin) of every prime leaf, in node order."""
    return [(u, x.leaf_graph.adj, x.leaf_graph.origin)
            for u, x in enumerate(t.nodes) if x.leaf_graph is not None]


def sample_triples(g: Graph, count: int, seed: int):
    """Random (A, B, k) triples over the independent sets of ``g``."""
    rng = random.Random(seed)
    sets = get_oracle(g).sets
    out = []
    for _ in range(count):
        amask = sets[rng.randrange(len(sets))]
        bmask = sets[rng.randrange(len(sets))]
        a = frozenset(v for v in range(g.n) if amask & (1 << v))
        b = frozenset(v for v in range(g.n) if bmask & (1 << v))
        out.append((a, b, rng.randint(0, min(len(a), len(b)))))
    return out


def maximal_sets(g: Graph) -> list[int]:
    """The masks of the maximal independent sets of ``g``."""
    return [m for m in get_oracle(g).sets if is_dominating(g, m)]


def maximal_pairs(g: Graph, count: int, seed: int):
    """(A, B, |A|) for distinct maximal independent sets A and B of equal size."""
    rng = random.Random(seed)
    by_size: dict[int, list[int]] = {}
    for m in maximal_sets(g):
        by_size.setdefault(m.bit_count(), []).append(m)
    groups = [ms for ms in by_size.values() if len(ms) > 1]
    out = []
    for _ in range(count if groups else 0):
        a, b = (frozenset(bits(m)) for m in rng.sample(rng.choice(groups), 2))
        out.append((a, b, len(a)))
    return out


def greedy_independent_set(g: Graph, rng: random.Random) -> frozenset:
    """A random maximal independent set, built by shuffled greedy insertion."""
    taken = 0
    blocked = 0
    for v in rng.sample(range(g.n), g.n):
        bit = 1 << v
        if not (blocked & bit):
            taken |= bit
            blocked |= bit | g.adj[v]
    return frozenset(v for v in range(g.n) if taken & (1 << v))


def connected_chordal(n: int, density: float, seed: int) -> Graph:
    """A random connected chordal graph, grown one simplicial vertex at a time.

    Each new vertex attaches to a random earlier parent and to each member
    of the parent's clique with probability ``density``; the attachment is
    the new vertex's clique.  Unlike sparse ``gen_chordal`` graphs, the
    result is connected, so for n > 3 it is nearly always one prime leaf.
    """
    rng = random.Random(seed)
    adj = [0] * n
    clique_of = [0] * n
    for v in range(1, n):
        p = rng.randrange(v)
        chosen = 1 << p
        for w in bits(clique_of[p]):
            if rng.random() < density:
                chosen |= 1 << w
        clique_of[v] = chosen
        adj[v] = chosen
        for w in bits(chosen):
            adj[w] |= 1 << v
    return Graph(n, adj)


def cograph_corpus(count: int, max_n: int, seed_base: int = 0):
    """The deterministic cograph corpus used by the acceptance suite."""
    rng = random.Random(seed_base)
    for seed in range(seed_base, seed_base + count):
        n = rng.randint(1, max_n)
        g, t = gen_cograph(n, seed)
        yield seed, g, t


class ReferenceTable(NamedTuple):
    """A table with, at a union, the greatest stable pair of every bound."""

    base: int
    values: list[int]
    tuples: Optional[list[tuple[int, int]]] = None


def reference_ris_union(ris_v, ris_w) -> ReferenceTable:
    """The union sweep that stores a pair per bound, kept apart from the engine.

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
    return ReferenceTable(base=base, values=values, tuples=tuples)


def full_ris_tables(t, imask: int) -> dict:
    """Reference table pass: every node's table, in postorder over the whole
    tree, with each union's pairs from ``reference_ris_union``."""
    t.check_vertex_set(imask)
    tables = {}
    for u in t.postorder():
        node = t.nodes[u]
        if node.kind == UNION:
            tables[u] = reference_ris_union(tables[node.left], tables[node.right])
        elif node.kind == JOIN:
            tables[u] = ris_join(tables[node.left], tables[node.right])
        else:
            base = (imask & node.vmask).bit_count()
            if node.is_trivial_leaf:
                tables[u] = RisTable(base, [1] * (base + 1))
            else:
                local = [x for x, v in enumerate(bits(node.vmask)) if imask >> v & 1]
                leaf = node.leaf_graph
                tables[u] = RisTable(base, leaf_ris_table(leaf, mask_of(local), leaf_alpha(leaf)))
    return tables


def flat_nodes(t) -> set:
    """The flat nodes of ``t`` by their definition, with each subtree's alpha
    from the reference pass: a trivial leaf, a union of two flat children,
    or a join of two flat children with equal alpha."""
    alpha = {u: tab.values[0] for u, tab in full_ris_tables(t, 0).items()}
    flat = set()
    for u in t.postorder():
        node = t.nodes[u]
        kids = {node.left, node.right}
        if node.is_trivial_leaf or (node.kind == UNION and kids <= flat) or (
                node.kind == JOIN and kids <= flat
                and alpha[node.left] == alpha[node.right]):
            flat.add(u)
    return flat


def full_freedom(t, k: int, ris: dict) -> tuple[dict, dict]:
    """Reference freedom pass: freedom and blocked flag of every node, top-down."""
    freedom = {t.root: k}
    blocked = {t.root: False}
    for u in t.preorder():
        node = t.nodes[u]
        if node.is_leaf:
            continue
        f = freedom[u]
        if node.kind == JOIN:
            occ, emp = node.left, node.right
            if ris[emp].base > 0:
                occ, emp = emp, occ
            freedom[occ], freedom[emp] = f, 0
            blocked[occ] = blocked[u]
            blocked[emp] = blocked[u] or f >= 1
        else:
            freedom[node.left], freedom[node.right] = ris[u].tuples[f]
            blocked[node.left] = blocked[node.right] = blocked[u]
    return freedom, blocked
