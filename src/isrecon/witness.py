"""Explicit reconfiguration sequences for cograph instances.

A witness is a start set plus single-token moves ('add'|'remove', v), so no
other jump can be written down.  When the decision procedure answers yes,
the at most 4n - |A| - |B| moves are assembled in three legs: climb from A
to a maximum independent set of the accessible subgraph, swap join sides
between two maximum sets, and descend (B's climb, reversed) to B.  A climb
is likewise a start set plus steps, built in one postorder pass over each
subtree's alpha and, at the unions that are not flat, the RIS tables.
"""

from __future__ import annotations

from functools import reduce
from operator import or_, xor
from typing import Iterable, NamedTuple

from .cotree import Cotree, JOIN, cotree_of, restrict
from .engine import (NodeValues, _check_independent, _decide_tree, _Tables,
                     compute_ris_tables, subtree_alpha)
from .errors import (InputError, InternalError, UnreachableError,
                     UnsupportedGraphClassError)
from .graph import Graph, bits, is_independent, vertex_set


class TarSequence(NamedTuple):
    """A start set and the single-token moves ('add'|'remove', v) that follow."""

    start: frozenset
    steps: list[tuple[str, int]]
    k: int
    alpha_accessible: int = 0      # from build_witness: alpha of G[accessible]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def sets(self) -> list[frozenset]:
        """Every set along the sequence, replayed from the moves."""
        cur = set(self.start)
        out = [frozenset(cur)]
        for _, v in self.steps:
            cur ^= {v}
            out.append(frozenset(cur))
        return out


def _end_mask(start: int, steps: list[tuple[str, int]]) -> int:
    """The last set of valid moves ``steps`` from the mask ``start``."""
    return reduce(xor, (1 << v for _, v in steps), start)


def validate_tar_sequence(g: Graph, seq: TarSequence) -> int:
    """Raise InternalError unless ``seq`` is a valid k-TAR-sequence in ``g``.

    The start set is checked once; each move then costs one bit test, as
    adding v keeps a set independent iff no neighbour of v is in it.
    Returns the last set as a bitmask.
    """
    def bit(v: int) -> int:
        if not 0 <= v < g.n:
            raise InternalError(f"vertex {v} is outside the graph")
        return 1 << v

    cur = reduce(or_, map(bit, seq.start), 0)
    size = cur.bit_count()
    if size < seq.k or not is_independent(g, cur):
        raise InternalError("the start set is not independent with k tokens")
    for op, v in seq.steps:
        b = bit(v)
        if op == "add" and not (cur & b or g.adj[v] & cur):
            size += 1
        elif op == "remove" and cur & b and size > seq.k:
            size -= 1
        else:
            raise InternalError(f"invalid move {op!r} of vertex {v}")
        cur ^= b
    return cur


Step = tuple[tuple[int, ...], tuple[int, ...]]  # (removals, additions)


class SuSequence(NamedTuple):
    """Monotone climb C_0..C_p within one cotree subtree, as a start set and steps.

    ``steps[i]`` realizes C_i -> C_{i+1} as ordered removals followed by
    ordered additions; every vertex is added at most once over the climb.
    ``sets`` replays them on demand.
    """

    start: frozenset
    steps: list[Step]

    @property
    def sets(self) -> list[frozenset]:
        cur = self.start
        out = [cur]
        for removals, additions in self.steps:
            cur = cur.difference(removals).union(additions)
            out.append(cur)
        return out


def build_su_sequence(t: Cotree, u: int, imask: int) -> SuSequence:
    """Construct the monotone climb for subtree ``u`` from the vertex mask ``imask``.

    Leaves contribute at most one addition; a join node may append one final
    side-switch; a union node interleaves its children's climbs, advancing
    whichever child still improves at the largest surviving threshold (the
    left child on ties).
    """
    return _su_sequence(t, u, compute_ris_tables(t, imask))


def _su_sequence(t: Cotree, u: int, tables: _Tables) -> SuSequence:
    """``build_su_sequence`` given the start set's tables on ``t``.

    The set is ``tables.imask``.  Every node keeps its climb as (start
    mask, top mask, steps).  Every climb tops out at a maximum set of its
    subtree, so a top has alpha vertices, and an unoccupied join takes the
    top of its child with the larger alpha (the left child on ties).  Only
    the unions that are not flat read tables, their children's: on flat
    tables the left child improves at every bound until it tops out, so a
    flat union's climb is the left child's followed by the right one's.
    """
    nodes = t.nodes
    imask = tables.imask
    alpha, flat = subtree_alpha(t)
    climbs: dict[int, tuple[int, int, list[Step]]] = {}
    for x in t.postorder(u):
        node = nodes[x]
        if node.is_leaf:
            if not node.is_trivial_leaf:
                raise UnsupportedGraphClassError(
                    "witness construction requires single-vertex leaves")
            v = node.vmask
            climbs[x] = ((v, v, []) if v & imask
                         else (0, v, [((), (v.bit_length() - 1,))]))
        elif node.kind == JOIN:
            if not imask & node.vmask:
                top = climbs[node.left if alpha[node.left] == alpha[x]
                             else node.right][1]
                climbs[x] = (0, top, [((), tuple(bits(top)))])
                continue
            occ, emp = node.left, node.right
            if not imask & nodes[occ].vmask:
                occ, emp = node.right, node.left
            start, top, steps = climbs[occ]  # only x reads it: extend in place
            if alpha[occ] < alpha[x]:
                switch = climbs[emp][1]
                steps.append((tuple(bits(top)), tuple(bits(switch))))
                top = switch
            climbs[x] = (start, top, steps)
        else:  # union: interleave the children's climbs
            start_v, top_v, steps_v = climbs[node.left]
            start_w, top_w, steps_w = climbs[node.right]
            if flat[x]:
                steps_v += steps_w  # only x reads them: extend in place
                climbs[x] = (start_v | start_w, top_v | top_w, steps_v)
                continue
            tv, tw = tables[node.left].values, tables[node.right].values
            q, r = start_v.bit_count(), start_w.bit_count()
            base = q + r
            b = c = 0
            steps = []
            while q != tv[0] or r != tw[0]:
                for ell in range(base, -1, -1):
                    if tv[max(ell - r, 0)] > q:
                        step = steps_v[b]
                        b += 1
                        q += len(step[1]) - len(step[0])
                        break
                    if tw[max(ell - q, 0)] > r:
                        step = steps_w[c]
                        c += 1
                        r += len(step[1]) - len(step[0])
                        break
                else:
                    raise InternalError("stuck union climb: no threshold improves")
                steps.append(step)
            climbs[x] = (start_v | start_w, top_v | top_w, steps)
    start, _, steps = climbs[u]
    return SuSequence(vertex_set(start), steps)


def sequence_to_max(t: Cotree, imask: int, k: int, *,
                    checked: bool = False) -> TarSequence:
    """Expand the root climb into a k-TAR-sequence from ``imask`` to a maximum set.

    Requires that a maximum independent set is reachable at threshold ``k``
    (true after restriction to the accessible subgraph); the result has
    length at most 2n - |imask| - alpha.  ``checked`` is handed to the
    table pass (see ``compute_ris_tables``).
    """
    tables = compute_ris_tables(t, imask, checked=checked)
    root = tables[t.root]
    kk = max(k, 0)
    if kk > root.base or root.values[kk] != root.values[0]:
        raise InternalError(
            "no maximum independent set is reachable at this threshold; "
            "restrict to the accessible subgraph first")
    su = _su_sequence(t, t.root, tables)
    steps = []
    for removals, additions in su.steps:
        steps += [("remove", v) for v in removals]
        steps += [("add", v) for v in additions]
    return TarSequence(su.start, steps, k)


def accessible_subgraph(t: Cotree, values_a: NodeValues) -> int:
    """The mask of all vertices that some reachable independent set contains.

    ``values_a`` is the top-down pass of a start set at its token bound.  A
    vertex is inaccessible exactly when its leaf sits below the empty side
    of a join node that must keep at least one token on the occupied side,
    which is what ``values_a.blocked`` masks; at bound 0 no leaf is blocked.
    """
    if not t.all_leaves_trivial():
        raise UnsupportedGraphClassError(
            "accessibility analysis requires single-vertex leaves")
    return t.nodes[t.root].vmask & ~values_a.blocked


def bridge_max_sets(t: Cotree, amask: int, bmask: int, k: int) -> TarSequence:
    """A k-TAR-sequence between two mutually reachable maximum sets, as masks.

    One preorder walk skips every subtree where the two sets agree; at a
    join whose sides the two sets occupy differently, it removes the first
    set's side and adds the second's.  The length is exactly the symmetric
    difference of the two sets.
    """
    t.check_vertex_set(amask | bmask)
    if not t.all_leaves_trivial():
        raise UnsupportedGraphClassError(
            "witness construction requires single-vertex leaves")
    alpha = subtree_alpha(t)[0][t.root]
    for m in (amask, bmask):
        if m.bit_count() != alpha or not is_independent(t.graph, m):
            raise InputError("bridging requires maximum independent sets")
    steps: list[tuple[str, int]] = []
    stack = [t.root]
    while stack:
        node = t.nodes[stack.pop()]
        if not (amask ^ bmask) & node.vmask:
            continue
        if node.is_leaf:
            raise InternalError("maximum-set bridge found no join swap point")
        lm = t.nodes[node.left].vmask
        if node.kind == JOIN and bool(amask & lm) != bool(bmask & lm):
            steps += [("remove", v) for v in bits(amask & node.vmask)]
            steps += [("add", v) for v in bits(bmask & node.vmask)]
        else:
            stack += (node.right, node.left)
    return TarSequence(vertex_set(amask), steps, k)


def build_witness(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> TarSequence:
    """A full k-TAR-sequence from ``a`` to ``b``, length <= 4n - |a| - |b|.

    Factors ``g`` once, or reuses the tree of the last call on ``g``; the
    verdict, the pruning to the accessible vertices, the climbs and the
    bridge all use that cotree, in the ids of ``g``.
    Raises UnreachableError when ``b`` is not reachable from ``a``.
    """
    amask, bmask = g.check_vertex_set(a), g.check_vertex_set(b)
    _check_independent(g, amask, bmask)
    if amask.bit_count() < k or bmask.bit_count() < k:
        raise UnreachableError("a set is smaller than the token bound")
    if g.n == 0:  # no cotree; the empty set is the only independent set
        return TarSequence(frozenset(), [], k)
    t = cotree_of(g)
    verdict, vals_a = _decide_tree(t, amask, bmask, max(k, 0))
    if not verdict.reachable:
        raise UnreachableError("the target set is not reachable at this threshold")
    r = restrict(t, accessible_subgraph(t, vals_a))
    if (amask | bmask) & ~r.nodes[r.root].vmask:
        raise InternalError("an endpoint vertex was classified inaccessible")
    alpha = subtree_alpha(r)[0][r.root]
    if amask == bmask:
        return TarSequence(vertex_set(amask), [], k, alpha)
    seq_a = sequence_to_max(r, amask, k, checked=True)
    top_a = _end_mask(amask, seq_a.steps)
    seq_b = sequence_to_max(r, bmask, k, checked=True)
    top_b = _end_mask(bmask, seq_b.steps)
    bridge = bridge_max_sets(r, top_a, top_b, k)
    descent = [("add" if op == "remove" else "remove", v)
               for op, v in reversed(seq_b.steps)]
    result = TarSequence(vertex_set(amask), seq_a.steps + bridge.steps + descent,
                         k, alpha)
    if validate_tar_sequence(g, result) != bmask:
        raise InternalError("witness does not end at the target set")
    if result.length > 4 * g.n - amask.bit_count() - bmask.bit_count():
        raise InternalError("witness exceeds the guaranteed length bound")
    return result
