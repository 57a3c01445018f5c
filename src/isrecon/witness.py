"""Explicit reconfiguration sequences for cograph instances.

When the decision procedure answers yes, an actual token add/remove sequence
of length at most 4n - |A| - |B| is assembled in three legs: climb from A to
a maximum independent set of the accessible subgraph, swap between maximum
sets along join nodes, and descend (the reversed climb) to B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cotree import Cotree, JOIN, UNION, build_maximal_cotree, restrict
from .engine import (NodeValues, RisTable, _decide_tree, _independent_masks,
                     compute_ris_tables)
from .errors import (InputError, InternalError, UnreachableError,
                     UnsupportedGraphClassError)
from .graph import Graph, VertexSet, bits, is_independent, mask_of, vertex_set


@dataclass
class TarSequence:
    """A list of independent sets, each one token add/remove apart."""

    sets: list[VertexSet]
    k: int
    n: int = 0                     # host graph id-space (vertex count)
    alpha_accessible: int = 0      # set by build_witness: alpha of G[accessible]

    @property
    def length(self) -> int:
        return len(self.sets) - 1

    def steps(self) -> list[tuple[str, int]]:
        """The per-move view: ('add'|'remove', vertex) for each transition."""
        out = []
        for cur, nxt in zip(self.sets, self.sets[1:]):
            added = nxt - cur
            removed = cur - nxt
            if len(added) + len(removed) != 1:
                raise InternalError("sequence step is not a single token move")
            out.append(("add", next(iter(added))) if added
                       else ("remove", next(iter(removed))))
        return out


def validate_tar_sequence(g: Graph, seq: TarSequence) -> None:
    """Raise InternalError unless ``seq`` is a valid k-TAR-sequence in ``g``."""
    if not seq.sets:
        raise InternalError("a TAR-sequence must contain at least one set")
    prev = None
    for s in seq.sets:
        m = g.check_vertex_set(s)
        if not is_independent(g, bits(m)):
            raise InternalError("sequence contains a non-independent set")
        if m.bit_count() < seq.k:
            raise InternalError("sequence drops below the token threshold")
        if prev is not None and (m ^ prev).bit_count() != 1:
            raise InternalError("consecutive sets differ by more than one token")
        prev = m


@dataclass
class SuSequence:
    """Monotone climb C_0..C_p within one cotree subtree, with move recipes.

    ``steps[i]`` realizes C_i -> C_{i+1} as ordered removals followed by
    ordered additions; every vertex is added at most once over the climb.
    """

    node: int
    sets: list[VertexSet]
    steps: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)


def _max_is_masks(t: Cotree, u: int) -> dict[int, int]:
    """A canonical maximum independent set (as a mask) per subtree node."""
    masks: dict[int, int] = {}
    for x in t.postorder(u):
        node = t.nodes[x]
        if node.is_leaf:
            if not node.is_trivial_leaf:
                raise UnsupportedGraphClassError(
                    "witness construction requires single-vertex leaves")
            masks[x] = node.vmask
        elif node.kind == UNION:
            masks[x] = masks[node.left] | masks[node.right]
        else:
            lm, rm = masks[node.left], masks[node.right]
            masks[x] = lm if lm.bit_count() >= rm.bit_count() else rm
    return masks


def build_su_sequence(t: Cotree, u: int, i: Iterable[int]) -> SuSequence:
    """Construct the monotone climb for subtree ``u`` starting from ``i``.

    Leaves contribute at most one addition; a join node may append one final
    side-switch; a union node interleaves its children's climbs, advancing
    whichever child still improves at the largest surviving threshold (the
    left child on ties).
    """
    imask = t.graph.check_vertex_set(i)
    return _su_sequence(t, u, imask, compute_ris_tables(t, bits(imask)))


def _su_sequence(t: Cotree, u: int, imask: int,
                 tables: dict[int, RisTable]) -> SuSequence:
    """``build_su_sequence`` given the tables of ``imask`` on ``t``."""
    maxis = _max_is_masks(t, u)
    results: dict[int, SuSequence] = {}
    for x in t.postorder(u):
        node = t.nodes[x]
        if node.is_leaf:
            v = node.vmask.bit_length() - 1
            if imask & node.vmask:
                results[x] = SuSequence(x, [frozenset((v,))])
            else:
                results[x] = SuSequence(x, [frozenset(), frozenset((v,))],
                                        [((), (v,))])
        elif node.kind == JOIN:
            alpha_u = maxis[x].bit_count()
            if tables[x].base == 0:
                top = vertex_set(maxis[x])
                results[x] = SuSequence(x, [frozenset(), top],
                                        [((), tuple(sorted(top)))])
                continue
            occ, emp = node.left, node.right
            if tables[occ].base == 0:
                occ, emp = node.right, node.left
            sub = results[occ]
            sets, steps = list(sub.sets), list(sub.steps)
            if len(sets[-1]) < alpha_u:
                top = vertex_set(maxis[emp])
                steps.append((tuple(sorted(sets[-1])), tuple(sorted(top))))
                sets.append(top)
            results[x] = SuSequence(x, sets, steps)
        else:  # union: interleave the children's climbs
            tv, tw = tables[node.left], tables[node.right]
            sv, sw = results[node.left], results[node.right]
            alpha_v = maxis[node.left].bit_count()
            alpha_w = maxis[node.right].bit_count()
            base_u = tables[x].base

            b = c = 0
            sets = [sv.sets[0] | sw.sets[0]]
            steps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            while True:
                q, r = len(sv.sets[b]), len(sw.sets[c])
                if q == alpha_v and r == alpha_w:
                    break
                advance_v = None
                for ell in range(base_u, -1, -1):
                    if tv.values[max(ell - r, 0)] > q:
                        advance_v = True
                        break
                    if tw.values[max(ell - q, 0)] > r:
                        advance_v = False
                        break
                if advance_v is None:
                    raise InternalError("stuck union climb: no threshold improves")
                if advance_v:
                    steps.append(sv.steps[b])
                    b += 1
                else:
                    steps.append(sw.steps[c])
                    c += 1
                sets.append(sv.sets[b] | sw.sets[c])
            results[x] = SuSequence(x, sets, steps)
    return results[u]


def sequence_to_max(t: Cotree, i: Iterable[int], k: int) -> TarSequence:
    """Expand the root climb into a k-TAR-sequence from ``i`` to a maximum set.

    Requires that a maximum independent set is reachable at threshold ``k``
    (true after restriction to the accessible subgraph); the result has
    length at most 2n - |i| - alpha.
    """
    imask = t.graph.check_vertex_set(i)
    tables = compute_ris_tables(t, bits(imask))
    root = tables[t.root]
    kk = max(k, 0)
    if kk > root.base or root.values[kk] != root.values[0]:
        raise InternalError(
            "no maximum independent set is reachable at this threshold; "
            "restrict to the accessible subgraph first")
    su = _su_sequence(t, t.root, imask, tables)
    cur = set(su.sets[0])
    out = [frozenset(cur)]
    for removals, additions in su.steps:
        for v in removals:
            cur.remove(v)
            out.append(frozenset(cur))
        for v in additions:
            cur.add(v)
            out.append(frozenset(cur))
    return TarSequence(out, k, t.graph.n)


def accessible_subgraph(t: Cotree, values_a: NodeValues, k: int) -> VertexSet:
    """All vertices that some reachable independent set contains.

    A vertex is inaccessible exactly when its leaf sits below the empty side
    of a join node that must keep at least one token on the occupied side.
    """
    acc = 0
    for u in t.leaves():
        node = t.nodes[u]
        if not node.is_trivial_leaf:
            raise UnsupportedGraphClassError(
                "accessibility analysis requires single-vertex leaves")
        if k <= 0 or not values_a.blocked[u]:
            acc |= node.vmask
    return vertex_set(acc)


def _is_difference(vmask: int, amask: int, bmask: int) -> bool:
    return bool(vmask & amask) != bool(vmask & bmask)


def bridge_max_sets(t: Cotree, a_max: Iterable[int], b_max: Iterable[int],
                    k: int) -> TarSequence:
    """A k-TAR-sequence between two mutually reachable maximum sets.

    Repeatedly locates a join node whose children disagree on which side
    holds the tokens and swaps the occupied side; total length is exactly
    the symmetric difference of the two sets.
    """
    amask = t.graph.check_vertex_set(a_max)
    bmask = t.graph.check_vertex_set(b_max)
    alpha = _max_is_masks(t, t.root)[t.root].bit_count()
    for m in (amask, bmask):
        if m.bit_count() != alpha or not is_independent(t.graph, bits(m)):
            raise InputError("bridging requires maximum independent sets")
    order = list(t.preorder())
    cur = amask
    out = [vertex_set(cur)]
    while cur != bmask:
        pick = -1
        for v in order:
            p = t.nodes[v].parent
            if p >= 0 and _is_difference(t.nodes[v].vmask, cur, bmask) \
                    and not _is_difference(t.nodes[p].vmask, cur, bmask):
                pick = p
                break
        if pick < 0 or t.nodes[pick].kind != JOIN:
            raise InternalError("maximum-set bridge found no join swap point")
        um = t.nodes[pick].vmask
        for v in bits(cur & um):
            cur ^= 1 << v
            out.append(vertex_set(cur))
        for v in bits(bmask & um):
            cur |= 1 << v
            out.append(vertex_set(cur))
    return TarSequence(out, k, t.graph.n)


def build_witness(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> TarSequence:
    """A full k-TAR-sequence from ``a`` to ``b``, length <= 4n - |a| - |b|.

    Factors ``g`` once; the verdict, the pruning to the accessible vertices,
    the climbs and the bridge all use that cotree, in the ids of ``g``.
    Raises UnreachableError when ``b`` is not reachable from ``a``.
    """
    amask, bmask = _independent_masks(g, a, b)
    if amask.bit_count() < k or bmask.bit_count() < k:
        raise UnreachableError("a set is smaller than the token bound")
    if g.n == 0:  # no cotree; the empty set is the only independent set
        return TarSequence([frozenset()], k, 0)
    t = build_maximal_cotree(g)
    verdict, vals_a = _decide_tree(t, amask, bmask, max(k, 0))
    if not verdict.reachable:
        raise UnreachableError("the target set is not reachable at this threshold")
    r = restrict(t, mask_of(accessible_subgraph(t, vals_a, k)))
    if (amask | bmask) & ~r.nodes[r.root].vmask:
        raise InternalError("an endpoint vertex was classified inaccessible")
    if amask == bmask:
        alpha = _max_is_masks(r, r.root)[r.root].bit_count()
        return TarSequence([vertex_set(amask)], k, g.n, alpha)
    seq_a = sequence_to_max(r, bits(amask), k)
    seq_b = sequence_to_max(r, bits(bmask), k)
    bridge = bridge_max_sets(r, seq_a.sets[-1], seq_b.sets[-1], k)
    result = TarSequence(seq_a.sets + bridge.sets[1:] + seq_b.sets[-2::-1],
                         k, g.n, len(seq_a.sets[-1]))
    validate_tar_sequence(g, result)
    if result.sets[0] != vertex_set(amask) or result.sets[-1] != vertex_set(bmask):
        raise InternalError("witness endpoints do not match the inputs")
    if result.length > 4 * g.n - amask.bit_count() - bmask.bit_count():
        raise InternalError("witness exceeds the guaranteed length bound")
    return result
