"""Ground truth by exhaustive search, plus random instance generators.

Everything here is brute force on purpose: enumerate all independent sets,
walk the solution graph explicitly, and answer reachability / freedom /
maximum-reachable-size / diameter queries by inspection.  Refuses graphs
with more than ``ORACLE_CAP`` (20) vertices.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from .cotree import Cotree, cotree_of
from .errors import InputError, OracleCapacityError
from .graph import Graph, bits, is_independent, mask_of, vertex_set

TAR = "tar"
TJ = "tj"
ORACLE_CAP = 20     # the largest vertex count the oracle enumerates


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_CAP:
        raise OracleCapacityError(
            f"oracle refuses n={g.n}: it enumerates every independent set, "
            f"so it is capped at {ORACLE_CAP} vertices")


class SolutionOracle:
    """Per-graph cache of independent sets and reachable families."""

    def __init__(self, g: Graph):
        _check_cap(g)
        self.g = g
        sets = [0]
        for v in range(g.n):
            bit = 1 << v
            row = g.adj[v]
            sets += [s | bit for s in sets if not (row & s)]
        self.sets = sets
        # union_adj[m] = union of neighborhoods over the members of m.
        ua = {0: 0}
        for m in sets:
            if m:
                top = 1 << (m.bit_length() - 1)
                ua[m] = ua[m ^ top] | g.adj[top.bit_length() - 1]
        self.union_adj = ua
        self._reach_cache: dict[tuple[int, int], frozenset] = {}
        self._reach_all_cache: dict[int, list[frozenset]] = {}

    def check_set(self, s: Iterable[int]) -> int:
        m = self.g.check_vertex_set(s)
        if not is_independent(self.g, m):
            raise InputError("oracle queries require independent sets")
        return m

    def _expand(self, seen: set, stack: list, k: int) -> None:
        g = self.g
        full = g.full_mask
        ua = self.union_adj
        while stack:
            s = stack.pop()
            free = full & ~s & ~ua[s]
            for v in bits(free):
                t = s | (1 << v)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
            if s.bit_count() > k:
                for v in bits(s):
                    t = s ^ (1 << v)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)

    def reachable(self, amask: int, k: int) -> frozenset:
        """All independent sets k-TAR-reachable from ``amask``."""
        key = (amask, k)
        hit = self._reach_cache.get(key)
        if hit is None:
            seen = {amask}
            self._expand(seen, [amask], k)
            hit = self._reach_cache[key] = frozenset(seen)
        return hit

    def reachable_all(self, amask: int) -> list[frozenset]:
        """Reachable families for every threshold 0..|amask| in one sweep.

        Thresholds descend; lowering the bound only unlocks removals from
        sets sitting exactly at the old bound, so each family extends the
        previous one.
        """
        hit = self._reach_all_cache.get(amask)
        if hit is not None:
            return hit
        base = amask.bit_count()
        fams: list[frozenset] = [frozenset()] * (base + 1)
        seen = {amask}
        self._expand(seen, [amask], base)
        fams[base] = frozenset(seen)
        for ell in range(base - 1, -1, -1):
            seeds = [s for s in seen if s.bit_count() == ell + 1]
            self._expand(seen, seeds, ell)
            fams[ell] = frozenset(seen)
        self._reach_all_cache[amask] = fams
        return fams

    def tj_neighbors(self, s: int) -> list[int]:
        out = []
        full = self.g.full_mask
        for u in bits(s):
            rest = s ^ (1 << u)
            free = full & ~s & ~self.union_adj[rest]
            for v in bits(free):
                if v != u:
                    out.append(rest | (1 << v))
        return out

    def tar_neighbors(self, s: int, k: int) -> list[int]:
        out = []
        free = self.g.full_mask & ~s & ~self.union_adj[s]
        for v in bits(free):
            out.append(s | (1 << v))
        if s.bit_count() > k:
            for v in bits(s):
                out.append(s ^ (1 << v))
        return out


# Holds every distinct graph the test suite visits (about 1300), so none is
# enumerated twice, while bounding the memory of long fuzzing sessions.
ORACLE_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=ORACLE_CACHE_SIZE)
def get_oracle(g: Graph) -> SolutionOracle:
    return SolutionOracle(g)


def _check_model(model: str) -> str:
    if model not in (TAR, TJ):
        raise InputError(f"unknown model {model!r}; expected 'tar' or 'tj'")
    return model


def oracle_reach(g: Graph, a: Iterable[int], b: Iterable[int], k: int,
                 model: str = TAR) -> tuple[bool, Optional[int]]:
    """BFS answer and shortest length in the solution graph."""
    _check_model(model)
    o = get_oracle(g)
    amask, bmask = o.check_set(a), o.check_set(b)
    if model == TJ:
        if amask.bit_count() != k or bmask.bit_count() != k:
            raise InputError("TJ queries require both sets of size exactly k")
    elif amask.bit_count() < k or bmask.bit_count() < k:
        raise InputError("TAR queries require both sets of size at least k")
    dist = {amask: 0}
    queue = deque([amask])
    while queue:
        s = queue.popleft()
        if s == bmask:
            return True, dist[s]
        nbrs = o.tj_neighbors(s) if model == TJ else o.tar_neighbors(s, k)
        for t in nbrs:
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return False, None


def oracle_freedom(g: Graph, t: Cotree, a: Iterable[int], k: int, node: int) -> int:
    """min |J intersect V_node| over all k-TAR-reachable J."""
    o = get_oracle(g)
    amask = o.check_set(a)
    vmask = t.nodes[node].vmask
    return min((j & vmask).bit_count() for j in o.reachable(amask, k))


def oracle_ris(g_u: Graph, i: Iterable[int], ell: int) -> int:
    """max |J| over all ell-TAR-reachable J in ``g_u``."""
    o = get_oracle(g_u)
    imask = o.check_set(i)
    if imask.bit_count() < ell:
        raise InputError("start set smaller than the threshold")
    return max(j.bit_count() for j in o.reachable(imask, ell))


def oracle_ris_all(g_u: Graph, i: Iterable[int]) -> list[int]:
    """oracle_ris for every threshold 0..|i| at once."""
    o = get_oracle(g_u)
    imask = o.check_set(i)
    return [max(j.bit_count() for j in fam) for fam in o.reachable_all(imask)]


def oracle_accessible(g: Graph, a: Iterable[int], k: int) -> frozenset:
    """Union of all k-TAR-reachable sets."""
    o = get_oracle(g)
    amask = o.check_set(a)
    acc = 0
    for j in o.reachable(amask, k):
        acc |= j
    return vertex_set(acc)


class SolutionGraph(NamedTuple):
    """An explicitly materialized TAR_k / TJ_k solution graph."""

    model: str
    k: int
    states: list[int]              # qualifying independent sets, as masks
    neighbors: dict[int, list[int]]
    component: dict[int, int]      # state -> component label


def solution_graph(g: Graph, k: int, model: str = TAR) -> SolutionGraph:
    _check_model(model)
    o = get_oracle(g)
    if model == TJ:
        states = [s for s in o.sets if s.bit_count() == k]
        nbrs = {s: o.tj_neighbors(s) for s in states}
    else:
        states = [s for s in o.sets if s.bit_count() >= k]
        nbrs = {s: o.tar_neighbors(s, k) for s in states}
    comp: dict[int, int] = {}
    label = 0
    for s in states:
        if s in comp:
            continue
        comp[s] = label
        stack = [s]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y not in comp:
                    comp[y] = label
                    stack.append(y)
        label += 1
    return SolutionGraph(model, k, states, nbrs, comp)


def _bfs_ecc(nbrs: dict[int, list[int]], src: int) -> tuple[dict[int, int], int]:
    dist = {src: 0}
    queue = deque([src])
    ecc = 0
    while queue:
        s = queue.popleft()
        for t in nbrs[s]:
            if t not in dist:
                dist[t] = dist[s] + 1
                ecc = max(ecc, dist[t])
                queue.append(t)
    return dist, ecc


def _component_diameter(nbrs: dict[int, list[int]], start: int) -> int:
    """Exact diameter of one connected component (iFUB-style pruning)."""
    dist_s, _ = _bfs_ecc(nbrs, start)
    a = max(dist_s, key=dist_s.get)
    dist_a, ecc_a = _bfs_ecc(nbrs, a)
    b = max(dist_a, key=dist_a.get)
    # Midpoint of an (approximately) longest path is a good center.
    path_mid = b
    half = dist_a[b] // 2
    dist_b, _ = _bfs_ecc(nbrs, b)
    for v, d in dist_a.items():
        if d == half and dist_b[v] + d == dist_a[b]:
            path_mid = v
            break
    dist_u, ecc_u = _bfs_ecc(nbrs, path_mid)
    lb = max(ecc_a, ecc_u)
    by_level: dict[int, list[int]] = {}
    for v, d in dist_u.items():
        by_level.setdefault(d, []).append(v)
    for i in range(ecc_u, 0, -1):
        if lb >= 2 * i:
            break
        for v in by_level.get(i, ()):
            lb = max(lb, _bfs_ecc(nbrs, v)[1])
    return lb


def oracle_diameter(g: Graph, k: int, model: str = TAR) -> int:
    """Max eccentricity over all components of the solution graph."""
    sg = solution_graph(g, k, model)
    best = 0
    seen_labels = set()
    for s in sg.states:
        label = sg.component[s]
        if label not in seen_labels:
            seen_labels.add(label)
            best = max(best, _component_diameter(sg.neighbors, s))
    return best


def gen_cograph(n: int, seed: int) -> tuple[Graph, Cotree]:
    """A random cograph with its maximal cotree; deterministic in seed.

    The tree comes from ``cotree_of``, so a query on ``g`` next reuses it.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    adj = [0] * n
    stack = [perm]
    while stack:
        verts = stack.pop()
        if len(verts) == 1:
            continue
        cut = rng.randint(1, len(verts) - 1)
        left, right = verts[:cut], verts[cut:]
        if rng.random() < 0.5:  # join: all cross edges
            lm, rm = mask_of(left), mask_of(right)
            for v in left:
                adj[v] |= rm
            for v in right:
                adj[v] |= lm
        stack.append(left)
        stack.append(right)
    g = Graph(n, adj)
    return g, cotree_of(g)


def gen_chordal(n: int, density: float, seed: int) -> Graph:
    """A random chordal graph, grown one simplicial vertex at a time.

    Each new vertex attaches to a random subset of an existing clique, so
    the reverse insertion order is a perfect elimination ordering.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    rng = random.Random(seed)
    adj = [0] * n
    clique_of = [0] * n            # the clique mask vertex v attached to
    for v in range(1, n):
        p = rng.randrange(v)
        candidates = clique_of[p] | (1 << p)
        chosen = 0
        for w in bits(candidates):
            if rng.random() < density:
                chosen |= 1 << w
        if chosen == 0 and rng.random() < density:
            chosen = 1 << p
        clique_of[v] = chosen
        for w in bits(chosen):
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    return Graph(n, adj)


def gen_composed(part_sizes: Sequence[int], density: float, seed: int) -> Graph:
    """Random union/join composition of random chordal parts."""
    if not part_sizes:
        raise InputError("need at least one part")
    rng = random.Random(seed)
    parts = [gen_chordal(sz, density, rng.randrange(1 << 30)) for sz in part_sizes]
    n = sum(p.n for p in parts)
    adj = [0] * n
    offset = 0
    placed: list[tuple[int, int]] = []  # (start, end) per placed part
    for p in parts:
        for v in range(p.n):
            adj[offset + v] = p.adj[v] << offset
        placed.append((offset, offset + p.n))
        offset += p.n
    # Fold parts left-deep with random union/join operators.
    acc_mask = mask_of(range(placed[0][0], placed[0][1]))
    for start, end in placed[1:]:
        pmask = mask_of(range(start, end))
        if rng.random() < 0.5:  # join
            for v in bits(acc_mask):
                adj[v] |= pmask
            for v in bits(pmask):
                adj[v] |= acc_mask
        acc_mask |= pmask
    return Graph(n, adj)
