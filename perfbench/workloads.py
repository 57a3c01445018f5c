"""Seeded inputs for the four workloads, with answers known by construction.

Nothing here imports ``isrecon``: the inputs depend only on the seed and on
this file, so a change to the package cannot change what is measured, and
input generation does no program work.

Every query carries the verdict its construction guarantees:

* ``common-set``: A and B lie inside one independent set I, so they are
  reachable at any 1 <= k <= min(|A|, |B|) (grow A to I, shrink I to B);
* ``isolated``: A is a maximal independent set held at k = |A|, so no token
  can be added or removed and A reaches no other set;
* ``transversals``: on a perfect matching with n vertices, two opposite
  transversals are reachable iff k < n/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REACHABLE_BY_COMMON_SET = "common-set"
UNREACHABLE_ISOLATED = "isolated"
TRANSVERSALS = "transversals"


@dataclass(frozen=True)
class Query:
    a: frozenset
    b: frozenset
    k: int
    reachable: bool          # the verdict the construction guarantees
    construction: str


@dataclass
class Instance:
    family: str
    adj: list                # one neighbourhood bitmask per vertex
    queries: list

    @property
    def n(self) -> int:
        return len(self.adj)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: list
    tail_percentile: int     # the reported tail; see README.md


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _join(adj: list, left: int, right: int) -> None:
    for v in bits(left):
        adj[v] |= right
    for v in bits(right):
        adj[v] |= left


# --- graph families -------------------------------------------------------

def cograph(adj: list, vertices: list, join: bool, rng: random.Random) -> tuple[int, int]:
    """Add a cograph on ``vertices`` to ``adj``: a balanced random cotree.

    Union and join alternate by depth, starting with ``join``; each split
    cuts the vertex list between its first and last third.  Returns the
    vertex mask and a maximum independent set (union: both sides; join:
    the larger side).
    """
    if len(vertices) == 1:
        m = 1 << vertices[0]
        return m, m
    third = max(1, len(vertices) // 3)
    cut = rng.randint(third, len(vertices) - third)
    lm, li = cograph(adj, vertices[:cut], not join, rng)
    rm, ri = cograph(adj, vertices[cut:], not join, rng)
    if not join:
        return lm | rm, li | ri
    _join(adj, lm, rm)
    return lm | rm, li if li.bit_count() >= ri.bit_count() else ri


def dense_cograph(n: int, rng: random.Random) -> tuple[list, int]:
    """A connected cograph (root join) on shuffled ids, with a maximum IS."""
    ids = list(range(n))
    rng.shuffle(ids)
    adj = [0] * n
    _, mis = cograph(adj, ids, True, rng)
    return adj, mis


def small_components(n: int, rng: random.Random) -> tuple[list, int]:
    """Disjoint connected cographs of 2 to 5 vertices covering n vertices."""
    ids = list(range(n))
    rng.shuffle(ids)
    adj = [0] * n
    mis = 0
    start = 0
    while start < n:
        size = min(rng.randint(2, 5), n - start)
        if n - start - size == 1:
            size += 1                      # no isolated leftover vertex
        _, part = cograph(adj, ids[start:start + size], True, rng)
        mis |= part
        start += size
    return adj, mis


def perfect_matching(n: int, rng: random.Random) -> tuple[list, list]:
    """A perfect matching on shuffled ids; returns adjacency and the pairs."""
    ids = list(range(n))
    rng.shuffle(ids)
    adj = [0] * n
    pairs = []
    for i in range(0, n, 2):
        u, v = ids[i], ids[i + 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        pairs.append((u, v))
    return adj, pairs


def chordal_part(adj: list, offset: int, size: int, density: float,
                 rng: random.Random) -> tuple[int, int]:
    """Add a random connected chordal graph on ids offset..offset+size-1.

    Each new vertex attaches to its parent and to each member of the
    parent's clique with probability ``density``, so the reverse insertion
    order is a perfect elimination ordering; greedy selection along it gives
    a maximum independent set.
    """
    clique_of = [0] * size
    for v in range(1, size):
        p = rng.randrange(v)
        chosen = 1 << p
        for w in bits(clique_of[p]):
            if rng.random() < density:
                chosen |= 1 << w
        clique_of[v] = chosen
        for w in bits(chosen):
            adj[offset + v] |= 1 << (offset + w)
            adj[offset + w] |= 1 << (offset + v)
    mis = excluded = 0
    for v in range(offset + size - 1, offset - 1, -1):
        if not excluded >> v & 1:
            mis |= 1 << v
            excluded |= 1 << v | adj[v]
    return mask_of(range(offset, offset + size)), mis


def chordal_composition(joins: list, size: int, density: float,
                        rng: random.Random) -> tuple[list, int]:
    """Fold equal-size chordal parts left-deep: part i+1 is joined to the
    parts before it if ``joins[i]``, else put beside them."""
    adj = [0] * ((len(joins) + 1) * size)
    acc, acc_mis = chordal_part(adj, 0, size, density, rng)
    for i, join in enumerate(joins, start=1):
        pm, p_mis = chordal_part(adj, i * size, size, density, rng)
        if join:
            _join(adj, acc, pm)
            if p_mis.bit_count() > acc_mis.bit_count():
                acc_mis = p_mis
        else:
            acc_mis |= p_mis
        acc |= pm
    return adj, acc_mis


# --- queries with known answers -------------------------------------------

def common_set_query(mis: int, rng: random.Random) -> Query:
    """Two random halves of ``mis``; fixed sizes keep query costs alike."""
    members = list(bits(mis))
    half = (len(members) + 1) // 2
    a = frozenset(rng.sample(members, half))
    b = frozenset(rng.sample(members, half))
    k = rng.randint(1, min(len(a), len(b)))
    return Query(a, b, k, True, REACHABLE_BY_COMMON_SET)


def greedy_maximal(adj: list, rng: random.Random) -> int:
    """A maximal independent set by greedy insertion in random order."""
    taken = blocked = 0
    for v in rng.sample(range(len(adj)), len(adj)):
        if not blocked >> v & 1:
            taken |= 1 << v
            blocked |= 1 << v | adj[v]
    return taken


def isolated_query(adj: list, mis: int, rng: random.Random) -> Query:
    """A maximal set A other than the maximum set B, held at k = |A|."""
    for _ in range(100):
        a = greedy_maximal(adj, rng)
        if a != mis:
            return Query(frozenset(bits(a)), frozenset(bits(mis)),
                         a.bit_count(), False, UNREACHABLE_ISOLATED)
    raise ValueError("graph has no maximal independent set besides the given one")


def transversal_query(pairs: list, k: int, rng: random.Random) -> Query:
    """A random transversal and its opposite; reachable iff k < n/2."""
    a, b = set(), set()
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        a.add(u)
        b.add(v)
    return Query(frozenset(a), frozenset(b), k, k < len(pairs), TRANSVERSALS)


# --- workloads --------------------------------------------------------------

# Sizes are chosen so that a run of --seconds 25 takes enough queries for its
# tail percentile to keep ten samples beyond it on a machine 1.5 times slower
# than the one measured in README.md.
DENSE_SIZES = (1500, 1700, 1900, 2100, 2300, 2500)   # spread costs smooth the median
EDGELESS_N, MATCHING_N, COMPONENTS_N, UNION_SETS = 500, 700, 900, 2
CHORDAL_JOINS = (True, False, True, False)            # five parts, fixed edge count
CHORDAL_PART_N, CHORDAL_DENSITY, CHORDAL_GRAPHS = 240, 0.5, 4
CLI_N, CLI_GRAPHS = 500, 10


def _cograph_dense(rng: random.Random) -> list:
    out = []
    for n in DENSE_SIZES:
        adj, mis = dense_cograph(n, rng)
        queries = [common_set_query(mis, rng) for _ in range(4)]
        queries += [isolated_query(adj, mis, rng) for _ in range(4)]
        out.append(Instance("cograph", adj, queries))
    return out


def _union_chains(rng: random.Random) -> list:
    out = []
    for _ in range(UNION_SETS):
        everything = mask_of(range(EDGELESS_N))
        out.append(Instance("edgeless", [0] * EDGELESS_N,
                            [common_set_query(everything, rng) for _ in range(4)]))
        adj, pairs = perfect_matching(MATCHING_N, rng)
        half = MATCHING_N // 2
        out.append(Instance("matching", adj, [
            transversal_query(pairs, half - 1, rng),
            transversal_query(pairs, rng.randint(1, half - 1), rng),
            transversal_query(pairs, half, rng),
            transversal_query(pairs, half, rng)]))
        adj, mis = small_components(COMPONENTS_N, rng)
        out.append(Instance("components", adj,
                            [common_set_query(mis, rng) for _ in range(2)]
                            + [isolated_query(adj, mis, rng) for _ in range(2)]))
    return out


def _chordal_composed(rng: random.Random) -> list:
    out = []
    for _ in range(CHORDAL_GRAPHS):
        adj, mis = chordal_composition(CHORDAL_JOINS, CHORDAL_PART_N,
                                       CHORDAL_DENSITY, rng)
        queries = [common_set_query(mis, rng) for _ in range(4)]
        queries += [isolated_query(adj, mis, rng) for _ in range(4)]
        out.append(Instance("chordal", adj, queries))
    return out


def _cli_witness(rng: random.Random) -> list:
    out = []
    for _ in range(CLI_GRAPHS):
        adj, mis = dense_cograph(CLI_N, rng)
        out.append(Instance("cograph", adj, [common_set_query(mis, rng)]))
    return out


BUILDERS = {
    "cograph-dense": (_cograph_dense, 90),
    "union-chains": (_union_chains, 90),
    "chordal-composed": (_chordal_composed, 90),
    "cli-witness": (_cli_witness, 75),
}


def build(name: str, seed: int) -> Workload:
    make, tail = BUILDERS[name]
    return Workload(name, make(random.Random(f"{name}/{seed}")), tail)


def edge_lines(adj: list) -> str:
    """The graph in the CLI's file format: an 'n m' header, then 'u v' lines."""
    edges = [f"{u} {v}\n" for u in range(len(adj)) for v in bits(adj[u]) if v > u]
    return f"{len(adj)} {len(edges)}\n" + "".join(edges)
