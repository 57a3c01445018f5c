"""Immutable simple undirected graphs over dense 0-based vertex ids.

Adjacency is one bitmask per vertex, and below the package root so is every
vertex set (bit v is vertex v), which keeps membership tests and unions cheap.
Induced subgraphs carry an ``origin`` map back to the ids of the graph they
were ultimately extracted from, and extraction composes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError

def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_set(mask: int) -> frozenset:
    return frozenset(bits(mask))


class Graph:
    """A simple undirected graph; immutable after construction.

    ``_chordal_alpha`` is the independence number of a chordal graph, which
    ``chordal`` fills on its first analysis; the graph cannot change, so the
    value cannot go stale.
    """

    __slots__ = ("n", "adj", "origin", "full_mask", "_chordal_alpha")

    def __init__(self, n: int, adj, origin=None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        adj = tuple(adj)
        if len(adj) != n:
            raise InputError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & (1 << v):
                raise InputError(f"self-loop at vertex {v}")
            if row & ~full:
                raise InputError(f"adjacency row of vertex {v} out of range")
        self.n = n
        self.adj = adj
        self.origin = tuple(origin) if origin is not None else tuple(range(n))
        self.full_mask = full
        self._chordal_alpha = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def check_vertex_set(self, s: Iterable[int]) -> int:
        """Validate an iterable of vertex ids; return it as a bitmask."""
        m = 0
        for v in s:
            if not (0 <= v < self.n):
                raise InputError(f"vertex id {v} out of range for n={self.n}")
            m |= 1 << v
        return m

    def induced(self, smask: int) -> "Graph":
        """The subgraph induced by the vertex mask ``smask``, ids renumbered densely.

        The result's ``origin`` maps back to the ids of the graph this one
        was originally extracted from, so extraction composes.
        """
        if smask & ~self.full_mask:
            raise InputError(f"vertex mask out of range for n={self.n}")
        local_ids = list(bits(smask))
        index = {v: i for i, v in enumerate(local_ids)}
        adj = []
        for v in local_ids:
            row = 0
            for w in bits(self.adj[v] & smask):
                row |= 1 << index[w]
            adj.append(row)
        origin = tuple(self.origin[v] for v in local_ids)
        return Graph(len(local_ids), adj, origin)


def is_independent(g: Graph, smask: int) -> bool:
    """True iff no two members of the vertex mask ``smask`` are adjacent in ``g``."""
    if smask & ~g.full_mask:
        raise InputError(f"vertex mask out of range for n={g.n}")
    for v in bits(smask):
        if g.adj[v] & smask:
            return False
    return True

