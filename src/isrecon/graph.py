"""Immutable simple undirected graphs over dense 0-based vertex ids.

Adjacency is stored as one bitmask per vertex, which keeps membership tests
and neighborhood unions cheap even for dense graphs with thousands of
vertices.  Induced subgraphs carry an ``origin`` map back to the ids of the
graph they were ultimately extracted from, and extraction composes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError

VertexSet = frozenset


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


def vertex_set(mask: int) -> VertexSet:
    return frozenset(bits(mask))


class Graph:
    """A simple undirected graph; immutable after construction."""

    __slots__ = ("n", "adj", "origin", "full_mask")

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

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] & (1 << v))

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return bits(self.adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex id {v} out of range for n={self.n}")

    def check_vertex_set(self, s: Iterable[int]) -> int:
        """Validate a vertex set against this graph; return it as a bitmask."""
        m = 0
        for v in s:
            if not (0 <= v < self.n):
                raise InputError(f"vertex id {v} out of range for n={self.n}")
            m |= 1 << v
        return m

    def induced(self, s: Iterable[int]) -> "Graph":
        """The subgraph induced by ``s``, with ids renumbered densely.

        The result's ``origin`` maps back to the ids of the graph this one
        was originally extracted from, so extraction composes.
        """
        smask = self.check_vertex_set(s)
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


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two members of ``s`` are adjacent in ``g``."""
    smask = g.check_vertex_set(s)
    for v in bits(smask):
        if g.adj[v] & smask:
            return False
    return True


def is_module(g: Graph, m: Iterable[int]) -> bool:
    """True iff every vertex outside ``m`` sees all of ``m`` or none of it.

    The full vertex set counts as a (trivial) module.
    """
    mmask = g.check_vertex_set(m)
    if mmask == 0:
        raise InputError("a module must be nonempty")
    for v in bits(g.full_mask & ~mmask):
        hit = g.adj[v] & mmask
        if hit != 0 and hit != mmask:
            return False
    return True
