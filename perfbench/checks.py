"""Correctness checks made apart from the program under test.

Timed verdicts are checked against the answer their construction guarantees
(see ``workloads``); witnesses are validated here step by step; and a seeded
slice of each workload's family with n <= 14 is checked against the
brute-force ``oracle_reach``.
"""

from __future__ import annotations

import json
import random

import workloads as wl


def witness_error(adj: list, sets: list, a, b, k: int):
    """Why ``sets`` is not a k-TAR-sequence from ``a`` to ``b``, or None.

    Every set must be independent with at least ``k`` members, consecutive
    sets must differ in exactly one vertex, the endpoints must be ``a`` and
    ``b``, and the length must be at most 4n - |a| - |b|.
    """
    n = len(adj)
    if not sets:
        return "empty sequence"
    if set(sets[0]) != set(a) or set(sets[-1]) != set(b):
        return "endpoints do not match A and B"
    if len(sets) - 1 > 4 * n - len(a) - len(b):
        return f"length {len(sets) - 1} exceeds 4n - |A| - |B|"
    prev = None
    for i, s in enumerate(sets):
        m = 0
        for v in s:
            if not (isinstance(v, int) and 0 <= v < n):
                return f"set {i}: bad vertex {v!r}"
            m |= 1 << v
        if m.bit_count() != len(s):
            return f"set {i}: repeated vertex"
        if m.bit_count() < k:
            return f"set {i}: {m.bit_count()} tokens, below k = {k}"
        if any(adj[v] & m for v in s):
            return f"set {i}: not independent"
        if prev is not None and (m ^ prev).bit_count() != 1:
            return f"set {i}: does not move exactly one token"
        prev = m
    return None


def cli_error(adj: list, q: wl.Query, returncode: int, stdout: str):
    """Why a `witness --format json` run does not answer ``q``, or None."""
    expected = 0 if q.reachable else 1
    if returncode != expected:
        return f"exit code {returncode}, expected {expected}"
    if not q.reachable:
        return None
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    sets = data.get("sets") if isinstance(data, dict) else None
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets) \
            or data.get("reachable") is not True or data.get("length") != len(sets) - 1:
        return "JSON fields disagree with the sequence"
    return witness_error(adj, sets, q.a, q.b, q.k)


# --- oracle slices ----------------------------------------------------------

SLICE_GRAPHS = 8
SLICE_QUERIES = 3


def _slice_graph(workload: str, i: int, rng: random.Random) -> list:
    if workload in ("cograph-dense", "cli-witness"):
        return wl.dense_cograph(rng.randint(4, 14), rng)[0]
    if workload == "union-chains":
        kind = i % 3
        if kind == 0:
            return [0] * rng.randint(2, 11)
        if kind == 1:
            return wl.perfect_matching(2 * rng.randint(2, 7), rng)[0]
        return wl.small_components(rng.randint(4, 14), rng)[0]
    size = rng.randint(3, 4)
    joins = [rng.random() < 0.5 for _ in range(rng.randint(1, 14 // size - 1))]
    return wl.chordal_composition(joins, size, 0.5, rng)[0]


def slice_instances(workload: str, seed: int) -> list:
    """Small graphs of the workload's family, with random queries at k >= 1.

    Each query's expected verdict is the one ``oracle_reach`` finds.
    """
    from isrecon import Graph
    from isrecon.oracle import oracle_reach
    rng = random.Random(f"slice/{workload}/{seed}")
    out = []
    for i in range(SLICE_GRAPHS):
        adj = _slice_graph(workload, i, rng)
        queries = []
        for _ in range(SLICE_QUERIES):
            a = [v for v in wl.bits(wl.greedy_maximal(adj, rng)) if rng.random() < 0.7]
            b = [v for v in wl.bits(wl.greedy_maximal(adj, rng)) if rng.random() < 0.7]
            if a and b:
                k = rng.randint(1, min(len(a), len(b)))
                reachable, _ = oracle_reach(Graph(len(adj), adj), a, b, k)
                queries.append(wl.Query(frozenset(a), frozenset(b), k, reachable, "oracle"))
        out.append(wl.Instance("slice", adj, queries))
    return out
