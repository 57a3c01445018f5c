"""Metamorphic gates on graphs past the oracle's cap: 20 <= n <= 300.

No brute force reaches these sizes, so each test checks a property that
every correct verdict has, whatever the answer:

- the verdict is the same for (A, B) and (B, A);
- the verdict is the same after a random relabelling of the vertices;
- reachable at k implies reachable at k - 1;
- A -> C and C -> B imply A -> B;
- on a cograph, ``build_witness`` succeeds exactly when ``decide`` says yes.

Half of the graphs are random cographs, half random union/join
compositions of chordal parts, whose prime leaves the twin rounds cannot
merge.  Random draws take subsets of random maximal independent sets at a
random bound; maximal draws take two maximal sets at k = min(|A|, |B|),
where leaves get pinned.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from isrecon import (Graph, UnreachableError, build_witness, decide, gen_cograph,
                     gen_composed)
from isrecon.engine import FREEDOM_MISMATCH, LEAF_UNREACHABLE
from isrecon.graph import bits, mask_of

from helpers import greedy_independent_set

GRAPHS = 80
RANDOM_DRAWS = 8      # per graph
MAXIMAL_DRAWS = 5     # per graph


def _subset(rng: random.Random, s: frozenset) -> frozenset:
    keep = rng.random()
    return frozenset(v for v in s if rng.random() < keep)


def _graph(i: int, rng: random.Random) -> tuple[Graph, bool]:
    """The i-th graph and whether it is a cograph: even i draw a cograph."""
    n = rng.randint(20, 300)
    if i % 2 == 0:
        return gen_cograph(n, rng.randrange(1 << 30))[0], True
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 4)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return gen_composed(sizes, rng.choice([0.3, 0.6, 0.9]), rng.randrange(1 << 30)), False


def _relabel(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = mask_of(perm[w] for w in bits(g.adj[v]))
    return Graph(g.n, adj)


def _reason(d) -> str:
    return "reachable" if d.reachable else d.failure_witness[1]


@pytest.fixture(scope="module")
def corpus():
    """(graph, is a cograph, random draws, maximal draws) per graph.

    A random draw is (A, B, C, k) with |A|, |B| >= k; a maximal draw is
    (A, B, min(|A|, |B|)).
    """
    rng = random.Random(2310)
    out = []
    for i in range(GRAPHS):
        g, cograph = _graph(i, rng)
        draws = []
        for _ in range(RANDOM_DRAWS):
            a, b, c = (_subset(rng, greedy_independent_set(g, rng)) for _ in range(3))
            draws.append((a, b, c, rng.randint(0, min(len(a), len(b)))))
        maximal = []
        for _ in range(MAXIMAL_DRAWS):
            a, b = greedy_independent_set(g, rng), greedy_independent_set(g, rng)
            maximal.append((a, b, min(len(a), len(b))))
        out.append((g, cograph, draws, maximal))
    return out


def _triples(case):
    _, _, draws, maximal = case
    return [(a, b, k) for a, b, _, k in draws] + maximal


def test_verdict_is_symmetric_in_a_and_b(corpus):
    for case in corpus:
        g = case[0]
        for a, b, k in _triples(case):
            assert decide(g, a, b, k).reachable == decide(g, b, a, k).reachable, \
                (g.n, sorted(a), sorted(b), k)


def test_verdict_survives_a_relabelling(corpus):
    rng = random.Random(7)
    for case in corpus:
        g = case[0]
        triples = _triples(case)
        verdicts = [decide(g, a, b, k) for a, b, k in triples]
        perm = rng.sample(range(g.n), g.n)
        h = _relabel(g, perm)
        for (a, b, k), d in zip(triples, verdicts):
            moved = decide(h, [perm[v] for v in a], [perm[v] for v in b], k)
            assert moved.reachable == d.reachable, (g.n, sorted(a), sorted(b), k)


def test_reachable_at_k_is_reachable_below_k(corpus):
    lowered = 0
    for case in corpus:
        g = case[0]
        for a, b, k in _triples(case):
            if k and decide(g, a, b, k).reachable:
                lowered += 1
                assert decide(g, a, b, k - 1).reachable, (g.n, sorted(a), sorted(b), k)
    assert lowered


def test_reachability_is_transitive(corpus):
    chained = 0
    for g, _, draws, _ in corpus:
        for a, b, c, k in draws:
            if decide(g, a, c, k).reachable and decide(g, c, b, k).reachable:
                chained += 1
                assert decide(g, a, b, k).reachable, \
                    (g.n, sorted(a), sorted(b), sorted(c), k)
    assert chained


def test_a_witness_exists_exactly_when_decide_says_yes_on_cographs(corpus):
    for case in corpus:
        g, cograph = case[:2]
        if not cograph:
            continue
        for a, b, k in _triples(case):
            reachable = decide(g, a, b, k).reachable
            try:
                seq = build_witness(g, a, b, k)  # validated, bound checked
            except UnreachableError:
                assert not reachable, (g.n, sorted(a), sorted(b), k)
            else:
                assert reachable and seq.length <= 4 * g.n - len(a) - len(b)


def test_verdict_reasons_include_pinned_leaves(corpus, capsys):
    reasons = {"random": Counter(), "maximal": Counter()}
    for g, _, draws, maximal in corpus:
        for a, b, _, k in draws:
            reasons["random"][_reason(decide(g, a, b, k))] += 1
        for a, b, k in maximal:
            reasons["maximal"][_reason(decide(g, a, b, k))] += 1
    with capsys.disabled():
        for kind, counts in reasons.items():
            print(f"\nmetamorphic {kind} draws: {dict(sorted(counts.items()))}", end="")
    assert reasons["maximal"][LEAF_UNREACHABLE]
    assert reasons["random"]["reachable"] and reasons["maximal"][FREEDOM_MISMATCH]
