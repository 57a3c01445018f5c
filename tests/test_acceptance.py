"""Acceptance gate: eleven end-to-end criteria, one printed verdict each.

Run with plain pytest; every test prints a single `[PASS]`/`[FAIL]` line
(through the capture plugin) summarizing its criterion.
"""

from __future__ import annotations

import math
import random
import time

from isrecon import (Graph, build_witness, decide, gen_chordal, gen_cograph,
                     gen_composed, tj_decide, validate_tar_sequence)
from isrecon.chordal import leaf_alpha, leaf_ris_table
from isrecon.cotree import build_maximal_cotree
from isrecon.engine import (LEAF_UNREACHABLE, RisTable, compute_freedom,
                            compute_ris_tables, ris_union, union_split)
from isrecon.graph import bits, mask_of
from isrecon.oracle import get_oracle, oracle_diameter, oracle_reach, oracle_ris_all
from isrecon.witness import build_su_sequence

from helpers import (cograph_corpus, connected_chordal, edgeless,
                     greedy_independent_set, maximal_pairs, sample_triples)

CORPUS_SIZE = 500
CORPUS_MAX_N = 12
TRIPLES_PER_GRAPH = 20


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def _corpus():
    return cograph_corpus(CORPUS_SIZE, CORPUS_MAX_N)


def test_criterion_1_union_table_regression(capsys):
    """Exact per-threshold maxima and stable tuples for a known input."""
    v = RisTable(base=3, values=[6, 5, 5, 4])
    w = RisTable(base=3, values=[4, 3, 3, 3])
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        u = ris_union(v, w)
        best = min(best, time.perf_counter() - start)
    ok = (u.values == [10, 10, 10, 10, 10, 9, 7]
          and union_split(v, w, 6) == (3, 2)
          and union_split(v, w, 5) == (1, 0)
          and union_split(v, w, 4) == (0, 0)
          and best < 0.001)
    _report(capsys, "criterion 1: union-table regression", ok,
            f"{best * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence_cographs(capsys):
    start = time.perf_counter()
    cases = 0
    for seed, g, t in _corpus():
        o = get_oracle(g)
        order = list(t.preorder())
        vmasks = [t.nodes[u].vmask for u in order]
        node_graphs = {u: g.induced(t.nodes[u].vmask) for u in order}
        checked_ris: set[int] = set()
        for a, b, k in sample_triples(g, TRIPLES_PER_GRAPH, seed * 31 + 7):
            cases += 1
            amask, bmask = mask_of(a), mask_of(b)
            fast = decide(g, a, b, k).reachable
            family = o.reachable(amask, k) if len(a) >= k else None
            slow = family is not None and bmask in family and len(b) >= k
            assert fast == slow, (seed, sorted(a), sorted(b), k)
            if len(a) < k or len(b) < k:
                continue
            tabs = compute_ris_tables(t, amask)
            vals = compute_freedom(t, k, tabs)
            for u, vm in zip(order, vmasks):
                want = min((j & vm).bit_count() for j in family)
                assert vals.freedom[u] == want, (seed, sorted(a), k, u)
            for mask in (amask, bmask):
                if mask in checked_ris:
                    continue
                checked_ris.add(mask)
                tabs_i = compute_ris_tables(t, mask)
                for u, vm in zip(order, vmasks):
                    gu = node_graphs[u]
                    local = [i for i, ov in enumerate(sorted(bits(vm)))
                             if mask & (1 << ov)]
                    assert tabs_i[u].values == oracle_ris_all(gu, local), \
                        (seed, bin(mask), u)
    elapsed = time.perf_counter() - start
    _report(capsys, "criterion 2: cograph oracle equivalence", True,
            f"{cases} cases, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence_chordal(capsys):
    rng = random.Random(1234)
    cases = 0
    for seed in range(200):
        n = rng.randint(1, 10)
        g = gen_chordal(n, rng.choice([0.2, 0.5, 0.8]), seed)
        o = get_oracle(g)
        for a, b, k in sample_triples(g, 5, seed + 9000):
            cases += 1
            assert decide(g, a, b, k).reachable == oracle_reach(g, a, b, k)[0]
        for a, _, _ in sample_triples(g, 3, seed + 5000):
            assert leaf_ris_table(g, mask_of(a), leaf_alpha(g)) == oracle_ris_all(g, a)
    for seed in range(100):
        parts, total = [], 0
        while total < 8:
            p = rng.randint(1, 4)
            parts.append(p)
            total += p
        g = gen_composed(parts, 0.5, seed)
        assert g.n <= 12
        for a, b, k in sample_triples(g, 5, seed + 7000):
            cases += 1
            assert decide(g, a, b, k).reachable == oracle_reach(g, a, b, k)[0]
    _report(capsys, "criterion 3: chordal/composed oracle equivalence", True,
            f"{cases} cases")


def test_criterion_4_witness_soundness_and_length(capsys):
    built = 0
    for seed, g, t in _corpus():
        for a, b, k in sample_triples(g, TRIPLES_PER_GRAPH, seed * 31 + 7):
            if not decide(g, a, b, k).reachable:
                continue
            seq = build_witness(g, a, b, k)
            validate_tar_sequence(g, seq)
            assert seq.sets[0] == a and seq.sets[-1] == b
            assert seq.length <= 4 * g.n - len(a) - len(b), (seed, a, b, k)
            built += 1
    _report(capsys, "criterion 4: witness soundness + length bound", True,
            f"{built} witnesses")


def test_criterion_5_diameter_corollaries(capsys):
    checked = 0
    for seed, g, t in _corpus():
        alpha = max(s.bit_count() for s in get_oracle(g).sets)
        for k in range(alpha + 1):
            assert oracle_diameter(g, k, "tar") <= 4 * g.n - 2 * k, (seed, k)
            checked += 1
        for k in range(1, alpha + 1):
            assert oracle_diameter(g, k, "tj") <= 2 * g.n - k, (seed, k)
            checked += 1
    _report(capsys, "criterion 5: diameter bounds", True,
            f"{checked} (graph, k, model) checks")


def test_criterion_6_tj_tar_bridge(capsys):
    rng = random.Random(42)
    cases = 0
    for seed, g, t in _corpus():
        if g.n > 10:
            continue
        sets = get_oracle(g).sets
        by_size: dict[int, list[int]] = {}
        for s in sets:
            by_size.setdefault(s.bit_count(), []).append(s)
        for _ in range(10):
            size = rng.choice(sorted(by_size))
            if size == 0:
                continue
            pool = by_size[size]
            amask = pool[rng.randrange(len(pool))]
            bmask = pool[rng.randrange(len(pool))]
            a = frozenset(bits(amask))
            b = frozenset(bits(bmask))
            tj_ok, tj_dist = oracle_reach(g, a, b, size, "tj")
            assert tj_decide(g, a, b) == tj_ok, (seed, a, b)
            tar_ok, tar_dist = oracle_reach(g, a, b, size - 1, "tar")
            assert tj_ok == tar_ok
            if tj_ok:
                assert tar_dist == 2 * tj_dist, (seed, a, b, tar_dist, tj_dist)
            cases += 1
    _report(capsys, "criterion 6: TJ/TAR correspondence", True, f"{cases} cases")


def test_criterion_7_scaling(capsys):
    sizes = [1000, 2000, 4000, 8000]
    times = []
    rng = random.Random(99)
    for n in sizes:
        g, _ = gen_cograph(n, 1000 + n)
        a = greedy_independent_set(g, rng)
        b = greedy_independent_set(g, rng)
        k = min(len(a), len(b)) // 2
        start = time.perf_counter()
        decide(g, a, b, k)
        times.append(time.perf_counter() - start)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(dt, 1e-9)) for dt in times]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
        / sum((x - xbar) ** 2 for x in xs)
    ok = slope <= 2.3 and times[-1] <= 10.0
    _report(capsys, "criterion 7: scaling", ok,
            f"exponent {slope:.2f}, t(8000)={times[-1]:.2f}s")


def test_criterion_8_su_sequence_structure(capsys):
    checked = 0
    for seed, g, t in _corpus():
        seen: set[int] = set()
        first = True
        for a, _, _ in sample_triples(g, TRIPLES_PER_GRAPH, seed * 31 + 7):
            amask = mask_of(a)
            if amask in seen:
                continue
            seen.add(amask)
            nodes = list(t.preorder()) if first else [t.root]
            first = False
            for u in nodes:
                a_u = frozenset(bits(amask & t.nodes[u].vmask))
                su = build_su_sequence(t, u, amask & t.nodes[u].vmask)
                csets = su.sets
                assert csets[0] == a_u                                # property 1
                for i in range(len(csets) - 1):
                    assert len(csets[i + 1]) > len(csets[i])          # property 2
                for j in range(len(csets) - 1):
                    fresh = csets[j + 1] - csets[j]
                    for i in range(j + 1):
                        assert not (fresh & csets[i])                 # property 3
                gu = g.induced(t.nodes[u].vmask)
                alpha = max(s.bit_count() for s in get_oracle(gu).sets)
                assert len(csets[-1]) == alpha
                moves = sum(len(r) + len(ad) for r, ad in su.steps)
                union_size = len(frozenset().union(*csets))
                assert moves == 2 * union_size - len(csets[0]) - len(csets[-1])
                checked += 1
    _report(capsys, "criterion 8: SU-sequence structure", True,
            f"{checked} sequences")


def test_criterion_9_oracle_equivalence_prime_leaves(capsys):
    """Compositions of two chordal parts of 5-8 vertices, so that prime
    leaves larger than P4 occur, which criterion 3's parts cannot give."""
    rng = random.Random(4321)
    cases = big_leaves = pinned_leaves = 0
    for seed in range(208):
        first = rng.randint(5, 8)
        g = gen_composed([first, rng.randint(5, 14 - first)],
                         rng.choice([0.2, 0.5, 0.8]), seed)
        assert g.n <= 14
        t = build_maximal_cotree(g)
        big_leaves += sum(t.nodes[u].is_leaf and t.nodes[u].vmask.bit_count() >= 5
                          for u in t.preorder())
        # equal-size maximal sets at k = their size are where leaves get pinned
        for a, b, k in (sample_triples(g, 10, seed + 11000)
                        + maximal_pairs(g, 10, seed + 12000)):
            cases += 1
            verdict = decide(g, a, b, k)
            assert verdict.reachable == oracle_reach(g, a, b, k)[0], \
                (seed, sorted(a), sorted(b), k)
            pinned_leaves += verdict.failure_witness is not None \
                and verdict.failure_witness[1] == LEAF_UNREACHABLE
    ok = cases >= 1000 and big_leaves >= 100 and pinned_leaves >= 100
    _report(capsys, "criterion 9: composed oracle equivalence, prime leaves", ok,
            f"{cases} cases, {big_leaves} prime leaves of 5+ vertices, "
            f"{pinned_leaves} leaf-unreachable cases")


def test_criterion_10_prime_leaf_scaling(capsys):
    """decide on one connected chordal graph, which is a single prime leaf."""
    sizes = [500, 1000, 2000, 4000]
    times = []
    rng = random.Random(77)
    for n in sizes:
        g = connected_chordal(n, 0.5, 2000 + n)
        t = build_maximal_cotree(g)
        assert t.nodes[t.root].is_leaf, n
        a = greedy_independent_set(g, rng)
        b = greedy_independent_set(g, rng)
        k = min(len(a), len(b)) // 2
        start = time.perf_counter()
        decide(g, a, b, k)
        times.append(time.perf_counter() - start)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(dt, 1e-9)) for dt in times]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
        / sum((x - xbar) ** 2 for x in xs)
    ok = times[-1] <= 1.0
    _report(capsys, "criterion 10: prime-leaf scaling", ok,
            f"exponent {slope:.2f}, t(4000)={times[-1]:.2f}s")


def test_criterion_11_union_chain_scaling(capsys):
    """decide on edgeless graphs and perfect matchings, whose cotrees are
    n-way and n/2-way unions, which cost quadratic time if folded left-deep."""
    sizes = [1000, 2000, 4000]
    families = {
        "edgeless": edgeless,
        "matching": lambda n: Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)]),
    }
    rng = random.Random(11)
    ok, details = True, []
    for name, make in families.items():
        times = []
        for n in sizes:
            g = make(n)
            a = greedy_independent_set(g, rng) - frozenset(rng.sample(range(n), n // 4))
            b = greedy_independent_set(g, rng) - frozenset(rng.sample(range(n), n // 4))
            k = min(len(a), len(b)) // 2
            start = time.perf_counter()
            decide(g, a, b, k)
            times.append(time.perf_counter() - start)
        xs = [math.log(n) for n in sizes]
        ys = [math.log(max(dt, 1e-9)) for dt in times]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
            / sum((x - xbar) ** 2 for x in xs)
        ok = ok and times[-1] <= 1.0
        details.append(f"{name}: exponent {slope:.2f}, t(4000)={times[-1]:.2f}s")
    _report(capsys, "criterion 11: union-chain scaling", ok, "; ".join(details))
