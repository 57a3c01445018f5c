"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Run with plain pytest; every test prints a single `[PASS]`/`[FAIL]` line
(through the capture plugin) summarizing its criterion.
"""

from __future__ import annotations

import math
import random
import time

from isrecon import (build_maximal_cotree, build_witness, compute_freedom,
                     compute_ris_tables, decide, gen_chordal, gen_cograph,
                     gen_composed, leaf_ris_table, tj_decide,
                     validate_tar_sequence)
from isrecon.engine import RisTable, ris_union
from isrecon.graph import bits, mask_of
from isrecon.oracle import get_oracle, oracle_diameter, oracle_reach, oracle_ris_all
from isrecon.witness import build_su_sequence

from helpers import cograph_corpus, greedy_independent_set, sample_triples

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
    v = RisTable(node=0, base=3, values=[6, 5, 5, 4])
    w = RisTable(node=1, base=3, values=[4, 3, 3, 3])
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        u = ris_union(v, w)
        best = min(best, time.perf_counter() - start)
    ok = (u.values == [10, 10, 10, 10, 10, 9, 7]
          and u.tuples[6] == (3, 2)
          and u.tuples[5] == (1, 0)
          and u.tuples[4] == (0, 0)
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
        node_graphs = {u: g.induced(bits(t.nodes[u].vmask)) for u in order}
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
            tabs = compute_ris_tables(t, a)
            vals = compute_freedom(t, a, k, tabs)
            for u, vm in zip(order, vmasks):
                want = min((j & vm).bit_count() for j in family)
                assert vals.freedom[u] == want, (seed, sorted(a), k, u)
            for mask in (amask, bmask):
                if mask in checked_ris:
                    continue
                checked_ris.add(mask)
                tabs_i = compute_ris_tables(t, bits(mask))
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
            assert leaf_ris_table(g, a) == oracle_ris_all(g, a)
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
                su = build_su_sequence(t, u, a & t.vertices(u))
                csets = su.sets
                assert csets[0] == a & t.vertices(u)                  # property 1
                for i in range(len(csets) - 1):
                    assert len(csets[i + 1]) > len(csets[i])          # property 2
                for j in range(len(csets) - 1):
                    fresh = csets[j + 1] - csets[j]
                    for i in range(j + 1):
                        assert not (fresh & csets[i])                 # property 3
                gu = g.induced(bits(t.nodes[u].vmask))
                alpha = max(s.bit_count() for s in get_oracle(gu).sets)
                assert len(csets[-1]) == alpha
                moves = sum(len(r) + len(ad) for r, ad in su.steps)
                union_size = len(frozenset().union(*csets))
                assert moves == 2 * union_size - len(csets[0]) - len(csets[-1])
                checked += 1
    _report(capsys, "criterion 8: SU-sequence structure", True,
            f"{checked} sequences")
