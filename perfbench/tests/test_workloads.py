"""The generators are deterministic and every known answer matches the oracle."""

import random

import pytest
from isrecon import Graph
from isrecon.oracle import oracle_reach

import workloads as wl


def _snapshot(workload):
    return [(inst.family, inst.adj, inst.queries) for inst in workload.instances]


@pytest.mark.parametrize("name", sorted(wl.BUILDERS))
def test_generators_are_deterministic_for_a_seed(name):
    assert _snapshot(wl.build(name, 7)) == _snapshot(wl.build(name, 7))
    assert _snapshot(wl.build(name, 7)) != _snapshot(wl.build(name, 8))


@pytest.mark.parametrize("name", sorted(wl.BUILDERS))
def test_graphs_are_simple_and_queries_well_formed(name):
    for inst in wl.build(name, 1).instances:
        adj = inst.adj
        for v, row in enumerate(adj):
            assert not row >> v & 1
            assert all(adj[w] >> v & 1 for w in wl.bits(row))
        for q in inst.queries:
            for s in (q.a, q.b):
                assert all(0 <= v < inst.n and not adj[v] & wl.mask_of(s) for v in s)
            assert 1 <= q.k <= min(len(q.a), len(q.b))


def _small_cases(seed):
    rng = random.Random(seed)
    adj, mis = wl.dense_cograph(rng.randint(3, 12), rng)
    yield adj, wl.common_set_query(mis, rng)
    yield adj, wl.isolated_query(adj, mis, rng)
    joins = [rng.random() < 0.5 for _ in range(rng.randint(1, 2))]
    adj, mis = wl.chordal_composition(joins, 4, 0.5, rng)
    yield adj, wl.common_set_query(mis, rng)
    yield adj, wl.isolated_query(adj, mis, rng)
    adj, mis = wl.small_components(rng.randint(4, 12), rng)
    yield adj, wl.common_set_query(mis, rng)
    yield adj, wl.isolated_query(adj, mis, rng)
    n = rng.randint(2, 10)
    yield [0] * n, wl.common_set_query(wl.mask_of(range(n)), rng)
    adj, pairs = wl.perfect_matching(2 * rng.randint(1, 6), rng)
    for k in (rng.randint(1, len(pairs)), len(pairs) - 1, len(pairs)):
        if k >= 1:
            yield adj, wl.transversal_query(pairs, k, rng)


@pytest.mark.parametrize("seed", range(40))
def test_known_answers_agree_with_the_oracle(seed):
    for adj, q in _small_cases(seed):
        reachable, _ = oracle_reach(Graph(len(adj), adj), q.a, q.b, q.k)
        assert reachable == q.reachable, (q.construction, adj, q)


def test_generated_maximum_sets_are_maximum():
    rng = random.Random(0)
    for _ in range(30):
        for adj, mis in (wl.dense_cograph(rng.randint(1, 12), rng),
                         wl.chordal_composition([True, False], 4, 0.5, rng)):
            best = max(bin(m).count("1") for m in _independent_sets(adj))
            assert mis.bit_count() == best
            assert not any(adj[v] & mis for v in wl.bits(mis))


def _independent_sets(adj):
    sets = [0]
    for v, row in enumerate(adj):
        sets += [s | 1 << v for s in sets if not row & s]
    return sets
