"""The benchmark's own witness validator rejects every kind of tampering."""

import json
import random

from isrecon import Graph, build_witness

import checks
import workloads as wl

# Edgeless on 0..3 plus the edge 0-4.
ADJ = [1 << 4, 0, 0, 0, 1 << 0]
A, B, K = {0, 1}, {2, 3}, 2
VALID = [[0, 1], [0, 1, 2], [0, 1, 2, 3], [1, 2, 3], [2, 3]]


def test_accepts_a_valid_sequence():
    assert checks.witness_error(ADJ, VALID, A, B, K) is None


def test_accepts_the_program_witness():
    adj, mis = wl.dense_cograph(12, random.Random(1))
    q = wl.common_set_query(mis, random.Random(2))
    seq = build_witness(Graph(len(adj), adj), q.a, q.b, q.k)
    sets = [sorted(s) for s in seq.sets]
    assert checks.witness_error(adj, sets, q.a, q.b, q.k) is None


def test_rejects_a_dropped_step():
    error = checks.witness_error(ADJ, VALID[:1] + VALID[2:], A, B, K)
    assert "one token" in error


def test_rejects_a_set_that_is_not_independent():
    tampered = [VALID[0], [0, 1, 4], VALID[2], *VALID[3:]]
    assert "not independent" in checks.witness_error(ADJ, tampered, A, B, K)


def test_rejects_a_set_below_k():
    tampered = [VALID[0], [1], *VALID[1:]]
    assert "below k" in checks.witness_error(ADJ, tampered, A, B, K)


def test_rejects_a_wrong_endpoint():
    assert "endpoints" in checks.witness_error(ADJ, VALID[:-1], A, B, K)
    assert "endpoints" in checks.witness_error(ADJ, VALID[1:], A, B, K)


def test_rejects_a_sequence_over_the_length_bound():
    long_way = [VALID[0]] + [[0, 1, 2], [0, 1]] * 8 + VALID[1:]
    assert "length" in checks.witness_error(ADJ, long_way, A, B, K)


def test_cli_output_checks_exit_code_and_json():
    q = wl.Query(frozenset(A), frozenset(B), K, True, "common-set")
    good = json.dumps({"reachable": True, "length": 4, "sets": VALID})
    assert checks.cli_error(ADJ, q, 0, good) is None
    assert "exit code" in checks.cli_error(ADJ, q, 1, "UNREACHABLE\n")
    assert "JSON" in checks.cli_error(ADJ, q, 0, "Traceback")
    unreachable = wl.Query(frozenset(A), frozenset(B), K, False, "isolated")
    assert checks.cli_error(ADJ, unreachable, 1, "UNREACHABLE\n") is None


def test_oracle_slices_are_small_and_seeded():
    for name in wl.BUILDERS:
        first = checks.slice_instances(name, 3)
        assert all(inst.n <= 14 for inst in first)
        assert [(i.adj, i.queries) for i in first] == \
            [(i.adj, i.queries) for i in checks.slice_instances(name, 3)]
