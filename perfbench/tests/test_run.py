"""The command's output contract, and the trace's wrapping and counts."""

import json
import random
import shutil
import subprocess
import sys

import isrecon
import isrecon.engine
from isrecon import Graph

import tracing
import workloads as wl
from conftest import BENCH

COMMAND = [sys.executable, str(BENCH / "run.py"), "--workload", "union-chains",
           "--seed", "1", "--seconds", "0"]


def _result(trace: int) -> dict:
    proc = subprocess.run(COMMAND + ["--trace", str(trace)], capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _result(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 24
    assert set(result["metrics"]) == {"setup_s", "queries_per_s", "latency_p50_ms",
                                      "latency_tail_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    metrics = _result(1)["metrics"]
    assert {f"{layer}_ms" for layer in tracing.LAYERS} <= set(metrics)
    assert set(tracing.COUNTS) <= set(metrics)
    assert metrics["engine.decides"]["value"] == 1
    assert metrics["engine.table_passes"]["value"] == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", *COMMAND[2:]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def _traced_counts(adj, q):
    trace = tracing.Trace()
    with trace.installed():
        with trace.query():
            isrecon.decide(Graph(len(adj), adj), q.a, q.b, q.k)
    return trace


def test_trace_counts_repeat_and_wrappers_come_off():
    rng = random.Random(4)
    adj, mis = wl.chordal_composition([True, False], 30, 0.5, rng)
    q = wl.common_set_query(mis, rng)
    original = isrecon.engine.decide
    first, second = _traced_counts(adj, q), _traced_counts(adj, q)
    assert first.counts == second.counts
    assert first.counts["engine.decides"] == 1
    assert first.counts["chordal.prime_leaves"] == 3
    assert isrecon.decide is original and isrecon.engine.decide is original
    own = first.self_ns()
    assert all(t >= 0 for t in own.values())
    total = sum(own.values())
    query = [i for i, layer in enumerate(first.span_layer)
             if tracing.SPAN_NAMES[layer] == tracing.QUERY][0]
    assert total == first.span_end[query] - first.span_start[query]
