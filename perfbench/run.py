"""Benchmark of isrecon: one workload per run, measured from outside the package.

    python3 perfbench/run.py --workload cograph-dense --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One client sends each query after the previous one returns, in whole
rounds over the workload's queries, until ``--seconds`` have passed.  Every
output is then checked.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads as wl
from tracing import Trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
CLI_TIMEOUT_S = 120

IMPORT_TIMER = ("import time; t = time.perf_counter(); import isrecon; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name.endswith("_bytes") else "count"


class Failed:
    """An operation that raised; counted in ``failed``, never checked."""

    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"


def closed_loop(ops: list, call, seconds: float, between=None):
    """Whole rounds of ``ops``, one at a time, until ``seconds`` have passed.

    ``between`` runs before each operation, outside its latency.
    """
    latencies, results = [], []
    start = time.perf_counter()
    while True:
        for op in ops:
            if between is not None:
                between()
            t0 = time.perf_counter()
            try:
                r = call(op)
            except Exception as e:      # a failed operation, reported in `failed`
                r = Failed(e)
            latencies.append(time.perf_counter() - t0)
            results.append(r)
        if time.perf_counter() - start >= seconds:
            return latencies, results, time.perf_counter() - start


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


# --- library workloads --------------------------------------------------------

class Library:
    """Queries to ``isrecon.decide`` in this process."""

    def __init__(self, workload: wl.Workload):
        self.instances = workload.instances

    def setup(self):
        """Median import time in fresh processes plus median Graph building.

        The first import also writes the bytecode cache, so it is not counted.
        """
        imports = []
        for _ in range(SETUP_REPEATS + 1):
            proc = python("-c", IMPORT_TIMER)
            proc.check_returncode()
            imports.append(float(proc.stdout))
        import isrecon
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            graphs = [isrecon.Graph(inst.n, inst.adj) for inst in self.instances]
            builds.append(time.perf_counter() - t0)
        self.ops = [(g, inst, q) for g, inst in zip(graphs, self.instances)
                    for q in inst.queries]
        self.isrecon = isrecon
        self.construct_s = statistics.median(builds)
        return statistics.median(imports[1:]) + self.construct_s

    def slice_ops(self, instances: list) -> list:
        return [(self.isrecon.Graph(inst.n, inst.adj), inst, q)
                for inst in instances for q in inst.queries]

    def call(self, op):
        g, _, q = op
        return self.isrecon.decide(g, q.a, q.b, q.k).reachable   # the traced one when traced

    in_process = call

    @staticmethod
    def output_bytes(result) -> int:
        return 0

    def judge(self, op, reachable):
        q = op[2]
        if reachable != q.reachable:
            return f"decide says {reachable}, {q.construction} says {q.reachable}"
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# --- command-line workload ----------------------------------------------------

class CommandLine:
    """`isrecon witness FILE A B -k K --format json`, one process per query."""

    def __init__(self, workload: wl.Workload):
        self.dir = OUT / f"inputs-{workload.name}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops = self.write_ops(workload.instances, "graph")

    def write_ops(self, instances: list, stem: str) -> list:
        """Write each graph file; one (instance, query, argv) per query."""
        ops = []
        for i, inst in enumerate(instances):
            path = self.dir / f"{stem}{i}.txt"
            path.write_text(wl.edge_lines(inst.adj))
            for q in inst.queries:
                ops.append((inst, q, ["witness", str(path.relative_to(ROOT)),
                                      ",".join(map(str, sorted(q.a))),
                                      ",".join(map(str, sorted(q.b))),
                                      "-k", str(q.k), "--format", "json"]))
        return ops

    def setup(self):
        """Median wall time of a fresh process that imports isrecon.cli."""
        times = []
        for _ in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            python("-c", "import isrecon.cli").check_returncode()
            times.append(time.perf_counter() - t0)
        import isrecon.cli
        self.main = isrecon.cli.main
        self.construct_s = 0.0
        return statistics.median(times[1:])

    def slice_ops(self, instances: list) -> list:
        return self.write_ops(instances, "slice")

    def call(self, op):
        proc = python("-m", "isrecon.cli", *op[2])
        return proc.returncode, proc.stdout

    def in_process(self, op):
        """The same command through isrecon.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.main(op[2])
        return code, out.getvalue()

    @staticmethod
    def output_bytes(result) -> int:
        return len(result[1].encode())

    def judge(self, op, result):
        inst, q, _ = op
        return checks.cli_error(inst.adj, q, *result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# --- one run ------------------------------------------------------------------

def tail_rank(count: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among ``count`` samples."""
    return max(1, -(-count * p // 100))


def timed(workload: wl.Workload, runner, seconds: float) -> tuple[dict, list, dict]:
    """The end-to-end metrics of an untraced run, and each query's result."""
    setup_s = runner.setup()
    gc.collect()            # leave no set-up garbage for the first query's collector
    latencies, results, wall = closed_loop(runner.ops, runner.call, seconds)
    peak = runner.peak_rss_mb()
    done = sum(not isinstance(r, Failed) for r in results)
    tail = workload.tail_percentile
    rank = tail_rank(len(latencies), tail)
    print(f"{workload.name}: {len(latencies)} queries in {wall:.2f} s; "
          f"p{tail} has {len(latencies) - rank} samples beyond it", file=sys.stderr)
    return {
        "setup_s": setup_s,
        "queries_per_s": done / wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": sorted(latencies)[rank - 1] * 1e3,
        "peak_rss_mb": peak,
    }, results, {"latencies_s": latencies}


def traced(runner, seconds: float) -> tuple[dict, list, dict]:
    """Per-layer metrics, per query, from the same queries with spans on.

    Untraced and traced rounds alternate, so that the overhead of the trace
    is read under the same conditions of the host.  The collector runs
    between queries, so that each starts from the same heap.
    """
    runner.setup()
    trace = Trace()

    def call(op):
        with trace.query():
            result = runner.in_process(op)
        trace.add("cli.output_bytes", runner.output_bytes(result))
        return result

    plain, latencies, results = [], [], []
    start = time.perf_counter()
    while not (latencies and time.perf_counter() - start >= seconds):
        lat, res, _ = closed_loop(runner.ops, runner.in_process, 0, between=gc.collect)
        plain += lat
        results += res
        with trace.installed():
            lat, res, _ = closed_loop(runner.ops, call, 0, between=gc.collect)
        latencies += lat
        results += res
    print(f"trace overhead: p50 {statistics.median(plain) * 1e3:.3f} ms untraced, "
          f"{statistics.median(latencies) * 1e3:.3f} ms traced", file=sys.stderr)
    metrics = trace.metrics()
    metrics["graph.construct_ms"] = runner.construct_s * 1e3
    return metrics, results, {"spans": trace.spans()}


def run(args) -> dict:
    workload = wl.build(args.workload, args.seed)
    runner = (CommandLine if args.workload == "cli-witness" else Library)(workload)
    try:
        if args.trace:
            metrics, results, detail = traced(runner, args.seconds)
            units = {m: layer_unit(m) for m in metrics}
        else:
            metrics, results, detail = timed(workload, runner, args.seconds)
            units = END_TO_END_UNITS
        failures, wrong = [], []
        for i, r in enumerate(results):
            if isinstance(r, Failed):
                failures.append(f"query {i} failed: {r.error}")
            elif error := runner.judge(runner.ops[i % len(runner.ops)], r):
                wrong.append(f"query {i}: {error}")
        for i, op in enumerate(runner.slice_ops(
                checks.slice_instances(args.workload, args.seed))):
            try:
                error = runner.judge(op, runner.in_process(op))
            except Exception as e:      # a wrong answer too: the oracle answered
                error = f"raised {type(e).__name__}: {e}"
            if error:
                wrong.append(f"oracle slice query {i}: {error}")
    finally:
        runner.close()
    for line in (failures + wrong)[:10]:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, **detail}))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "isrecon" / "__init__.py").is_file():
        print(f"error: {SRC / 'isrecon'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
